//! Phase 1: MAF analysis (Algorithm 1 lines 10–26).
//!
//! The leader sums each member's allele-count vector with the reference
//! counts, divides by the total population to obtain the global allele
//! frequency of every SNP, and removes SNPs below the MAF cutoff.

use crate::messages::CountsReport;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::maf::passes_maf;
use gendpr_stats::ranking::{rank_one, SnpRank};
use std::cell::OnceCell;

/// Everything Phase 1 leaves behind — later phases reuse the aggregated
/// counts (the paper notes the frequency vectors "are already available
/// inside the leader enclave since the MAF phase").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MafOutcome {
    /// `L'` — SNPs surviving the MAF cutoff, in panel order.
    pub retained: Vec<SnpId>,
    /// Pooled case minor-allele counts per SNP of `L_des`.
    pub case_counts: Vec<u64>,
    /// Reference minor-allele counts per SNP of `L_des`.
    pub ref_counts: Vec<u64>,
    /// Total case individuals across the federation (`Σ N^case_g`).
    pub n_case: u64,
    /// Reference individuals.
    pub n_ref: u64,
}

impl MafOutcome {
    /// Global case allele frequency of `snp`.
    #[must_use]
    pub fn case_frequency(&self, snp: SnpId) -> f64 {
        if self.n_case == 0 {
            return 0.0;
        }
        self.case_counts[snp.index()] as f64 / self.n_case as f64
    }

    /// Reference allele frequency of `snp`.
    #[must_use]
    pub fn ref_frequency(&self, snp: SnpId) -> f64 {
        if self.n_ref == 0 {
            return 0.0;
        }
        self.ref_counts[snp.index()] as f64 / self.n_ref as f64
    }
}

/// One subset's Phase 1: its MAF outcome and its SNPs' χ² association
/// ranks, each computed from the outcome's pooled counts when first read.
/// Most are never read: the LD scan ranks only the two SNPs of a dependent
/// pair, and the LR search only its candidates.
#[derive(Debug)]
pub(crate) struct Phase1 {
    pub(crate) maf: MafOutcome,
    p_values: Vec<OnceCell<f64>>,
}

impl Phase1 {
    pub(crate) fn new(maf: MafOutcome) -> Self {
        let p_values = vec![OnceCell::new(); maf.ref_counts.len()];
        Self { maf, p_values }
    }

    /// `snp`'s rank: the p-value
    /// [`rank_by_association`](gendpr_stats::ranking::rank_by_association)
    /// gives it.
    pub(crate) fn rank(&self, snp: SnpId) -> SnpRank {
        let (maf, i) = (&self.maf, snp.index());
        let p_value = *self.p_values[i].get_or_init(|| {
            rank_one(
                snp,
                maf.case_counts[i],
                maf.n_case,
                maf.ref_counts[i],
                maf.n_ref,
            )
            .p_value
        });
        SnpRank { snp, p_value }
    }
}

/// Runs the MAF analysis.
///
/// `reports` are the members' count vectors (each over the full `L_des`),
/// `ref_counts`/`n_ref` the leader-computed reference statistics.
///
/// # Panics
///
/// Panics if any report's vector length differs from `ref_counts`
/// (equivocating member — the enclave would reject such a report).
#[must_use]
pub fn run_maf(
    reports: &[CountsReport],
    ref_counts: Vec<u64>,
    n_ref: u64,
    maf_cutoff: f64,
) -> MafOutcome {
    let l_des = ref_counts.len();
    let mut case_counts = vec![0u64; l_des];
    let mut n_case = 0u64;
    for report in reports {
        assert_eq!(
            report.counts.len(),
            l_des,
            "count vector does not cover L_des"
        );
        n_case += report.n_case;
        for (total, &c) in case_counts.iter_mut().zip(report.counts.iter()) {
            *total += c;
        }
    }

    let n_total = n_case + n_ref;
    let mut retained = Vec::new();
    for l in 0..l_des {
        let pooled = case_counts[l] + ref_counts[l];
        let freq = if n_total == 0 {
            0.0
        } else {
            pooled as f64 / n_total as f64
        };
        if passes_maf(freq, maf_cutoff) {
            retained.push(SnpId(l as u32));
        }
    }

    MafOutcome {
        retained,
        case_counts,
        ref_counts,
        n_case,
        n_ref,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_filters() {
        // 3 SNPs; two members with 50 cases each; 100 reference.
        let reports = vec![
            CountsReport {
                counts: vec![10, 1, 40],
                n_case: 50,
            },
            CountsReport {
                counts: vec![15, 0, 45],
                n_case: 50,
            },
        ];
        let outcome = run_maf(&reports, vec![20, 2, 80], 100, 0.05);
        // SNP0: (10+15+20)/200 = 0.225 -> keep.
        // SNP1: 3/200 = 0.015 -> drop.
        // SNP2: 165/200 = 0.825 -> MAF = 0.175 -> keep.
        assert_eq!(outcome.retained, vec![SnpId(0), SnpId(2)]);
        assert_eq!(outcome.case_counts, vec![25, 1, 85]);
        assert_eq!(outcome.n_case, 100);
        assert!((outcome.case_frequency(SnpId(0)) - 0.25).abs() < 1e-12);
        assert!((outcome.ref_frequency(SnpId(2)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_federation_keeps_nothing() {
        let outcome = run_maf(&[], vec![0, 0], 0, 0.05);
        assert!(outcome.retained.is_empty());
        assert_eq!(outcome.case_frequency(SnpId(0)), 0.0);
        assert_eq!(outcome.ref_frequency(SnpId(0)), 0.0);
    }

    #[test]
    fn single_member_equals_pooled() {
        // One member holding everything == two members holding halves.
        let one = run_maf(
            &[CountsReport {
                counts: vec![30, 4],
                n_case: 100,
            }],
            vec![10, 2],
            50,
            0.05,
        );
        let two = run_maf(
            &[
                CountsReport {
                    counts: vec![12, 1],
                    n_case: 40,
                },
                CountsReport {
                    counts: vec![18, 3],
                    n_case: 60,
                },
            ],
            vec![10, 2],
            50,
            0.05,
        );
        assert_eq!(one.retained, two.retained);
        assert_eq!(one.case_counts, two.case_counts);
    }

    #[test]
    #[should_panic(expected = "does not cover L_des")]
    fn mismatched_vector_rejected() {
        let _ = run_maf(
            &[CountsReport {
                counts: vec![1],
                n_case: 5,
            }],
            vec![0, 0],
            10,
            0.05,
        );
    }

    #[test]
    fn a_rank_read_later_is_the_rank_computed_up_front() {
        // SNP 1 is monomorphic across cases and reference, SNP 3 fails the
        // MAF filter: both are ranked on demand like the rest, bit for bit,
        // in any order and on every read.
        let reports = vec![CountsReport {
            counts: vec![10, 0, 40, 1, 25],
            n_case: 50,
        }];
        let ref_counts = vec![20, 0, 80, 0, 49];
        let outcome = run_maf(&reports, ref_counts.clone(), 100, 0.05);
        let all: Vec<SnpId> = (0..5).map(SnpId).collect();
        let up_front = gendpr_stats::ranking::rank_by_association(
            &all,
            &outcome.case_counts,
            outcome.n_case,
            &ref_counts,
            100,
        );
        let phase1 = Phase1::new(outcome);
        for _ in 0..2 {
            for (i, expected) in up_front.iter().enumerate().rev() {
                let got = phase1.rank(SnpId(i as u32));
                assert_eq!(got.snp, expected.snp);
                assert_eq!(got.p_value.to_bits(), expected.p_value.to_bits(), "SNP {i}");
            }
        }
    }
}
