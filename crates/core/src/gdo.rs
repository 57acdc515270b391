//! The genome data owner's local (untrusted-side + enclave-side)
//! computations.
//!
//! A [`GdoNode`] holds one member's case-genotype shard — the data that
//! never leaves the premises — and produces exactly the intermediate
//! results the protocol outsources: allele-count vectors, LD moments and
//! LR matrices. Every method consumes the shard read-only.

use crate::messages::{CountsReport, LrReport, LrReportCompact, MomentsReport};
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use std::ops::Range;

/// One federation member's data and local compute.
#[derive(Debug, Clone)]
pub struct GdoNode {
    id: usize,
    // The shard, SNP-major — the only layout any step reads: pair counts
    // are contiguous popcount(AND) sweeps, LR reports column gathers.
    columnar: ColumnarGenotypes,
    // Per-SNP minor counts, computed once at construction: the counts
    // vector is needed for the pre-processing report anyway, and reusing
    // it makes each LD moments query a single pass (only Σxy is fresh).
    counts: Vec<u64>,
}

impl GdoNode {
    /// Creates a node for member `id` holding `shard` (transposed once;
    /// the row-major matrix is not kept).
    #[must_use]
    pub fn new(id: usize, shard: GenotypeMatrix) -> Self {
        Self::from_rows(id, &shard, 0..shard.individuals())
    }

    /// Creates a node for member `id` holding the individuals `rows` of
    /// `case`, transposed straight out of it: no row-major shard is made.
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past `case`.
    #[must_use]
    pub(crate) fn from_rows(id: usize, case: &GenotypeMatrix, rows: Range<usize>) -> Self {
        let columnar = ColumnarGenotypes::from_rows(case, rows);
        let counts = columnar.column_counts();
        Self {
            id,
            columnar,
            counts,
        }
    }

    /// The member's index in the federation.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Case individuals in the member's shard.
    pub(crate) fn individuals(&self) -> usize {
        self.columnar.individuals()
    }

    /// The SNP-major view of the shard. The in-process protocol driver
    /// assembles columnar LR matrices straight from these bit vectors, so
    /// Phase 3 never materializes a dense per-cell matrix.
    #[must_use]
    pub fn columnar(&self) -> &ColumnarGenotypes {
        &self.columnar
    }

    /// Pre-processing: `caseLocalCounts[L_des]_g` plus `N^case_g`.
    #[must_use]
    pub fn counts_report(&self) -> CountsReport {
        CountsReport {
            counts: self.counts.clone(),
            n_case: self.individuals() as u64,
        }
    }

    /// Phase 2: local correlation moments for one pair. The marginal
    /// counts come from the cached pre-processing vector and the joint
    /// count is a columnar `popcount(AND)` sweep over ⌈n/64⌉ words — cheap
    /// enough that re-evaluations across collusion subsets recompute it.
    #[must_use]
    pub fn ld_moments(&self, a: SnpId, b: SnpId) -> MomentsReport {
        self.moments_with_joint(a, b, self.columnar.pair_count(a, b))
            .into()
    }

    /// [`Self::ld_moments`] for a pair whose joint count is `joint`.
    pub(crate) fn moments_with_joint(&self, a: SnpId, b: SnpId, joint: u64) -> LdMoments {
        LdMoments::from_counts(
            self.counts[a.index()],
            self.counts[b.index()],
            joint,
            self.individuals() as u64,
        )
    }

    /// Phase 3: the local LR matrix over `snps`, built with the *global*
    /// frequency vectors broadcast by the leader (using local frequencies
    /// here is exactly the naïve protocol's mistake). Each row-major value
    /// is one of its column's two levels, picked by the shard's bit.
    #[must_use]
    pub fn lr_report(&self, snps: &[SnpId], case_freqs: &[f64], ref_freqs: &[f64]) -> LrReport {
        let (major, minor) = gendpr_stats::lr::lr_levels(case_freqs, ref_freqs);
        let columns: Vec<&[u64]> = snps.iter().map(|&s| self.columnar.snp_words(s)).collect();
        let n = self.individuals();
        let mut values = Vec::with_capacity(n * snps.len());
        for i in 0..n {
            values.extend(columns.iter().enumerate().map(|(j, words)| {
                if words[i / 64] >> (i % 64) & 1 == 1 {
                    minor[j]
                } else {
                    major[j]
                }
            }));
        }
        LrReport {
            individuals: n as u64,
            snps: snps.len() as u64,
            values,
        }
    }

    /// Phase 3, compressed transport: the same local LR matrix as
    /// [`Self::lr_report`], encoded as one indicator bit per cell (the
    /// leader rebuilds the values from its own broadcast frequencies).
    /// The bit buffer is gathered word-at-a-time from the SNP-major view.
    #[must_use]
    pub fn lr_report_compact(&self, snps: &[SnpId]) -> LrReportCompact {
        LrReportCompact {
            individuals: self.individuals() as u64,
            snps: snps.len() as u64,
            bits: self.columnar.select_row_major(snps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_crypto::rng::ChaChaRng;
    use gendpr_stats::lr::{LrColumns, LrValues};

    fn node() -> GdoNode {
        let mut m = GenotypeMatrix::zeroed(3, 4);
        m.set(0, 0, true);
        m.set(1, 0, true);
        m.set(2, 2, true);
        GdoNode::new(7, m)
    }

    #[test]
    fn counts_report_matches_shard() {
        let n = node();
        assert_eq!(n.id(), 7);
        let report = n.counts_report();
        assert_eq!(report.counts, vec![2, 0, 1, 0]);
        assert_eq!(report.n_case, 3);
    }

    #[test]
    fn moments_match_stats_layer() {
        let n = node();
        let m = n.ld_moments(SnpId(0), SnpId(2));
        assert_eq!(m.sum_x, 2);
        assert_eq!(m.sum_y, 1);
        assert_eq!(m.sum_xy, 0);
        assert_eq!(m.n, 3);
    }

    #[test]
    fn moments_match_the_row_major_shard_over_random_pairs() {
        // 70 SNPs: the last column sits in a second, partial word of the
        // row-major layout; 67 individuals: the columnar sweep ends in a
        // partial word too.
        let (individuals, snps) = (67, 70);
        let mut rng = ChaChaRng::from_seed_u64(41);
        let mut m = GenotypeMatrix::zeroed(individuals, snps);
        for i in 0..individuals {
            for j in 0..snps {
                m.set(i, j, rng.next_bool(0.3));
            }
        }
        let n = GdoNode::new(0, m.clone());
        let last = snps as u32 - 1;
        let mut pairs = vec![(0, 0), (last, last), (0, last), (last, 63), (64, 65)];
        let mut draw = || rng.next_below(snps as u64) as u32;
        pairs.extend((0..200).map(|_| (draw(), draw())));
        for (a, b) in pairs {
            let (a, b) = (SnpId(a), SnpId(b));
            assert_eq!(
                LdMoments::from(n.ld_moments(a, b)),
                LdMoments::from_matrix(&m, a, b),
                "pair ({}, {})",
                a.0,
                b.0
            );
        }
    }

    #[test]
    fn compact_report_matches_dense() {
        let n = node();
        let snps = [SnpId(0), SnpId(2)];
        let cf = [0.4, 0.3];
        let rf = [0.2, 0.25];
        let report = n.lr_report(&snps, &cf, &rf);
        let (rows, cols) = (report.individuals as usize, report.snps as usize);
        let dense = LrColumns::from_row_values(rows, cols, &report.values, &cf, &rf).unwrap();
        let report = n.lr_report_compact(&snps);
        assert_eq!(
            (report.individuals as usize, report.snps as usize),
            (rows, cols)
        );
        let compact = LrColumns::from_row_bits(rows, cols, &report.bits, &cf, &rf).unwrap();
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(compact.get(i, j).to_bits(), dense.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn lr_report_dimensions() {
        let n = node();
        let snps = [SnpId(0), SnpId(2)];
        let (cf, rf) = ([0.4, 0.3], [0.2, 0.3]);
        let report = n.lr_report(&snps, &cf, &rf);
        assert_eq!(report.individuals, 3);
        assert_eq!(report.snps, 2);
        assert_eq!(report.values.len(), 6);
        let matrix = LrColumns::from_row_values(3, 2, &report.values, &cf, &rf).unwrap();
        // Individual 2 carries the minor allele at SNP 2 where freqs are
        // equal -> zero contribution.
        assert_eq!(matrix.get(2, 1), 0.0);
    }
}
