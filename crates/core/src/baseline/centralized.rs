//! The centralized baseline: SecureGenome in one enclave.
//!
//! The paper compares GenDPR against "a centralized approach that runs
//! SecureGenome inside a centralized TEE enclave". All genomes are pooled
//! in one place, so every statistic is computed directly from the full
//! matrices — no aggregation of member contributions. GenDPR's core
//! correctness claim (Table 4) is that its distributed aggregation selects
//! *exactly* the same SNPs as this pipeline.
//!
//! It is deliberately *not* built on the leader core every other driver
//! runs (`engine`): row-major pooled counts and a dense `LrMatrix` make
//! it an independent oracle, which `tests/equivalence.rs`,
//! `tests/stratification.rs` and the `table4` experiment compare GenDPR
//! against.

use crate::config::GwasParams;
use crate::error::ProtocolError;
use crate::phases::ld::run_ld_scan;
use crate::phases::lrtest::run_lr_test;
use crate::protocol::PhaseTimings;
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::LrMatrix;
use gendpr_stats::maf::passes_maf;
use gendpr_stats::ranking::{rank_by_association, SnpRank};
use std::time::Instant;

/// Outcome of the centralized pipeline.
#[derive(Debug, Clone)]
pub struct CentralizedOutcome {
    /// Survivors of the MAF check.
    pub l_prime: Vec<SnpId>,
    /// Survivors of the LD check.
    pub l_double_prime: Vec<SnpId>,
    /// The final safe set.
    pub safe_snps: Vec<SnpId>,
    /// Per-task timings (same breakdown as the distributed driver, with
    /// `aggregation` covering the initial pooled-count computation).
    pub timings: PhaseTimings,
}

/// SecureGenome over pooled data.
#[derive(Debug, Clone, Copy)]
pub struct CentralizedPipeline {
    params: GwasParams,
}

impl CentralizedPipeline {
    /// Creates the pipeline with the given assessment parameters.
    #[must_use]
    pub fn new(params: GwasParams) -> Self {
        Self { params }
    }

    /// Runs MAF → LD → LR over the pooled cohort.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`], or [`ProtocolError::EmptyStudy`]
    /// for a study without SNPs, reference individuals or case genomes.
    pub fn run(&self, cohort: &Cohort) -> Result<CentralizedOutcome, ProtocolError> {
        self.params
            .validate()
            .map_err(ProtocolError::InvalidConfig)?;
        if cohort.panel().is_empty()
            || cohort.reference_individuals() == 0
            || cohort.case_individuals() == 0
        {
            return Err(ProtocolError::EmptyStudy);
        }
        let mut timings = PhaseTimings::default();

        // Pooled counts (the enclave has direct access to every genome).
        let t = Instant::now();
        let case = cohort.case();
        let reference = cohort.reference();
        let case_counts = case.column_counts();
        let ref_counts = reference.column_counts();
        let n_case = case.individuals() as u64;
        let n_ref = reference.individuals() as u64;
        let n_total = n_case + n_ref;
        timings.aggregation += t.elapsed();

        // MAF + ranking.
        let t = Instant::now();
        let mut l_prime = Vec::new();
        for l in 0..cohort.panel().len() {
            let freq = if n_total == 0 {
                0.0
            } else {
                (case_counts[l] + ref_counts[l]) as f64 / n_total as f64
            };
            if passes_maf(freq, self.params.maf_cutoff) {
                l_prime.push(SnpId(l as u32));
            }
        }
        let all_ids: Vec<SnpId> = (0..cohort.panel().len() as u32).map(SnpId).collect();
        let ranks = rank_by_association(&all_ids, &case_counts, n_case, &ref_counts, n_ref);
        timings.indexing += t.elapsed();

        // LD: moments straight off SNP-major views of the pooled matrices
        // (joint counts become contiguous popcount sweeps).
        let t = Instant::now();
        let case_columnar = ColumnarGenotypes::from_matrix(case);
        let ref_columnar = ColumnarGenotypes::from_matrix(reference);
        let l_double_prime = run_ld_scan(
            &l_prime,
            |a, b| {
                LdMoments::from_counts(
                    case_counts[a.index()],
                    case_counts[b.index()],
                    case_columnar.pair_count(a, b),
                    n_case,
                )
                .merge(LdMoments::from_counts(
                    ref_counts[a.index()],
                    ref_counts[b.index()],
                    ref_columnar.pair_count(a, b),
                    n_ref,
                ))
            },
            |s| ranks[s.index()].p_value,
            self.params.ld_cutoff,
        );
        timings.ld += t.elapsed();

        // LR-test over the pooled case matrix.
        let t = Instant::now();
        let case_freqs: Vec<f64> = l_double_prime
            .iter()
            .map(|&s| case_counts[s.index()] as f64 / n_case.max(1) as f64)
            .collect();
        let ref_freqs: Vec<f64> = l_double_prime
            .iter()
            .map(|&s| ref_counts[s.index()] as f64 / n_ref as f64)
            .collect();
        let case_matrix = LrMatrix::from_genotypes(case, &l_double_prime, &case_freqs, &ref_freqs);
        let null_matrix =
            LrMatrix::from_genotypes(reference, &l_double_prime, &case_freqs, &ref_freqs);
        let candidate_ranks: Vec<SnpRank> =
            l_double_prime.iter().map(|&s| ranks[s.index()]).collect();
        let safe_snps = run_lr_test(
            &l_double_prime,
            &case_matrix,
            &null_matrix,
            &candidate_ranks,
            &self.params.lr,
        );
        timings.lr += t.elapsed();

        Ok(CentralizedOutcome {
            l_prime,
            l_double_prime,
            safe_snps,
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_genomics::synth::SyntheticCohort;

    #[test]
    fn pipeline_runs_and_shrinks() {
        let c = SyntheticCohort::builder()
            .snps(200)
            .case_individuals(300)
            .reference_individuals(300)
            .seed(10)
            .build();
        let out = CentralizedPipeline::new(GwasParams::secure_genome_defaults())
            .run(c.as_ref())
            .unwrap();
        assert!(out.l_prime.len() <= 200);
        assert!(out.l_double_prime.len() <= out.l_prime.len());
        assert!(out.safe_snps.len() <= out.l_double_prime.len());
    }

    #[test]
    fn empty_reference_is_error() {
        use gendpr_genomics::genotype::GenotypeMatrix;
        use gendpr_genomics::snp::SnpPanel;
        let cohort = Cohort::new(
            SnpPanel::synthetic(5),
            GenotypeMatrix::zeroed(4, 5),
            GenotypeMatrix::zeroed(0, 5),
        )
        .unwrap();
        assert_eq!(
            CentralizedPipeline::new(GwasParams::secure_genome_defaults())
                .run(&cohort)
                .unwrap_err(),
            ProtocolError::EmptyStudy
        );
    }
}
