//! Dynamic studies: assessing releases as genomes arrive over time.
//!
//! GenDPR builds on DyPS (Pascoal et al., PETS '21 — reference \[36\] of
//! the paper), which selects safe SNP subsets "in a federated and
//! *dynamic* manner, i.e., as soon as new genomes become available". This
//! module implements that extension on top of the GenDPR pipeline, with
//! the constraint that makes the dynamic setting genuinely hard:
//! **releases are irreversible**. Once a SNP's statistics are public they
//! cannot be retracted, so at every epoch the federation must certify the
//! *cumulative* release — everything published so far plus whatever it
//! adds now — against the data it currently holds.
//!
//! [`DynamicAssessor`] therefore, at every epoch, runs the crate's leader
//! core over one in-process member holding the cumulative cases:
//!
//! 1. accumulates genome batches into the growing case population (a
//!    batch that leaves it empty is refused and opens no epoch),
//! 2. re-runs the MAF/LD screens over the cumulative data,
//! 3. seeds the LR-test with the already-released SNPs (their
//!    contributions are charged against the power budget first — the
//!    `forced` columns [`gendpr_stats::lr::select_safe_subset`]
//!    accumulates before any candidate), and only then
//! 4. admits new candidates while the cumulative attack power stays
//!    below the threshold.
//!
//! The per-epoch [`EpochReport`] also surfaces *regret*: previously
//! released SNPs that the current data would no longer certify — the
//! quantity DyPS exists to keep at zero by delaying releases.

use crate::config::GwasParams;
use crate::engine::{LeaderCore, Local};
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;

/// What happened in one assessment epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Case genomes accumulated so far.
    pub total_genomes: usize,
    /// SNPs newly added to the public release this epoch (panel order).
    pub newly_released: Vec<SnpId>,
    /// Cumulative release size after this epoch.
    pub total_released: usize,
    /// Previously released SNPs the *current* data would not certify —
    /// irreversibility regret. These stay released (nothing can be done)
    /// but are charged against the power budget.
    pub regret: Vec<SnpId>,
}

/// Incremental release assessment over a growing case population.
#[derive(Debug, Clone)]
pub struct DynamicAssessor {
    params: GwasParams,
    reference: GenotypeMatrix,
    cumulative: GenotypeMatrix,
    released: Vec<SnpId>,
    epochs: usize,
}

impl DynamicAssessor {
    /// Creates an assessor for a study over `reference.snps()` SNP
    /// positions.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] / [`ProtocolError::EmptyStudy`]
    /// for bad parameters or an empty reference.
    pub fn new(params: GwasParams, reference: GenotypeMatrix) -> Result<Self, ProtocolError> {
        params.validate().map_err(ProtocolError::InvalidConfig)?;
        if reference.individuals() == 0 || reference.snps() == 0 {
            return Err(ProtocolError::EmptyStudy);
        }
        let snps = reference.snps();
        Ok(Self {
            params,
            reference,
            cumulative: GenotypeMatrix::zeroed(0, snps),
            released: Vec::new(),
            epochs: 0,
        })
    }

    /// The cumulative public release so far, in panel order.
    #[must_use]
    pub fn released(&self) -> &[SnpId] {
        &self.released
    }

    /// Seeds the assessor with SNPs already public *before* its first
    /// batch — e.g. releases certified by earlier jobs and recorded in the
    /// service ledger. They are irreversible: every subsequent epoch
    /// charges them against the power budget first and reports them in
    /// [`EpochReport::regret`] if the growing data stops certifying them.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] if a SNP id falls outside the
    /// study panel or batches have already been ingested (the seed must
    /// describe the world as it was when the assessor started).
    pub fn seed_released(&mut self, released: &[SnpId]) -> Result<(), ProtocolError> {
        if self.epochs > 0 {
            return Err(ProtocolError::InvalidConfig(
                "seed_released must precede the first batch",
            ));
        }
        if released.iter().any(|s| s.index() >= self.reference.snps()) {
            return Err(ProtocolError::InvalidConfig(
                "seeded SNP id outside the study panel",
            ));
        }
        self.released.extend(released.iter().copied());
        self.released.sort_unstable();
        self.released.dedup();
        Ok(())
    }

    /// Case genomes accumulated so far.
    #[must_use]
    pub fn total_genomes(&self) -> usize {
        self.cumulative.individuals()
    }

    /// Ingests a batch of newly contributed case genomes and re-assesses.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] if the batch's SNP count differs
    /// from the study panel; [`ProtocolError::EmptyStudy`] while no case
    /// genome has arrived at all. Either leaves the assessor as it was: a
    /// refused batch opens no epoch.
    pub fn add_batch(&mut self, batch: &GenotypeMatrix) -> Result<EpochReport, ProtocolError> {
        if batch.snps() != self.reference.snps() {
            return Err(ProtocolError::InvalidConfig(
                "batch SNP count differs from the study panel",
            ));
        }
        if self.cumulative.individuals() + batch.individuals() == 0 {
            return Err(ProtocolError::EmptyStudy);
        }
        self.cumulative = self
            .cumulative
            .stack(batch)
            .expect("dimensions checked above");
        let epoch = self.epochs;
        self.epochs += 1;

        // The cumulative shard grew this epoch, so the leader core runs
        // afresh over it as one member. Already-released SNPs are forced,
        // not candidates: they skip the MAF/LD screens and are charged
        // against the power budget first.
        let member = [GdoNode::new(0, self.cumulative.clone())];
        let mut source = Local(&member);
        let mut core =
            LeaderCore::collect(&mut source, vec![vec![0]], &self.reference, &self.params)?;
        let panel = core.whole_panel();
        let outcome = core.assess(&mut source, &panel, &self.released, None)?;

        // Regret: released SNPs the current data no longer passes the MAF
        // screen with — the observable proxy for "would not certify".
        let retained = &core.full().retained;
        let regret: Vec<SnpId> = self
            .released
            .iter()
            .copied()
            .filter(|s| retained.binary_search(s).is_err())
            .collect();

        self.released.extend(outcome.released.iter().copied());
        self.released.sort_unstable();

        Ok(EpochReport {
            epoch,
            total_genomes: self.cumulative.individuals(),
            newly_released: outcome.released,
            total_released: self.released.len(),
            regret,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{MembershipAttacker, ReleasedStatistics};
    use gendpr_genomics::synth::SyntheticCohort;

    fn study(seed: u64) -> (SyntheticCohort, GwasParams) {
        let cohort = SyntheticCohort::builder()
            .snps(200)
            .case_individuals(600)
            .reference_individuals(400)
            .seed(seed)
            .build();
        let mut params = GwasParams::secure_genome_defaults();
        params.lr.power_threshold = 0.7;
        (cohort, params)
    }

    #[test]
    fn release_grows_monotonically() {
        let (cohort, params) = study(1);
        let mut assessor = DynamicAssessor::new(params, cohort.reference().clone()).unwrap();
        let batches = cohort.case().row_range(0, 600);
        let mut previous = 0;
        for (i, start) in [0usize, 200, 400].iter().enumerate() {
            let batch = batches.row_range(*start, 200);
            let report = assessor.add_batch(&batch).unwrap();
            assert_eq!(report.epoch, i);
            assert_eq!(report.total_genomes, (i + 1) * 200);
            assert!(report.total_released >= previous, "release never shrinks");
            previous = report.total_released;
            // Newly released SNPs were not released before.
            assert_eq!(report.total_released, previous, "bookkeeping is consistent");
        }
        assert_eq!(assessor.total_genomes(), 600);
        assert!(assessor.released().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cumulative_release_stays_attack_safe_each_epoch() {
        let (cohort, params) = study(2);
        let mut assessor = DynamicAssessor::new(params, cohort.reference().clone()).unwrap();
        for start in [0usize, 300] {
            let batch = cohort.case().row_range(start, 300);
            assessor.add_batch(&batch).unwrap();
            if assessor.released().is_empty() {
                continue;
            }
            // Attack the cumulative release with the *cumulative* data.
            let cumulative = cohort.case().row_range(0, start + 300);
            let n = cumulative.individuals() as f64;
            let counts = cumulative.column_counts();
            let rc = cohort.reference().column_counts();
            let nr = cohort.reference().individuals() as f64;
            let release = ReleasedStatistics {
                snps: assessor.released().to_vec(),
                case_freqs: assessor
                    .released()
                    .iter()
                    .map(|s| counts[s.index()] as f64 / n)
                    .collect(),
                ref_freqs: assessor
                    .released()
                    .iter()
                    .map(|s| rc[s.index()] as f64 / nr)
                    .collect(),
            };
            let attacker = MembershipAttacker::calibrate(
                release,
                cohort.reference(),
                params.lr.false_positive_rate,
            );
            let power = attacker.power_against(&cumulative);
            assert!(
                power < params.lr.power_threshold + 0.05,
                "epoch ending at {}: power {power}",
                start + 300
            );
        }
    }

    #[test]
    fn single_epoch_matches_static_assessment_size() {
        // Feeding all data at once should release a set comparable to the
        // static pipeline (identical candidate screens; LR admission uses
        // the same seeded search with an empty seed).
        let (cohort, params) = study(3);
        let mut assessor = DynamicAssessor::new(params, cohort.reference().clone()).unwrap();
        let report = assessor.add_batch(cohort.case()).unwrap();
        let central = crate::baseline::centralized::CentralizedPipeline::new(params)
            .run(cohort.as_ref())
            .unwrap();
        assert_eq!(report.newly_released, central.safe_snps);
    }

    #[test]
    fn rejects_mismatched_batches_and_empty_reference() {
        let (cohort, params) = study(4);
        let mut assessor = DynamicAssessor::new(params, cohort.reference().clone()).unwrap();
        let bad = GenotypeMatrix::zeroed(5, 7);
        assert!(matches!(
            assessor.add_batch(&bad).unwrap_err(),
            ProtocolError::InvalidConfig(_)
        ));
        assert!(matches!(
            DynamicAssessor::new(params, GenotypeMatrix::zeroed(0, 10)).unwrap_err(),
            ProtocolError::EmptyStudy
        ));
    }
}
