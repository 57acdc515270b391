//! The in-process GenDPR protocol driver.
//!
//! [`Federation`] executes Algorithm 1 deterministically in a single
//! process: every member's local computation runs against its own shard
//! only, the leader aggregates exactly the intermediate values the real
//! deployment would receive, and collusion tolerance re-evaluates each
//! phase per member combination (§5.6). It is the crate's leader core over
//! the *local* source — in-process members answering at once — with the
//! evaluation subsets: the same phase logic the attested deployment runs
//! over its channels, without messages, AEAD or threads. It is what the
//! correctness experiments (Table 4), collusion experiments (Table 5) and
//! the running-time figures (5/6) measure; the fully threaded,
//! enclave-encrypted deployment lives in [`crate::runtime`], whose
//! [`RuntimeReport::traffic`] is the measured traffic of a run.
//!
//! [`RuntimeReport::traffic`]: crate::runtime::RuntimeReport::traffic

use crate::collusion::evaluation_subsets;
use crate::config::{FederationConfig, GwasParams};
use crate::engine::{LeaderCore, Local};
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use crate::leader::elect_seeded;
use crate::phases::maf::MafOutcome;
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use std::time::Duration;

/// Per-task CPU time, matching the paper's Figure 5/6 breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Collecting and summing members' intermediate data.
    pub aggregation: Duration,
    /// Indexing / sorting / allele-frequency computation (MAF + ranking).
    pub indexing: Duration,
    /// LD analysis.
    pub ld: Duration,
    /// LR-test analysis.
    pub lr: Duration,
}

impl PhaseTimings {
    /// Total running time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.aggregation + self.indexing + self.ld + self.lr
    }
}

/// Result of one GenDPR run.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    /// Which member was elected leader.
    pub leader: usize,
    /// `L'` — survivors of the MAF phase (intersected over combinations).
    pub l_prime: Vec<SnpId>,
    /// `L''` — survivors of the LD phase.
    pub l_double_prime: Vec<SnpId>,
    /// `L_safe` — the final safe-to-release set.
    pub safe_snps: Vec<SnpId>,
    /// Wall-clock per task.
    pub timings: PhaseTimings,
    /// How many member combinations were evaluated (1 without collusion
    /// tolerance).
    pub evaluations: usize,
    /// The full-set combination's final selection *within this run* — what
    /// the federation would release if it ignored colluders. Since the
    /// full set participates in every phase intersection,
    /// `safe_snps ⊆ full_set_safe` always holds; the difference is the
    /// paper's "# vulnerable SNPs without collusion-tolerance".
    pub full_set_safe: Vec<SnpId>,
    /// Global case allele frequencies over `L''` (for release building).
    pub case_freqs: Vec<f64>,
    /// Reference allele frequencies over `L''`.
    pub ref_freqs: Vec<f64>,
}

/// A GenDPR federation ready to assess one study.
#[derive(Debug, Clone)]
pub struct Federation {
    config: FederationConfig,
    params: GwasParams,
    nodes: Vec<GdoNode>,
    reference: GenotypeMatrix,
}

impl Federation {
    /// Assembles a federation: the cohort's case population is split
    /// near-equally among `config.gdo_count` members (as in the paper's
    /// evaluation) and the reference set is shared.
    #[must_use]
    pub fn new(config: FederationConfig, params: GwasParams, cohort: impl AsRef<Cohort>) -> Self {
        let cohort = cohort.as_ref();
        let shards = if config.gdo_count == 0 {
            Vec::new()
        } else {
            cohort.split_case_among(config.gdo_count)
        };
        Self::from_shards(config, params, shards, cohort.reference().clone())
    }

    /// Accepted and **ignored**: every collusion subset is evaluated in
    /// subset order on the calling thread. The signature stays because
    /// `benchmark/src/probes.rs:344` calls it; retire it together with
    /// [`crate::runtime::RuntimeOptions::threads`] and
    /// `run_lr_test_threads`' `_threads` when the benchmark stops naming
    /// them.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Builds a federation from explicit per-member shards (for tests that
    /// control the partition). [`Self::run`] rejects a shard count other
    /// than `config.gdo_count`.
    ///
    /// # Panics
    ///
    /// Panics if shards/reference disagree on SNP count.
    #[must_use]
    pub fn from_shards(
        config: FederationConfig,
        params: GwasParams,
        shards: Vec<GenotypeMatrix>,
        reference: GenotypeMatrix,
    ) -> Self {
        for s in &shards {
            assert_eq!(s.snps(), reference.snps(), "shard SNP count mismatch");
        }
        let nodes = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| GdoNode::new(i, shard))
            .collect();
        Self {
            config,
            params,
            nodes,
            reference,
        }
    }

    /// Executes the three-phase protocol: the leader core over the
    /// members, one evaluation per collusion subset, the subsets'
    /// selections intersected after every phase.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] for bad parameters or a shard count
    /// other than `config.gdo_count`, [`ProtocolError::EmptyStudy`] when
    /// there are no SNPs, no reference individuals (the LR-test has no
    /// null model without them) or no case genomes.
    pub fn run(&self) -> Result<ProtocolOutcome, ProtocolError> {
        self.config
            .validate()
            .map_err(ProtocolError::InvalidConfig)?;
        self.params
            .validate()
            .map_err(ProtocolError::InvalidConfig)?;
        if self.nodes.len() != self.config.gdo_count {
            return Err(ProtocolError::InvalidConfig("one shard per member"));
        }
        if self.reference.snps() == 0 || self.reference.individuals() == 0 {
            return Err(ProtocolError::EmptyStudy);
        }

        let g = self.config.gdo_count;
        let subsets = evaluation_subsets(g, self.config.collusion);
        let mut source = Local(&self.nodes);
        let mut core = LeaderCore::collect(&mut source, subsets, &self.reference, &self.params)?;
        let panel = core.whole_panel();
        let outcome = core.assess(&mut source, &panel, &[], None)?;
        let (full, l_double_prime) = (core.full(), &outcome.l_double_prime);
        let freqs =
            |f: fn(&MafOutcome, SnpId) -> f64| l_double_prime.iter().map(move |&s| f(full, s));
        Ok(ProtocolOutcome {
            leader: elect_seeded(self.config.seed, g),
            case_freqs: freqs(MafOutcome::case_frequency).collect(),
            ref_freqs: freqs(MafOutcome::ref_frequency).collect(),
            l_prime: outcome.l_prime,
            l_double_prime: outcome.l_double_prime,
            safe_snps: outcome.released,
            timings: outcome.timings,
            evaluations: core.evaluations(),
            full_set_safe: outcome.full_set_safe,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollusionMode;
    use gendpr_genomics::synth::SyntheticCohort;

    fn cohort(snps: usize, n: usize, seed: u64) -> SyntheticCohort {
        SyntheticCohort::builder()
            .snps(snps)
            .case_individuals(n)
            .reference_individuals(n)
            .seed(seed)
            .build()
    }

    #[test]
    fn pipeline_shrinks_monotonically() {
        let c = cohort(300, 400, 1);
        let fed = Federation::new(
            FederationConfig::new(3),
            GwasParams::secure_genome_defaults(),
            &c,
        );
        let out = fed.run().unwrap();
        assert!(out.l_prime.len() <= 300);
        assert!(out.l_double_prime.len() <= out.l_prime.len());
        assert!(out.safe_snps.len() <= out.l_double_prime.len());
        assert!(!out.l_prime.is_empty(), "MAF should keep common SNPs");
        assert_eq!(out.evaluations, 1);
        assert_eq!(out.case_freqs.len(), out.l_double_prime.len());
        // Safe set is sorted panel-order and unique.
        assert!(out.safe_snps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn outcome_is_independent_of_member_count() {
        // Paper: "changing the number of GDOs in the federation does not
        // affect the outcome of the verification".
        let c = cohort(250, 300, 2);
        let mut selections = Vec::new();
        for g in [1usize, 2, 3, 5, 7] {
            let fed = Federation::new(
                FederationConfig::new(g),
                GwasParams::secure_genome_defaults(),
                &c,
            );
            let out = fed.run().unwrap();
            selections.push((g, out.l_prime, out.l_double_prime, out.safe_snps));
        }
        for w in selections.windows(2) {
            assert_eq!(
                w[0].1, w[1].1,
                "L' differs between G={} and G={}",
                w[0].0, w[1].0
            );
            assert_eq!(w[0].2, w[1].2, "L'' differs");
            assert_eq!(w[0].3, w[1].3, "L_safe differs");
        }
    }

    #[test]
    fn collusion_tolerance_shrinks_release() {
        let c = cohort(200, 240, 3);
        let base = Federation::new(
            FederationConfig::new(3),
            GwasParams::secure_genome_defaults(),
            &c,
        )
        .run()
        .unwrap();
        let tolerant = Federation::new(
            FederationConfig::new(3).with_collusion(CollusionMode::Fixed(2)),
            GwasParams::secure_genome_defaults(),
            &c,
        )
        .run()
        .unwrap();
        assert_eq!(tolerant.evaluations, 4); // full + C(3,1)
        assert!(tolerant.safe_snps.len() <= base.safe_snps.len());
        assert!(tolerant
            .safe_snps
            .iter()
            .all(|s| base.safe_snps.contains(s)));
        // The guaranteed-monotone comparison: within one run, the
        // intersection is a subset of the full-set combination's selection.
        assert!(tolerant
            .safe_snps
            .iter()
            .all(|s| tolerant.full_set_safe.contains(s)));
        // Without collusion tolerance the two coincide.
        assert_eq!(base.full_set_safe, base.safe_snps);
    }

    #[test]
    fn all_up_to_is_subset_of_every_fixed() {
        let c = cohort(150, 200, 4);
        let params = GwasParams::secure_genome_defaults();
        let all = Federation::new(
            FederationConfig::new(3).with_collusion(CollusionMode::AllUpTo),
            params,
            &c,
        )
        .run()
        .unwrap();
        assert_eq!(all.evaluations, 7);
        for f in 1..3 {
            let fixed = Federation::new(
                FederationConfig::new(3).with_collusion(CollusionMode::Fixed(f)),
                params,
                &c,
            )
            .run()
            .unwrap();
            assert!(
                all.safe_snps.iter().all(|s| fixed.safe_snps.contains(s)),
                "AllUpTo must be within Fixed({f})"
            );
        }
    }

    #[test]
    fn empty_study_is_an_error() {
        let c = cohort(10, 20, 6);
        let fed = Federation::from_shards(
            FederationConfig::new(2),
            GwasParams::secure_genome_defaults(),
            c.split_case_among(2),
            GenotypeMatrix::zeroed(0, 10),
        );
        assert_eq!(fed.run().unwrap_err(), ProtocolError::EmptyStudy);
    }

    #[test]
    fn shard_count_must_match_the_member_count() {
        // Too few shards used to index past the node list; too many ran
        // over a fraction of the cohort and released more than it certifies.
        let c = cohort(120, 300, 11);
        for shards in [2, 4] {
            let fed = Federation::from_shards(
                FederationConfig::new(3),
                GwasParams::secure_genome_defaults(),
                c.split_case_among(shards),
                c.reference().clone(),
            );
            assert_eq!(
                fed.run().unwrap_err(),
                ProtocolError::InvalidConfig("one shard per member"),
                "{shards} shards for G = 3"
            );
        }
    }

    #[test]
    fn invalid_config_is_an_error() {
        let c = cohort(10, 20, 7);
        let fed = Federation::new(
            FederationConfig::new(3).with_collusion(CollusionMode::Fixed(5)),
            GwasParams::secure_genome_defaults(),
            &c,
        );
        assert!(matches!(
            fed.run().unwrap_err(),
            ProtocolError::InvalidConfig(_)
        ));
    }

    #[test]
    fn leader_follows_seed() {
        let c = cohort(50, 60, 8);
        let params = GwasParams::secure_genome_defaults();
        let leaders: std::collections::HashSet<usize> = (0..20)
            .map(|seed| {
                Federation::new(FederationConfig::new(5).with_seed(seed), params, &c)
                    .run()
                    .unwrap()
                    .leader
            })
            .collect();
        assert!(leaders.len() > 1, "leader should vary with the seed");
        assert!(leaders.iter().all(|&l| l < 5));
    }
}
