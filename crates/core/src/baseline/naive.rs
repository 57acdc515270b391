//! The naïve distributed protocol (paper §7.3).
//!
//! "Each GDO computes the LD and LR-test independently (relying only on
//! their local dataset) and shares an encrypted vector of selected SNP
//! indexes, of which the leader computes an intersection and outputs as
//! safe only mutually chosen SNPs."
//!
//! The MAF phase still aggregates counts (the paper observes the naïve
//! scheme "is able to retain the same SNPs during the MAF evaluation"),
//! but LD and LR decisions are made from each member's shard alone — so
//! they miss the *global* genome distribution and select smaller, even
//! disjoint, SNP sets (the bold rows of Table 4). Releasing those would
//! still allow membership inference against the pooled statistics.
//!
//! The pipeline is GenDPR's leader core over in-process members; only the
//! subsets differ: one core over all members for MAF, then one over each
//! member alone for LD and LR.

use crate::collusion::intersect_selections;
use crate::config::GwasParams;
use crate::engine::{LeaderCore, Local};
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::snp::SnpId;

/// Outcome of the naïve protocol.
#[derive(Debug, Clone)]
pub struct NaiveOutcome {
    /// MAF survivors (identical to GenDPR's `L'`).
    pub l_prime: Vec<SnpId>,
    /// Intersection of the members' local LD selections.
    pub l_double_prime: Vec<SnpId>,
    /// Intersection of the members' local LR selections.
    pub safe_snps: Vec<SnpId>,
}

/// The naïve local-analysis-plus-intersection protocol.
#[derive(Debug, Clone, Copy)]
pub struct NaiveDistributed {
    params: GwasParams,
    gdo_count: usize,
}

impl NaiveDistributed {
    /// Creates the protocol for a federation of `gdo_count` members.
    #[must_use]
    pub fn new(params: GwasParams, gdo_count: usize) -> Self {
        Self { params, gdo_count }
    }

    /// Runs the naïve protocol over the study.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] or [`ProtocolError::EmptyStudy`].
    pub fn run(&self, cohort: &Cohort) -> Result<NaiveOutcome, ProtocolError> {
        self.params
            .validate()
            .map_err(ProtocolError::InvalidConfig)?;
        if self.gdo_count == 0 {
            return Err(ProtocolError::InvalidConfig(
                "a federation needs at least one member",
            ));
        }
        if cohort.panel().is_empty() || cohort.reference_individuals() == 0 {
            return Err(ProtocolError::EmptyStudy);
        }

        let nodes: Vec<GdoNode> = cohort
            .case_rows_among(self.gdo_count)
            .into_iter()
            .enumerate()
            .map(|(i, rows)| GdoNode::from_rows(i, cohort.case(), rows))
            .collect();
        let mut source = Local(&nodes);
        let (reference, params) = (cohort.reference(), &self.params);
        let mut collect = |subsets| LeaderCore::collect(&mut source, subsets, reference, params);

        // Phase 1: aggregated MAF, as in GenDPR.
        let all = collect(vec![(0..self.gdo_count).collect()])?;
        let l_prime = all.maf_step(&all.whole_panel(), &[]);

        // Phases 2 and 3: each member decides from its *local* data alone.
        let mut alone = collect((0..self.gdo_count).map(|i| vec![i]).collect())?;
        let scans = alone.ld_step(&mut source, &l_prime, None, false)?;
        let ld_selections: Vec<Vec<SnpId>> = scans.into_iter().map(|s| s.retained).collect();
        let l_double_prime = intersect_selections(&ld_selections);
        let lr = alone.lr_phase(&mut source, &[], &l_double_prime)?;
        let safe_snps = intersect_selections(&lr.selections);

        Ok(NaiveOutcome {
            l_prime,
            l_double_prime,
            safe_snps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FederationConfig;
    use crate::protocol::Federation;
    use gendpr_genomics::synth::SyntheticCohort;

    fn cohort() -> SyntheticCohort {
        SyntheticCohort::builder()
            .snps(300)
            .case_individuals(600)
            .reference_individuals(600)
            .seed(21)
            .build()
    }

    #[test]
    fn maf_matches_gendpr_but_later_phases_diverge() {
        let c = cohort();
        let params = GwasParams::secure_genome_defaults();
        let gendpr = Federation::new(FederationConfig::new(3), params, &c)
            .run()
            .unwrap();
        let naive = NaiveDistributed::new(params, 3).run(c.as_ref()).unwrap();
        assert_eq!(naive.l_prime, gendpr.l_prime, "MAF phase must agree");
        // With 3-way sharding the local LD statistics are noisier, so the
        // naive LD intersection is NOT the correct pooled selection.
        assert_ne!(
            naive.l_double_prime, gendpr.l_double_prime,
            "naive LD should diverge on sharded data"
        );
    }

    #[test]
    fn single_member_naive_equals_centralized_shape() {
        // With one member the "local" dataset is the whole case population,
        // so the naive pipeline coincides with GenDPR.
        let c = cohort();
        let params = GwasParams::secure_genome_defaults();
        let naive = NaiveDistributed::new(params, 1).run(c.as_ref()).unwrap();
        let gendpr = Federation::new(FederationConfig::new(1), params, &c)
            .run()
            .unwrap();
        assert_eq!(naive.l_double_prime, gendpr.l_double_prime);
        assert_eq!(naive.safe_snps, gendpr.safe_snps);
    }

    #[test]
    fn zero_members_rejected() {
        let c = cohort();
        assert!(matches!(
            NaiveDistributed::new(GwasParams::secure_genome_defaults(), 0)
                .run(c.as_ref())
                .unwrap_err(),
            ProtocolError::InvalidConfig(_)
        ));
    }
}
