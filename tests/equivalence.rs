//! Property-based equivalence: GenDPR must select **exactly** the same
//! SNP sets as the centralized SecureGenome baseline, for any cohort,
//! any federation size and any parameterization — the paper's Table 4
//! correctness claim, generalized.

use gendpr::core::baseline::centralized::CentralizedPipeline;
use gendpr::core::baseline::naive::NaiveDistributed;
use gendpr::core::config::{FederationConfig, GwasParams};
use gendpr::core::protocol::Federation;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::stats::lr::LrTestParams;
use proptest::prelude::*;

fn cohort_strategy() -> impl Strategy<Value = SyntheticCohort> {
    (
        20usize..120, // snps
        40usize..150, // case individuals
        40usize..150, // reference individuals
        any::<u64>(), // seed
        0.0f64..0.04, // drift
    )
        .prop_map(|(snps, cases, refs, seed, drift)| {
            SyntheticCohort::builder()
                .snps(snps)
                .case_individuals(cases)
                .reference_individuals(refs)
                .seed(seed)
                .drift(drift)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gendpr_equals_centralized(
        cohort in cohort_strategy(),
        gdos in 1usize..6,
        maf_cutoff in 0.01f64..0.2,
        power in 0.5f64..0.95,
    ) {
        let params = GwasParams {
            maf_cutoff,
            ld_cutoff: 1e-5,
            lr: LrTestParams { false_positive_rate: 0.1, power_threshold: power },
        };
        let central = CentralizedPipeline::new(params).run(cohort.as_ref()).unwrap();
        let gendpr = Federation::new(FederationConfig::new(gdos), params, &cohort)
            .run()
            .unwrap();
        prop_assert_eq!(&central.l_prime, &gendpr.l_prime);
        prop_assert_eq!(&central.l_double_prime, &gendpr.l_double_prime);
        prop_assert_eq!(&central.safe_snps, &gendpr.safe_snps);
    }

    #[test]
    fn pipeline_is_monotone_and_well_formed(
        cohort in cohort_strategy(),
        gdos in 1usize..5,
    ) {
        let params = GwasParams::secure_genome_defaults();
        let out = Federation::new(FederationConfig::new(gdos), params, &cohort)
            .run()
            .unwrap();
        let l = cohort.panel().len() as u32;
        // Shrinking pipeline.
        prop_assert!(out.l_double_prime.len() <= out.l_prime.len());
        prop_assert!(out.safe_snps.len() <= out.l_double_prime.len());
        // Each stage is a subset of the previous one.
        prop_assert!(out.l_double_prime.iter().all(|s| out.l_prime.contains(s)));
        prop_assert!(out.safe_snps.iter().all(|s| out.l_double_prime.contains(s)));
        // Sorted, unique, in range.
        prop_assert!(out.safe_snps.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(out.safe_snps.iter().all(|s| s.0 < l));
    }

    #[test]
    fn naive_agrees_on_maf_phase(
        cohort in cohort_strategy(),
        gdos in 1usize..5,
    ) {
        let params = GwasParams::secure_genome_defaults();
        let naive = NaiveDistributed::new(params, gdos).run(cohort.as_ref()).unwrap();
        let gendpr = Federation::new(FederationConfig::new(gdos), params, &cohort)
            .run()
            .unwrap();
        // The paper: the naive scheme retains the same SNPs during MAF...
        prop_assert_eq!(&naive.l_prime, &gendpr.l_prime);
        // ...and its later phases never release more than its own LD set.
        prop_assert!(naive.safe_snps.iter().all(|s| naive.l_double_prime.contains(s)));
        // A lone member's local data is the whole case population: the
        // naive scheme is GenDPR, phase for phase.
        if gdos == 1 {
            prop_assert_eq!(&naive.l_double_prime, &gendpr.l_double_prime);
            prop_assert_eq!(&naive.safe_snps, &gendpr.safe_snps);
        }
    }

    #[test]
    fn outcome_independent_of_partitioning(
        cohort in cohort_strategy(),
        g1 in 1usize..6,
        g2 in 1usize..6,
    ) {
        let params = GwasParams::secure_genome_defaults();
        let a = Federation::new(FederationConfig::new(g1), params, &cohort).run().unwrap();
        let b = Federation::new(FederationConfig::new(g2), params, &cohort).run().unwrap();
        prop_assert_eq!(a.safe_snps, b.safe_snps);
    }
}

/// A study whose members hold no case genomes has nothing to certify: a
/// release over the reference panel alone says nothing about the cases
/// it would later be computed from.
#[test]
fn a_study_without_case_genomes_is_refused_by_every_driver() {
    use gendpr::core::error::ProtocolError;
    use gendpr::core::runtime::run_federation;
    use std::time::Duration;

    let study = |cases| {
        SyntheticCohort::builder()
            .snps(40)
            .case_individuals(cases)
            .reference_individuals(30)
            .seed(3)
            .build()
    };
    let params = GwasParams::secure_genome_defaults();
    let empty = study(0);
    let refused = |result: Result<(), ProtocolError>, driver: &str| {
        let err = result.expect_err(driver);
        assert_eq!(err, ProtocolError::EmptyStudy, "{driver}");
        assert!(
            err.to_string().contains("no case genomes"),
            "{driver}: {err}"
        );
    };
    for g in [1, 3] {
        let federation = Federation::new(FederationConfig::new(g), params, &empty);
        refused(federation.run().map(drop), "Federation");
        let naive = NaiveDistributed::new(params, g).run(empty.as_ref());
        refused(naive.map(drop), "NaiveDistributed");
        let deployed = run_federation(
            FederationConfig::new(g),
            params,
            &empty,
            None,
            Duration::from_secs(30),
        );
        refused(deployed.map(drop), "run_federation");
    }
    refused(
        CentralizedPipeline::new(params)
            .run(empty.as_ref())
            .map(drop),
        "CentralizedPipeline",
    );
}
