//! Property tests over the chaos fault space: arbitrary seeded
//! duplication/reordering schedules must never change the certified
//! release, and lossy links must end in either the clean release or the
//! abort on a silent member — never a hang, panic or corrupted result.
//!
//! Each case runs a full (small) federation, so the case count is kept
//! low; the nightly chaos CI job covers breadth with fresh seeds instead.

use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::error::ProtocolError;
use gendpr::core::runtime::{run_federation_with, RuntimeOptions};
use gendpr::fednet::fault::{ChaosFaults, FaultPlan};
use gendpr::genomics::cohort::Cohort;
use gendpr::genomics::synth::SyntheticCohort;
use proptest::prelude::*;
use std::time::Duration;

fn study() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(60)
        .case_individuals(50)
        .reference_individuals(40)
        .seed(19)
        .build()
}

fn config() -> FederationConfig {
    FederationConfig::new(3)
        .with_collusion(CollusionMode::Fixed(1))
        .with_seed(8)
}

fn plan(chaos: ChaosFaults) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.chaos(chaos);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lossless chaos (duplicates + reordering, no drops) is invisible:
    /// the per-link sequence layer must reconstruct the exact frame
    /// stream, so every interleaving yields the clean run's certificate.
    #[test]
    fn lossless_interleavings_preserve_the_release(
        seed in 0u64..1_000_000,
        duplicate_rate in 0.0f64..0.5,
        reorder_window_ms in 0u32..5,
    ) {
        let study = study();
        let cohort: &Cohort = study.as_ref();
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions {
            timeout: Duration::from_secs(30),
            ..RuntimeOptions::default()
        };
        let clean = run_federation_with(config(), params, cohort, None, options).unwrap();
        let chaos = ChaosFaults {
            seed,
            drop_rate: 0.0,
            duplicate_rate,
            reorder_window_ms,
        };
        let noisy =
            run_federation_with(config(), params, cohort, Some(plan(chaos)), options).unwrap();
        prop_assert_eq!(&noisy.safe_snps, &clean.safe_snps);
        prop_assert_eq!(&noisy.certificate, &clean.certificate);
    }

    /// Lossy links may stall members, but the outcome is always either
    /// the clean release (the loss was absorbed) or the abort on a silent
    /// member — never a wrong answer.
    #[test]
    fn lossy_links_end_in_release_or_clean_error(
        seed in 0u64..1_000_000,
        drop_rate in 0.0f64..0.25,
    ) {
        let study = study();
        let cohort: &Cohort = study.as_ref();
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions {
            timeout: Duration::from_millis(600),
            ..RuntimeOptions::default()
        };
        let clean = run_federation_with(config(), params, cohort, None, options).unwrap();
        let chaos = ChaosFaults {
            seed,
            drop_rate,
            duplicate_rate: 0.1,
            reorder_window_ms: 2,
        };
        match run_federation_with(config(), params, cohort, Some(plan(chaos)), options) {
            // Completion ⇒ the loss was absorbed ⇒ bit-equal.
            Ok(report) => {
                prop_assert_eq!(&report.safe_snps, &clean.safe_snps);
                prop_assert_eq!(&report.certificate, &clean.certificate);
            }
            Err(ProtocolError::MemberUnresponsive { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error under loss: {other:?}"),
        }
    }
}
