//! Seeded link-chaos integration tests: duplicated and reordered frames
//! must be fully masked by the runtime's per-link sequence numbers — the
//! federation under chaos produces the exact release a clean run does —
//! and the whole fault schedule must be a pure function of the chaos
//! seed, so a failing nightly seed reproduces locally.
//!
//! The nightly CI job sets `GENDPR_CHAOS_SEED` to a fresh random value
//! per run; locally the tests fall back to a fixed seed.

use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::runtime::{run_federation_over, run_federation_with, RuntimeOptions};
use gendpr::fednet::fault::{ChaosFaults, FaultPlan};
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::{PeerId, Transport};
use gendpr::genomics::cohort::Cohort;
use gendpr::genomics::synth::SyntheticCohort;
use std::time::Duration;

fn study() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(100)
        .case_individuals(80)
        .reference_individuals(70)
        .seed(41)
        .build()
}

fn config() -> FederationConfig {
    FederationConfig::new(3)
        .with_collusion(CollusionMode::Fixed(1))
        .with_seed(11)
}

fn options() -> RuntimeOptions {
    RuntimeOptions {
        timeout: Duration::from_secs(30),
        ..RuntimeOptions::default()
    }
}

/// The chaos seed under test: `GENDPR_CHAOS_SEED` if set (nightly CI
/// draws a fresh one per run), a fixed default otherwise.
fn chaos_seed() -> u64 {
    std::env::var("GENDPR_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.chaos(ChaosFaults::seeded(seed));
    plan
}

#[test]
fn duplicated_and_reordered_frames_never_change_the_release() {
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let params = GwasParams::secure_genome_defaults();
    let clean = run_federation_with(config(), params, cohort, None, options()).unwrap();
    let noisy = run_federation_with(
        config(),
        params,
        cohort,
        Some(chaos_plan(chaos_seed())),
        options(),
    )
    .unwrap();

    assert_eq!(noisy.safe_snps, clean.safe_snps);
    assert_eq!(noisy.l_prime, clean.l_prime);
    assert_eq!(noisy.l_double_prime, clean.l_double_prime);
    // Same decision — the chaos was absorbed below the protocol layer
    // entirely, so the certificates agree too.
    assert_eq!(noisy.certificate, clean.certificate);
}

#[test]
fn chaos_schedule_is_a_pure_function_of_the_seed() {
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let params = GwasParams::secure_genome_defaults();
    let seed = chaos_seed();
    let a =
        run_federation_with(config(), params, cohort, Some(chaos_plan(seed)), options()).unwrap();
    let b =
        run_federation_with(config(), params, cohort, Some(chaos_plan(seed)), options()).unwrap();
    assert_eq!(a.certificate, b.certificate);
    assert_eq!(a.safe_snps, b.safe_snps);
    assert_eq!(
        a.traffic.messages, b.traffic.messages,
        "same seed ⇒ same duplicate schedule ⇒ same message count"
    );
}

#[test]
fn chaos_over_tcp_matches_the_clean_run() {
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let params = GwasParams::secure_genome_defaults();
    let clean = run_federation_with(config(), params, cohort, None, options()).unwrap();

    let g = 3;
    let (roster, listeners) = ephemeral_listeners(g).expect("localhost listeners");
    let transports: Vec<TcpTransport> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            let t = TcpTransport::from_listener(
                PeerId(id as u32),
                listener,
                &roster,
                TcpOptions::default(),
            )
            .expect("transport from bound listener");
            t.set_faults(chaos_plan(chaos_seed().wrapping_add(id as u64)));
            t
        })
        .collect();
    let noisy = run_federation_over(transports, config(), params, cohort, options()).unwrap();

    assert_eq!(noisy.safe_snps, clean.safe_snps);
    assert_eq!(noisy.certificate, clean.certificate);
}
