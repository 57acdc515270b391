//! Pins the one-shot runtime's wire schedule and outputs against
//! constants captured at commit 5eeceba (the parent of the change that
//! moved `leader_main` onto the shared assessment engine): for one fixed
//! study, every `(compact_lr, prefetch_ld)` combination must put exactly
//! the same number of messages and bytes on the wire, select the same
//! L′ / L″ / L_safe and sign the same certificate — on the in-memory
//! fabric, and over real TCP sockets.

use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::runtime::{
    run_federation_over, run_federation_with, RuntimeOptions, RuntimeReport,
};
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::PeerId;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::stats::lr::LrTestParams;
use std::time::Duration;

const G: usize = 3;

fn study() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(96)
        .case_individuals(110)
        .reference_individuals(90)
        .seed(53)
        .drift(0.25)
        .build()
}

fn config() -> FederationConfig {
    // Fixed(1): three pair subsets plus the full roster, so per-subset
    // prefetch rounds and LR collections all appear in the schedule.
    FederationConfig::new(G)
        .with_collusion(CollusionMode::Fixed(1))
        .with_seed(19)
}

fn params() -> GwasParams {
    GwasParams {
        maf_cutoff: 0.05,
        ld_cutoff: 1e-5,
        lr: LrTestParams {
            false_positive_rate: 0.1,
            power_threshold: 0.6,
        },
    }
}

fn options(compact_lr: bool, prefetch_ld: bool) -> RuntimeOptions {
    RuntimeOptions {
        timeout: Duration::from_secs(30),
        compact_lr,
        prefetch_ld,
        ..RuntimeOptions::default()
    }
}

/// What one run put on the wire and what it decided.
#[derive(Debug, PartialEq, Eq)]
struct Witness {
    messages: u64,
    wire_bytes: u64,
    l_prime: usize,
    l_double_prime: usize,
    safe: Vec<u32>,
    certificate: String,
}

fn witness(report: &RuntimeReport) -> Witness {
    Witness {
        messages: report.traffic.messages,
        wire_bytes: report.traffic.wire_bytes,
        l_prime: report.l_prime.len(),
        l_double_prime: report.l_double_prime.len(),
        safe: report.safe_snps.iter().map(|s| s.0).collect(),
        certificate: report.certificate.fingerprint(),
    }
}

// Captured at commit 5eeceba with the settings above.
const L_PRIME: usize = 88;
const L_DOUBLE_PRIME: usize = 20;
const SAFE: &[u32] = &[1, 15, 29, 33, 68, 76, 77, 94];
const CERTIFICATE: &str = "2cbf74e6381be5ea";

/// `(compact_lr, prefetch_ld, messages, wire_bytes)` on the in-memory
/// fabric at commit 5eeceba.
const SCHEDULES: [(bool, bool, u64, u64); 4] = [
    (false, false, 1078, 123_500),
    (false, true, 488, 106_376),
    (true, false, 1078, 90_212),
    (true, true, 488, 73_088),
];

/// Wire bytes of the `(true, true)` schedule over `TcpTransport` at commit
/// 5eeceba (same 488 messages; TCP framing costs 24 bytes a message more).
const TCP_WIRE_BYTES: u64 = 84_800;

fn pinned(messages: u64, wire_bytes: u64) -> Witness {
    Witness {
        messages,
        wire_bytes,
        l_prime: L_PRIME,
        l_double_prime: L_DOUBLE_PRIME,
        safe: SAFE.to_vec(),
        certificate: CERTIFICATE.to_string(),
    }
}

#[test]
fn one_shot_wire_schedule_is_pinned_for_every_option_combination() {
    for (compact_lr, prefetch_ld, messages, wire_bytes) in SCHEDULES {
        let report = run_federation_with(
            config(),
            params(),
            study(),
            None,
            options(compact_lr, prefetch_ld),
        )
        .unwrap();
        assert_eq!(
            witness(&report),
            pinned(messages, wire_bytes),
            "compact_lr={compact_lr} prefetch_ld={prefetch_ld}"
        );
    }
}

#[test]
fn one_shot_wire_schedule_is_pinned_over_tcp() {
    // The CLI's combination: same message schedule, TCP's own framing.
    let (compact_lr, prefetch_ld, messages, _) = SCHEDULES[3];
    let (roster, listeners) = ephemeral_listeners(G).expect("localhost listeners");
    let transports: Vec<TcpTransport> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            TcpTransport::from_listener(PeerId(id as u32), listener, &roster, TcpOptions::default())
                .expect("transport from bound listener")
        })
        .collect();
    let report = run_federation_over(
        transports,
        config(),
        params(),
        study(),
        options(compact_lr, prefetch_ld),
    )
    .unwrap();
    assert_eq!(witness(&report), pinned(messages, TCP_WIRE_BYTES));
}

/// Leader enclave peak of the compact runs at commit e45d434, the last one
/// whose leader packed genotypes row-major, cell by cell, and held parts,
/// merged matrix and null model together.
const ROW_MAJOR_COMPACT_LEADER_PEAK: u64 = 5_616;

fn leader_peak(report: &RuntimeReport) -> u64 {
    report
        .resources
        .iter()
        .find(|m| m.id == report.leader)
        .expect("leader reports resources")
        .peak_enclave_bytes
}

#[test]
fn compact_leader_peak_on_this_study_is_not_above_the_row_major_engines() {
    // The session-long SNP-major reference (N_ref × L_des / 8 bytes) is new
    // metered state. On this narrow study, releasing the parts once they
    // are stitched pays for it; on wide panels the reference dominates
    // (EXPERIMENTS.md, Table 3).
    let run = |compact_lr| {
        run_federation_with(config(), params(), study(), None, options(compact_lr, true)).unwrap()
    };
    let (dense, compact) = (run(false), run(true));
    assert_eq!(dense.safe_snps, compact.safe_snps);
    assert_eq!(dense.traffic.messages, compact.traffic.messages);
    assert!(
        leader_peak(&compact) <= ROW_MAJOR_COMPACT_LEADER_PEAK,
        "compact leader peak {} above the row-major engine's {ROW_MAJOR_COMPACT_LEADER_PEAK}",
        leader_peak(&compact)
    );
    assert!(leader_peak(&compact) < leader_peak(&dense));
}
