//! Distributed-deployment integration tests: the same seeded study must
//! produce bit-identical results whether the federation runs over the
//! in-memory fabric or over real TCP sockets, and a member that never
//! shows up must abort the protocol cleanly instead of hanging.

use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::error::ProtocolError;
use gendpr::core::release::GwasRelease;
use gendpr::core::runtime::{
    run_federation_over, run_federation_with, run_member, RecoveryOptions, RuntimeOptions,
    RuntimeReport,
};
use gendpr::fednet::fault::FaultPlan;
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::{PeerId, Transport};
use gendpr::genomics::cohort::Cohort;
use gendpr::genomics::synth::SyntheticCohort;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn study() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(120)
        .case_individuals(90)
        .reference_individuals(80)
        .seed(23)
        .build()
}

fn config(g: usize) -> FederationConfig {
    FederationConfig::new(g)
        .with_collusion(CollusionMode::Fixed(1))
        .with_seed(17)
}

fn options() -> RuntimeOptions {
    RuntimeOptions {
        timeout: TIMEOUT,
        ..RuntimeOptions::default()
    }
}

fn run_over_tcp(g: usize, cohort: &Cohort) -> Result<RuntimeReport, ProtocolError> {
    run_over_tcp_with(g, cohort, GwasParams::secure_genome_defaults(), options())
}

fn run_over_tcp_with(
    g: usize,
    cohort: &Cohort,
    params: GwasParams,
    opts: RuntimeOptions,
) -> Result<RuntimeReport, ProtocolError> {
    let (roster, listeners) = ephemeral_listeners(g).expect("localhost listeners");
    let transports: Vec<TcpTransport> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            TcpTransport::from_listener(PeerId(id as u32), listener, &roster, TcpOptions::default())
                .expect("transport from bound listener")
        })
        .collect();
    run_federation_over(transports, config(g), params, cohort, opts)
}

fn release_of(cohort: &Cohort, report: &RuntimeReport) -> String {
    GwasRelease::noise_free(
        &report.safe_snps,
        &cohort.case().column_counts(),
        cohort.case_individuals() as u64,
        &cohort.reference().column_counts(),
        cohort.reference_individuals() as u64,
    )
    .to_tsv()
}

#[test]
fn tcp_and_in_memory_runs_are_bit_identical() {
    let g = 3;
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let in_memory = run_federation_with(
        config(g),
        GwasParams::secure_genome_defaults(),
        cohort,
        None,
        options(),
    )
    .unwrap();
    let over_tcp = run_over_tcp(g, cohort).unwrap();

    assert_eq!(over_tcp.leader, in_memory.leader);
    assert_eq!(over_tcp.l_prime, in_memory.l_prime);
    assert_eq!(over_tcp.l_double_prime, in_memory.l_double_prime);
    assert_eq!(over_tcp.safe_snps, in_memory.safe_snps);
    // The certificate binds parameters, input digests and L_safe; identical
    // certificates mean the two deployments assessed the same study the
    // same way down to every signed byte.
    assert_eq!(over_tcp.certificate, in_memory.certificate);
    // And the published artifact is byte-identical.
    assert_eq!(
        release_of(cohort, &over_tcp),
        release_of(cohort, &in_memory)
    );
}

#[test]
fn cli_options_over_tcp_match_the_in_memory_run() {
    // The CLI's combination — compact Phase 3 reports and the batched LD
    // round — must give the same release bytes and the same signed
    // certificate over real TCP sockets as on the in-memory fabric.
    let g = 3;
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let params = GwasParams::secure_genome_defaults();
    let cli = RuntimeOptions {
        compact_lr: true,
        prefetch_ld: true,
        ..options()
    };
    let in_memory = run_federation_with(config(g), params, cohort, None, cli).unwrap();
    let over_tcp = run_over_tcp_with(g, cohort, params, cli).unwrap();
    assert_eq!(over_tcp.safe_snps, in_memory.safe_snps);
    assert_eq!(over_tcp.certificate, in_memory.certificate);
    assert_eq!(
        release_of(cohort, &over_tcp),
        release_of(cohort, &in_memory)
    );
}

#[test]
fn a_rejecting_lr_phase_agrees_on_dense_and_compact_in_memory_and_over_tcp() {
    // A study with strong effects: the subset search really rejects
    // columns here, exercising the back-out path. Each wire format must
    // reproduce its in-memory run over TCP, and the two formats must sign
    // the same certificate.
    let g = 3;
    let study = SyntheticCohort::builder()
        .snps(140)
        .case_individuals(130)
        .reference_individuals(110)
        .effects(0.3, 0.5)
        .seed(41)
        .build();
    let cohort: &Cohort = study.as_ref();
    let mut params = GwasParams::secure_genome_defaults();
    params.lr.power_threshold = 0.6;
    let mut certificates = Vec::new();
    for compact_lr in [false, true] {
        let opts = RuntimeOptions {
            compact_lr,
            ..options()
        };
        let in_memory = run_federation_with(config(g), params, cohort, None, opts).unwrap();
        assert!(
            in_memory.safe_snps.len() < in_memory.l_double_prime.len(),
            "study must make the LR phase reject something"
        );
        let over_tcp = run_over_tcp_with(g, cohort, params, opts).unwrap();
        assert_eq!(over_tcp.leader, in_memory.leader, "compact={compact_lr}");
        assert_eq!(over_tcp.l_prime, in_memory.l_prime, "compact={compact_lr}");
        assert_eq!(
            over_tcp.l_double_prime, in_memory.l_double_prime,
            "compact={compact_lr}"
        );
        assert_eq!(
            over_tcp.safe_snps, in_memory.safe_snps,
            "compact={compact_lr}"
        );
        assert_eq!(over_tcp.certificate, in_memory.certificate);
        assert_eq!(
            release_of(cohort, &over_tcp),
            release_of(cohort, &in_memory)
        );
        certificates.push(in_memory.certificate);
    }
    assert_eq!(certificates[0], certificates[1], "dense vs compact");
}

#[test]
fn tcp_traffic_is_metered_with_framing_overhead() {
    let g = 3;
    let study = study();
    let in_memory = run_federation_with(
        config(g),
        GwasParams::secure_genome_defaults(),
        study.as_ref(),
        None,
        options(),
    )
    .unwrap();
    let over_tcp = run_over_tcp(g, study.as_ref()).unwrap();

    assert_eq!(over_tcp.traffic.messages, in_memory.traffic.messages);
    assert!(
        over_tcp.traffic.wire_bytes > 0,
        "real bytes on real sockets"
    );
    // TCP framing (length prefix + frame header fields) costs strictly more
    // than the in-memory fabric's accounting of the same ciphertexts.
    assert!(
        over_tcp.traffic.wire_bytes > in_memory.traffic.wire_bytes,
        "tcp {} vs in-memory {}",
        over_tcp.traffic.wire_bytes,
        in_memory.traffic.wire_bytes
    );
}

#[test]
fn member_outcomes_agree_across_processes_in_spirit() {
    // run_member is the daemon's entry point: drive it directly on separate
    // threads (one "process" each — no shared Network object) and check
    // every member independently derives the same federation.
    let g = 3;
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let (roster, listeners) = ephemeral_listeners(g).expect("localhost listeners");
    let shards = cohort.split_case_among(g);
    let reference = cohort.reference().clone();

    let mut handles = Vec::new();
    for ((id, listener), shard) in listeners.into_iter().enumerate().zip(shards) {
        let roster = roster.clone();
        let reference = reference.clone();
        handles.push(std::thread::spawn(move || {
            let transport = TcpTransport::from_listener(
                PeerId(id as u32),
                listener,
                &roster,
                TcpOptions::default(),
            )
            .expect("transport from bound listener");
            run_member(
                transport,
                id,
                &config(g),
                &GwasParams::secure_genome_defaults(),
                options(),
                shard,
                &reference,
            )
        }));
    }
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().unwrap().unwrap())
        .collect();

    let leader = outcomes[0].leader;
    let safe = outcomes[0].safe_snps.clone();
    assert!(!safe.is_empty(), "study should retain some SNPs");
    for o in &outcomes {
        assert_eq!(o.leader, leader, "member {} disagrees on leader", o.id);
        assert_eq!(o.safe_snps, safe, "member {} disagrees on L_safe", o.id);
        assert!(o.egress.wire_bytes > 0, "member {} sent nothing", o.id);
        assert!(o.ingress.wire_bytes > 0, "member {} received nothing", o.id);
        for (peer, stats) in &o.links {
            assert!(stats.wire_bytes > 0, "member {} link to {peer} idle", o.id);
        }
    }
    let certificates: Vec<_> = outcomes
        .iter()
        .filter_map(|o| o.certificate.clone())
        .collect();
    assert_eq!(certificates.len(), 1, "exactly one leader signs");
}

/// Runs a `g`-member federation with the epoch recovery layer enabled,
/// under `faults`, over either transport. The 2-second phase timeout is
/// also the failure-detection horizon, so a crashed member is suspected
/// quickly without flaking healthy phases.
fn run_recovering(
    tcp: bool,
    g: usize,
    faults: &FaultPlan,
    max_epochs: u64,
) -> Result<RuntimeReport, ProtocolError> {
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let opts = RuntimeOptions {
        timeout: Duration::from_secs(2),
        recovery: RecoveryOptions {
            max_epochs,
            ..RecoveryOptions::default()
        },
        ..RuntimeOptions::default()
    };
    if !tcp {
        return run_federation_with(
            config(g),
            GwasParams::secure_genome_defaults(),
            cohort,
            Some(faults.clone()),
            opts,
        );
    }
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
            t.set_faults(faults.clone());
            t
        })
        .collect();
    run_federation_over(
        transports,
        config(g),
        GwasParams::secure_genome_defaults(),
        cohort,
        opts,
    )
}

#[test]
fn non_leader_crash_mid_phase2_yields_epoch_two_certificate() {
    // G = 5, f = 1: a follower goes dark right after shipping its counts
    // checkpoint (4 commits + 4 reveals + handshake + counts = 10 sends),
    // so the leader's Phase 2 moments query is what exposes the crash.
    // The survivors must re-form in epoch 2 and certify the degraded
    // roster.
    let g = 5;
    let clean = run_recovering(false, g, &FaultPlan::none(), 1).unwrap();
    let victim = (0..g).find(|&m| m != clean.leader).unwrap();
    let mut faults = FaultPlan::none();
    faults.crash_after_sends(victim as u32, 10);

    for tcp in [false, true] {
        let report = run_recovering(tcp, g, &faults, 4).unwrap();
        assert!(report.epoch >= 2, "tcp={tcp}: expected a view change");
        assert_eq!(report.roster.len(), g - 1, "tcp={tcp}");
        assert!(
            !report.roster.contains(&(victim as u32)),
            "tcp={tcp}: victim must leave the roster"
        );
        assert_eq!(report.failed, vec![victim], "tcp={tcp}");
        // The degraded roster is bound into the signed certificate.
        assert_eq!(report.certificate.epoch, report.epoch, "tcp={tcp}");
        assert_eq!(report.certificate.roster, report.roster, "tcp={tcp}");
        assert!(!report.safe_snps.is_empty() || clean.safe_snps.is_empty());
    }
}

#[test]
fn leader_crash_triggers_deterministic_reelection_on_both_transports() {
    // The epoch-1 leader goes dark right after its Phase 1 broadcast
    // (8 election frames + 4 handshakes + 4 Phase-1 messages = 16 sends).
    // Every follower must suspect it, re-elect among the survivors and
    // finish — and because each member draws exactly one fresh nonce per
    // epoch from its seeded RNG, the epoch-2 election must land on the
    // same new leader over the in-memory fabric and over TCP.
    let g = 5;
    let clean = run_recovering(false, g, &FaultPlan::none(), 1).unwrap();
    let victim = clean.leader;
    let mut faults = FaultPlan::none();
    faults.crash_after_sends(victim as u32, 16);

    let mut reports = Vec::new();
    for tcp in [false, true] {
        let report = run_recovering(tcp, g, &faults, 4).unwrap();
        assert!(report.epoch >= 2, "tcp={tcp}");
        assert_ne!(report.leader, victim, "tcp={tcp}: a new leader must emerge");
        assert!(!report.roster.contains(&(victim as u32)), "tcp={tcp}");
        assert_eq!(report.failed, vec![victim], "tcp={tcp}");
        reports.push(report);
    }
    let (mem, tcp) = (&reports[0], &reports[1]);
    assert_eq!(mem.leader, tcp.leader, "re-election must be deterministic");
    assert_eq!(mem.epoch, tcp.epoch);
    assert_eq!(mem.roster, tcp.roster);
    assert_eq!(mem.safe_snps, tcp.safe_snps);
    assert_eq!(mem.certificate, tcp.certificate);
}

#[test]
fn losing_more_than_f_members_reports_quorum_lost() {
    // G = 5, f = 1 needs G − f = 4 survivors; two crashed members leave
    // only 3, so recovery must give up with the precise error rather than
    // a generic timeout — on both transports.
    let g = 5;
    let mut faults = FaultPlan::none();
    faults.crash(3);
    faults.crash(4);
    for tcp in [false, true] {
        let err = run_recovering(tcp, g, &faults, 6).unwrap_err();
        match err {
            ProtocolError::QuorumLost {
                survivors,
                required,
                ..
            } => {
                assert_eq!(survivors, 3, "tcp={tcp}");
                assert_eq!(required, 4, "tcp={tcp}");
            }
            other => panic!("tcp={tcp}: expected QuorumLost, got {other:?}"),
        }
    }
}

#[test]
fn degraded_run_covering_the_full_cohort_matches_a_crash_free_release() {
    // 4 case genomes split among 5 GDOs leave member 4 with an empty
    // shard. Crashing it after its (empty) counts checkpoint degrades the
    // federation to exactly the members that hold data, so the epoch-2
    // decision must match a crash-free 4-member run bit for bit: same
    // pooled inputs, same safe set, same roster — only the study shape
    // (original G) and the epoch differ.
    let study = SyntheticCohort::builder()
        .snps(100)
        .case_individuals(4)
        .reference_individuals(60)
        .seed(23)
        .build();
    let cohort: &Cohort = study.as_ref();
    let params = GwasParams::secure_genome_defaults();
    let opts = |max_epochs| RuntimeOptions {
        timeout: Duration::from_secs(2),
        recovery: RecoveryOptions {
            max_epochs,
            ..RecoveryOptions::default()
        },
        ..RuntimeOptions::default()
    };

    // Pick a federation seed whose epoch-1 leader is not member 4, so the
    // victim's pre-crash send schedule is the follower one.
    let seed = (17..40)
        .find(|&s| {
            run_federation_with(config(5).with_seed(s), params, cohort, None, opts(1))
                .unwrap()
                .leader
                != 4
        })
        .expect("some seed elects a leader other than member 4");

    let mut faults = FaultPlan::none();
    faults.crash_after_sends(4, 10);
    let degraded = run_federation_with(
        config(5).with_seed(seed),
        params,
        cohort,
        Some(faults),
        opts(4),
    )
    .unwrap();
    let crash_free =
        run_federation_with(config(4).with_seed(seed), params, cohort, None, opts(1)).unwrap();

    assert!(degraded.epoch >= 2);
    assert_eq!(degraded.roster, vec![0, 1, 2, 3]);
    assert_eq!(degraded.failed, vec![4]);
    assert_eq!(crash_free.epoch, 1);
    // The survivors held the entire cohort, so the certified decision is
    // identical to never having invited member 4 at all.
    assert_eq!(degraded.safe_snps, crash_free.safe_snps);
    assert_eq!(
        degraded.certificate.inputs_digest,
        crash_free.certificate.inputs_digest
    );
    assert_eq!(
        degraded.certificate.safe_digest,
        crash_free.certificate.safe_digest
    );
    assert_eq!(degraded.certificate.roster, crash_free.certificate.roster);
    // And the published artifact is byte-identical.
    assert_eq!(
        release_of(cohort, &degraded),
        release_of(cohort, &crash_free)
    );
}

#[test]
fn never_connecting_member_aborts_cleanly_within_deadline() {
    let g = 3;
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let (roster, listeners) = ephemeral_listeners(g).expect("localhost listeners");
    // Member 2 never starts: drop its listener so nothing ever accepts or
    // dials from that slot.
    let mut listeners = listeners.into_iter();
    let short = RuntimeOptions {
        timeout: Duration::from_secs(2),
        ..RuntimeOptions::default()
    };
    let opts = TcpOptions {
        connect_timeout: Duration::from_secs(2),
        ..TcpOptions::default()
    };

    let mut handles = Vec::new();
    let shards = cohort.split_case_among(g);
    let reference = cohort.reference().clone();
    for (id, shard) in shards.into_iter().enumerate().take(2) {
        let listener = listeners.next().unwrap();
        let roster = roster.clone();
        let reference = reference.clone();
        handles.push(std::thread::spawn(move || {
            let transport = TcpTransport::from_listener(PeerId(id as u32), listener, &roster, opts)
                .expect("transport from bound listener");
            run_member(
                transport,
                id,
                &config(g),
                &GwasParams::secure_genome_defaults(),
                short,
                shard,
                &reference,
            )
        }));
    }
    let started = std::time::Instant::now();
    for handle in handles {
        let err = handle.join().expect("no panic").unwrap_err();
        assert!(
            matches!(err, ProtocolError::MemberUnresponsive { .. }),
            "{err:?}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "abort must not hang: took {:?}",
        started.elapsed()
    );
}
