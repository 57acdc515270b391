//! Distributed-deployment integration tests: the same seeded study must
//! produce bit-identical results whether the federation runs over the
//! in-memory fabric or over real TCP sockets, frames forged onto a
//! member's port from outside must not change what it certifies, and a
//! member that never shows up must abort the protocol cleanly instead of
//! hanging.

use gendpr::core::certificate::AssessmentCertificate;
use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::error::ProtocolError;
use gendpr::core::release::GwasRelease;
use gendpr::core::runtime::{
    run_federation_over, run_federation_with, run_member, RuntimeOptions, RuntimeReport,
};
use gendpr::core::serving::{JobSpec, ServiceFederation};
use gendpr::fednet::tcp::{
    encode_frame, ephemeral_listeners, Roster, TcpFrame, TcpOptions, TcpTransport,
};
use gendpr::fednet::transport::PeerId;
use gendpr::fednet::wire;
use gendpr::genomics::cohort::Cohort;
use gendpr::genomics::snp::SnpId;
use gendpr::genomics::synth::SyntheticCohort;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
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
    run_federation_over(
        tcp_transports(&roster, listeners),
        config(g),
        params,
        cohort,
        opts,
    )
}

/// One member transport per listener, in id order.
fn tcp_transports(roster: &Roster, listeners: Vec<TcpListener>) -> Vec<TcpTransport> {
    listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            TcpTransport::from_listener(PeerId(id as u32), listener, roster, TcpOptions::default())
                .expect("transport from bound listener")
        })
        .collect()
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

/// Frame bytes as the runtime lays them out: epoch, sequence number, body
/// tag, body. Tags 4–6 (a probe, its answer, a view change) are retired.
fn frame_bytes(epoch: u64, seq: u64, tag: u8, body: &[u8]) -> Vec<u8> {
    let mut bytes = [epoch.to_le_bytes(), seq.to_le_bytes()].concat();
    bytes.push(tag);
    bytes.extend_from_slice(body);
    bytes
}

/// The body of a sealed frame (tag 3) no key made: 40 bytes of garbage.
fn sealed_garbage() -> Vec<u8> {
    [&40u64.to_le_bytes()[..], &[0xa5; 40]].concat()
}

/// Sends each `(claimed sender, frame)` to the member listening on `addr`
/// from a raw socket, as anyone who can reach the port can, then gives the
/// member's reader threads a moment to queue them ahead of what follows.
fn forge(addr: SocketAddr, frames: &[(u32, Vec<u8>)]) {
    let mut stream = TcpStream::connect(addr).expect("reach the member's port");
    for (from, payload) in frames {
        let frame = TcpFrame {
            from: *from,
            plaintext_len: 0,
            payload: payload.clone(),
        };
        stream.write_all(&encode_frame(&frame).unwrap()).unwrap();
    }
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));
}

#[test]
fn a_forged_view_change_cannot_drop_a_live_member_from_the_release() {
    // Before the run, members 0 and 1 each get an unsealed `{epoch 2,
    // seq 0, ViewChange([0, 1])}` claiming to come from the other. A
    // one-shot run with a second epoch to spare used to take it and
    // certify without the live member 2; the frame is now dropped, and the
    // run certifies what a clean one does.
    let g = 3;
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let params = GwasParams::secure_genome_defaults();
    let clean = run_federation_with(config(g), params, cohort, None, options()).unwrap();
    let (roster, listeners) = ephemeral_listeners(g).expect("localhost listeners");
    let transports = tcp_transports(&roster, listeners);
    let view_change = frame_bytes(2, 0, 6, &wire::to_bytes(&vec![0u32, 1]));
    forge(roster[0].1, &[(1, view_change.clone())]);
    forge(roster[1].1, &[(0, view_change)]);
    let forged = run_federation_over(transports, config(g), params, cohort, options()).unwrap();
    assert_eq!(forged.safe_snps, clean.safe_snps);
    assert_eq!(forged.certificate, clean.certificate);
    assert_eq!(release_of(cohort, &forged), release_of(cohort, &clean));
}

#[test]
fn a_forged_frame_before_the_handshake_is_not_blamed_on_the_peer_it_names() {
    // Before the run, member 0 gets `{epoch 1, seq 0, Ping}` claiming to
    // come from member 1. Taken as member 1's first frame, it used to end
    // the run in `MalformedMessage { member: 1 }`, blaming an honest peer.
    // Probes are retired, so the frame does not decode and is dropped: the
    // run certifies what a clean one does.
    let g = 3;
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let params = GwasParams::secure_genome_defaults();
    let clean = run_federation_with(config(g), params, cohort, None, options()).unwrap();
    let (roster, listeners) = ephemeral_listeners(g).expect("localhost listeners");
    let transports = tcp_transports(&roster, listeners);
    forge(roster[0].1, &[(1, frame_bytes(1, 0, 4, &[]))]);
    let run = run_federation_over(transports, config(g), params, cohort, options());
    assert!(
        !matches!(run, Err(ProtocolError::MalformedMessage { member: 1 })),
        "an honest peer is blamed"
    );
    assert_eq!(
        run.expect("the forged probe is dropped").certificate,
        clean.certificate
    );
}

#[test]
fn frames_forged_into_a_seated_service_session_change_no_certificate() {
    // Once every member of a session is seated, each gets, claiming each
    // other member, sealed garbage at the next sequence number of that
    // link, an unsealed commit at the same number and sealed garbage
    // stamped with a stale epoch. The jobs run afterwards must certify
    // exactly what a clean session certifies.
    let g = 3;
    let study = study();
    let cohort: &Cohort = study.as_ref();
    let params = GwasParams::secure_genome_defaults();
    let jobs = |session: &mut ServiceFederation| -> Vec<AssessmentCertificate> {
        let panel: Vec<SnpId> = (0..120).map(SnpId).collect();
        let first = JobSpec {
            job_id: 1,
            panel: panel.clone(),
            forced: vec![],
        };
        let first = session.submit(&first).expect("first job");
        let second = JobSpec {
            job_id: 2,
            panel: panel[..60].to_vec(),
            forced: first.released.clone(),
        };
        let second = session.submit(&second).expect("second job");
        vec![first.certificate, second.certificate]
    };
    let mut clean =
        ServiceFederation::start_in_memory(config(g), params, cohort, options()).unwrap();
    let expected = jobs(&mut clean);
    clean.shutdown().unwrap();

    let (roster, listeners) = ephemeral_listeners(g).expect("localhost listeners");
    let transports = tcp_transports(&roster, listeners);
    let mut session =
        ServiceFederation::start_over(transports, config(g), params, cohort, options()).unwrap();
    // Seated, a link has carried a commit and a reveal, then the handshake
    // if the leader is at either end, then a follower's counts: that fixes
    // the sequence number its next genuine frame takes.
    let leader = session.leader();
    for (member, &(_, addr)) in roster.iter().enumerate() {
        let mut frames = Vec::new();
        for claimed in (0..g).filter(|&c| c != member) {
            let next = match (claimed == leader, member == leader) {
                (true, _) => 3,
                (_, true) => 4,
                _ => 2,
            };
            for frame in [
                frame_bytes(1, next, 3, &sealed_garbage()),
                frame_bytes(1, next, 0, &[7; 32]),
                frame_bytes(0, next, 3, &sealed_garbage()),
            ] {
                frames.push((claimed as u32, frame));
            }
        }
        forge(addr, &frames);
    }
    assert_eq!(jobs(&mut session), expected);
    session.shutdown().unwrap();
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
