//! Service-session integration tests: a long-lived federation serves a
//! queue of assessment jobs over one attestation, charges every job's LR
//! budget against the union of earlier releases, and produces
//! byte-identical certificates over the in-memory fabric and real TCP
//! sockets.

use gendpr::core::attack::{MembershipAttacker, ReleasedStatistics};
use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::error::ProtocolError;
use gendpr::core::runtime::{run_federation_with, RuntimeOptions};
use gendpr::core::serving::{JobOutcome, JobSpec, ServiceFederation};
use gendpr::fednet::client::read_message_capped;
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::PeerId;
use gendpr::genomics::snp::SnpId;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::service::daemon::AssessmentService;
use gendpr::service::ledger::{audit_records, JobKind, LedgerRecord, ReleaseLedger};
use gendpr::service::{ClientRequest, SchedulerConfig, ServiceClient};
use gendpr::stats::lr::LrTestParams;
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn study() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(100)
        .case_individuals(120)
        .reference_individuals(100)
        .seed(41)
        .drift(0.25)
        .build()
}

fn config(g: usize) -> FederationConfig {
    FederationConfig::new(g).with_seed(29)
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

fn options() -> RuntimeOptions {
    RuntimeOptions {
        timeout: TIMEOUT,
        ..RuntimeOptions::default()
    }
}

fn snps(range: std::ops::Range<u32>) -> Vec<SnpId> {
    range.map(SnpId).collect()
}

fn start_tcp_session(g: usize) -> ServiceFederation {
    start_tcp_session_with(g, options())
}

fn start_tcp_session_with(g: usize, options: RuntimeOptions) -> ServiceFederation {
    let (roster, listeners) = ephemeral_listeners(g).expect("localhost listeners");
    let transports: Vec<TcpTransport> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            TcpTransport::from_listener(PeerId(id as u32), listener, &roster, TcpOptions::default())
                .expect("transport from bound listener")
        })
        .collect();
    ServiceFederation::start_over(transports, config(g), params(), study(), options)
        .expect("session starts")
}

#[test]
fn two_jobs_charge_the_cumulative_release() {
    let mut session =
        ServiceFederation::start_in_memory(config(3), params(), study(), options()).unwrap();

    let first = session
        .submit(&JobSpec {
            job_id: 1,
            panel: snps(0..60),
            forced: vec![],
        })
        .unwrap();
    assert!(!first.released.is_empty(), "first job releases something");
    assert!(first.released.iter().all(|s| s.0 < 60));
    assert!(first.final_power < params().lr.power_threshold);
    assert_ne!(
        first.certificate.context_digest, [0u8; 32],
        "service certificates bind a job context"
    );
    assert_eq!(first.case_freqs.len(), first.released.len());
    assert_eq!(first.ref_freqs.len(), first.released.len());

    // Second, overlapping study: everything released so far is forced
    // into the LR seed, so the certified power covers BOTH releases.
    let second = session
        .submit(&JobSpec {
            job_id: 2,
            panel: snps(30..100),
            forced: first.released.clone(),
        })
        .unwrap();
    assert!(
        second
            .released
            .iter()
            .all(|s| first.released.binary_search(s).is_err()),
        "released sets never overlap the forced prefix"
    );
    assert!(second.final_power < params().lr.power_threshold);
    assert_ne!(second.certificate, first.certificate);

    // The certified claim, checked by the adversary: an LR membership
    // attacker holding the whole cumulative release (both jobs' SNPs at
    // the pooled frequencies) stays below the threshold. An LR search that
    // ignores `forced` releases a union this attacker reads at ≈ 0.97.
    let cohort = study();
    let mut union = [first.released.as_slice(), &second.released].concat();
    union.sort_unstable();
    let freqs = |m: &gendpr::genomics::genotype::GenotypeMatrix| {
        let (counts, n) = (m.column_counts(), m.individuals() as f64);
        union
            .iter()
            .map(|s| counts[s.index()] as f64 / n)
            .collect::<Vec<_>>()
    };
    let release = ReleasedStatistics {
        case_freqs: freqs(cohort.case()),
        ref_freqs: freqs(cohort.reference()),
        snps: union.clone(),
    };
    let attacker =
        MembershipAttacker::calibrate(release, cohort.reference(), params().lr.false_positive_rate);
    let power = attacker.power_against(cohort.case());
    assert!(
        power < params().lr.power_threshold,
        "the cumulative release of {} SNPs reads power {power}",
        union.len()
    );

    // Per-job traffic covers every directed link of a 3-member clique;
    // only the leader's star carries bytes (followers never talk to each
    // other during a job).
    assert_eq!(first.traffic.len(), 6);
    let leader = first.leader as u32;
    for link in &first.traffic {
        if link.from == leader || link.to == leader {
            assert!(link.stats.wire_bytes > 0, "leader link {link:?} is silent");
        }
    }

    session.shutdown().unwrap();
}

#[test]
fn twenty_in_memory_jobs_never_wait_out_a_probe_interval() {
    // A 120 s timeout makes every silent probe interval 40 s. The serving
    // leader ends each job with a burst and then idles on its command
    // queue, so a fabric wake that outlived the burst would leave a
    // member asleep until its interval ran out.
    let options = RuntimeOptions {
        timeout: Duration::from_secs(120),
        prefetch_ld: true,
        ..RuntimeOptions::default()
    };
    let config = config(3).with_collusion(CollusionMode::Fixed(1));
    let started = std::time::Instant::now();
    let mut session =
        ServiceFederation::start_in_memory(config, params(), study(), options).unwrap();
    let mut forced: Vec<SnpId> = Vec::new();
    for job_id in 1..=20u64 {
        let start = (job_id as u32 * 7) % 60;
        let outcome = session
            .submit(&JobSpec {
                job_id,
                panel: snps(start..start + 40),
                forced: forced.clone(),
            })
            .unwrap();
        forced.extend(outcome.released);
        forced.sort_unstable();
    }
    session.shutdown().unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "20 jobs took {elapsed:?}: something slept through a probe interval"
    );
}

#[test]
fn full_panel_job_matches_the_one_shot_runtime() {
    // A single job over the full panel with nothing forced must select
    // exactly what the one-shot runtime selects: the session layer may
    // not perturb the assessment itself — under the paper-faithful
    // defaults and under the options the CLI's commands run with.
    let cli_options = RuntimeOptions {
        compact_lr: true,
        prefetch_ld: true,
        ..options()
    };
    for options in [options(), cli_options] {
        let standalone = run_federation_with(config(3), params(), study(), None, options).unwrap();

        let mut session =
            ServiceFederation::start_in_memory(config(3), params(), study(), options).unwrap();
        let job = session
            .submit(&JobSpec {
                job_id: 7,
                panel: snps(0..100),
                forced: vec![],
            })
            .unwrap();
        assert_eq!(job.leader, standalone.leader);
        assert_eq!(job.l_prime, standalone.l_prime);
        assert_eq!(job.l_double_prime, standalone.l_double_prime);
        assert_eq!(job.released, standalone.safe_snps);
        // Same safe set, but the service certificate additionally binds the
        // job context, so the quotes must differ.
        assert_eq!(
            job.certificate.safe_digest,
            standalone.certificate.safe_digest
        );
        assert_ne!(job.certificate, standalone.certificate);
        session.shutdown().unwrap();
    }
}

#[test]
fn sessions_honour_prefetch_ld_with_identical_results_and_fewer_messages() {
    // The batched LD round changes how many messages a job costs, never
    // what it decides: the same two-job sequence with the option on and
    // off, on both transports.
    let run = |mut session: ServiceFederation| {
        let first = session
            .submit(&JobSpec {
                job_id: 1,
                panel: snps(0..70),
                forced: vec![],
            })
            .unwrap();
        let second = session
            .submit(&JobSpec {
                job_id: 2,
                panel: snps(40..100),
                forced: first.released.clone(),
            })
            .unwrap();
        session.shutdown().unwrap();
        [first, second]
    };
    let prefetching = RuntimeOptions {
        prefetch_ld: true,
        ..options()
    };
    let messages =
        |job: &JobOutcome| -> u64 { job.traffic.iter().map(|link| link.stats.messages).sum() };
    let pairs = [
        (
            run(
                ServiceFederation::start_in_memory(config(3), params(), study(), options())
                    .unwrap(),
            ),
            run(
                ServiceFederation::start_in_memory(config(3), params(), study(), prefetching)
                    .unwrap(),
            ),
        ),
        (
            run(start_tcp_session(3)),
            run(start_tcp_session_with(3, prefetching)),
        ),
    ];
    for (per_pair, batched) in &pairs {
        for (off, on) in per_pair.iter().zip(batched) {
            assert_eq!(off.l_prime, on.l_prime);
            assert_eq!(off.l_double_prime, on.l_double_prime);
            assert_eq!(off.released, on.released);
            assert_eq!(off.certificate, on.certificate);
            assert!(
                messages(on) < messages(off),
                "job {}: {} messages batched vs {} per pair",
                on.job_id,
                messages(on),
                messages(off)
            );
        }
    }
}

#[test]
fn jobs_are_byte_identical_across_transports() {
    let jobs = [
        JobSpec {
            job_id: 1,
            panel: snps(0..70),
            forced: vec![],
        },
        JobSpec {
            job_id: 2,
            panel: snps(40..100),
            forced: vec![], // filled from job 1 below
        },
    ];

    let run = |mut session: ServiceFederation| {
        let first = session.submit(&jobs[0]).unwrap();
        let mut second_spec = jobs[1].clone();
        second_spec.forced = first.released.clone();
        let second = session.submit(&second_spec).unwrap();
        session.shutdown().unwrap();
        (first, second)
    };

    let memory =
        run(ServiceFederation::start_in_memory(config(3), params(), study(), options()).unwrap());
    let tcp = run(start_tcp_session(3));

    assert_eq!(memory.0.released, tcp.0.released);
    assert_eq!(memory.1.released, tcp.1.released);
    assert_eq!(
        memory.0.certificate, tcp.0.certificate,
        "certificates must be byte-identical across transports"
    );
    assert_eq!(memory.1.certificate, tcp.1.certificate);
    assert_eq!(memory.1.final_power, tcp.1.final_power);
}

#[test]
fn collusion_subsets_apply_per_job() {
    let config = config(3).with_collusion(CollusionMode::Fixed(1));
    let mut session =
        ServiceFederation::start_in_memory(config, params(), study(), options()).unwrap();
    let job = session
        .submit(&JobSpec {
            job_id: 1,
            panel: snps(0..80),
            forced: vec![],
        })
        .unwrap();
    // The certificate records one evaluation per collusion subset.
    assert!(job.certificate.evaluations > 1);
    session.shutdown().unwrap();
}

fn temp_ledger(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gendpr-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("ledger.bin")
}

fn start_daemon(ledger: ReleaseLedger) -> AssessmentService {
    let cohort = study();
    let federation =
        ServiceFederation::start_in_memory(config(3), params(), &cohort, options()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral client listener");
    AssessmentService::start_with(
        vec![federation],
        ledger,
        cohort.as_ref(),
        params(),
        listener,
        SchedulerConfig::default(),
    )
    .expect("daemon starts")
}

/// Strips the timing-dependent field (idle-keepalive Pongs can land in a
/// job's traffic window) so records can be compared for determinism.
fn deterministic(record: &LedgerRecord) -> LedgerRecord {
    LedgerRecord {
        traffic: Vec::new(),
        ..record.clone()
    }
}

#[test]
fn daemon_restart_preserves_the_second_certificate() {
    // Continuous daemon: job 1 then job 2 against one ledger.
    let continuous_path = temp_ledger("continuous");
    let mut continuous = start_daemon(ReleaseLedger::open(&continuous_path).unwrap());
    let first = continuous.execute((0..60).collect()).unwrap();
    assert_eq!(first.job_id, 1);
    assert!(!first.released.is_empty());
    let second = continuous.execute((30..100).collect()).unwrap();
    assert_eq!(second.job_id, 2);
    assert_eq!(
        second.forced, first.released,
        "job 2's LR phase is seeded with job 1's release from the ledger"
    );
    continuous.stop().unwrap();

    // Restarted daemon: job 1, kill the daemon, bring up a fresh one on
    // the surviving ledger, job 2.
    let restart_path = temp_ledger("restart");
    let mut before = start_daemon(ReleaseLedger::open(&restart_path).unwrap());
    let first_again = before.execute((0..60).collect()).unwrap();
    assert_eq!(deterministic(&first_again), deterministic(&first));
    before.stop().unwrap();

    let reopened = ReleaseLedger::open(&restart_path).unwrap();
    assert_eq!(reopened.len(), 1, "the ledger survived the restart");
    let mut after = start_daemon(reopened);
    let second_again = after.execute((30..100).collect()).unwrap();
    after.stop().unwrap();

    assert_eq!(
        second_again.certificate, second.certificate,
        "restarting between jobs must not change the second certificate"
    );
    assert_eq!(deterministic(&second_again), deterministic(&second));
}

#[test]
fn client_protocol_drives_a_live_daemon() {
    let path = temp_ledger("client");
    let daemon = start_daemon(ReleaseLedger::open(&path).unwrap());
    let addr = daemon.client_addr();
    let serve = std::thread::spawn(move || daemon.run());
    let client = ServiceClient::new(addr);

    let first = client.submit_and_wait((0..60).collect(), 0).unwrap();
    assert_eq!(first.job_id, 1);
    assert_eq!(first.kind, JobKind::Federated);
    assert!(!first.released.is_empty());
    assert!(first.certificate.is_some());

    let second = client.submit_and_wait((30..100).collect(), 0).unwrap();
    assert_eq!(second.forced, first.released);

    // A dynamic batch job is refused at admission, even over the full
    // panel: the daemon releases only what an attested lane certified.
    let refused = client.submit_and_wait((0..100).collect(), 3).unwrap_err();
    assert!(
        refused.to_string().contains("only federated jobs"),
        "the refusal says why, got: {refused}"
    );

    let status = client.status().unwrap();
    assert_eq!(status.jobs_done, 2);
    assert_eq!(status.jobs_queued, 0);
    assert_eq!(status.gdos, 3);
    assert!(!status.links.is_empty(), "per-link traffic is reported");
    assert!(status.links.iter().any(|l| l.wire_bytes > 0));

    // The daemon keeps link totals as a running keyed aggregate; they
    // must equal the per-job sum over every completed record, and the
    // released counter must equal the deduplicated union.
    let mut expected: std::collections::BTreeMap<(u32, u32), (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    let mut expected_released: Vec<u32> = Vec::new();
    for record in [&first, &second] {
        expected_released.extend_from_slice(&record.released);
        for link in &record.traffic {
            let slot = expected.entry((link.from, link.to)).or_insert((0, 0, 0));
            slot.0 += link.messages;
            slot.1 += link.plaintext_bytes;
            slot.2 += link.wire_bytes;
        }
    }
    expected_released.sort_unstable();
    expected_released.dedup();
    assert_eq!(status.released_total, expected_released.len() as u64);
    assert_eq!(status.links.len(), expected.len());
    for link in &status.links {
        let slot = expected
            .get(&(link.from, link.to))
            .expect("status reports only links seen in completed jobs");
        assert_eq!(
            (link.messages, link.plaintext_bytes, link.wire_bytes),
            *slot,
            "aggregated totals for link {}->{} match the per-job sum",
            link.from,
            link.to
        );
    }

    assert_eq!(client.results(1).unwrap().unwrap(), first);
    assert!(client.results(99).unwrap().is_none());

    // Bad submissions are rejected without killing the daemon.
    assert!(client.submit_and_wait(vec![], 0).is_err());
    assert!(client.submit_and_wait(vec![0, 1], 2).is_err()); // dynamic jobs are refused

    client.shutdown().unwrap();
    serve.join().unwrap().unwrap();

    // The ledger holds both records for the next incarnation.
    assert_eq!(ReleaseLedger::open(&path).unwrap().len(), 2);
}

#[test]
fn a_ledger_holding_an_older_daemons_dynamic_record_opens_audits_and_seeds() {
    // Daemons before this one ran dynamic jobs in process and committed
    // them uncertified: kind `Dynamic`, the batch count as the epoch, no
    // roster, traffic or certificate. Such a ledger must still open and
    // audit, and its release must seed the next federated job.
    let path = temp_ledger("older-dynamic");
    let dynamic = LedgerRecord {
        job_id: 1,
        kind: JobKind::Dynamic,
        panel: (0..100).collect(),
        forced: Vec::new(),
        released: vec![3, 17, 42, 58],
        final_power: 0.31,
        final_threshold: 0.6,
        case_freqs: vec![0.25, 0.4, 0.125, 0.3],
        ref_freqs: vec![0.2, 0.35, 0.15, 0.3],
        epoch: 3,
        roster: Vec::new(),
        traffic: Vec::new(),
        certificate: None,
    };
    ReleaseLedger::open(&path)
        .unwrap()
        .append(dynamic.clone())
        .unwrap();

    let reopened = ReleaseLedger::open(&path).unwrap();
    assert_eq!(reopened.records(), std::slice::from_ref(&dynamic));
    audit_records(reopened.records()).expect("the older ledger audits");
    let mut daemon = start_daemon(reopened);
    let first = daemon.execute((0..60).collect()).unwrap();
    daemon.stop().unwrap();
    assert_eq!(first.job_id, 2);
    assert_eq!(first.kind, JobKind::Federated);
    assert!(first.certificate.is_some());
    assert_eq!(
        first.forced, dynamic.released,
        "the dynamic record's release seeds the first federated job"
    );
}

#[test]
fn panicking_job_leaves_the_daemon_serving() {
    let path = temp_ledger("panic");
    let daemon = start_daemon(ReleaseLedger::open(&path).unwrap());
    let addr = daemon.client_addr();
    // Arm the failpoint for the next job id (fresh ledger ⇒ job 1): the
    // worker panics mid-job, the daemon must catch the unwind, answer the
    // waiting client with the panic message, and keep serving.
    daemon.inject_job_panic(1);
    let serve = std::thread::spawn(move || daemon.run());
    let client = ServiceClient::new(addr);

    let failed = client.submit_and_wait((0..60).collect(), 0).unwrap_err();
    assert!(
        failed.to_string().contains("job panicked"),
        "client sees the panic as a typed job failure, got: {failed}"
    );

    // The daemon survived: status answers and the next job certifies.
    let status = client.status().unwrap();
    assert_eq!(status.jobs_queued, 0);
    let ok = client.submit_and_wait((0..60).collect(), 0).unwrap();
    assert_eq!(ok.job_id, 2, "the panicked job consumed id 1");
    assert!(!ok.released.is_empty());
    assert!(ok.certificate.is_some());

    client.shutdown().unwrap();
    serve.join().unwrap().unwrap();
    // Only the successful job reached the ledger.
    assert_eq!(ReleaseLedger::open(&path).unwrap().len(), 1);
}

#[test]
fn a_silent_connection_is_closed_at_the_io_deadline() {
    let path = temp_ledger("silent");
    let daemon = start_daemon(ReleaseLedger::open(&path).unwrap());
    // Connect and say nothing. The daemon's 2 s deadline must close the
    // connection: this side's own, longer read timeout then sees EOF, not
    // `WouldBlock`/`TimedOut`.
    let mut silent = TcpStream::connect(daemon.client_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(8)))
        .unwrap();
    let mut byte = [0u8; 1];
    assert_eq!(
        silent.read(&mut byte).expect("closed, not still open"),
        0,
        "the daemon hung up on the silent peer"
    );
    daemon.stop().unwrap();
}

#[test]
fn a_request_header_over_the_panel_bound_is_refused_at_once() {
    let path = temp_ledger("oversized");
    let daemon = start_daemon(ReleaseLedger::open(&path).unwrap());
    // A header claiming a 64 MiB body — within the transport's frame cap,
    // far over the largest valid request for a 100-SNP panel — and no
    // body. The daemon must hang up without waiting for (or allocating)
    // the body: the read timeout here is shorter than its I/O deadline.
    let mut hostile = TcpStream::connect(daemon.client_addr()).unwrap();
    hostile
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    hostile.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
    let mut byte = [0u8; 1];
    assert_eq!(hostile.read(&mut byte).expect("closed at once"), 0);
    // An honest client right behind it is served.
    let status = ServiceClient::new(daemon.client_addr()).status().unwrap();
    assert_eq!(status.panel_len, 100);
    daemon.stop().unwrap();
}

/// One live daemon shared by every case of the hostile-bytes property,
/// holding the one job it certified before the first case ran. It serves
/// until the test binary exits.
struct HostileTarget {
    addr: SocketAddr,
    first: LedgerRecord,
}

fn hostile_target() -> &'static HostileTarget {
    static TARGET: OnceLock<HostileTarget> = OnceLock::new();
    TARGET.get_or_init(|| {
        let daemon = start_daemon(ReleaseLedger::open(temp_ledger("hostile")).unwrap());
        let addr = daemon.client_addr();
        std::thread::spawn(move || daemon.run());
        let first = ServiceClient::new(addr)
            .submit_and_wait((0..60).collect(), 0)
            .unwrap();
        HostileTarget { addr, first }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever a client writes that is not a request — raw bytes, a
    /// well-framed body the decoder refuses, a frame cut short — the
    /// daemon hangs up without a reply and without waiting out its I/O
    /// deadline, and it goes on serving the same ledger.
    #[test]
    fn hostile_client_bytes_leave_the_daemon_serving_the_same_ledger(
        shape in 0u8..3,
        tag in 0u8..6,
        body in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let framed = |claimed: usize| {
            let mut bytes = (claimed as u32).to_le_bytes().to_vec();
            bytes.push(tag);
            bytes.extend_from_slice(&body);
            bytes
        };
        let bytes = match shape {
            0 => body.clone(),
            1 => framed(1 + body.len()),
            _ => framed(2 + body.len()),
        };
        // The daemon's own read: a request for the 100-SNP panel is at
        // most 16 + 4 × 100 bytes. Bytes it would act on are no attack.
        prop_assume!(read_message_capped::<ClientRequest>(&mut bytes.as_slice(), 416).is_err());

        let target = hostile_target();
        let mut hostile = TcpStream::connect(target.addr).unwrap();
        // Shorter than the daemon's 2 s deadline: it must hang up on the
        // malformed bytes, not time the connection out.
        hostile.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        // The daemon may hang up before it has read everything, so a
        // refused write or a reset read is a close too.
        let _ = hostile.write_all(&bytes);
        let _ = hostile.shutdown(Shutdown::Write);
        let mut reply = Vec::new();
        if let Err(e) = hostile.read_to_end(&mut reply) {
            prop_assert!(
                matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted),
                "the daemon did not hang up: {e}"
            );
        }
        prop_assert!(reply.is_empty(), "a reply to {bytes:?}");

        let client = ServiceClient::new(target.addr);
        let status = client.status().unwrap();
        prop_assert_eq!(status.jobs_done, 1);
        prop_assert_eq!(status.jobs_queued, 0);
        prop_assert_eq!(client.results(1).unwrap(), Some(target.first.clone()));
        prop_assert!(client.results(2).unwrap().is_none());
    }
}

#[test]
fn malformed_specs_are_rejected_without_poisoning_the_session() {
    let mut session =
        ServiceFederation::start_in_memory(config(2), params(), study(), options()).unwrap();
    assert!(matches!(
        session.submit(&JobSpec {
            job_id: 1,
            panel: vec![],
            forced: vec![],
        }),
        Err(ProtocolError::InvalidConfig(_))
    ));
    assert!(matches!(
        session.submit(&JobSpec {
            job_id: 2,
            panel: vec![SnpId(100)], // panel width is 100, ids end at 99
            forced: vec![],
        }),
        Err(ProtocolError::InvalidConfig(_))
    ));
    // The session is still serving.
    let ok = session
        .submit(&JobSpec {
            job_id: 3,
            panel: snps(0..10),
            forced: vec![],
        })
        .unwrap();
    assert_eq!(ok.job_id, 3);
    session.shutdown().unwrap();
}

/// Set in the child process [`an_idle_follower_suspects_no_one`] runs its
/// session in: the suspicion counter and the event log are process-wide,
/// so the scenario gets a process of its own.
const IDLE_CHILD: &str = "GENDPR_IDLE_FOLLOWER_CHILD";

/// Printed on stderr between the idle half and the mid-job half.
const IDLE_OVER: &str = "-- idle half over --";

/// The child's scenario: a three-member session over the in-memory fabric
/// idles through five timeouts, then one follower crashes and a job is
/// submitted. Prints the suspicions each half counted.
fn idle_then_mid_job_silence() {
    use gendpr::core::telemetry::suspicions;
    use gendpr::fednet::transport::Network;
    use gendpr::fednet::FaultPlan;

    let timeout = Duration::from_millis(400);
    let network = Network::new();
    let transports = (0..3).map(|i| network.register(PeerId(i))).collect();
    let options = RuntimeOptions {
        timeout,
        ..RuntimeOptions::default()
    };
    let mut session =
        ServiceFederation::start_over(transports, config(3), params(), study(), options).unwrap();
    let start = suspicions().get();
    std::thread::sleep(timeout * 5);
    let idle = suspicions().get() - start;
    eprintln!("{IDLE_OVER}");

    let follower = (session.leader() + 1) % 3;
    let mut faults = FaultPlan::none();
    faults.crash(follower as u32);
    network.set_faults(faults);
    let job = JobSpec {
        job_id: 1,
        panel: snps(0..60),
        forced: vec![],
    };
    match session.submit(&job) {
        Err(ProtocolError::MemberUnresponsive { member, .. }) => assert_eq!(member, follower),
        other => panic!(
            "a crashed follower mid-job: {:?}",
            other.map(|o| o.released)
        ),
    }
    let mid_job = suspicions().get() - start - idle;
    println!("suspicions: idle {idle} mid-job {mid_job}");
}

#[test]
fn an_idle_follower_suspects_no_one() {
    if std::env::var_os(IDLE_CHILD).is_some() {
        return idle_then_mid_job_silence();
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "an_idle_follower_suspects_no_one", "--nocapture"])
        .env(IDLE_CHILD, "1")
        .env("GENDPR_LOG", "warn")
        .output()
        .unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "child failed:\n{stdout}\n{stderr}");
    let counted = stdout
        .lines()
        .find_map(|l| l.strip_prefix("suspicions: "))
        .unwrap_or_else(|| panic!("no count in the child's output:\n{stdout}"));
    let (idle_log, job_log) = stderr
        .split_once(IDLE_OVER)
        .unwrap_or_else(|| panic!("no marker in the child's log:\n{stderr}"));
    // Five idle timeouts: no follower suspects its leader for the wait.
    assert!(counted.starts_with("idle 0 "), "{counted}");
    assert!(!idle_log.contains("member_suspected"), "{idle_log}");
    // A crashed follower mid-job is still suspected, and said so.
    let mid_job: u64 = counted.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(mid_job >= 1, "{counted}");
    assert!(job_log.contains("\"member_suspected\""), "{job_log}");
}
