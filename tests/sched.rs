//! Scheduler integration tests: the worker pool must change *when* jobs
//! run, never *what* they certify. Single-client workloads are
//! byte-identical across pool sizes and transports, concurrent jobs
//! commit in job-id order with cumulative LR seeds (a retried job keeping
//! its position), admission rejects at the bound with the typed verdict,
//! and interleaved sessions never deadlock or drop a job.

use gendpr::core::config::{FederationConfig, GwasParams};
use gendpr::core::runtime::RuntimeOptions;
use gendpr::core::serving::ServiceFederation;
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::PeerId;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::service::daemon::{AssessmentService, Supervision};
use gendpr::service::ledger::{LedgerRecord, ReleaseLedger};
use gendpr::service::sched::LaneFactory;
use gendpr::service::{SchedulerConfig, ServiceClient, ServiceError};
use gendpr::stats::lr::LrTestParams;
use proptest::prelude::*;
use std::net::TcpListener;
use std::path::PathBuf;
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

fn temp_ledger(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gendpr-sched-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("ledger.bin")
}

fn memory_lane(cohort: &SyntheticCohort) -> ServiceFederation {
    ServiceFederation::start_in_memory(config(3), params(), cohort, options()).expect("lane starts")
}

fn tcp_lane(cohort: &SyntheticCohort) -> ServiceFederation {
    let (roster, listeners) = ephemeral_listeners(3).expect("localhost listeners");
    let transports: Vec<TcpTransport> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            TcpTransport::from_listener(PeerId(id as u32), listener, &roster, TcpOptions::default())
                .expect("transport from bound listener")
        })
        .collect();
    ServiceFederation::start_over(transports, config(3), params(), cohort, options())
        .expect("lane starts")
}

fn start_pool(
    workers: usize,
    max_queue: usize,
    ledger: ReleaseLedger,
    tcp: bool,
) -> AssessmentService {
    let cohort = study();
    let lanes: Vec<ServiceFederation> = (0..workers)
        .map(|_| {
            if tcp {
                tcp_lane(&cohort)
            } else {
                memory_lane(&cohort)
            }
        })
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral client listener");
    AssessmentService::start_with(
        lanes,
        ledger,
        cohort.as_ref(),
        params(),
        listener,
        SchedulerConfig {
            workers,
            max_queue,
            ..SchedulerConfig::default()
        },
    )
    .expect("daemon starts")
}

/// A pool under lane supervision: the daemon holds a factory that
/// re-elects and re-attests a replacement federation whenever a lane
/// dies, so lane crashes retry instead of failing the job.
fn supervised_pool(config: SchedulerConfig, ledger: ReleaseLedger, tcp: bool) -> AssessmentService {
    let cohort = std::sync::Arc::new(study());
    let factory_cohort = std::sync::Arc::clone(&cohort);
    let factory: LaneFactory = std::sync::Arc::new(move || {
        Ok(if tcp {
            tcp_lane(&factory_cohort)
        } else {
            memory_lane(&factory_cohort)
        })
    });
    let lanes: Vec<ServiceFederation> = (0..config.workers)
        .map(|_| factory().expect("initial lane starts"))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral client listener");
    AssessmentService::start_supervised(
        lanes,
        Supervision {
            factory,
            shard: None,
            tracker: None,
        },
        ledger,
        (*cohort).as_ref(),
        listener,
        config,
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

/// Runs the same three-job single-client workload against a pool and
/// returns the committed records, normalized for comparison.
fn single_client_workload(workers: usize, tag: &str, tcp: bool) -> Vec<LedgerRecord> {
    let path = temp_ledger(tag);
    let mut service = start_pool(workers, 16, ReleaseLedger::open(&path).unwrap(), tcp);
    let panels: [Vec<u32>; 3] = [(0..60).collect(), (30..100).collect(), (0..40).collect()];
    let records: Vec<LedgerRecord> = panels
        .into_iter()
        .map(|panel| service.execute(panel).expect("job certifies"))
        .collect();
    service.stop().expect("daemon drains cleanly");
    records.iter().map(deterministic).collect()
}

#[test]
fn single_client_workload_is_byte_identical_across_pool_sizes() {
    // The FIFO baseline is workers = 1; a pool must not change a single
    // client's releases, certificates or ledger contents.
    let fifo = single_client_workload(1, "ident-fifo", false);
    let pooled = single_client_workload(4, "ident-pool", false);
    assert_eq!(fifo, pooled, "worker pool changed a single-client workload");
    assert!(fifo
        .iter()
        .all(|r| r.certificate.is_some() && !r.released.is_empty()));
}

#[test]
fn single_client_workload_is_byte_identical_over_tcp_lanes() {
    let fifo = single_client_workload(1, "ident-tcp-fifo", true);
    let pooled = single_client_workload(2, "ident-tcp-pool", true);
    assert_eq!(fifo, pooled);
    // And the TCP mesh certifies exactly what the in-memory fabric does.
    let memory = single_client_workload(1, "ident-mem-again", false);
    assert_eq!(fifo, memory, "transport changed the certified workload");
}

#[test]
fn concurrent_jobs_commit_in_dispatch_order_with_cumulative_seeds() {
    let path = temp_ledger("dispatch-order");
    let service = start_pool(4, 16, ReleaseLedger::open(&path).unwrap(), false);

    // Enqueue sequentially (deterministic dispatch order), execute on
    // four lanes concurrently, wait on all tickets.
    let panels: Vec<Vec<u32>> = vec![
        (0..60).collect(),
        (30..100).collect(),
        (0..40).collect(),
        (50..100).collect(),
        (10..70).collect(),
        (0..100).collect(),
    ];
    let tickets: Vec<_> = panels
        .iter()
        .map(|panel| service.submit_ticket(panel.clone(), 0).expect("admitted"))
        .collect();
    let mut by_id: Vec<(u64, LedgerRecord)> = tickets
        .into_iter()
        .map(|t| {
            let id = t.job_id();
            (id, t.wait().expect("job certifies"))
        })
        .collect();
    by_id.sort_by_key(|(id, _)| *id);
    service.stop().expect("daemon drains cleanly");

    // The surviving ledger holds every record, in dispatch (= job id)
    // order. Concurrently dispatched jobs cannot see each other, but each
    // job's LR seed must be exactly the union of a *committed prefix* of
    // the ledger at its dispatch — never a partial or reordered view.
    let reopened = ReleaseLedger::open(&path).unwrap();
    let records = reopened.records();
    assert_eq!(records.len(), panels.len());
    assert_prefix_seeded(records);
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.job_id, by_id[i].0, "ledger order is dispatch order");
    }
}

/// Asserts the scheduler's ordering rule over a committed ledger: ids
/// strictly increase, every record's `forced` seed equals the
/// released-union of the first `j` records for some `j` no later than its
/// own position, and its release never overlaps its seed.
fn assert_prefix_seeded(records: &[LedgerRecord]) {
    gendpr::service::ledger::audit_records(records).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn restart_mid_sequence_preserves_certificates_under_a_pool() {
    // Continuous pool: three jobs against one ledger.
    let continuous_path = temp_ledger("restart-continuous");
    let mut continuous = start_pool(4, 16, ReleaseLedger::open(&continuous_path).unwrap(), false);
    let a = continuous.execute((0..60).collect()).unwrap();
    let b = continuous.execute((30..100).collect()).unwrap();
    let c = continuous.execute((0..40).collect()).unwrap();
    continuous.stop().unwrap();

    // Same workload, but the daemon restarts (fresh pool, surviving
    // ledger) between jobs 2 and 3.
    let restart_path = temp_ledger("restart-split");
    let mut before = start_pool(4, 16, ReleaseLedger::open(&restart_path).unwrap(), false);
    assert_eq!(
        deterministic(&before.execute((0..60).collect()).unwrap()),
        deterministic(&a)
    );
    assert_eq!(
        deterministic(&before.execute((30..100).collect()).unwrap()),
        deterministic(&b)
    );
    before.stop().unwrap();

    let reopened = ReleaseLedger::open(&restart_path).unwrap();
    assert_eq!(reopened.len(), 2, "the ledger survived the restart");
    let mut after = start_pool(4, 16, reopened, false);
    let c_again = after.execute((0..40).collect()).unwrap();
    after.stop().unwrap();
    assert_prefix_seeded(ReleaseLedger::open(&restart_path).unwrap().records());

    assert_eq!(
        c_again.certificate, c.certificate,
        "restarting between jobs must not change the third certificate"
    );
    assert_eq!(deterministic(&c_again), deterministic(&c));
}

#[test]
fn admission_rejects_at_the_queue_bound_with_the_typed_error() {
    let path = temp_ledger("admission");
    let service = start_pool(1, 2, ReleaseLedger::open(&path).unwrap(), false);
    // Hold dispatch so the queue can be driven to the bound exactly.
    service.pause_dispatch();
    let first = service.submit_detached((0..30).collect()).expect("slot 1");
    let second = service.submit_detached((0..30).collect()).expect("slot 2");
    assert_ne!(first, second);
    match service.submit_detached((0..30).collect()) {
        Err(ServiceError::QueueFull { depth, max }) => {
            assert_eq!((depth, max), (2, 2));
        }
        other => panic!("expected the typed QueueFull verdict, got {other:?}"),
    }
    // Invalid specs are admission verdicts too — nothing was queued.
    assert!(matches!(
        service.submit_detached(vec![]),
        Err(ServiceError::InvalidJob(_))
    ));
    let status = service.status();
    assert_eq!(status.max_queue, 2);
    assert_eq!(status.queue.len(), 2);
    assert_eq!(
        status.queue.iter().map(|q| q.position).collect::<Vec<_>>(),
        vec![1, 2],
        "queue positions are 1-based dispatch order"
    );
    // Release the hold: both held jobs run and commit.
    service.resume_dispatch();
    assert!(service.wait_drained(TIMEOUT), "the held jobs never drained");
    service.stop().expect("daemon drains cleanly");
    assert_eq!(ReleaseLedger::open(&path).unwrap().len(), 2);
}

#[test]
fn tcp_clients_see_the_typed_backpressure_kind() {
    let path = temp_ledger("backpressure");
    let service = start_pool(1, 1, ReleaseLedger::open(&path).unwrap(), false);
    let client = ServiceClient::new(service.client_addr());
    service.pause_dispatch();
    client
        .submit((0..30).collect(), 0)
        .expect("slot 1 admitted");
    let rejected = client
        .submit((0..30).collect(), 0)
        .expect_err("queue is full");
    assert_eq!(
        rejected.kind(),
        std::io::ErrorKind::WouldBlock,
        "full-queue rejections map to WouldBlock so clients can back off: {rejected}"
    );
    assert!(rejected.to_string().contains("queue full"), "{rejected}");
    service.resume_dispatch();
    assert!(service.wait_drained(TIMEOUT));
    service.stop().expect("daemon drains cleanly");
}

#[test]
fn shutdown_rejects_undispatched_jobs_with_the_typed_verdict() {
    let path = temp_ledger("drain");
    let service = start_pool(1, 8, ReleaseLedger::open(&path).unwrap(), false);
    service.pause_dispatch();
    let queued: Vec<_> = (0..3)
        .map(|_| {
            service
                .submit_ticket((0..30).collect(), 0)
                .expect("admitted")
        })
        .collect();
    // Shutdown with three undispatched jobs: every waiter gets the typed
    // shutting-down verdict, nothing reaches the ledger.
    service.stop().expect("drained daemon stops cleanly");
    for ticket in queued {
        assert!(matches!(ticket.wait(), Err(ServiceError::ShuttingDown)));
    }
    assert_eq!(ReleaseLedger::open(&path).unwrap().len(), 0);
}

#[test]
fn concurrent_clients_share_one_daemon_over_tcp() {
    let path = temp_ledger("concurrent-clients");
    let service = start_pool(2, 32, ReleaseLedger::open(&path).unwrap(), false);
    let addr = service.client_addr();

    let submitters: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let client = ServiceClient::new(addr);
                let start = (i * 10) as u32;
                loop {
                    match client.submit_and_wait((start..start + 30).collect(), 0) {
                        Ok(record) => return record,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) => panic!("client {i} lost its job: {e}"),
                    }
                }
            })
        })
        .collect();
    // Status and results probes interleave with the submit storm.
    let probes: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let client = ServiceClient::new(addr);
                for _ in 0..10 {
                    let status = client.status().expect("status answers mid-storm");
                    assert_eq!(status.workers, 2);
                    assert_eq!(status.max_queue, 32);
                    assert!(status.workers_busy <= status.workers);
                    for (i, job) in status.queue.iter().enumerate() {
                        assert_eq!(job.position, i as u64 + 1);
                    }
                    let _ = client.results(1).expect("results answers mid-storm");
                    std::thread::sleep(Duration::from_millis(3));
                }
            })
        })
        .collect();

    let mut records: Vec<LedgerRecord> = submitters
        .into_iter()
        .map(|h| h.join().expect("submitter thread"))
        .collect();
    for probe in probes {
        probe.join().expect("probe thread");
    }
    service.stop().expect("daemon drains cleanly");

    records.sort_by_key(|r| r.job_id);
    let ids: Vec<u64> = records.iter().map(|r| r.job_id).collect();
    assert_eq!(
        ids,
        (1..=6).collect::<Vec<u64>>(),
        "every job committed once"
    );
    // Commits serialized in dispatch order: each record's seed is the
    // union of a committed prefix of the ledger.
    let reopened = ReleaseLedger::open(&path).unwrap();
    assert_prefix_seeded(reopened.records());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Interleaved sessions never deadlock and never drop a job: every
    // concurrently submitted job resolves to exactly one of certified /
    // typed rejection, and the ledger holds exactly the certified ones.
    #[test]
    fn interleaved_sessions_never_deadlock_or_drop_jobs(
        workers in 1usize..3,
        starts in proptest::collection::vec(0u32..70, 3..7),
    ) {
        let path = temp_ledger(&format!("props-{workers}-{}", starts.len()));
        let service = std::sync::Arc::new(start_pool(
            workers,
            starts.len(),
            ReleaseLedger::open(&path).unwrap(),
            false,
        ));
        let handles: Vec<_> = starts
            .iter()
            .map(|&start| {
                let service = std::sync::Arc::clone(&service);
                std::thread::spawn(move || {
                    match service.submit_ticket((start..start + 30).collect(), 0) {
                        Ok(ticket) => ticket.wait(),
                        Err(e) => Err(e),
                    }
                })
            })
            .collect();
        let mut certified = 0usize;
        for handle in handles {
            match handle.join().expect("submitter thread") {
                Ok(record) => {
                    prop_assert!(record.certificate.is_some());
                    certified += 1;
                }
                Err(
                    ServiceError::QueueFull { .. }
                    | ServiceError::ShuttingDown
                    | ServiceError::InvalidJob(_),
                ) => {}
                Err(other) => prop_assert!(false, "job failed outright: {other}"),
            }
        }
        std::sync::Arc::try_unwrap(service)
            .map_err(|_| ())
            .expect("all submitters joined")
            .stop()
            .expect("daemon drains cleanly");
        prop_assert_eq!(ReleaseLedger::open(&path).unwrap().len(), certified);
    }
}

/// The crash-free reference run for the supervision tests: the same
/// three-job workload every crash scenario must reproduce byte for byte.
fn crash_free_baseline() -> &'static Vec<LedgerRecord> {
    static BASELINE: std::sync::OnceLock<Vec<LedgerRecord>> = std::sync::OnceLock::new();
    BASELINE.get_or_init(|| single_client_workload(2, "crash-baseline", false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // A lane dying at a random point in the workload must be invisible in
    // the output: the job is re-queued, a replacement lane is re-elected
    // and re-attested, and every certificate is byte-identical to the
    // crash-free run — on both transports.
    #[test]
    fn lane_crash_mid_workload_certifies_identically(crash_job in 1u64..4) {
        for tcp in [false, true] {
            let path = temp_ledger(&format!("lane-crash-{crash_job}-{tcp}"));
            let mut service = supervised_pool(
                SchedulerConfig {
                    workers: 2,
                    max_queue: 16,
                    ..SchedulerConfig::default()
                },
                ReleaseLedger::open(&path).unwrap(),
                tcp,
            );
            service.inject_lane_crash(crash_job);
            let panels: [Vec<u32>; 3] = [(0..60).collect(), (30..100).collect(), (0..40).collect()];
            let records: Vec<LedgerRecord> = panels
                .into_iter()
                .map(|panel| {
                    service
                        .execute(panel)
                        .expect("job certifies despite the lane crash")
                })
                .collect();
            service.stop().expect("daemon drains cleanly");
            let normalized: Vec<LedgerRecord> = records.iter().map(deterministic).collect();
            prop_assert_eq!(
                &normalized,
                crash_free_baseline(),
                "a lane crash (tcp={}) changed a certificate",
                tcp
            );
        }
    }
}

/// Two overlapping tickets dispatched together on two supervised lanes,
/// the first stalled so the second finishes (and parks at the commit
/// gate) first; with `crash`, the first ticket's lane dies under it.
/// Returns the surviving ledger's records.
fn two_overlapping_tickets(crash: bool, tag: &str) -> Vec<LedgerRecord> {
    let path = temp_ledger(tag);
    let service = supervised_pool(
        SchedulerConfig {
            workers: 2,
            max_queue: 16,
            ..SchedulerConfig::default()
        },
        ReleaseLedger::open(&path).unwrap(),
        false,
    );
    service.pause_dispatch();
    let tickets = [
        service
            .submit_ticket((0..60).collect(), 0)
            .expect("admitted"),
        service
            .submit_ticket((30..100).collect(), 0)
            .expect("admitted"),
    ];
    service.inject_job_stall(1, 150);
    if crash {
        service.inject_lane_crash(1);
    }
    service.resume_dispatch();
    for ticket in tickets {
        ticket.wait().expect("job certifies");
    }
    service.stop().expect("daemon drains cleanly");
    let reopened = ReleaseLedger::open(&path).unwrap();
    reopened.records().iter().map(deterministic).collect()
}

#[test]
fn a_retried_job_keeps_its_ledger_position() {
    // Job 2 finishes while job 1 is still stalled; job 1 then loses its
    // lane and retries. The later job must stay parked behind the retry:
    // letting it commit first would seed the retry with job 2's release
    // and put the ledger out of id order.
    let crashed = two_overlapping_tickets(true, "retry-position-crash");
    let ids: Vec<u64> = crashed.iter().map(|r| r.job_id).collect();
    assert_eq!(ids, vec![1, 2], "a retry must keep its ledger position");
    assert_prefix_seeded(&crashed);
    assert!(!crashed[0].released.is_empty(), "the overlap must matter");
    assert_eq!(
        crashed,
        two_overlapping_tickets(false, "retry-position-clean"),
        "a lane crash under an overlapping job changed a record"
    );
}

#[test]
fn retry_budget_exhaustion_surfaces_the_typed_verdict() {
    let path = temp_ledger("retry-exhaustion");
    let mut service = supervised_pool(
        SchedulerConfig {
            workers: 1,
            max_queue: 8,
            max_retries: 1,
            ..SchedulerConfig::default()
        },
        ReleaseLedger::open(&path).unwrap(),
        false,
    );
    // The panic failpoint is persistent: every attempt of job 1 dies, so
    // the one-retry budget is exhausted and the client gets the typed
    // exhaustion verdict with the attempt count.
    service.inject_job_panic(1);
    let err = service
        .submit_ticket((0..30).collect(), 0)
        .expect("admitted")
        .wait()
        .expect_err("the retry budget must exhaust");
    match err {
        ServiceError::Retried { attempts, last } => {
            assert_eq!(attempts, 2, "initial attempt + one retry");
            assert!(last.contains("panic"), "last error is preserved: {last}");
        }
        other => panic!("expected the typed Retried verdict, got {other:?}"),
    }
    // Exhaustion fails the job, never the daemon: the next job certifies.
    let record = service.execute((0..40).collect()).expect("next job runs");
    assert!(record.certificate.is_some());
    service.stop().expect("daemon drains cleanly");
    assert_eq!(ReleaseLedger::open(&path).unwrap().len(), 1);
}

#[test]
fn hard_drain_timeout_answers_stragglers_with_shutting_down() {
    let path = temp_ledger("hard-drain");
    let service = supervised_pool(
        SchedulerConfig {
            workers: 1,
            max_queue: 8,
            drain_timeout: Duration::from_millis(200),
            ..SchedulerConfig::default()
        },
        ReleaseLedger::open(&path).unwrap(),
        false,
    );
    // Job 1 stalls far past the drain timeout; stop() must convert it to
    // a shutting-down verdict instead of waiting out the stall.
    service.inject_job_stall(1, 20_000);
    let ticket = service
        .submit_ticket((0..30).collect(), 0)
        .expect("admitted");
    // Let the worker pick the job up so it is genuinely in flight.
    std::thread::sleep(Duration::from_millis(400));
    let started = std::time::Instant::now();
    service.stop().expect("hard drain still exits cleanly");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop() waited out the stall instead of hard-draining"
    );
    assert!(matches!(ticket.wait(), Err(ServiceError::ShuttingDown)));
    assert_eq!(ReleaseLedger::open(&path).unwrap().len(), 0);
}
