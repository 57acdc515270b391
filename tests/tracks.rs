//! Replica-track fleets: several daemons serving one shared ledger,
//! coordinating through the quorum-mirrored claim log. The contract
//! under test is the ISSUE's acceptance bar — a fleet must change *who*
//! runs a job, never *what* gets certified:
//!
//! 1. a one-track fleet is byte-identical to a plain daemon;
//! 2. tracks interleaving over one ledger reproduce the single-daemon
//!    workload byte for byte, on both transports;
//! 3. a track that dies between claim and commit never yields a
//!    duplicate or skipped ledger commit — a survivor re-runs the
//!    abandoned claim at its original ledger position (at-most-once);
//! 4. the claim log itself survives any torn tail (a track killed
//!    mid-append), recovering the longest intact prefix.

use gendpr::core::config::{FederationConfig, GwasParams};
use gendpr::core::runtime::RuntimeOptions;
use gendpr::core::serving::ServiceFederation;
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::PeerId;
use gendpr::genomics::cohort::Cohort;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::service::daemon::{AssessmentService, Supervision};
use gendpr::service::ledger::{LedgerRecord, ReleaseLedger};
use gendpr::service::sched::LaneFactory;
use gendpr::service::tracks::claims::{ClaimEntry, ClaimFrame, ClaimLog};
use gendpr::service::{SchedulerConfig, TrackConfig, TrackCoordinator};
use gendpr::stats::lr::LrTestParams;
use proptest::prelude::*;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Small enough to keep multi-daemon runs quick, wide enough that every
/// workload job releases SNPs and the cumulative union actually grows.
const SNPS: usize = 192;

fn study() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(SNPS)
        .case_individuals(80)
        .reference_individuals(60)
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gendpr-tracks-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn lane(cohort: &Cohort, tcp: bool) -> ServiceFederation {
    if tcp {
        let (roster, listeners) = ephemeral_listeners(3).expect("localhost listeners");
        let transports: Vec<TcpTransport> = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                TcpTransport::from_listener(
                    PeerId(id as u32),
                    listener,
                    &roster,
                    TcpOptions::default(),
                )
                .expect("transport from bound listener")
            })
            .collect();
        ServiceFederation::start_over(transports, config(3), params(), cohort, options())
            .expect("lane starts")
    } else {
        ServiceFederation::start_in_memory(config(3), params(), cohort, options())
            .expect("lane starts")
    }
}

fn lane_factory(tcp: bool) -> (Arc<SyntheticCohort>, LaneFactory) {
    let cohort = Arc::new(study());
    let factory: LaneFactory = {
        let cohort = Arc::clone(&cohort);
        Arc::new(move || Ok(lane(cohort.as_ref().as_ref(), tcp)))
    };
    (cohort, factory)
}

/// A plain (untracked) supervised daemon — the reference a fleet must
/// reproduce byte for byte.
fn plain_pool(ledger: ReleaseLedger, tcp: bool) -> AssessmentService {
    plain_pool_sized(1, ledger, tcp)
}

fn plain_pool_sized(workers: usize, ledger: ReleaseLedger, tcp: bool) -> AssessmentService {
    let (cohort, factory) = lane_factory(tcp);
    let lanes = (0..workers)
        .map(|_| factory().expect("lane starts"))
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
        SchedulerConfig {
            workers,
            max_queue: 16,
            ..SchedulerConfig::default()
        },
    )
    .expect("daemon starts")
}

/// One track of a fleet over `ledger_path` — exactly what
/// `gendpr serve --track-id` builds.
fn tracked_pool(track: u32, lease: Duration, ledger_path: &Path, tcp: bool) -> AssessmentService {
    tracked_pool_sized(1, track, lease, ledger_path, tcp)
}

fn tracked_pool_sized(
    workers: usize,
    track: u32,
    lease: Duration,
    ledger_path: &Path,
    tcp: bool,
) -> AssessmentService {
    let (tracker, ledger) = TrackCoordinator::open(TrackConfig { track, lease }, ledger_path, &[])
        .expect("track joins the fleet");
    let (cohort, factory) = lane_factory(tcp);
    let lanes = (0..workers)
        .map(|_| factory().expect("lane starts"))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral client listener");
    AssessmentService::start_supervised(
        lanes,
        Supervision {
            factory,
            shard: None,
            tracker: Some(Arc::new(tracker)),
        },
        ledger,
        (*cohort).as_ref(),
        listener,
        SchedulerConfig {
            workers,
            max_queue: 16,
            ..SchedulerConfig::default()
        },
    )
    .expect("tracked daemon starts")
}

/// Strips the timing-dependent field (idle-keepalive Pongs can land in a
/// job's traffic window) so records can be compared for determinism.
fn deterministic(record: &LedgerRecord) -> LedgerRecord {
    LedgerRecord {
        traffic: Vec::new(),
        ..record.clone()
    }
}

/// The three-job workload every fleet variant must reproduce. Panels
/// overlap so the cumulative released union (each job's forced seed)
/// actually matters.
fn workload_panels() -> [Vec<u32>; 3] {
    [
        (0..120).collect(),
        (60..SNPS as u32).collect(),
        (0..48).collect(),
    ]
}

fn run_workload(mut service: AssessmentService) -> Vec<LedgerRecord> {
    let records: Vec<LedgerRecord> = workload_panels()
        .into_iter()
        .map(|panel| service.execute(panel).expect("job certifies"))
        .collect();
    service.stop().expect("daemon drains cleanly");
    records.iter().map(deterministic).collect()
}

/// The untracked reference run per transport, computed once.
fn baseline(tcp: bool) -> &'static Vec<LedgerRecord> {
    static MEMORY: std::sync::OnceLock<Vec<LedgerRecord>> = std::sync::OnceLock::new();
    static TCP: std::sync::OnceLock<Vec<LedgerRecord>> = std::sync::OnceLock::new();
    let cell = if tcp { &TCP } else { &MEMORY };
    cell.get_or_init(|| {
        let dir = temp_dir(&format!("baseline-{tcp}"));
        run_workload(plain_pool(
            ReleaseLedger::open(dir.join("ledger.bin")).unwrap(),
            tcp,
        ))
    })
}

#[test]
fn a_one_track_fleet_is_byte_identical_to_a_plain_daemon() {
    for tcp in [false, true] {
        let dir = temp_dir(&format!("one-{tcp}"));
        let path = dir.join("ledger.bin");
        let records = run_workload(tracked_pool(0, Duration::from_secs(10), &path, tcp));
        assert_eq!(
            &records,
            baseline(tcp),
            "a single track (tcp={tcp}) changed a release or certificate"
        );
        assert!(records.iter().all(|r| r.certificate.is_some()));
        assert!(
            !records[0].released.is_empty(),
            "the first job must release SNPs for the workload to be interesting"
        );
        // The claim log resolved everything it claimed.
        let log = ClaimLog::open(&path.with_extension("bin.claims"), &[]).unwrap();
        let claims = log
            .entries()
            .iter()
            .filter(|e| matches!(e.entry, ClaimEntry::Claim(_)))
            .count();
        assert_eq!(claims, 3, "one claim per job");
    }
}

/// The history on which a plain daemon's commit order and a track's
/// used to differ: two overlapping tickets dispatched together on two
/// lanes, the first stalled (so the second finishes first) and then
/// losing its lane. Returns the surviving ledger's records.
fn retry_under_an_overlapping_job(service: AssessmentService, path: &Path) -> Vec<LedgerRecord> {
    let [p1, p2, _] = workload_panels();
    service.pause_dispatch();
    let tickets = [
        service.submit_ticket(p1, 0).expect("admitted"),
        service.submit_ticket(p2, 0).expect("admitted"),
    ];
    service.inject_job_stall(1, 150);
    service.inject_lane_crash(1);
    service.resume_dispatch();
    for ticket in tickets {
        ticket.wait().expect("job certifies");
    }
    service.stop().expect("daemon drains cleanly");
    let reopened = ReleaseLedger::open(path).unwrap();
    reopened.records().iter().map(deterministic).collect()
}

#[test]
fn a_one_track_fleet_matches_a_plain_daemon_when_a_retry_overlaps_another_lane() {
    let dir = temp_dir("retry-overlap");
    let plain_path = dir.join("plain.bin");
    let plain = retry_under_an_overlapping_job(
        plain_pool_sized(2, ReleaseLedger::open(&plain_path).unwrap(), false),
        &plain_path,
    );
    let fleet_path = dir.join("fleet.bin");
    let fleet = retry_under_an_overlapping_job(
        tracked_pool_sized(2, 0, Duration::from_secs(10), &fleet_path, false),
        &fleet_path,
    );
    let ids: Vec<u64> = plain.iter().map(|r| r.job_id).collect();
    assert_eq!(ids, vec![1, 2], "the retried job keeps its ledger position");
    assert!(!plain[0].released.is_empty(), "the overlap must matter");
    assert_eq!(
        fleet, plain,
        "one commit gate: a one-track fleet and a plain daemon must agree"
    );
}

#[test]
fn interleaved_tracks_reproduce_the_single_daemon_workload() {
    let dir = temp_dir("interleave");
    let path = dir.join("ledger.bin");
    // Two full daemons in this process, sharing the ledger through the
    // fleet lock exactly as two `gendpr serve --track-id` processes
    // would (flock excludes across file descriptions, so in-process
    // tracks exercise the same protocol).
    let mut track0 = tracked_pool(0, Duration::from_secs(10), &path, false);
    let mut track1 = tracked_pool(1, Duration::from_secs(10), &path, false);
    let [p1, p2, p3] = workload_panels();
    let a = track0.execute(p1).expect("job 1 certifies on track 0");
    let b = track1.execute(p2).expect("job 2 certifies on track 1");
    let c = track0.execute(p3).expect("job 3 certifies on track 0");
    // Every track serves the whole fleet's results, not just its own.
    assert_eq!(
        track1.results(a.job_id).as_ref(),
        Some(&a),
        "track 1 must see track 0's record"
    );
    assert_eq!(track0.results(b.job_id).as_ref(), Some(&b));
    // Job 3 committed after track 1 last touched the fleet, so nothing
    // but the refresh inside `results` can have brought it in.
    assert_eq!(track1.results(c.job_id).as_ref(), Some(&c));
    assert_eq!(track1.status().jobs_done, 3);
    track0.stop().expect("track 0 drains cleanly");
    track1.stop().expect("track 1 drains cleanly");

    let records: Vec<LedgerRecord> = [a, b, c].iter().map(deterministic).collect();
    assert_eq!(
        &records,
        baseline(false),
        "interleaving tracks changed a release or certificate"
    );
    // The shared ledger holds exactly the three commits, in claim order.
    let reopened = ReleaseLedger::open(&path).unwrap();
    assert_eq!(reopened.len(), 3);
    let on_disk: Vec<LedgerRecord> = reopened.records().iter().map(deterministic).collect();
    assert_eq!(&on_disk, baseline(false));
}

#[test]
fn an_abandoned_claim_is_rerun_once_at_its_original_position() {
    // A track that dies between claim and commit leaves an unresolved
    // claim in the log. A survivor must wait out the lease, re-run the
    // job from the claim's own snapshot, and commit it at the claimed
    // position — exactly once, with later jobs unaffected.
    for tcp in [false, true] {
        let dir = temp_dir(&format!("abandon-{tcp}"));
        let path = dir.join("ledger.bin");
        let claims_path = path.with_extension("bin.claims");
        let [p1, p2, _] = workload_panels();

        // Forge the dead track's claim: job 1, claimed against the empty
        // ledger prefix, lease already ticking, never committed.
        {
            let mut log = ClaimLog::open(&claims_path, &[]).unwrap();
            log.append(
                ClaimEntry::Claim(ClaimFrame {
                    job_id: 1,
                    track: 9,
                    attempt: 1,
                    lease_ms: 300,
                    prefix: 0,
                    batches: 0,
                    panel: p1,
                    forced: Vec::new(),
                }),
                Instant::now(),
            )
            .unwrap();
        }

        // The survivor submits its own job; its commit gate finds the
        // dead claim ahead of it, reclaims after the lease, runs job 1
        // inline and only then commits job 2.
        let mut survivor = tracked_pool(0, Duration::from_millis(300), &path, tcp);
        let record = survivor.execute(p2).expect("survivor's job certifies");
        assert_eq!(record.job_id, 2, "the survivor's own job follows the claim");
        let reclaimed = survivor
            .results(1)
            .expect("the abandoned job was re-run and committed");
        survivor.stop().expect("survivor drains cleanly");

        // At-most-once, nothing skipped: exactly two records, in claim
        // order. The reclaimed job is byte-identical to the plain
        // daemon's first job (same panel, same empty prefix). The
        // survivor's own job was claimed against the still-empty prefix
        // (claim-time snapshot, the fleet analog of dispatch-time
        // snapshot for concurrent submits), so it is checked
        // structurally, not against the sequential baseline.
        let reopened = ReleaseLedger::open(&path).unwrap();
        assert_eq!(reopened.len(), 2, "no duplicate or skipped commit");
        assert_eq!(reopened.records()[0].job_id, 1);
        assert_eq!(reopened.records()[1].job_id, 2);
        assert_eq!(deterministic(&reclaimed), baseline(tcp)[0]);
        assert!(record.certificate.is_some() && !record.released.is_empty());
        assert!(
            record.forced.is_empty(),
            "the survivor's job was claimed against the empty prefix"
        );
    }
}

#[test]
fn a_restarted_track_reclaims_its_own_pre_crash_claim() {
    // A track SIGKILLed between claim and commit that comes back with
    // the *same* `--track-id` finds its previous incarnation's claim at
    // the head of the fleet. Own-track claims park the gate only while
    // a live local job backs them — this one has none, so the restarted
    // track must treat it like any dead track's claim: wait out the
    // lease, re-run it from the embedded spec, and commit it at its
    // original position. (Before the live-job rule, `--tracks 1` would
    // wedge forever here: no other track exists to reclaim it.)
    let dir = temp_dir("own-reclaim");
    let path = dir.join("ledger.bin");
    let claims_path = path.with_extension("bin.claims");
    let [p1, p2, _] = workload_panels();
    {
        let mut log = ClaimLog::open(&claims_path, &[]).unwrap();
        log.append(
            ClaimEntry::Claim(ClaimFrame {
                job_id: 1,
                track: 0, // the restarted daemon's own id
                attempt: 1,
                lease_ms: 300,
                prefix: 0,
                batches: 0,
                panel: p1,
                forced: Vec::new(),
            }),
            Instant::now(),
        )
        .unwrap();
    }
    let mut survivor = tracked_pool(0, Duration::from_millis(300), &path, false);
    let record = survivor
        .execute(p2)
        .expect("the restarted track's new job certifies");
    assert_eq!(record.job_id, 2, "the new job follows the leftover claim");
    let reclaimed = survivor
        .results(1)
        .expect("the pre-crash claim was re-run and committed");
    survivor.stop().expect("survivor drains cleanly");

    let reopened = ReleaseLedger::open(&path).unwrap();
    assert_eq!(reopened.len(), 2, "no duplicate or skipped commit");
    assert_eq!(reopened.records()[0].job_id, 1);
    assert_eq!(reopened.records()[1].job_id, 2);
    assert_eq!(deterministic(&reclaimed), baseline(false)[0]);
}

#[test]
fn a_transiently_failing_reclaim_is_abandoned_and_retried_not_failed() {
    // The reclaimed re-run itself dies of a lane crash — a transient
    // infrastructure failure that says nothing about the job. The fleet
    // must NOT resolve the claim with a terminal `Done` marker; the
    // reclaim is abandoned back to lease expiry, the reclaimer rebuilds
    // its lane in place, and a later reclaim (here: the same track,
    // being the only one) commits the job at its original position.
    let dir = temp_dir("transient-reclaim");
    let path = dir.join("ledger.bin");
    let claims_path = path.with_extension("bin.claims");
    let [p1, p2, _] = workload_panels();
    {
        let mut log = ClaimLog::open(&claims_path, &[]).unwrap();
        log.append(
            ClaimEntry::Claim(ClaimFrame {
                job_id: 1,
                track: 9,
                attempt: 1,
                lease_ms: 300,
                prefix: 0,
                batches: 0,
                panel: p1,
                forced: Vec::new(),
            }),
            Instant::now(),
        )
        .unwrap();
    }
    let mut survivor = tracked_pool(0, Duration::from_millis(300), &path, false);
    // One-shot: the first (reclaimed, inline) execution of job 1 dies
    // lane-fatally; every later attempt runs clean.
    survivor.inject_lane_crash(1);
    let record = survivor.execute(p2).expect("the live job certifies");
    assert_eq!(record.job_id, 2);
    let reclaimed = survivor
        .results(1)
        .expect("the reclaimed job must eventually commit despite the lane crash");
    survivor.stop().expect("survivor drains cleanly");

    let reopened = ReleaseLedger::open(&path).unwrap();
    assert_eq!(reopened.len(), 2, "both jobs reached the ledger");
    assert_eq!(reopened.records()[0].job_id, 1);
    assert_eq!(reopened.records()[1].job_id, 2);
    assert_eq!(deterministic(&reclaimed), baseline(false)[0]);
    let log = ClaimLog::open(&claims_path, &[]).unwrap();
    assert!(
        !log.entries()
            .iter()
            .any(|e| matches!(&e.entry, ClaimEntry::Done(d) if d.job_id == 1)),
        "a transient failure must not fail the job fleet-wide"
    );
    let attempts: Vec<u32> = log
        .entries()
        .iter()
        .filter_map(|e| match &e.entry {
            ClaimEntry::Claim(c) if c.job_id == 1 => Some(c.attempt),
            _ => None,
        })
        .collect();
    assert!(
        attempts.len() >= 3 && attempts.windows(2).all(|w| w[1] == w[0] + 1),
        "the abandoned reclaim was re-staked with a bumped attempt: {attempts:?}"
    );
}

#[test]
fn claim_log_refresh_heals_a_mirrors_torn_tail() {
    // A track killed mid-append can tear a *mirror* of the claim log
    // while the primary frame landed whole. Survivors' handles append
    // with O_APPEND, so without the refresh-time heal the next claim
    // would land after the garbage and the mirror's suffix would be
    // unreadable — while its fsync still counted toward the quorum.
    let dir = temp_dir("claims-mirror-heal");
    let primary = dir.join("ledger.claims");
    let mirror = dir.join("ledger.claims.mirror");
    let entry = |job_id| {
        ClaimEntry::Claim(ClaimFrame {
            job_id,
            track: 0,
            attempt: 1,
            lease_ms: 1_000,
            prefix: 0,
            batches: 0,
            panel: vec![1, 2, 3],
            forced: Vec::new(),
        })
    };
    let mut log = ClaimLog::open(&primary, std::slice::from_ref(&mirror)).unwrap();
    log.append(entry(1), Instant::now()).unwrap();
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&mirror)
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    }
    assert_eq!(log.refresh(Instant::now()).unwrap(), 0);
    log.append(entry(2), Instant::now()).unwrap();
    drop(log);
    let truth = std::fs::read(&primary).unwrap();
    assert_eq!(std::fs::read(&mirror).unwrap(), truth);
    // The healed mirror alone replays the full history.
    let standalone = ClaimLog::open(&mirror, &[]).unwrap();
    assert_eq!(standalone.entries().len(), 2);
    assert_eq!(standalone.entries()[1].entry, entry(2));
}

#[test]
fn a_done_marker_resolves_a_dead_claim_without_a_commit() {
    // The other half of lease recovery: when the reclaimed run itself
    // fails terminally, the fleet records a Done marker instead of a
    // ledger commit, and later jobs flow past it. Forge a claim whose
    // panel is out of range so the re-run fails deterministically.
    let dir = temp_dir("done-marker");
    let path = dir.join("ledger.bin");
    let claims_path = path.with_extension("bin.claims");
    {
        let mut log = ClaimLog::open(&claims_path, &[]).unwrap();
        log.append(
            ClaimEntry::Claim(ClaimFrame {
                job_id: 1,
                track: 9,
                attempt: 1,
                lease_ms: 300,
                prefix: 0,
                batches: 0,
                panel: vec![u32::try_from(SNPS).unwrap() + 10_000],
                forced: Vec::new(),
            }),
            Instant::now(),
        )
        .unwrap();
    }
    let mut survivor = tracked_pool(0, Duration::from_millis(300), &path, false);
    let [p1, _, _] = workload_panels();
    let record = survivor.execute(p1).expect("the live job certifies");
    assert_eq!(record.job_id, 2);
    assert!(
        survivor.results(1).is_none(),
        "a failed reclaim must not commit a record"
    );
    survivor.stop().expect("survivor drains cleanly");

    let reopened = ReleaseLedger::open(&path).unwrap();
    assert_eq!(reopened.len(), 1, "only the live job reached the ledger");
    assert_eq!(reopened.records()[0].job_id, 2);
    let log = ClaimLog::open(&claims_path, &[]).unwrap();
    assert!(
        log.entries()
            .iter()
            .any(|e| matches!(&e.entry, ClaimEntry::Done(d) if d.job_id == 1)),
        "the dead claim was resolved with a Done marker"
    );
}

#[test]
fn a_reclaimed_dynamic_claim_resolves_as_failed_without_a_commit() {
    // A daemon from before dynamic jobs left the service staked a claim
    // with a batch count and died. A survivor reclaims it and must resolve
    // it as a failed job — a Done marker, no ledger record — and never run
    // it, neither in the daemon nor as a federated job over its panel.
    let dir = temp_dir("dynamic-claim");
    let path = dir.join("ledger.bin");
    let claims_path = path.with_extension("bin.claims");
    {
        let mut log = ClaimLog::open(&claims_path, &[]).unwrap();
        log.append(
            ClaimEntry::Claim(ClaimFrame {
                job_id: 1,
                track: 9,
                attempt: 1,
                lease_ms: 300,
                prefix: 0,
                batches: 2,
                panel: (0..u32::try_from(SNPS).unwrap()).collect(),
                forced: Vec::new(),
            }),
            Instant::now(),
        )
        .unwrap();
    }
    let mut survivor = tracked_pool(0, Duration::from_millis(300), &path, false);
    let [p1, _, _] = workload_panels();
    let record = survivor.execute(p1).expect("the live job certifies");
    assert_eq!(record.job_id, 2);
    assert!(
        record.forced.is_empty(),
        "nothing was released before the live job"
    );
    assert!(
        survivor.results(1).is_none(),
        "a dynamic claim must not commit a record"
    );
    survivor.stop().expect("survivor drains cleanly");

    let reopened = ReleaseLedger::open(&path).unwrap();
    assert_eq!(reopened.len(), 1, "only the live job reached the ledger");
    assert_eq!(reopened.records()[0].job_id, 2);
    let log = ClaimLog::open(&claims_path, &[]).unwrap();
    let done = log
        .entries()
        .iter()
        .find_map(|e| match &e.entry {
            ClaimEntry::Done(d) if d.job_id == 1 => Some(d.error.clone()),
            _ => None,
        })
        .expect("the dynamic claim was resolved with a Done marker");
    assert!(
        done.contains("assess --batches"),
        "the marker says why: {done}"
    );
    let claims = log
        .entries()
        .iter()
        .filter(|e| matches!(&e.entry, ClaimEntry::Claim(c) if c.job_id == 1))
        .count();
    assert_eq!(claims, 1, "nobody re-staked the dynamic claim");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A track killed mid-append leaves a torn tail; reopening the claim
    // log must recover exactly the longest intact prefix and keep
    // accepting appends — for every cut point.
    #[test]
    fn claim_log_survives_any_torn_tail(
        jobs in prop::collection::vec((0u64..50, 0u32..4, 0usize..6), 1..8),
        cut_back in 1usize..64,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "gendpr-tracks-torn-{}-{}", std::process::id(), jobs.len() * 100 + cut_back
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.claims");
        let entries: Vec<ClaimEntry> = jobs
            .iter()
            .map(|&(job_id, track, width)| ClaimEntry::Claim(ClaimFrame {
                job_id,
                track,
                attempt: 1,
                lease_ms: 1_000,
                prefix: 0,
                batches: 0,
                panel: (0..width as u32).collect(),
                forced: Vec::new(),
            }))
            .collect();
        {
            let mut log = ClaimLog::open(&path, &[]).unwrap();
            for entry in &entries {
                log.append(entry.clone(), Instant::now()).unwrap();
            }
        }
        // Tear the tail: drop the last `cut_back` bytes (clamped so at
        // least the final frame is damaged).
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(cut_back.min(bytes.len()));
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let mut log = ClaimLog::open(&path, &[]).unwrap();
        let survived = log.entries().len();
        prop_assert!(survived < entries.len(), "the damaged final frame must be dropped");
        for (seen, original) in log.entries().iter().zip(&entries) {
            prop_assert_eq!(&seen.entry, original, "recovery is a strict prefix");
        }
        // The healed log accepts new appends and reports a usable next id.
        log.append(entries[0].clone(), Instant::now()).unwrap();
        prop_assert_eq!(log.entries().len(), survived + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
