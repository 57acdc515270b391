//! Global job-lifecycle and ledger metrics for the assessment daemon.
//!
//! Queue depth and the running flag are gauges mirrored from the daemon's
//! shared state every time it changes; job completions and ledger I/O are
//! counters. Like every `gendpr-obs` consumer, this is observation only —
//! the serve loop behaves identically with the registry unread.

use gendpr_obs as obs;
use std::sync::OnceLock;

/// Declares one lazily registered, process-global metric per entry:
/// `name: Type = constructor(args);` becomes `pub fn name() -> &'static
/// obs::Type`.
macro_rules! metrics {
    ($($(#[$doc:meta])* $name:ident: $ty:ident = $make:ident($($arg:expr),* $(,)?);)*) => {$(
        $(#[$doc])*
        pub fn $name() -> &'static obs::$ty {
            static METRIC: OnceLock<obs::$ty> = OnceLock::new();
            METRIC.get_or_init(|| obs::$make($($arg),*))
        }
    )*};
}

metrics! {
    /// Jobs sitting in the FIFO queue (excluding the one running).
    jobs_queued: Gauge =
        gauge("gendpr_jobs_queued", "Jobs waiting in the daemon's FIFO queue", &[]);
    /// Jobs currently executing (one per busy worker lane).
    jobs_running: Gauge =
        gauge("gendpr_jobs_running", "Jobs currently executing (one per busy worker lane)", &[]);
    /// Jobs that finished with a certified release.
    jobs_certified: Counter =
        counter("gendpr_jobs_total", "Jobs finished, by outcome", &[("outcome", "certified")]);
    /// Jobs that finished in error (rejected spec, panic, dead session).
    jobs_failed: Counter =
        counter("gendpr_jobs_total", "Jobs finished, by outcome", &[("outcome", "failed")]);
    /// Records appended to the release ledger.
    ledger_appends: Counter =
        counter("gendpr_ledger_appends_total", "Records appended to the release ledger", &[]);
    /// fsyncs issued by the release ledger.
    ledger_fsyncs: Counter =
        counter("gendpr_ledger_fsyncs_total", "Durability syncs issued by the release ledger", &[]);
    /// Records currently in the ledger (set at open and after each append).
    ledger_records: Gauge =
        gauge("gendpr_ledger_records", "Records currently in the release ledger", &[]);
    /// Jobs sitting in the scheduler's bounded queue, undispatched.
    sched_queue_depth: Gauge = gauge(
        "gendpr_sched_queue_depth",
        "Jobs waiting in the scheduler's bounded queue (undispatched)",
        &[],
    );
    /// Workers currently executing a job.
    sched_workers_busy: Gauge =
        gauge("gendpr_sched_workers_busy", "Worker lanes currently executing a job", &[]);
    /// Jobs handed to a worker lane, in dispatch order.
    sched_jobs_dispatched: Counter =
        counter("gendpr_sched_jobs_dispatched_total", "Jobs handed to a worker lane", &[]);
    /// Queue wait: enqueue to dispatch.
    sched_job_wait_seconds: Histogram = histogram(
        "gendpr_sched_job_wait_seconds",
        "Queue wait from admission to dispatch",
        &[],
        obs::DURATION_BUCKETS,
    );
    /// End-to-end job latency: enqueue to ledger commit.
    sched_job_latency_seconds: Histogram = histogram(
        "gendpr_sched_job_latency_seconds",
        "End-to-end job latency from admission to ledger commit",
        &[],
        obs::DURATION_BUCKETS,
    );
    /// Jobs re-queued by supervision after a lane crash or panic.
    sched_job_retries: Counter = counter(
        "gendpr_sched_job_retries_total",
        "Jobs re-queued by lane supervision after a crash",
        &[],
    );
    /// Lane-fatal failures detected by the worker pool.
    sched_lane_crashes: Counter =
        counter("gendpr_sched_lane_crashes_total", "Worker lanes lost to a lane-fatal error", &[]);
    /// Replacement lanes built (re-elected, re-attested) by supervision.
    sched_lane_rebuilds: Counter = counter(
        "gendpr_sched_lane_rebuilds_total",
        "Replacement worker lanes built after a crash",
        &[],
    );
    /// Shutdown drains that hit the hard deadline with lanes still running.
    sched_drain_timeouts: Counter = counter(
        "gendpr_sched_drain_timeouts_total",
        "Shutdown drains that timed out with straggler lanes",
        &[],
    );
    /// Records appended behind a released union their seed did not cover
    /// (something committed between the job's snapshot and its append).
    sched_stale_seed_commits: Counter = counter(
        "gendpr_sched_stale_seed_commits_total",
        "Records committed with a seed older than the released union",
        &[],
    );
    /// Frames discarded from the ledger's torn tail at open (crash mid-append).
    ledger_truncated_frames: Counter = counter(
        "gendpr_ledger_truncated_frames_total",
        "Frames discarded from the ledger's torn tail at open",
        &[],
    );
    /// Jobs executed through a shard plan (phases 1–2 fanned out, merged).
    shard_jobs: Counter =
        counter("gendpr_shard_jobs_total", "Jobs executed across shard lanes and merged", &[]);
    /// Shard lanes lost to a crash (real or injected).
    shard_lane_crashes: Counter =
        counter("gendpr_shard_lane_crashes_total", "Shard lanes lost to a lane-fatal error", &[]);
    /// Replacement shard lanes built (re-elected, re-attested) in place.
    shard_lane_rebuilds: Counter = counter(
        "gendpr_shard_lane_rebuilds_total",
        "Replacement shard lanes built after a crash",
        &[],
    );
    /// Ledger replicas healed at open (truncated or rewritten to the
    /// longest intact prefix found across the set).
    ledger_replica_heals: Counter = counter(
        "gendpr_ledger_replica_heals_total",
        "Ledger replicas rewritten to the winning prefix at open",
        &[],
    );
    /// Replica appends that failed (the quorum may still have held).
    ledger_replica_write_failures: Counter = counter(
        "gendpr_ledger_replica_write_failures_total",
        "Ledger replica appends that failed",
        &[],
    );
    /// Jobs this track claimed in the fleet's shared claim log.
    track_claims: Counter = counter(
        "gendpr_track_claims_total",
        "Jobs claimed by this track in the shared claim log",
        &[],
    );
    /// Expired-lease claims this track took over from a dead track.
    track_reclaims: Counter = counter(
        "gendpr_track_reclaims_total",
        "Expired-lease claims this track took over and re-ran",
        &[],
    );
    /// Claim leases this track observed expiring on other tracks.
    track_lease_expiries: Counter = counter(
        "gendpr_track_lease_expiries_total",
        "Claim leases observed expiring on other tracks",
        &[],
    );
    /// Reclaimed runs abandoned after a transient infrastructure failure:
    /// the claim's lease is left to expire so a healthy track re-runs the
    /// job instead of it being marked terminally failed fleet-wide.
    track_reclaims_abandoned: Counter = counter(
        "gendpr_track_reclaims_abandoned_total",
        "Reclaimed runs abandoned to lease expiry after transient failures",
        &[],
    );
    /// Terminal-failure markers this track appended to the claim log.
    track_done_markers: Counter = counter(
        "gendpr_track_done_markers_total",
        "Terminal-failure markers appended to the claim log",
        &[],
    );
    /// Commit-gate waits: polls spent parked behind earlier unresolved claims.
    track_commit_waits: Counter = counter(
        "gendpr_track_commit_waits_total",
        "Commit-gate polls spent behind earlier unresolved claims",
        &[],
    );
    /// Locally computed results abandoned because another track resolved
    /// the claim first (at-most-once commit in action).
    track_superseded_commits: Counter = counter(
        "gendpr_track_superseded_commits_total",
        "Local results abandoned because another track resolved the claim",
        &[],
    );
}

/// Submits turned away by admission control, by reason.
pub fn sched_admission_rejects(reason: &'static str) -> obs::Counter {
    obs::counter(
        "gendpr_sched_admission_rejects_total",
        "Submits rejected by admission control, by reason",
        &[("reason", reason)],
    )
}

/// Per-worker execution time, one observation per job; the series' `_sum`
/// is the worker lane's cumulative busy time.
pub fn sched_worker_busy_seconds(worker: usize) -> obs::Histogram {
    // Worker counts are tiny (a handful of lanes); a leaked label string
    // per lane per process is the cost of a static-free registry key.
    let label: &'static str = Box::leak(worker.to_string().into_boxed_str());
    obs::histogram(
        "gendpr_sched_worker_busy_seconds",
        "Per-job execution time by worker lane (sum = lane busy time)",
        &[("worker", label)],
        obs::DURATION_BUCKETS,
    )
}

/// Registers every service metric eagerly, plus the protocol and transport
/// families underneath, so a daemon's exposition endpoint is fully
/// populated (at zero) from the first scrape.
pub fn register_service_metrics() {
    jobs_queued();
    jobs_running();
    jobs_certified();
    jobs_failed();
    ledger_appends();
    ledger_fsyncs();
    ledger_records();
    sched_queue_depth();
    sched_workers_busy();
    sched_jobs_dispatched();
    sched_admission_rejects("queue_full");
    sched_admission_rejects("shutdown");
    sched_admission_rejects("invalid");
    sched_job_wait_seconds();
    sched_job_latency_seconds();
    sched_job_retries();
    sched_lane_crashes();
    sched_lane_rebuilds();
    sched_drain_timeouts();
    sched_stale_seed_commits();
    ledger_truncated_frames();
    shard_jobs();
    shard_lane_crashes();
    shard_lane_rebuilds();
    ledger_replica_heals();
    ledger_replica_write_failures();
    track_claims();
    track_reclaims();
    track_reclaims_abandoned();
    track_lease_expiries();
    track_done_markers();
    track_commit_waits();
    track_superseded_commits();
    gendpr_obs::process::sample();
    gendpr_core::telemetry::register_protocol_metrics();
    gendpr_fednet::telemetry::register_transport_metrics();
}
