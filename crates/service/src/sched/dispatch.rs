//! The scheduler's shared state machine: one lock owns the queue, the
//! ledger and the dispatch/commit sequence numbers, so the two halves of
//! the ledger-consistency rule are atomic by construction:
//!
//! * **Dispatch** pops the next job, assigns it the next dispatch
//!   sequence number and snapshots the ledger's released-union — all
//!   under the lock, so the snapshot is exactly the committed prefix at
//!   the moment of dispatch.
//! * **Commit** is gated on that sequence number: a worker that finishes
//!   early parks on the commit condvar until every earlier-dispatched
//!   job has been appended (or failed). Records therefore land in the
//!   ledger in dispatch order, and a client is only answered once its
//!   record is durable.
//!
//! Failed jobs pass through the same gate (advancing the sequence
//! without appending) so a panic or rejected spec can never wedge the
//! jobs dispatched after it.
//!
//! # Supervision
//!
//! A *supervised* scheduler (one whose pool has a lane factory) treats a
//! lane crash differently: instead of flipping the daemon into fatal
//! shutdown, the crashed job is put back at the front of the queue with
//! a bounded retry budget and the worker rebuilds its lane. The job's
//! reply sink lives in the scheduler's in-flight table between dispatch
//! and commit, so a re-queued job keeps its waiting submitter and a
//! timed-out shutdown drain can answer stragglers. Elections are seeded,
//! so a rebuilt lane certifies the retried job identically to a lane
//! that never crashed.

use super::admission::{self, Limits};
use super::queue::{JobQueue, JobVerdict, QueuedJob, ReplySink};
use crate::error::ServiceError;
use crate::ledger::{LedgerRecord, ReleaseLedger};
use crate::telemetry;
use crate::tracks::claims::{ClaimEntry, ClaimFrame};
use crate::tracks::TrackCoordinator;
use gendpr_genomics::snp::SnpId;
use gendpr_obs::{event, Level};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How often a parked worker re-checks the shutdown flag while the queue
/// is empty.
const DISPATCH_POLL: Duration = Duration::from_millis(100);

/// What [`Scheduler::next_dispatch`] hands a worker.
pub enum Dispatch {
    /// Run this job, then [`Scheduler::commit`] it.
    Job(DispatchedJob),
    /// The daemon is draining; exit the worker loop.
    Shutdown,
}

/// What [`Scheduler::commit`] did with the job, so a tracked worker can
/// tell a terminal failure (whose fleet claim must be resolved with a
/// `Done` marker) from a local re-queue (whose claim stays live).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The record was appended and the submitter answered.
    Committed,
    /// The failure was recoverable: the job went back to the front of
    /// the queue and will run again locally.
    Requeued,
    /// The failure was terminal: the submitter got the error verdict.
    Terminal,
}

/// A job bound to a lane, carrying its dispatch-time ledger snapshot and
/// the sequence number its commit is gated on. The reply sink does *not*
/// travel with the job: it stays in the scheduler's in-flight table so a
/// crash-requeued job keeps its submitter and a hard drain can answer
/// stragglers.
pub struct DispatchedJob {
    /// The job's id.
    pub job_id: u64,
    /// Sorted, deduplicated SNP panel.
    pub panel: Vec<u32>,
    /// Dynamic batch count (0 = federated).
    pub batches: u32,
    /// When admission accepted the job.
    pub enqueued: Instant,
    /// Position in dispatch order; commits are serialized on it.
    pub seq: u64,
    /// The ledger's released-union at dispatch — the job's LR seed.
    pub forced: Vec<SnpId>,
    /// Executions this job has already had (0 on the first dispatch).
    pub attempts: u32,
}

pub(crate) struct SchedCore {
    pub(crate) queue: JobQueue,
    /// The only copy of committed state: records, the released union and
    /// the per-link totals are all read from here.
    pub(crate) ledger: ReleaseLedger,
    /// Tracked job ids that are still alive in *this* process — queued
    /// or dispatched-but-uncommitted. The fleet commit gate parks behind
    /// an own-track claim only while its job is in this set: a claim by
    /// the same track id with no local job behind it is a pre-crash
    /// leftover (or an abandoned reclaim) that nobody here will ever
    /// commit, so it must become reclaimable on lease expiry. Empty
    /// outside tracks mode.
    pub(crate) tracked_live: BTreeSet<u64>,
    pub(crate) next_job_id: u64,
    next_dispatch_seq: u64,
    next_commit_seq: u64,
    /// Lanes currently executing a job.
    pub(crate) busy: u32,
    pub(crate) shutdown: bool,
    /// Test hook: hold dispatch so admission can be driven to the bound
    /// deterministically.
    paused: bool,
    /// The first lane-fatal error; the daemon's exit status.
    fatal: Option<ServiceError>,
    /// Crash-test failpoint: job ids armed to panic when they start.
    panic_jobs: Vec<u64>,
    /// Whether the pool has a lane factory: lane crashes re-queue the
    /// job and rebuild the lane instead of killing the daemon.
    supervised: bool,
    /// Reply sinks of dispatched-but-uncommitted jobs, keyed by dispatch
    /// sequence number.
    inflight: HashMap<u64, ReplySink>,
    /// Crash-test failpoint: job ids armed (one-shot) to kill their lane
    /// when they start executing.
    lane_crash_jobs: Vec<u64>,
    /// Chaos knob: crash the lane on the first attempt of every job
    /// whose id is a multiple of this.
    lane_crash_every: Option<u64>,
    /// Crash-test failpoint: `(job_id, millis)` pairs armed to stall
    /// execution, for exercising the hard drain timeout.
    stall_jobs: Vec<(u64, u64)>,
    /// Crash-test failpoint: `(job_id, shard)` pairs armed to tear the
    /// named shard lane down before its first attempt of that job.
    shard_crash_jobs: Vec<(u64, u32)>,
}

impl SchedCore {
    /// Re-scans the shared ledger file for records committed by other
    /// tracks, and moves the id counter past them. Must be called with
    /// the fleet lock held (the refresh truncates torn tails).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the ledger file cannot be re-read.
    pub(crate) fn sync_from_disk(&mut self) -> Result<usize, ServiceError> {
        let fresh = self.ledger.refresh()?;
        self.next_job_id = self.next_job_id.max(self.ledger.next_job_id());
        Ok(fresh)
    }
}

/// The shared scheduler: admission in, dispatch out, commits serialized.
pub struct Scheduler {
    limits: Limits,
    core: Mutex<SchedCore>,
    /// Signalled on enqueue, unpause and shutdown.
    cv_dispatch: Condvar,
    /// Signalled each time `next_commit_seq` advances.
    cv_commit: Condvar,
    /// Set when the daemon serves as one track of a fleet: admission
    /// stakes claims through it, and successful jobs commit through its
    /// cross-process gate instead of [`Scheduler::commit`].
    tracker: OnceLock<Arc<TrackCoordinator>>,
}

impl Scheduler {
    /// A scheduler over `ledger`, whose existing records immediately
    /// count toward every snapshot.
    #[must_use]
    pub fn new(ledger: ReleaseLedger, limits: Limits) -> Self {
        let core = SchedCore {
            queue: JobQueue::new(limits.max_queue),
            next_job_id: ledger.next_job_id(),
            ledger,
            next_dispatch_seq: 0,
            next_commit_seq: 0,
            busy: 0,
            shutdown: false,
            paused: false,
            fatal: None,
            panic_jobs: Vec::new(),
            supervised: false,
            inflight: HashMap::new(),
            lane_crash_jobs: Vec::new(),
            lane_crash_every: None,
            stall_jobs: Vec::new(),
            shard_crash_jobs: Vec::new(),
            tracked_live: BTreeSet::new(),
        };
        Self {
            limits,
            core: Mutex::new(core),
            cv_dispatch: Condvar::new(),
            cv_commit: Condvar::new(),
            tracker: OnceLock::new(),
        }
    }

    /// Attaches the fleet coordinator: from here on, every admitted job
    /// stakes a claim and every successful job commits through the
    /// cross-process gate. Set once, before the daemon accepts work.
    pub fn set_tracker(&self, tracker: Arc<TrackCoordinator>) {
        let _ = self.tracker.set(tracker);
    }

    /// The fleet coordinator, when this daemon is a track.
    #[must_use]
    pub fn tracker(&self) -> Option<Arc<TrackCoordinator>> {
        self.tracker.get().cloned()
    }

    /// In tracks mode, pulls records other tracks committed since the
    /// last shared-file access into the local view (under the fleet
    /// lock), so `status` and `results` answer for the whole fleet. A
    /// no-op for a standalone daemon; errors are swallowed — a read-only
    /// snapshot must not take the daemon down, and the next write path
    /// will surface a broken ledger anyway.
    pub fn refresh_view(&self) {
        if let Some(tracker) = self.tracker() {
            if let Ok(guard) = tracker.fleet() {
                let _ = self.with_core_mut(|core| core.sync_from_disk());
                drop(guard);
            }
        }
    }

    /// The static limits admission checks against.
    #[must_use]
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Locks the scheduler state, recovering from a poisoned mutex.
    /// Worker job panics are caught before they can poison anything, but
    /// a panic in any other thread (client handler, test harness) must
    /// not brick the daemon: the queue/sequence invariants hold at every
    /// point a guard can drop.
    fn lock(&self) -> MutexGuard<'_, SchedCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` under the scheduler lock (status snapshots, tests).
    pub(crate) fn with_core<R>(&self, f: impl FnOnce(&SchedCore) -> R) -> R {
        f(&self.lock())
    }

    /// Runs `f` under the scheduler lock with mutable state — the
    /// coordinator's hook for refreshing and appending to the shared
    /// ledger. Callers touching ledger files must hold the fleet lock.
    pub(crate) fn with_core_mut<R>(&self, f: impl FnOnce(&mut SchedCore) -> R) -> R {
        f(&mut self.lock())
    }

    /// Validates and admits a job, assigning its id and queue slot.
    ///
    /// # Errors
    ///
    /// The sink is handed back with the typed verdict —
    /// [`ServiceError::InvalidJob`], [`ServiceError::QueueFull`] or
    /// [`ServiceError::ShuttingDown`] — so the caller can answer the
    /// submitter on whichever channel it came in on.
    pub fn enqueue(
        &self,
        panel: Vec<u32>,
        batches: u32,
        reply: ReplySink,
    ) -> Result<u64, (ReplySink, ServiceError)> {
        let panel = match admission::validate(panel, batches, &self.limits) {
            Ok(panel) => panel,
            Err(error) => return Err((reply, error)),
        };
        if let Some(tracker) = self.tracker() {
            return self.enqueue_tracked(&tracker, panel, batches, reply);
        }
        let mut core = self.lock();
        if let Err(error) = admission::admit(core.shutdown, core.queue.len(), core.queue.max()) {
            return Err((reply, error));
        }
        let job_id = core.next_job_id;
        core.next_job_id += 1;
        core.queue.push(QueuedJob {
            job_id,
            panel,
            batches,
            reply,
            enqueued: Instant::now(),
            attempts: 0,
            forced: None,
        });
        let depth = core.queue.len();
        telemetry::jobs_queued().set(depth as i64);
        telemetry::sched_queue_depth().set(depth as i64);
        event(
            Level::Info,
            "service",
            "job_queued",
            &[
                ("job_id", job_id.into()),
                ("depth", depth.into()),
                ("batches", batches.into()),
            ],
        );
        drop(core);
        self.cv_dispatch.notify_all();
        Ok(job_id)
    }

    /// Tracked admission: under the fleet lock, refresh the shared view,
    /// allocate the globally next job id, freeze the claim-time ledger
    /// snapshot, and append a quorum-acknowledged claim frame before the
    /// job enters the local queue. The claim *is* the admission — if it
    /// cannot be made durable, nothing was queued and the submitter gets
    /// the error.
    fn enqueue_tracked(
        &self,
        tracker: &TrackCoordinator,
        panel: Vec<u32>,
        batches: u32,
        reply: ReplySink,
    ) -> Result<u64, (ReplySink, ServiceError)> {
        let mut fleet = match tracker.fleet() {
            Ok(fleet) => fleet,
            Err(error) => return Err((reply, error)),
        };
        if let Err(error) = fleet.log().refresh() {
            return Err((reply, error));
        }
        let claims_next = fleet.log().next_job_id();
        let mut core = self.lock();
        if let Err(error) = core.sync_from_disk() {
            return Err((reply, error));
        }
        if let Err(error) = admission::admit(core.shutdown, core.queue.len(), core.queue.max()) {
            return Err((reply, error));
        }
        let job_id = core.ledger.next_job_id().max(claims_next);
        let forced = core.ledger.released_union();
        let claim = ClaimFrame {
            job_id,
            track: tracker.track(),
            attempt: 1,
            lease_ms: tracker.lease_ms(),
            prefix: core.ledger.len() as u64,
            batches,
            panel: panel.clone(),
            forced: forced.iter().map(|s| s.0).collect(),
        };
        if let Err(error) = fleet.log().append(ClaimEntry::Claim(claim)) {
            return Err((reply, error));
        }
        telemetry::track_claims().inc();
        core.next_job_id = core.next_job_id.max(job_id + 1);
        core.tracked_live.insert(job_id);
        core.queue.push(QueuedJob {
            job_id,
            panel,
            batches,
            reply,
            enqueued: Instant::now(),
            attempts: 0,
            forced: Some(forced),
        });
        let depth = core.queue.len();
        telemetry::jobs_queued().set(depth as i64);
        telemetry::sched_queue_depth().set(depth as i64);
        event(
            Level::Info,
            "service",
            "job_claimed",
            &[
                ("job_id", job_id.into()),
                ("track", u64::from(tracker.track()).into()),
                ("depth", depth.into()),
                ("batches", batches.into()),
            ],
        );
        drop(core);
        drop(fleet);
        self.cv_dispatch.notify_all();
        Ok(job_id)
    }

    /// Blocks until a job is ready (or the daemon drains): pops it,
    /// assigns the next dispatch sequence number and snapshots the
    /// ledger, atomically.
    pub fn next_dispatch(&self) -> Dispatch {
        let mut core = self.lock();
        loop {
            if core.shutdown {
                return Dispatch::Shutdown;
            }
            if !core.paused {
                if let Some(job) = core.queue.pop() {
                    let seq = core.next_dispatch_seq;
                    core.next_dispatch_seq += 1;
                    core.busy += 1;
                    // Tracked jobs run against their claim-time snapshot
                    // (frozen when the claim was staked); untracked jobs
                    // snapshot the ledger at dispatch, as always.
                    let forced = job
                        .forced
                        .clone()
                        .unwrap_or_else(|| core.ledger.released_union());
                    telemetry::jobs_queued().set(core.queue.len() as i64);
                    telemetry::sched_queue_depth().set(core.queue.len() as i64);
                    telemetry::jobs_running().set(i64::from(core.busy));
                    telemetry::sched_workers_busy().set(i64::from(core.busy));
                    telemetry::sched_jobs_dispatched().inc();
                    telemetry::sched_job_wait_seconds().observe_duration(job.enqueued.elapsed());
                    event(
                        Level::Info,
                        "service",
                        "job_running",
                        &[
                            ("job_id", job.job_id.into()),
                            ("seq", seq.into()),
                            ("attempt", (u64::from(job.attempts) + 1).into()),
                        ],
                    );
                    core.inflight.insert(seq, job.reply);
                    return Dispatch::Job(DispatchedJob {
                        job_id: job.job_id,
                        panel: job.panel,
                        batches: job.batches,
                        enqueued: job.enqueued,
                        seq,
                        forced,
                        attempts: job.attempts,
                    });
                }
            }
            let (guard, _) = self
                .cv_dispatch
                .wait_timeout(core, DISPATCH_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            core = guard;
        }
    }

    /// Commits a finished job: waits for its turn in dispatch order,
    /// appends the record (success) or records the failure, then answers
    /// the submitter.
    ///
    /// Failure handling splits on supervision. Unsupervised (no lane
    /// factory), a lane-fatal error drains the queue and flips the
    /// daemon into shutdown so nothing parks forever behind a dead lane.
    /// Supervised, a retryable failure (lane crash, job panic) instead
    /// puts the job back at the *front* of the queue — keeping its
    /// waiting submitter via the in-flight sink table — until its retry
    /// budget runs out, at which point the submitter gets the typed
    /// [`ServiceError::Retried`] verdict and the daemon keeps serving.
    /// Ledger (I/O) failures stay fatal either way: the ledger is shared
    /// state, not a lane.
    ///
    /// Returns what happened, so a tracked worker knows whether the
    /// job's fleet claim still needs resolving.
    pub fn commit(
        &self,
        job: DispatchedJob,
        result: Result<LedgerRecord, ServiceError>,
    ) -> CommitOutcome {
        let tracked = self.tracker.get().is_some();
        let DispatchedJob {
            job_id,
            panel,
            batches,
            enqueued,
            seq,
            attempts,
            forced,
        } = job;
        let mut core = self.lock();
        while core.next_commit_seq != seq {
            let (guard, _) = self
                .cv_commit
                .wait_timeout(core, DISPATCH_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            core = guard;
        }
        // A hard drain may have answered the submitter already; a None
        // sink commits normally but delivers to nobody.
        let mut reply = core.inflight.remove(&seq);
        // The append is part of the commit: an Ok job whose record cannot
        // be made durable is a failed job (and a dead ledger is fatal).
        let outcome = result.and_then(|record| core.ledger.append(record.clone()).map(|()| record));
        let mut drained = Vec::new();
        let mut requeued = false;
        let verdict = match outcome {
            Ok(record) => {
                telemetry::jobs_certified().inc();
                event(
                    Level::Info,
                    "service",
                    "job_certified",
                    &[
                        ("job_id", record.job_id.into()),
                        ("released", record.released.len().into()),
                    ],
                );
                Some(JobVerdict::Certified(Box::new(record)))
            }
            Err(error) => {
                let recoverable = core.supervised && error.retryable();
                if recoverable && !core.shutdown && attempts < self.limits.max_retries {
                    // Not terminal: the job goes back to the head of the
                    // queue with its submitter still attached, and the
                    // crashed worker rebuilds its lane.
                    telemetry::sched_job_retries().inc();
                    event(
                        Level::Warn,
                        "service",
                        "job_requeued",
                        &[
                            ("job_id", job_id.into()),
                            ("attempt", (u64::from(attempts) + 1).into()),
                            ("error", error.to_string().as_str().into()),
                        ],
                    );
                    core.queue.requeue(QueuedJob {
                        job_id,
                        panel,
                        batches,
                        reply: reply.take().unwrap_or(ReplySink::None),
                        enqueued,
                        attempts: attempts + 1,
                        // A tracked retry keeps the claim-time snapshot:
                        // the claim is still live and the fleet expects
                        // the committed record to charge it.
                        forced: tracked.then_some(forced),
                    });
                    requeued = true;
                    None
                } else {
                    telemetry::jobs_failed().inc();
                    let error = if recoverable {
                        // Budget exhausted (or the daemon is draining):
                        // the typed verdict says how hard we tried.
                        ServiceError::Retried {
                            attempts: attempts + 1,
                            last: error.to_string(),
                        }
                    } else {
                        error
                    };
                    event(
                        Level::Warn,
                        "service",
                        "job_failed",
                        &[
                            ("job_id", job_id.into()),
                            ("error", error.to_string().as_str().into()),
                        ],
                    );
                    let verdict = JobVerdict::from_error(&error);
                    if !error.lane_survives() {
                        core.shutdown = true;
                        core.fatal.get_or_insert(error);
                        drained = core.queue.drain();
                        for job in &drained {
                            core.tracked_live.remove(&job.job_id);
                        }
                    }
                    Some(verdict)
                }
            }
        };
        if !requeued {
            core.tracked_live.remove(&job_id);
        }
        core.next_commit_seq = seq + 1;
        core.busy -= 1;
        telemetry::jobs_running().set(i64::from(core.busy));
        telemetry::sched_workers_busy().set(i64::from(core.busy));
        telemetry::jobs_queued().set(core.queue.len() as i64);
        telemetry::sched_queue_depth().set(core.queue.len() as i64);
        if !requeued {
            telemetry::sched_job_latency_seconds().observe_duration(enqueued.elapsed());
        }
        drop(core);
        self.cv_commit.notify_all();
        self.cv_dispatch.notify_all();
        let outcome = if requeued {
            CommitOutcome::Requeued
        } else if matches!(verdict, Some(JobVerdict::Certified(_))) {
            CommitOutcome::Committed
        } else {
            CommitOutcome::Terminal
        };
        if let (Some(reply), Some(verdict)) = (reply, verdict) {
            reply.deliver(verdict);
        }
        for job in drained {
            telemetry::sched_admission_rejects("shutdown").inc();
            job.reply.deliver(JobVerdict::Rejected(
                crate::protocol::RejectReason::ShuttingDown,
            ));
        }
        outcome
    }

    /// The tracked twin of [`Scheduler::commit`] for a job whose record
    /// is *already durable* — appended by the fleet gate (this track's
    /// own commit, or a reclaimer's that this track adopts). Waits for
    /// the local commit turn, answers the submitter with the certified
    /// record, and advances the sequence; nothing touches the ledger.
    pub fn commit_durable(&self, job: DispatchedJob, record: LedgerRecord) {
        let DispatchedJob {
            job_id,
            seq,
            enqueued,
            ..
        } = job;
        let mut core = self.lock();
        while core.next_commit_seq != seq {
            let (guard, _) = self
                .cv_commit
                .wait_timeout(core, DISPATCH_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            core = guard;
        }
        let reply = core.inflight.remove(&seq);
        core.tracked_live.remove(&job_id);
        telemetry::jobs_certified().inc();
        event(
            Level::Info,
            "service",
            "job_certified",
            &[
                ("job_id", record.job_id.into()),
                ("released", record.released.len().into()),
            ],
        );
        core.next_commit_seq = seq + 1;
        core.busy -= 1;
        telemetry::jobs_running().set(i64::from(core.busy));
        telemetry::sched_workers_busy().set(i64::from(core.busy));
        telemetry::sched_job_latency_seconds().observe_duration(enqueued.elapsed());
        drop(core);
        self.cv_commit.notify_all();
        self.cv_dispatch.notify_all();
        if let Some(reply) = reply {
            reply.deliver(JobVerdict::Certified(Box::new(record)));
        }
    }

    /// Flips the daemon into shutdown and rejects every undispatched job
    /// with the typed [`ServiceError::ShuttingDown`] verdict; in-flight
    /// jobs still commit.
    pub fn request_shutdown(&self) {
        let mut core = self.lock();
        core.shutdown = true;
        let drained = core.queue.drain();
        for job in &drained {
            core.tracked_live.remove(&job.job_id);
        }
        telemetry::jobs_queued().set(0);
        telemetry::sched_queue_depth().set(0);
        drop(core);
        self.cv_dispatch.notify_all();
        self.cv_commit.notify_all();
        for job in drained {
            telemetry::sched_admission_rejects("shutdown").inc();
            job.reply.deliver(JobVerdict::Rejected(
                crate::protocol::RejectReason::ShuttingDown,
            ));
        }
    }

    /// Whether shutdown has been requested (by a client, a signal
    /// handler's caller, or a lane-fatal error).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.lock().shutdown
    }

    /// Takes the first lane-fatal error, if any — the daemon's exit
    /// status.
    pub fn take_fatal(&self) -> Option<ServiceError> {
        self.lock().fatal.take()
    }

    /// Records a lane teardown failure if no fatal error is recorded yet
    /// (a lane that died mid-job already put the interesting error in).
    pub(crate) fn record_fatal(&self, error: ServiceError) {
        self.lock().fatal.get_or_insert(error);
    }

    /// Arms the crash-test failpoint for `job_id`.
    pub(crate) fn arm_panic(&self, job_id: u64) {
        self.lock().panic_jobs.push(job_id);
    }

    /// Whether `job_id` is armed to panic.
    pub(crate) fn panic_armed(&self, job_id: u64) -> bool {
        self.lock().panic_jobs.contains(&job_id)
    }

    /// Marks the scheduler as supervised (its pool has a lane factory):
    /// lane crashes re-queue the job instead of killing the daemon.
    pub(crate) fn set_supervised(&self, supervised: bool) {
        self.lock().supervised = supervised;
    }

    /// Sets the chaos knob that crashes the executing lane on the first
    /// attempt of every job whose id is a multiple of `every`.
    pub(crate) fn set_lane_crash_every(&self, every: Option<u64>) {
        self.lock().lane_crash_every = every;
    }

    /// Arms a one-shot lane-crash failpoint for `job_id`: the first
    /// attempt tears the executing lane down (a real session teardown —
    /// the retry runs on a rebuilt, re-elected lane).
    pub(crate) fn arm_lane_crash(&self, job_id: u64) {
        self.lock().lane_crash_jobs.push(job_id);
    }

    /// Takes (consumes) a pending lane-crash trigger for this execution.
    /// One-shot arms fire once; the `lane_crash_every` knob fires only
    /// on a job's first attempt so a retry can succeed.
    pub(crate) fn take_lane_crash(&self, job_id: u64, attempts: u32) -> bool {
        let mut core = self.lock();
        if let Some(i) = core.lane_crash_jobs.iter().position(|&j| j == job_id) {
            core.lane_crash_jobs.swap_remove(i);
            return true;
        }
        attempts == 0
            && core
                .lane_crash_every
                .is_some_and(|every| every > 0 && job_id.is_multiple_of(every))
    }

    /// Arms a stall failpoint: execution of `job_id` sleeps `millis`
    /// before running, for exercising the hard drain timeout.
    pub(crate) fn arm_stall(&self, job_id: u64, millis: u64) {
        self.lock().stall_jobs.push((job_id, millis));
    }

    /// Arms a one-shot shard-crash failpoint: before `job_id`'s first
    /// attempt touches shard `shard`, that lane is torn down — the
    /// per-shard recovery path (rebuild + re-run of just that shard) is
    /// the production code under test.
    pub(crate) fn arm_shard_crash(&self, job_id: u64, shard: u32) {
        self.lock().shard_crash_jobs.push((job_id, shard));
    }

    /// Takes (consumes) every shard-crash trigger armed for `job_id`.
    pub(crate) fn take_shard_crashes(&self, job_id: u64) -> Vec<u32> {
        let mut core = self.lock();
        let mut shards = Vec::new();
        core.shard_crash_jobs.retain(|&(j, s)| {
            if j == job_id {
                shards.push(s);
                false
            } else {
                true
            }
        });
        shards
    }

    /// The armed stall for `job_id`, if any (not consumed: a requeued
    /// attempt stalls again).
    pub(crate) fn stall_armed(&self, job_id: u64) -> Option<u64> {
        self.lock()
            .stall_jobs
            .iter()
            .find(|(j, _)| *j == job_id)
            .map(|&(_, ms)| ms)
    }

    /// Answers every job the shutdown drain could not finish — queued
    /// *and* in-flight — with the typed shutting-down rejection, and
    /// returns how many there were. Called when the drain deadline
    /// passes with lanes still wedged (e.g. mid-election against a dead
    /// member): the stragglers' eventual commits find their sinks gone
    /// and deliver to nobody.
    pub fn drain_stragglers(&self) -> usize {
        let mut core = self.lock();
        core.shutdown = true;
        let sinks: Vec<ReplySink> = core.inflight.drain().map(|(_, sink)| sink).collect();
        let queued = core.queue.drain();
        for job in &queued {
            core.tracked_live.remove(&job.job_id);
        }
        drop(core);
        self.cv_dispatch.notify_all();
        self.cv_commit.notify_all();
        let count = sinks.len() + queued.len();
        for sink in sinks {
            telemetry::sched_admission_rejects("shutdown").inc();
            sink.deliver(JobVerdict::Rejected(
                crate::protocol::RejectReason::ShuttingDown,
            ));
        }
        for job in queued {
            telemetry::sched_admission_rejects("shutdown").inc();
            job.reply.deliver(JobVerdict::Rejected(
                crate::protocol::RejectReason::ShuttingDown,
            ));
        }
        count
    }

    /// Test hook: holds (`true`) or releases (`false`) dispatch, so a
    /// test can fill the queue to the admission bound deterministically.
    pub(crate) fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        self.cv_dispatch.notify_all();
    }

    /// Blocks until the queue is empty and every lane is idle, or
    /// `timeout` elapses. Returns whether the scheduler drained.
    #[must_use]
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.with_core(|core| core.queue.is_empty() && core.busy == 0) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
