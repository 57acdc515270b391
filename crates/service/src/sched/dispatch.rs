//! The scheduler's shared state machine: one lock owns the queue, the
//! ledger and the set of live job ids, and one rule orders every commit
//! in both serving modes — **ids at admission, commit in id order**.
//!
//! * **Admission** (`Scheduler::enqueue`, on a panel that
//!   [`super::admission::validate`] passed) assigns the next job id and
//!   puts it in `live`, the set of ids admitted and not yet resolved in
//!   this process. A fleet track does the same under the fleet lock,
//!   taking the id from the shared files and staking the claim (with the
//!   claim-time ledger snapshot) before the job is queued.
//! * **Dispatch** pops the next job and — on a standalone daemon —
//!   snapshots the ledger's released-union under the same lock, so the
//!   seed is exactly the committed prefix at the moment of dispatch.
//! * **Commit** has one gate, [`Scheduler::await_turn`]: every outcome of
//!   every local job — success or failure, tracked or not — parks on the
//!   commit condvar until its id is the lowest in `live`. Past the gate
//!   the record is made durable (a ledger append; on a track, the fleet's
//!   cross-process gate, which so only ever sees this process's head) and
//!   [`Scheduler::resolve`] answers the submitter, re-queues or fails the
//!   job, and takes the id out of `live`. Records land in the ledger in
//!   id order, a client is only answered once its record is durable, and
//!   a re-queued job keeps its id and therefore its ledger position.
//!
//! # Why the gate cannot wedge
//!
//! Admission is FIFO, a re-queue goes to the *front* of the queue, and a
//! job only re-queues at its own turn — after every lower id resolved —
//! so the lowest live id is always in flight or first in the queue. The
//! lane that failed it re-queues it *before* its slow rebuild, then
//! returns to dispatch or gives up and shuts the daemon down. Every
//! drain — [`Scheduler::request_shutdown`], [`Scheduler::drain_stragglers`],
//! the lane-fatal drain in [`Scheduler::resolve`] — takes the ids it
//! drops out of `live` and notifies the gate, so a parked waiter never
//! sits behind an id nobody will resolve.
//!
//! # Supervision
//!
//! A *supervised* scheduler (one whose pool has a lane factory) treats a
//! lane crash differently: instead of flipping the daemon into fatal
//! shutdown, the crashed job is put back at the front of the queue with
//! a bounded retry budget and the worker rebuilds its lane. The job's
//! reply sink lives in the scheduler's in-flight table between dispatch
//! and resolution, so a re-queued job keeps its waiting submitter and a
//! timed-out shutdown drain can answer stragglers. Elections are seeded
//! and later ids stay parked behind the retry, so a rebuilt lane
//! certifies the retried job identically to a lane that never crashed.

use super::admission::{self, Limits};
use super::queue::{JobQueue, JobVerdict, QueuedJob, ReplySink};
use crate::error::ServiceError;
use crate::ledger::{LedgerRecord, ReleaseLedger};
use crate::log::Store;
use crate::protocol::RejectReason;
use crate::telemetry;
use crate::tracks::coordinator::FleetGuard;
use crate::tracks::gate::Visit;
use crate::tracks::TrackCoordinator;
use gendpr_genomics::snp::SnpId;
use gendpr_obs::{event, Level};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// What [`Scheduler::next_dispatch`] hands a worker.
pub enum Dispatch {
    /// Run this job, then take it through [`Scheduler::await_turn`] and
    /// [`Scheduler::resolve`].
    Job(DispatchedJob),
    /// The daemon is draining; exit the worker loop.
    Shutdown,
}

/// A job bound to a lane, carrying the ledger snapshot it runs against.
/// The reply sink does *not* travel with the job: it stays in the
/// scheduler's in-flight table so a crash-requeued job keeps its
/// submitter and a hard drain can answer stragglers.
pub struct DispatchedJob {
    /// The job's id — also its position in commit order.
    pub job_id: u64,
    /// Sorted, deduplicated SNP panel.
    pub panel: Vec<u32>,
    /// When admission accepted the job.
    pub enqueued: Instant,
    /// The job's LR seed: the ledger's released-union at dispatch, or at
    /// claim time when the daemon is a fleet track.
    pub forced: Vec<SnpId>,
    /// Executions this job has already had (0 on the first dispatch).
    pub attempts: u32,
}

pub(crate) struct SchedCore {
    pub(crate) queue: JobQueue,
    /// The only copy of committed state: records, the released union and
    /// the per-link totals are all read from here.
    pub(crate) ledger: ReleaseLedger,
    /// Job ids admitted by *this* process and not yet resolved — queued,
    /// in flight, or re-queued after a lane crash. Its lowest member is
    /// the only job allowed past the commit gate.
    pub(crate) live: BTreeSet<u64>,
    pub(crate) next_job_id: u64,
    pub(crate) shutdown: bool,
    /// Test hook: hold dispatch so admission can be driven to the bound
    /// deterministically.
    paused: bool,
    /// The first lane-fatal error; the daemon's exit status.
    fatal: Option<ServiceError>,
    /// Crash-test failpoints, keyed by job id, in arming order.
    failpoints: Vec<(u64, Failpoint)>,
    /// Whether the pool has a lane factory: lane crashes re-queue the
    /// job and rebuild the lane instead of killing the daemon.
    supervised: bool,
    /// Reply sinks of dispatched-but-unresolved jobs, keyed by job id.
    inflight: HashMap<u64, ReplySink>,
    /// Chaos knob: crash the lane on the first attempt of every job
    /// whose id is a multiple of this.
    lane_crash_every: Option<u64>,
}

/// A crash-test failpoint armed for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Failpoint {
    /// The worker panics when the job starts — on every attempt.
    Panic,
    /// Execution sleeps this many milliseconds first — on every attempt —
    /// for exercising the hard drain timeout.
    Stall(u64),
    /// The executing lane dies with a lane-fatal error — once: the retry
    /// runs on a rebuilt, re-elected lane.
    LaneCrash,
    /// This shard lane is torn down before the job touches it — once.
    ShardCrash(u32),
}

impl Failpoint {
    /// Whether firing disarms it.
    fn once(self) -> bool {
        matches!(self, Self::LaneCrash | Self::ShardCrash(_))
    }
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

    /// Lanes currently holding a dispatched job: live ids not in the queue.
    pub(crate) fn busy(&self) -> usize {
        self.live.len() - self.queue.len()
    }

    /// Empties the queue for a drain: the dropped ids leave `live`, and
    /// their sinks are returned to be answered outside the lock.
    fn drain_queue(&mut self) -> Vec<ReplySink> {
        let drained = self.queue.drain();
        for job in &drained {
            self.live.remove(&job.job_id);
        }
        drained.into_iter().map(|job| job.reply).collect()
    }

    fn publish_gauges(&self) {
        let (depth, busy) = (self.queue.len() as i64, self.busy() as i64);
        telemetry::jobs_queued().set(depth);
        telemetry::sched_queue_depth().set(depth);
        telemetry::jobs_running().set(busy);
        telemetry::sched_workers_busy().set(busy);
    }
}

/// The one place a record reaches the ledger, in both serving modes (a
/// track's gate calls it under the fleet lock). Counts the records whose
/// seed no longer equals the released union they are appended behind: a
/// seed is always a subset of the union, so the lengths decide.
///
/// # Errors
///
/// [`ServiceError::Io`] when the append is not durable.
pub(crate) fn append_record<S: Store>(
    ledger: &mut ReleaseLedger<S>,
    record: &LedgerRecord,
) -> Result<(), ServiceError> {
    let stale = record.forced.len() != ledger.released_len();
    ledger.append(record.clone())?;
    if stale {
        telemetry::sched_stale_seed_commits().inc();
    }
    Ok(())
}

/// Answers the submitters a drain cut off with the typed shutting-down
/// rejection.
fn reject_drained(sinks: Vec<ReplySink>) {
    for sink in sinks {
        telemetry::sched_admission_rejects("shutdown").inc();
        sink.deliver(JobVerdict::Rejected(RejectReason::ShuttingDown));
    }
}

/// A submit that passed admission: the locks it was decided under, held
/// until the job is in the queue.
struct Admitted<'a> {
    core: MutexGuard<'a, SchedCore>,
    fleet: Option<FleetGuard<'a>>,
    panel: Vec<u32>,
    job_id: u64,
    /// The claim-time snapshot (tracks mode only).
    forced: Option<Vec<SnpId>>,
}

/// The shared scheduler: admission in, dispatch out, commits serialized.
pub struct Scheduler {
    limits: Limits,
    core: Mutex<SchedCore>,
    /// Signalled on enqueue, unpause and shutdown.
    cv_dispatch: Condvar,
    /// Signalled each time an id leaves `live`.
    cv_commit: Condvar,
    /// Set when the daemon serves as one track of a fleet: admission
    /// stakes claims through it, and records are made durable through
    /// its cross-process gate instead of a plain ledger append.
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
            live: BTreeSet::new(),
            shutdown: false,
            paused: false,
            fatal: None,
            failpoints: Vec::new(),
            supervised: false,
            inflight: HashMap::new(),
            lane_crash_every: None,
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
    /// stakes a claim and every record is made durable through the
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
        if let Some(tracker) = self.tracker.get() {
            drop(tracker.synced(self));
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
    /// not brick the daemon: the queue/`live` invariants hold at every
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

    /// Admits a job, assigning its id and queue slot. `panel` is what
    /// [`admission::validate`] returned for the submitted spec. As a fleet
    /// track the claim *is* the admission — if it cannot be made durable,
    /// nothing was queued and the submitter gets the error.
    ///
    /// # Errors
    ///
    /// The sink is handed back with the typed verdict —
    /// [`ServiceError::QueueFull`], [`ServiceError::ShuttingDown`], or
    /// (tracks mode) [`ServiceError::Io`] from the shared files — so the
    /// caller can answer the submitter on whichever channel it came in on.
    pub(crate) fn enqueue(
        &self,
        panel: Vec<u32>,
        reply: ReplySink,
    ) -> Result<u64, (ReplySink, ServiceError)> {
        let Admitted {
            mut core,
            fleet,
            panel,
            job_id,
            forced,
        } = match self.admit(panel) {
            Ok(admitted) => admitted,
            Err(error) => return Err((reply, error)),
        };
        core.next_job_id = job_id + 1;
        core.live.insert(job_id);
        core.queue.push(QueuedJob {
            job_id,
            panel,
            reply,
            enqueued: Instant::now(),
            attempts: 0,
            forced,
        });
        core.publish_gauges();
        let mut fields = vec![
            ("job_id", job_id.into()),
            ("depth", core.queue.len().into()),
        ];
        let name = match self.tracker.get() {
            Some(tracker) => {
                fields.push(("track", u64::from(tracker.track()).into()));
                "job_claimed"
            }
            None => "job_queued",
        };
        event(Level::Info, "service", name, &fields);
        drop(core);
        drop(fleet);
        self.cv_dispatch.notify_all();
        Ok(job_id)
    }

    /// The admission decision on a validated panel: *(track: fleet lock,
    /// both shared files synced)* → backpressure → id → *(track: stake the
    /// claim)*. A track allocates the globally next id and freezes the
    /// claim-time ledger snapshot in a quorum-acknowledged claim frame, all
    /// under the fleet lock the caller keeps until the job is queued.
    fn admit(&self, panel: Vec<u32>) -> Result<Admitted<'_>, ServiceError> {
        let tracker = self.tracker.get();
        let mut fleet = tracker.map(|t| t.synced(self)).transpose()?;
        let claims_next = fleet.as_mut().map_or(0, |fleet| fleet.log().next_job_id());
        let mut core = self.lock();
        admission::admit(core.shutdown, core.queue.len(), core.queue.max())?;
        let job_id = core.next_job_id.max(claims_next);
        let mut forced = None;
        if let (Some(tracker), Some(fleet)) = (tracker, fleet.as_mut()) {
            let claim = tracker
                .gate(fleet.log(), &mut core.ledger, self.limits.max_retries)
                .stake(job_id, 1, panel.clone())?;
            telemetry::track_claims().inc();
            forced = Some(claim.forced.into_iter().map(SnpId).collect());
        }
        Ok(Admitted {
            core,
            fleet,
            panel,
            job_id,
            forced,
        })
    }

    /// Blocks until a job is ready (or the daemon drains): pops it and,
    /// for a job without a claim-time snapshot, snapshots the ledger,
    /// atomically.
    pub fn next_dispatch(&self) -> Dispatch {
        let mut core = self.lock();
        loop {
            if core.shutdown {
                return Dispatch::Shutdown;
            }
            if !core.paused {
                if let Some(job) = core.queue.pop() {
                    // Tracked jobs run against their claim-time snapshot
                    // (frozen when the claim was staked); untracked jobs
                    // snapshot the ledger at dispatch, as always.
                    let forced = job.forced.unwrap_or_else(|| core.ledger.released_union());
                    core.inflight.insert(job.job_id, job.reply);
                    core.publish_gauges();
                    telemetry::sched_jobs_dispatched().inc();
                    telemetry::sched_job_wait_seconds().observe_duration(job.enqueued.elapsed());
                    event(
                        Level::Info,
                        "service",
                        "job_running",
                        &[
                            ("job_id", job.job_id.into()),
                            ("attempt", (u64::from(job.attempts) + 1).into()),
                        ],
                    );
                    return Dispatch::Job(DispatchedJob {
                        job_id: job.job_id,
                        panel: job.panel,
                        enqueued: job.enqueued,
                        forced,
                        attempts: job.attempts,
                    });
                }
            }
            core = self
                .cv_dispatch
                .wait(core)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The commit gate: parks until no lower id is live in this process.
    /// Every finished local job — whatever its outcome — passes through
    /// here before anything about it becomes durable or visible, and it
    /// stays the head until [`Scheduler::resolve`] lets it go (ids only
    /// grow, and drains never touch an in-flight job).
    pub fn await_turn(&self, job_id: u64) {
        let mut core = self.lock();
        while core.live.first().is_some_and(|&head| head < job_id) {
            core = self
                .cv_commit
                .wait(core)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Resolves the job whose turn it is. `outcome` is the *durable*
    /// record (already in the ledger) or the failure; this answers the
    /// submitter, or puts the job back in the queue, and releases the
    /// gate to the next id.
    ///
    /// Failure handling splits on supervision. Unsupervised (no lane
    /// factory), a lane-fatal error drains the queue and flips the
    /// daemon into shutdown so nothing parks forever behind a dead lane.
    /// Supervised, a retryable failure (lane crash, job panic) instead
    /// puts the job back at the *front* of the queue — keeping its id,
    /// its place in `live` and its waiting submitter — until its retry
    /// budget runs out, at which point the submitter gets the typed
    /// [`ServiceError::Retried`] verdict and the daemon keeps serving.
    /// Ledger (I/O) failures stay fatal either way: the ledger is shared
    /// state, not a lane. On a track a terminal failure also resolves the
    /// job's fleet claim with a `Done` marker, or the survivors would
    /// wait out the lease and re-run a job this track already answered.
    pub fn resolve(&self, job: DispatchedJob, outcome: Result<LedgerRecord, ServiceError>) {
        let job_id = job.job_id;
        let mut core = self.lock();
        let mut drained = Vec::new();
        let mut done_failed = None;
        let verdict = match outcome {
            Ok(record) => {
                telemetry::jobs_certified().inc();
                event(
                    Level::Info,
                    "service",
                    "job_certified",
                    &[
                        ("job_id", job_id.into()),
                        ("released", record.released.len().into()),
                    ],
                );
                JobVerdict::Certified(Box::new(record))
            }
            Err(error) => {
                let message = error.to_string();
                let recoverable = core.supervised && error.retryable();
                if recoverable && !core.shutdown && job.attempts < self.limits.max_retries {
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
                            ("attempt", (u64::from(job.attempts) + 1).into()),
                            ("error", message.as_str().into()),
                        ],
                    );
                    let reply = core.inflight.remove(&job_id).unwrap_or(ReplySink::None);
                    core.queue.requeue(QueuedJob {
                        job_id,
                        panel: job.panel,
                        reply,
                        enqueued: job.enqueued,
                        attempts: job.attempts + 1,
                        // A tracked retry keeps the claim-time snapshot:
                        // the claim is still live and the fleet expects
                        // the committed record to charge it.
                        forced: self.tracker.get().map(|_| job.forced),
                    });
                    core.publish_gauges();
                    drop(core);
                    self.cv_dispatch.notify_all();
                    return;
                }
                telemetry::jobs_failed().inc();
                let error = if recoverable {
                    // Budget exhausted (or the daemon is draining):
                    // the typed verdict says how hard we tried.
                    ServiceError::Retried {
                        attempts: job.attempts + 1,
                        last: message.clone(),
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
                if let Some(tracker) = self.tracker.get() {
                    // Resolved at the fleet gate (a `Done` marker, unless
                    // the fleet resolved the job first) while the id is
                    // still the live head, and with the core lock
                    // released (fleet → core), so the next local job
                    // cannot find this claim unresolved and reclaim it.
                    drop(core);
                    let failed = Err(ServiceError::JobFailed(message));
                    let visit = Visit {
                        job_id,
                        result: &failed,
                        reclaimed: None,
                    };
                    done_failed = tracker.commit_step(self, &visit).err();
                    core = self.lock();
                }
                let verdict = JobVerdict::from_error(&error);
                if !error.lane_survives() {
                    core.shutdown = true;
                    core.fatal.get_or_insert(error);
                    drained = core.drain_queue();
                }
                verdict
            }
        };
        // A hard drain may have answered the submitter already; with no
        // sink the job resolves normally but delivers to nobody.
        let reply = core.inflight.remove(&job_id);
        core.live.remove(&job_id);
        core.publish_gauges();
        telemetry::sched_job_latency_seconds().observe_duration(job.enqueued.elapsed());
        drop(core);
        self.cv_commit.notify_all();
        self.cv_dispatch.notify_all();
        if let Some(reply) = reply {
            reply.deliver(verdict);
        }
        reject_drained(drained);
        if let Some(error) = done_failed {
            self.record_fatal(error);
            self.request_shutdown();
        }
    }

    /// Flips the daemon into shutdown and rejects every undispatched job
    /// with the typed [`ServiceError::ShuttingDown`] verdict; in-flight
    /// jobs still commit.
    pub fn request_shutdown(&self) {
        let mut core = self.lock();
        core.shutdown = true;
        let drained = core.drain_queue();
        core.publish_gauges();
        drop(core);
        self.cv_dispatch.notify_all();
        self.cv_commit.notify_all();
        reject_drained(drained);
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

    /// Arms a crash-test failpoint for `job_id`.
    pub(crate) fn arm(&self, job_id: u64, failpoint: Failpoint) {
        self.lock().failpoints.push((job_id, failpoint));
    }

    /// The failpoints that fire on this execution of `job_id`, in arming
    /// order: every one armed for it — the one-shot kinds disarmed as they
    /// fire — plus, on a first attempt, the `lane_crash_every` knob's lane
    /// crash.
    pub(crate) fn take_failpoints(&self, job_id: u64, attempts: u32) -> Vec<Failpoint> {
        let mut core = self.lock();
        let mut fired = Vec::new();
        core.failpoints.retain(|&(job, failpoint)| {
            if job == job_id {
                fired.push(failpoint);
            }
            job != job_id || !failpoint.once()
        });
        let every = core.lane_crash_every.filter(|&every| every > 0);
        if attempts == 0 && every.is_some_and(|every| job_id.is_multiple_of(every)) {
            fired.push(Failpoint::LaneCrash);
        }
        fired
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

    /// Answers every job the shutdown drain could not finish — queued
    /// *and* in-flight — with the typed shutting-down rejection, and
    /// returns how many there were. Called when the drain deadline
    /// passes with lanes still wedged (e.g. mid-election against a dead
    /// member): the stragglers' eventual commits find their sinks gone
    /// and deliver to nobody.
    pub fn drain_stragglers(&self) -> usize {
        let mut core = self.lock();
        core.shutdown = true;
        let mut sinks: Vec<ReplySink> = core.inflight.drain().map(|(_, sink)| sink).collect();
        sinks.extend(core.drain_queue());
        core.publish_gauges();
        drop(core);
        self.cv_dispatch.notify_all();
        self.cv_commit.notify_all();
        let count = sinks.len();
        reject_drained(sinks);
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
        let core = self.lock();
        let (core, _) = self
            .cv_commit
            .wait_timeout_while(core, timeout, |core| !core.live.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        core.live.is_empty()
    }
}
