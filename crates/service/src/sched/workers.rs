//! The worker pool: long-lived lanes, each owning one attested
//! [`ServiceFederation`] session, pulling jobs from the scheduler.
//!
//! Lanes are long-lived threads because a federation session is
//! stateful — election, attestation and channel ratchets live for the
//! daemon's lifetime, so each lane keeps its session warm across jobs
//! exactly like the old single-session daemon did.
//!
//! A worker's loop is dispatch → execute → wait for the job's commit
//! turn → make the record durable → resolve, and every outcome takes
//! every step (see [`super::dispatch`] for the one ordering rule).
//! Execution runs under an unwind barrier: a panic in job code becomes
//! [`ServiceError::JobPanicked`] and resolves as a failed job, keeping
//! both the lane and the commit gate alive. Only the durable step knows
//! the serving mode: a standalone daemon appends to its ledger, a fleet
//! track drives the record through the cross-process gate — reached only
//! by the process's lowest live id, so at most one worker per process
//! polls the shared files.
//!
//! # The fleet executor
//!
//! On a track the durable step is one loop, `fleet_commit`, that carries
//! one job at a time through `TrackCoordinator::commit_step` and does
//! what the visit left it with — and nothing else: the policy is
//! `tracks::gate::decide`'s. The job is the worker's own, or a dead
//! track's claim the gate handed it to run: the worker runs that claim
//! inline on its own (idle) lane — waiting for another local worker
//! would deadlock a `--workers 1` track — and visits with the result
//! exactly as with its own, until the reclaimed job resolves and its own
//! is carried on. `TRACK_GATE_POLL` is the loop's one sleep.
//!
//! # Lane supervision
//!
//! A pool spawned with a [`LaneFactory`] is *supervised*: when a job
//! dies with a lane-fatal error (a member unresponsive, a security
//! failure), the worker resolves the failure —
//! which, supervised, re-queues the job instead of killing the daemon —
//! then tears the dead session down and asks the factory for a fresh
//! one. The factory runs a full election + attestation; because both
//! are seeded, the rebuilt lane certifies the retried job identically
//! to a lane that never crashed. Repeated factory failures are the one
//! thing supervision cannot survive: the worker records the error as
//! fatal and flips the daemon into shutdown.

use super::admission::DYNAMIC_JOBS_REFUSED;
use super::dispatch::{append_record, Dispatch, DispatchedJob, Failpoint, Scheduler};
use crate::error::ServiceError;
use crate::ledger::LedgerRecord;
use crate::shard::ShardSet;
use crate::telemetry;
use crate::tracks::claims::ClaimFrame;
use crate::tracks::gate::{Visit, Visited};
use crate::tracks::TrackCoordinator;
use gendpr_core::error::ProtocolError;
use gendpr_core::serving::{JobSpec, ServiceFederation};
use gendpr_genomics::snp::SnpId;
use gendpr_obs::{event, Level};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Builds a replacement worker lane: a fresh, attested
/// [`ServiceFederation`] session over the same cohort and config as the
/// originals (same seed ⇒ same leader, identical certification).
pub type LaneFactory = Arc<dyn Fn() -> Result<ServiceFederation, ServiceError> + Send + Sync>;

/// How many times a worker asks the factory for a replacement lane
/// before declaring the failure fatal.
const LANE_REBUILD_ATTEMPTS: u32 = 5;

/// Backoff unit between rebuild attempts (grows linearly).
const LANE_REBUILD_BACKOFF: Duration = Duration::from_millis(100);

/// How long a worker parked at the fleet commit gate sleeps between
/// polls of the shared claim log.
const TRACK_GATE_POLL: Duration = Duration::from_millis(50);

/// The running lanes; joining drains them.
pub struct WorkerPool {
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns one worker thread per lane. With a factory the pool is
    /// supervised: crashed lanes are torn down and rebuilt, their
    /// in-flight jobs re-queued under the scheduler's retry budget;
    /// without one a lane crash is fatal to the daemon (the historical
    /// behaviour). A worker with a pre-built [`ShardSet`] runs its
    /// federated jobs sharded (phases 1–2 fanned across the set's
    /// sub-federation lanes, merged on the primary lane), a worker
    /// without one runs them whole. Shard-lane crashes recover *inside*
    /// the set; the primary lane's supervision is unchanged.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when a worker thread cannot be spawned.
    ///
    /// # Panics
    ///
    /// Panics if `shard_sets` is not one entry per lane.
    pub fn spawn_sharded(
        lanes: Vec<ServiceFederation>,
        factory: Option<LaneFactory>,
        shard_sets: Vec<Option<ShardSet>>,
        scheduler: &Arc<Scheduler>,
    ) -> io::Result<Self> {
        assert_eq!(lanes.len(), shard_sets.len(), "one shard set slot per lane");
        scheduler.set_supervised(factory.is_some());
        let mut handles = Vec::with_capacity(lanes.len());
        for (worker, (lane, shard_set)) in lanes.into_iter().zip(shard_sets).enumerate() {
            let scheduler = Arc::clone(scheduler);
            let factory = factory.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("gendpr-worker-{worker}"))
                    .spawn(move || {
                        worker_loop(worker, lane, factory, shard_set, &scheduler);
                    })?,
            );
        }
        Ok(Self { handles })
    }

    /// Waits, bounded, for every lane to drain its in-flight job and close
    /// its federation session: returns `false` when a lane is still
    /// running at the deadline (wedged mid-election, a member that will
    /// never answer). The straggler threads are detached — the caller
    /// answers their submitters via [`Scheduler::drain_stragglers`] and
    /// exits without them.
    #[must_use]
    pub fn join_timeout(self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.handles.iter().all(thread::JoinHandle::is_finished) {
                for handle in self.handles {
                    let _ = handle.join();
                }
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }
}

fn worker_loop(
    worker: usize,
    lane: ServiceFederation,
    factory: Option<LaneFactory>,
    mut shard_set: Option<ShardSet>,
    scheduler: &Arc<Scheduler>,
) {
    let busy = telemetry::sched_worker_busy_seconds(worker);
    let tracker = scheduler.tracker();
    // Seeded elections: every healthy lane (and every rebuild) must agree.
    let expected = (lane.leader(), lane.gdo_count());
    let mut lane = Some(lane);
    loop {
        match scheduler.next_dispatch() {
            Dispatch::Shutdown => break,
            Dispatch::Job(job) => {
                let Some(session) = lane.as_mut() else { break };
                let started = Instant::now();
                let result = run_job_caught(session, shard_set.as_mut(), scheduler, &job);
                busy.observe_duration(started.elapsed());
                let lane_ok = !matches!(&result, Err(error) if !error.lane_survives());
                // One gate for every outcome. A failure resolves before
                // the slow rebuild starts: supervised, that re-queues
                // the job, so another lane can pick the retry up
                // immediately.
                scheduler.await_turn(job.job_id);
                // The durable step: an Ok job whose record cannot be made
                // durable is a failed job (and a dead ledger is fatal).
                let outcome = result.and_then(|record| match tracker.as_deref() {
                    None => scheduler
                        .with_core_mut(|core| append_record(&mut core.ledger, &record))
                        .map(|()| record),
                    Some(coordinator) => fleet_commit(
                        coordinator,
                        scheduler,
                        session,
                        shard_set.as_mut(),
                        worker,
                        factory.as_ref(),
                        expected,
                        job.job_id,
                        record,
                    ),
                });
                scheduler.resolve(job, outcome);
                if !lane_ok {
                    note_lane_crash(worker);
                    // The session is gone (or poisoned); close what is
                    // left of it. The interesting error is already
                    // resolved, so teardown failures are dropped.
                    if let Some(dead) = lane.take() {
                        let _ = dead.shutdown();
                    }
                    let Some(factory) = factory.as_ref() else {
                        break; // unsupervised: the failure went fatal
                    };
                    match rebuild_lane(worker, factory, scheduler, expected) {
                        Some(fresh) => lane = Some(fresh),
                        None => break,
                    }
                }
            }
        }
    }
    // A healthy session closes cleanly; a session that died mid-job has
    // already recorded the interesting error, so this one is dropped.
    if let Some(lane) = lane {
        if let Err(error) = lane.shutdown() {
            scheduler.record_fatal(error.into());
        }
    }
}

fn note_lane_crash(worker: usize) {
    telemetry::sched_lane_crashes().inc();
    let fields = [("worker", worker.into())];
    event(Level::Warn, "service", "lane_crashed", &fields);
}

/// Asks the factory for a replacement lane, with bounded attempts and
/// linear backoff. Returns `None` when the daemon is draining or the
/// factory keeps failing (the latter records the fatal error and flips
/// the daemon into shutdown).
fn rebuild_lane(
    worker: usize,
    factory: &LaneFactory,
    scheduler: &Scheduler,
    expected: (usize, usize),
) -> Option<ServiceFederation> {
    let mut last: Option<ServiceError> = None;
    for attempt in 1..=LANE_REBUILD_ATTEMPTS {
        if scheduler.shutdown_requested() {
            return None;
        }
        match factory() {
            Ok(fresh) => {
                if (fresh.leader(), fresh.gdo_count()) != expected {
                    // Unreachable with seeded elections; treated as a
                    // failed attempt rather than trusted.
                    let _ = fresh.shutdown();
                    last = Some(
                        ProtocolError::InvalidConfig("rebuilt lane disagrees on the federation")
                            .into(),
                    );
                    continue;
                }
                telemetry::sched_lane_rebuilds().inc();
                event(
                    Level::Info,
                    "service",
                    "lane_rebuilt",
                    &[("worker", worker.into()), ("attempt", attempt.into())],
                );
                return Some(fresh);
            }
            Err(error) => {
                event(
                    Level::Warn,
                    "service",
                    "lane_rebuild_failed",
                    &[
                        ("worker", worker.into()),
                        ("attempt", attempt.into()),
                        ("error", error.to_string().as_str().into()),
                    ],
                );
                last = Some(error);
                thread::sleep(LANE_REBUILD_BACKOFF * attempt);
            }
        }
    }
    scheduler.record_fatal(last.unwrap_or_else(|| {
        ProtocolError::InvalidConfig("lane rebuild failed with no error").into()
    }));
    scheduler.request_shutdown();
    None
}

/// A track's durable step: the fleet executor (see the module docs).
/// Carries `record` through the cross-process gate until it is appended
/// in claim order, adopted from a faster reclaimer (the fleet's record
/// is the job's one truth, ours is discarded), or superseded by a `Done`
/// marker — running, on the way, every dead track's claim the gate hands
/// this worker.
///
/// A reclaimed run that kills the lane is recovered *here*, after the
/// gate has resolved the failure: the lane is torn down and rebuilt in
/// place, so the gate keeps being served even in a `--tracks 1` fleet.
/// Only when a rebuild is impossible does the worker's own job fail, so
/// neither the local gate nor the fleet's is left waiting on it.
///
/// # Errors
///
/// The gate's I/O errors (the shared files or their quorum are gone:
/// fatal, exactly like a local ledger append failing), the job's
/// supersession, or the lost lane.
#[allow(clippy::too_many_arguments)]
fn fleet_commit(
    coordinator: &TrackCoordinator,
    scheduler: &Arc<Scheduler>,
    lane: &mut ServiceFederation,
    mut shard_set: Option<&mut ShardSet>,
    worker: usize,
    factory: Option<&LaneFactory>,
    expected: (usize, usize),
    job_id: u64,
    record: LedgerRecord,
) -> Result<LedgerRecord, ServiceError> {
    let own = Ok(record);
    // The reclaimed claim this worker is carrying, with its run's result.
    let mut reclaimed: Option<(ClaimFrame, Result<LedgerRecord, ServiceError>)> = None;
    loop {
        let visit = match &reclaimed {
            None => Visit {
                job_id,
                result: &own,
                reclaimed: None,
            },
            Some((claim, result)) => Visit {
                job_id: claim.job_id,
                result,
                reclaimed: Some(claim.attempt),
            },
        };
        let visiting = visit.job_id;
        match coordinator.commit_step(scheduler, &visit)? {
            Visited::Resolved(result) => match reclaimed.take() {
                None => return *result,
                Some((_, Err(error))) if !error.lane_survives() => {
                    // The reclaimed run killed the lane; the gate has
                    // left its claim to lease or closed it. This worker
                    // still owes the fleet its own job's commit.
                    note_lane_crash(worker);
                    let Some(fresh) =
                        factory.and_then(|f| rebuild_lane(worker, f, scheduler, expected))
                    else {
                        // Unsupervised, or the rebuild budget ran out
                        // (fatal shutdown is already flagged).
                        return Err(ServiceError::JobFailed(
                            "track worker lane lost before fleet commit".to_string(),
                        ));
                    };
                    let _ = std::mem::replace(lane, fresh).shutdown();
                }
                Some(_) => {}
            },
            // Took the visited job's own claim back from a reclaimer that
            // died too: the next visit commits the result in hand.
            Visited::Run(claim) if claim.job_id == visiting => {}
            // A dynamic job staked by an older daemon: it resolves as a
            // failed job (a `Done` marker), never as a federated run.
            Visited::Run(claim) if claim.batches != 0 => {
                let refused = ServiceError::InvalidJob(DYNAMIC_JOBS_REFUSED.to_string());
                reclaimed = Some((claim, Err(refused)));
            }
            Visited::Run(claim) => {
                // The submitter, if any, was connected to the dead track:
                // nobody local is answered and no queue slot is touched.
                let job = DispatchedJob {
                    job_id: claim.job_id,
                    panel: claim.panel.clone(),
                    enqueued: Instant::now(),
                    forced: claim.forced.iter().copied().map(SnpId).collect(),
                    attempts: claim.attempt.saturating_sub(1),
                };
                let result = run_job_caught(lane, shard_set.as_deref_mut(), scheduler, &job);
                reclaimed = Some((claim, result));
            }
            Visited::Wait => thread::sleep(TRACK_GATE_POLL),
        }
    }
}

/// Runs one job with an unwind barrier: a panic anywhere in job code
/// becomes [`ServiceError::JobPanicked`] instead of unwinding through
/// the worker loop and leaving its id live forever.
fn run_job_caught(
    lane: &mut ServiceFederation,
    shard_set: Option<&mut ShardSet>,
    scheduler: &Scheduler,
    job: &DispatchedJob,
) -> Result<LedgerRecord, ServiceError> {
    catch_unwind(AssertUnwindSafe(|| {
        run_job(lane, shard_set, scheduler, job)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(ServiceError::JobPanicked(message))
    })
}

fn run_job(
    lane: &mut ServiceFederation,
    shard_set: Option<&mut ShardSet>,
    scheduler: &Scheduler,
    job: &DispatchedJob,
) -> Result<LedgerRecord, ServiceError> {
    let fired = scheduler.take_failpoints(job.job_id);
    let stall = fired.iter().find_map(|point| match point {
        Failpoint::Stall(millis) => Some(*millis),
        _ => None,
    });
    if let Some(millis) = stall {
        thread::sleep(Duration::from_millis(millis));
    }
    if fired.contains(&Failpoint::Panic) {
        panic!("injected failpoint panic for job {}", job.job_id);
    }
    if fired.contains(&Failpoint::LaneCrash) {
        // A synthetic lane death: the error is lane-fatal, so the
        // supervision path (re-queue, teardown, rebuild, retry) runs
        // exactly as it would for a real member loss.
        return Err(ProtocolError::MemberUnresponsive {
            member: 0,
            phase: "lane-crash failpoint",
        }
        .into());
    }
    let spec = JobSpec {
        job_id: job.job_id,
        panel: job.panel.iter().copied().map(SnpId).collect(),
        forced: job.forced.clone(),
    };
    let outcome = match shard_set {
        Some(set) => {
            let crashes: Vec<u32> = fired
                .iter()
                .filter_map(|point| match point {
                    Failpoint::ShardCrash(shard) => Some(*shard),
                    _ => None,
                })
                .collect();
            telemetry::shard_jobs().inc();
            set.run_job(lane, &spec, &crashes)?
        }
        None => lane.submit(&spec)?,
    };
    Ok(LedgerRecord::from_outcome(&spec, &outcome))
}
