//! The job scheduler: many concurrent client sessions multiplexed onto a
//! bounded queue, executed by a pool of worker lanes, with ledger commits
//! serialized in job-id order.
//!
//! # Why lanes, not one shared session
//!
//! A [`gendpr_core::serving::ServiceFederation`] is one attested member
//! session: jobs on it are strictly sequential (the members walk the
//! protocol phases in lockstep). Parallelism therefore comes from
//! *lanes* — each worker owns its own federation session over the same
//! cohort and config. Elections and channel derivation are seeded, so
//! every lane certifies a given `(job, panel, forced)` identically; the
//! daemon-restart test already pins that property for fresh sessions.
//!
//! # The ledger-consistency rule
//!
//! Concurrency must not blur what a certificate attests. Two invariants,
//! both enforced under the scheduler's single state lock
//! ([`dispatch::Scheduler`]):
//!
//! 1. **Snapshot at dispatch** — a job's LR phase is seeded with the
//!    ledger's released-union as of the moment the job is handed to a
//!    lane, never a partially-committed in-flight release. (A fleet
//!    track freezes the snapshot earlier, in the job's claim.)
//! 2. **Ids at admission, commit in id order** — workers may *finish*
//!    out of order, but every outcome waits at one gate until its id is
//!    the lowest one still unresolved in this process, so records are
//!    appended to the ledger (and clients answered) in id order. A job
//!    re-queued after a lane crash keeps its id and therefore its ledger
//!    position: later jobs stay parked behind the retry. The same gate
//!    serves a standalone daemon and a fleet track; the track only adds
//!    the cross-process step behind it ([`crate::tracks`]).
//!
//! Together they make a single-client run (every submit waits for the
//! previous result) byte-identical to the old FIFO daemon regardless of
//! `--workers`: each dispatch then observes a fully-committed prefix, so
//! snapshot, record order and certificates all coincide with the
//! sequential execution.
//!
//! Module map: [`queue`] (bounded FIFO, reply sinks), [`admission`]
//! (spec validation and typed backpressure), [`dispatch`] (the shared
//! scheduler state machine), [`workers`] (the lane pool and job
//! execution).

pub mod admission;
pub mod dispatch;
pub mod queue;
pub mod workers;

pub use admission::Limits;
pub use dispatch::{Dispatch, DispatchedJob, Scheduler};
pub use queue::{JobQueue, JobVerdict, QueuedJob, ReplySink};
pub use workers::{LaneFactory, WorkerPool};

use std::time::Duration;

/// Scheduler sizing and supervision knobs, surfaced as `gendpr serve
/// --workers/--max-queue/--max-retries/--drain-timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Accepted and **ignored**: the pool has one worker per lane handed
    /// to [`crate::daemon::AssessmentService::start_with`], whatever this
    /// says. The field stays only because `benchmark/src/serve.rs:184`
    /// names it; it goes with the three inert `threads` arguments in one
    /// `benchmark` issue.
    pub workers: usize,
    /// Bound on *undispatched* jobs; submits beyond it are rejected with
    /// [`crate::error::ServiceError::QueueFull`]. Must be ≥ 1.
    pub max_queue: usize,
    /// How many times a supervised scheduler re-queues a job whose lane
    /// crashed (or whose execution panicked) before answering the
    /// submitter with [`crate::error::ServiceError::Retried`]. The job
    /// runs at most `max_retries + 1` times. Ignored without a lane
    /// factory (unsupervised pools fail jobs on the first crash, as
    /// before).
    pub max_retries: u32,
    /// Hard bound on the shutdown drain: when the worker lanes have not
    /// finished their in-flight jobs within this window (a lane wedged
    /// mid-election, a member that will never answer), the stragglers'
    /// submitters are answered with the typed shutting-down verdict and
    /// the daemon exits anyway.
    pub drain_timeout: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_queue: 64,
            max_retries: 2,
            drain_timeout: Duration::from_secs(30),
        }
    }
}
