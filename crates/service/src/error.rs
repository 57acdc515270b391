//! Service-layer errors: the daemon sits between the filesystem (ledger)
//! and the protocol (federation, client codec), so its fallible paths
//! surface one of those two worlds — plus the scheduler's own admission
//! verdicts, which are typed so clients can tell backpressure apart from
//! a broken request.

use gendpr_core::error::ProtocolError;
use std::fmt;
use std::io;

/// Anything the assessment service can fail with.
#[derive(Debug)]
pub enum ServiceError {
    /// Ledger or client-socket I/O failed.
    Io(io::Error),
    /// The federation (or a job) failed.
    Protocol(ProtocolError),
    /// A job's worker panicked; the payload is the panic message. The
    /// daemon catches the unwind, marks the job failed and keeps serving —
    /// the shared queue state is never poisoned by job code.
    JobPanicked(String),
    /// Admission control turned the job away: the bounded queue is at
    /// `max` jobs. This is backpressure, not failure — the client should
    /// retry once the queue drains.
    QueueFull {
        /// Jobs waiting when the submit arrived.
        depth: u64,
        /// The daemon's `--max-queue` bound.
        max: u64,
    },
    /// The daemon is draining for shutdown: queued-but-undispatched jobs
    /// are rejected with this error, in-flight jobs still complete.
    ShuttingDown,
    /// The submitted job spec was rejected at admission (empty panel,
    /// out-of-range SNP id, a dynamic batch count). The payload is the
    /// human-readable reason; nothing was queued.
    InvalidJob(String),
    /// The job ran and failed; the payload is the failure rendered as a
    /// message. Used on the in-memory submit path, where the worker that
    /// owns the typed error must also keep it for the daemon's own exit
    /// status.
    JobFailed(String),
    /// A supervised job exhausted its retry budget: every attempt died
    /// with a lane crash (or panic), the lane was rebuilt each time, and
    /// the job still failed. `attempts` counts executions; `last` is the
    /// final attempt's rendered error. The daemon keeps serving — only
    /// this job is answered with the failure.
    Retried {
        /// Executions the job got before the budget ran out.
        attempts: u32,
        /// The last attempt's error, rendered.
        last: String,
    },
    /// A shard lane failed phases 1–2 even after its per-shard retry
    /// budget (teardown → seeded rebuild → re-run of just that shard).
    /// The primary lane and the other shards are untouched, so the job
    /// is retryable and the daemon keeps serving.
    ShardFailed {
        /// Which shard of the plan gave up.
        shard: u32,
        /// The final attempt's error, rendered.
        last: String,
    },
    /// This track held the job's claim past its lease and another track
    /// resolved it first — either committing its own re-execution or
    /// marking the job failed. The local result is discarded: the claim
    /// log's resolution is authoritative, re-running here would risk a
    /// duplicate commit. The lane is healthy and nothing is retried.
    TrackSuperseded {
        /// The job whose claim was taken over.
        job_id: u64,
        /// The track that resolved it.
        track: u32,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "service I/O: {e}"),
            Self::Protocol(e) => write!(f, "{e}"),
            Self::JobPanicked(msg) => write!(f, "job panicked: {msg}"),
            Self::QueueFull { depth, max } => {
                write!(f, "job queue full ({depth} of {max} slots); retry later")
            }
            Self::ShuttingDown => write!(f, "service shutting down"),
            Self::InvalidJob(msg) | Self::JobFailed(msg) => write!(f, "{msg}"),
            Self::Retried { attempts, last } => {
                write!(
                    f,
                    "job failed after {attempts} attempts; last error: {last}"
                )
            }
            Self::ShardFailed { shard, last } => {
                write!(f, "shard {shard} failed: {last}")
            }
            Self::TrackSuperseded { job_id, track } => {
                write!(
                    f,
                    "job {job_id} was resolved by track {track} after this track's lease expired"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ProtocolError> for ServiceError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

impl ServiceError {
    /// The [`ProtocolError`] to map to an exit code, folding I/O into the
    /// generic bucket.
    #[must_use]
    pub fn as_protocol(&self) -> Option<&ProtocolError> {
        match self {
            Self::Protocol(e) => Some(e),
            Self::Io(_)
            | Self::JobPanicked(_)
            | Self::QueueFull { .. }
            | Self::ShuttingDown
            | Self::InvalidJob(_)
            | Self::JobFailed(_)
            | Self::Retried { .. }
            | Self::ShardFailed { .. }
            | Self::TrackSuperseded { .. } => None,
        }
    }

    /// Whether the error leaves the execution lane (federation session,
    /// ledger) healthy: rejected specs, job panics and admission verdicts
    /// do; transport or ledger failures mean the lane is gone.
    #[must_use]
    pub fn lane_survives(&self) -> bool {
        match self {
            Self::Protocol(ProtocolError::InvalidConfig(_) | ProtocolError::EmptyStudy)
            | Self::JobPanicked(_)
            | Self::QueueFull { .. }
            | Self::ShuttingDown
            | Self::InvalidJob(_)
            | Self::JobFailed(_)
            | Self::Retried { .. }
            | Self::ShardFailed { .. }
            | Self::TrackSuperseded { .. } => true,
            Self::Protocol(_) | Self::Io(_) => false,
        }
    }

    /// Whether a supervised scheduler may re-queue the job after this
    /// failure. Lane deaths (member timeout, security failure — any
    /// lane-fatal protocol error) and job panics
    /// qualify: the job itself may be fine, the execution environment
    /// was not. Spec rejections are the submitter's fault and ledger
    /// (I/O) failures poison the daemon's durable state, so neither is
    /// retried.
    #[must_use]
    pub fn retryable(&self) -> bool {
        match self {
            Self::JobPanicked(_) | Self::ShardFailed { .. } => true,
            Self::Protocol(ProtocolError::InvalidConfig(_) | ProtocolError::EmptyStudy) => false,
            Self::Protocol(_) => true,
            Self::Io(_)
            | Self::QueueFull { .. }
            | Self::ShuttingDown
            | Self::InvalidJob(_)
            | Self::JobFailed(_)
            | Self::Retried { .. }
            | Self::TrackSuperseded { .. } => false,
        }
    }
}
