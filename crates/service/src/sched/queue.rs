//! The bounded job queue and the reply plumbing that lets a client
//! session wait for a job without holding a daemon thread.
//!
//! A waiting submit used to park its handler thread on a channel for the
//! whole job. Under the scheduler the handler instead *hands its socket
//! over*: the [`ReplySink`] travels with the job through the queue, and
//! whichever worker commits the job writes the response. In-memory
//! submitters get a channel sink instead; fire-and-forget submits get
//! none.

use crate::error::ServiceError;
use crate::ledger::LedgerRecord;
use crate::protocol::{ClientResponse, QueuedJobStatus, RejectReason};
use gendpr_fednet::client::write_message;
use gendpr_genomics::snp::SnpId;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Instant;

/// How a job's terminal outcome reaches its submitter.
pub enum ReplySink {
    /// Fire-and-forget (`submit --no-wait`): nobody is waiting.
    None,
    /// An in-memory waiter ([`crate::daemon::AssessmentService::execute`]).
    Channel(mpsc::Sender<JobVerdict>),
    /// A client connection whose submit had `wait`: the handler thread
    /// has already exited; the committing worker writes the response.
    Socket(TcpStream),
}

impl ReplySink {
    /// Delivers the verdict and consumes the sink. Send failures are
    /// ignored — a vanished waiter does not concern the scheduler.
    pub fn deliver(self, verdict: JobVerdict) {
        match self {
            Self::None => {}
            Self::Channel(tx) => {
                let _ = tx.send(verdict);
            }
            Self::Socket(mut stream) => {
                let _ = write_message(&mut stream, &verdict.into_response());
            }
        }
    }
}

/// A job's terminal outcome, in the shape both sink flavours understand.
#[derive(Debug, Clone)]
pub enum JobVerdict {
    /// The job ran and its record is committed to the ledger. Boxed:
    /// a record carries the full release and roster, dwarfing the
    /// other variants.
    Certified(Box<LedgerRecord>),
    /// The job ran and failed; the message is the rendered error.
    Failed(String),
    /// Admission (or shutdown drain) turned the job away untried.
    Rejected(RejectReason),
    /// A supervised job exhausted its retry budget: every execution hit
    /// a lane crash or panic; `message` renders the last attempt's error.
    Retried {
        /// Executions the job got.
        attempts: u32,
        /// The last attempt's error, rendered.
        message: String,
    },
}

impl JobVerdict {
    /// The verdict for a failed-or-rejected outcome, preserving the
    /// typed admission reasons and flattening everything else to its
    /// message.
    #[must_use]
    pub fn from_error(error: &ServiceError) -> Self {
        match error {
            ServiceError::QueueFull { depth, max } => Self::Rejected(RejectReason::QueueFull {
                depth: *depth,
                max: *max,
            }),
            ServiceError::ShuttingDown => Self::Rejected(RejectReason::ShuttingDown),
            ServiceError::Retried { attempts, last } => Self::Retried {
                attempts: *attempts,
                message: last.clone(),
            },
            other => Self::Failed(other.to_string()),
        }
    }

    /// The wire response a socket sink writes.
    #[must_use]
    pub fn into_response(self) -> ClientResponse {
        match self {
            Self::Certified(record) => ClientResponse::Completed(*record),
            Self::Failed(message) => ClientResponse::Error(message),
            Self::Rejected(reason) => ClientResponse::Rejected(reason),
            Self::Retried { attempts, message } => ClientResponse::Retried { attempts, message },
        }
    }

    /// The typed result an in-memory waiter unwraps.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] / [`ServiceError::ShuttingDown`] for
    /// rejections, [`ServiceError::Retried`] for an exhausted retry
    /// budget, [`ServiceError::JobFailed`] for a job that ran and failed.
    pub fn into_result(self) -> Result<LedgerRecord, ServiceError> {
        match self {
            Self::Certified(record) => Ok(*record),
            Self::Failed(message) => Err(ServiceError::JobFailed(message)),
            Self::Rejected(RejectReason::QueueFull { depth, max }) => {
                Err(ServiceError::QueueFull { depth, max })
            }
            Self::Rejected(RejectReason::ShuttingDown) => Err(ServiceError::ShuttingDown),
            Self::Retried { attempts, message } => Err(ServiceError::Retried {
                attempts,
                last: message,
            }),
        }
    }
}

/// One admitted, not-yet-dispatched job.
pub struct QueuedJob {
    /// The id assigned at admission.
    pub job_id: u64,
    /// Sorted, deduplicated SNP panel.
    pub panel: Vec<u32>,
    /// Dynamic batch count (0 = federated).
    pub batches: u32,
    /// Where the terminal outcome goes.
    pub reply: ReplySink,
    /// When admission accepted the job (feeds the wait histogram).
    pub enqueued: Instant,
    /// Executions the job has already had (0 for a fresh submit;
    /// incremented each time supervision re-queues it after a lane
    /// crash).
    pub attempts: u32,
    /// The claim-time ledger snapshot, frozen when this daemon (as a
    /// fleet track) staked the job's claim. `None` outside tracks mode:
    /// dispatch snapshots the ledger instead.
    pub forced: Option<Vec<SnpId>>,
}

/// A FIFO of admitted jobs with a hard capacity; the bound is *checked*
/// by admission, the queue itself only reports it.
pub struct JobQueue {
    jobs: VecDeque<QueuedJob>,
    max: usize,
}

impl JobQueue {
    /// An empty queue admitting at most `max` undispatched jobs.
    #[must_use]
    pub fn new(max: usize) -> Self {
        Self {
            jobs: VecDeque::new(),
            max,
        }
    }

    /// Undispatched jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether nothing is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The admission bound.
    #[must_use]
    pub fn max(&self) -> usize {
        self.max
    }

    /// Appends an admitted job (admission has already checked the bound).
    pub fn push(&mut self, job: QueuedJob) {
        debug_assert!(self.jobs.len() < self.max);
        self.jobs.push_back(job);
    }

    /// Removes the next job in dispatch order.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        self.jobs.pop_front()
    }

    /// Puts a crash-recovered job back at the *front* of the queue, so a
    /// retry runs before anything admitted after it — the job already
    /// held a slot once, its submitter is still waiting, and every later
    /// id is parked behind it at the commit gate. A job only re-queues at
    /// its own commit turn, so the front stays the lowest id. Deliberately
    /// not bounds-checked: the job's original slot was freed at
    /// dispatch, so a re-queue can transiently sit one above `max`.
    pub fn requeue(&mut self, job: QueuedJob) {
        self.jobs.push_front(job);
    }

    /// Every waiting job with its 1-based dispatch position, for
    /// [`crate::protocol::ServiceStatus`].
    #[must_use]
    pub fn positions(&self) -> Vec<QueuedJobStatus> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, job)| QueuedJobStatus {
                job_id: job.job_id,
                position: i as u64 + 1,
            })
            .collect()
    }

    /// Empties the queue, returning the jobs so their sinks can be
    /// answered (shutdown drain).
    pub fn drain(&mut self) -> Vec<QueuedJob> {
        self.jobs.drain(..).collect()
    }
}
