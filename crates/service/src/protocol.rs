//! The client ↔ daemon protocol: one length-prefixed
//! [`gendpr_fednet::wire`]-encoded message per frame (see
//! [`gendpr_fednet::client`]), one request/response exchange per
//! connection.
//!
//! Keeping the protocol connection-per-request makes both sides trivial:
//! no multiplexing, no heartbeats, and a waiting `submit` simply blocks
//! on its socket until the daemon finishes the job and writes the
//! [`ClientResponse::Completed`] record.

use crate::ledger::{LedgerRecord, LinkRecord};
use gendpr_fednet::wire::{Decode, Encode, Reader, WireError};
use gendpr_fednet::wire_struct;

/// What a client may ask the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// Queue an assessment job over `panel`.
    ///
    /// The job runs the federated protocol on an attested lane; admission
    /// refuses `batches > 0` with a typed invalid-job verdict. With `wait`
    /// the connection stays open until the job
    /// finishes and the response is [`ClientResponse::Completed`];
    /// otherwise [`ClientResponse::Accepted`] returns immediately.
    Submit {
        /// Requested SNP ids.
        panel: Vec<u32>,
        /// A dynamic batch count, decoded for older clients that sent
        /// one; admission refuses any value but 0.
        batches: u32,
        /// Block until the job completes.
        wait: bool,
    },
    /// Ask for the daemon's status snapshot.
    Status,
    /// Fetch the ledger record of one finished job.
    Results {
        /// The job to look up.
        job_id: u64,
    },
    /// Ask the daemon to finish the in-flight job and exit.
    Shutdown,
}

impl Encode for ClientRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Submit {
                panel,
                batches,
                wait,
            } => {
                0u8.encode(buf);
                panel.encode(buf);
                batches.encode(buf);
                wait.encode(buf);
            }
            Self::Status => 1u8.encode(buf),
            Self::Results { job_id } => {
                2u8.encode(buf);
                job_id.encode(buf);
            }
            Self::Shutdown => 3u8.encode(buf),
        }
    }
}

impl Decode for ClientRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Self::Submit {
                panel: Vec::decode(r)?,
                batches: u32::decode(r)?,
                wait: bool::decode(r)?,
            }),
            1 => Ok(Self::Status),
            2 => Ok(Self::Results {
                job_id: u64::decode(r)?,
            }),
            3 => Ok(Self::Shutdown),
            _ => Err(WireError::InvalidValue("client request tag")),
        }
    }
}

/// Why the scheduler turned a submit away without queueing it. Typed so
/// clients can tell backpressure (retry later) from a daemon that is
/// going away (find another one): both are admission verdicts, neither
/// is a job failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded job queue is at capacity; retry once it drains.
    QueueFull {
        /// Jobs waiting when the submit arrived.
        depth: u64,
        /// The daemon's `--max-queue` bound.
        max: u64,
    },
    /// The daemon is draining for shutdown.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { depth, max } => {
                write!(f, "job queue full ({depth} of {max} slots); retry later")
            }
            Self::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl Encode for RejectReason {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::QueueFull { depth, max } => {
                0u8.encode(buf);
                depth.encode(buf);
                max.encode(buf);
            }
            Self::ShuttingDown => 1u8.encode(buf),
        }
    }
}

impl Decode for RejectReason {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Self::QueueFull {
                depth: u64::decode(r)?,
                max: u64::decode(r)?,
            }),
            1 => Ok(Self::ShuttingDown),
            _ => Err(WireError::InvalidValue("reject reason tag")),
        }
    }
}

/// One undispatched job in the scheduler's queue, as reported by
/// [`ServiceStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJobStatus {
    /// The job's id (valid for [`ClientRequest::Results`] once it runs).
    pub job_id: u64,
    /// 1-based position in the dispatch order.
    pub position: u64,
}
wire_struct!(QueuedJobStatus { job_id, position });

/// A daemon status snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStatus {
    /// The session leader.
    pub leader: u32,
    /// Federation size.
    pub gdos: u32,
    /// Cohort panel width (valid SNP ids are `0..panel_len`).
    pub panel_len: u64,
    /// Jobs whose records are in the ledger (including earlier runs of
    /// the daemon — the ledger survives restarts).
    pub jobs_done: u64,
    /// Jobs queued or running.
    pub jobs_queued: u64,
    /// Size of the union of all released SNP sets — what the next job's
    /// LR phase will be seeded with.
    pub released_total: u64,
    /// Cumulative per-link member traffic across every recorded job.
    pub links: Vec<LinkRecord>,
    /// The daemon's metrics registry rendered in the Prometheus text
    /// exposition format — the same document `--metrics-addr` serves, so
    /// `gendpr status --metrics` works without an HTTP endpoint.
    pub metrics: String,
    /// Worker lanes in the scheduler's pool (`--workers`).
    pub workers: u32,
    /// Lanes currently executing a job.
    pub workers_busy: u32,
    /// Admission bound on the queue (`--max-queue`).
    pub max_queue: u64,
    /// Undispatched jobs in dispatch order, with 1-based positions.
    pub queue: Vec<QueuedJobStatus>,
    /// This daemon's track id when it serves as one track of a fleet
    /// (`--track-id`); `None` for a standalone daemon.
    pub track: Option<u32>,
    /// Fleet-wide claims not yet resolved (committed or marked failed),
    /// as visible to this track. Always 0 for a standalone daemon.
    pub claims_open: u64,
}
wire_struct!(ServiceStatus {
    leader,
    gdos,
    panel_len,
    jobs_done,
    jobs_queued,
    released_total,
    links,
    metrics,
    workers,
    workers_busy,
    max_queue,
    queue,
    track,
    claims_open
});

/// What the daemon answers.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientResponse {
    /// Job queued; poll [`ClientRequest::Results`] with this id.
    Accepted {
        /// The assigned job id.
        job_id: u64,
    },
    /// The awaited job finished; its ledger record.
    Completed(LedgerRecord),
    /// Status snapshot.
    Status(ServiceStatus),
    /// The looked-up record, if that job has finished.
    Results(Option<LedgerRecord>),
    /// Shutdown acknowledged; the daemon exits after the in-flight job.
    ShuttingDown,
    /// The request was rejected or the job failed.
    Error(String),
    /// Admission control turned the submit away; nothing was queued.
    Rejected(RejectReason),
    /// The job exhausted its supervised retry budget: it was executed
    /// `attempts` times, each attempt died with a lane crash (or panic),
    /// and the budget ran out. Typed so a client can tell "the service
    /// kept its promise and the job itself is cursed" from an ordinary
    /// failure.
    Retried {
        /// Executions the job got.
        attempts: u32,
        /// The last attempt's error, rendered.
        message: String,
    },
}

impl Encode for ClientResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Accepted { job_id } => {
                0u8.encode(buf);
                job_id.encode(buf);
            }
            Self::Completed(record) => {
                1u8.encode(buf);
                record.encode(buf);
            }
            Self::Status(status) => {
                2u8.encode(buf);
                status.encode(buf);
            }
            Self::Results(record) => {
                3u8.encode(buf);
                record.encode(buf);
            }
            Self::ShuttingDown => 4u8.encode(buf),
            Self::Error(message) => {
                5u8.encode(buf);
                message.encode(buf);
            }
            Self::Rejected(reason) => {
                6u8.encode(buf);
                reason.encode(buf);
            }
            Self::Retried { attempts, message } => {
                7u8.encode(buf);
                attempts.encode(buf);
                message.encode(buf);
            }
        }
    }
}

impl Decode for ClientResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Self::Accepted {
                job_id: u64::decode(r)?,
            }),
            1 => Ok(Self::Completed(LedgerRecord::decode(r)?)),
            2 => Ok(Self::Status(ServiceStatus::decode(r)?)),
            3 => Ok(Self::Results(Option::decode(r)?)),
            4 => Ok(Self::ShuttingDown),
            5 => Ok(Self::Error(String::decode(r)?)),
            6 => Ok(Self::Rejected(RejectReason::decode(r)?)),
            7 => Ok(Self::Retried {
                attempts: u32::decode(r)?,
                message: String::decode(r)?,
            }),
            _ => Err(WireError::InvalidValue("client response tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_fednet::wire::{from_bytes, to_bytes};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(from_bytes::<T>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(ClientRequest::Submit {
            panel: vec![0, 3, 9],
            batches: 4,
            wait: true,
        });
        roundtrip(ClientRequest::Status);
        roundtrip(ClientRequest::Results { job_id: 12 });
        roundtrip(ClientRequest::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(ClientResponse::Accepted { job_id: 3 });
        roundtrip(ClientResponse::Results(None));
        roundtrip(ClientResponse::ShuttingDown);
        roundtrip(ClientResponse::Error("nope".into()));
        roundtrip(ClientResponse::Rejected(RejectReason::QueueFull {
            depth: 64,
            max: 64,
        }));
        roundtrip(ClientResponse::Rejected(RejectReason::ShuttingDown));
        roundtrip(ClientResponse::Retried {
            attempts: 3,
            message: "member 1 unresponsive".into(),
        });
        roundtrip(ClientResponse::Status(ServiceStatus {
            leader: 1,
            gdos: 3,
            panel_len: 100,
            jobs_done: 2,
            jobs_queued: 1,
            released_total: 17,
            links: vec![LinkRecord {
                from: 0,
                to: 1,
                messages: 4,
                plaintext_bytes: 300,
                wire_bytes: 400,
            }],
            metrics: "# TYPE gendpr_jobs_queued gauge\ngendpr_jobs_queued 1\n".into(),
            workers: 4,
            workers_busy: 2,
            max_queue: 64,
            queue: vec![QueuedJobStatus {
                job_id: 9,
                position: 1,
            }],
            track: Some(2),
            claims_open: 3,
        }));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(from_bytes::<ClientRequest>(&[9u8]).is_err());
        assert!(from_bytes::<ClientResponse>(&[9u8]).is_err());
    }
}
