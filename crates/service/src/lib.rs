//! The GenDPR assessment service: the long-running serving layer on top
//! of the one-shot federation pipeline.
//!
//! The paper's protocol certifies a single release and exits. Real
//! deployments answer a *stream* of study requests whose releases are
//! interdependent — published statistics are irreversible, so every
//! later release must be certified against everything already public
//! (cf. I-GWAS and DyPS). This crate keeps the federation up between
//! jobs and keeps the cumulative release on disk:
//!
//! * [`ledger`] — the append-only, checksummed release ledger: every
//!   certified release (SNP ids, statistics, certificate, epoch/roster),
//!   durable across restarts, seeding each new job's LR phase (the
//!   private `log` module is the one mirrored frame log under it and
//!   under the tracks' claim log),
//! * [`daemon`] — the `gendpr serve` core: bounded job queue with
//!   admission control, a pool of
//!   [`gendpr_core::serving::ServiceFederation`] worker lanes, dynamic
//!   batch jobs via [`gendpr_core::dynamic::DynamicAssessor`], client
//!   accept loop, graceful signal shutdown,
//! * [`sched`] — the scheduler underneath it: queue, admission,
//!   ledger commits in job-id order, worker lanes,
//! * [`shard`] — SNP-sharded assessment: the panel partitioned across
//!   parallel sub-federations (phases 1–2 per shard, merged
//!   byte-identically into the global LR search),
//! * [`tracks`] — replica federation tracks: N daemon processes serving
//!   over one shared ledger, coordinating exclusively through a
//!   mirrored claim log (claim at admission, commit in claim order,
//!   lease-expiry reclaim of crashed tracks' jobs),
//! * [`protocol`] — the length-prefixed client request/response codec
//!   (`submit` / `status` / `results` / shutdown),
//! * [`client`] — the client used by the `gendpr submit`, `status` and
//!   `results` subcommands,
//! * [`signals`] — SIGTERM/SIGINT latching (pure std),
//! * [`error`] — the service error type.

pub mod client;
pub mod daemon;
pub mod error;
pub mod ledger;
mod log;
pub mod protocol;
pub mod sched;
pub mod shard;
pub mod signals;
pub mod telemetry;
pub mod tracks;

pub use client::ServiceClient;
pub use daemon::{AssessmentService, JobTicket, Supervision};
pub use error::ServiceError;
pub use ledger::{JobKind, LedgerRecord, LinkRecord, ReleaseLedger, WireCertificate};
pub use protocol::{ClientRequest, ClientResponse, QueuedJobStatus, RejectReason, ServiceStatus};
pub use sched::SchedulerConfig;
pub use shard::{ShardLaneFactory, ShardPlan, ShardRange, ShardSet, ShardSpec};
pub use tracks::{TrackConfig, TrackCoordinator};
