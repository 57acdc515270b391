//! The assessment daemon: a bounded job queue with admission control in
//! front of a pool of [`ServiceFederation`] worker lanes, with every
//! certified release recorded in the [`ReleaseLedger`].
//!
//! # Job lifecycle
//!
//! 1. A client connects to the daemon's listener and sends one
//!    [`ClientRequest::Submit`]; admission validates the panel, assigns
//!    the next job id and queues the job — or rejects it with a typed
//!    verdict ([`ClientResponse::Rejected`]) when the bounded queue is
//!    full or the daemon is draining. A waiting submit hands its socket
//!    to the scheduler instead of parking the handler thread.
//! 2. Worker lanes pull jobs in FIFO order ([`crate::sched`]). Every
//!    job's LR phase is seeded with the ledger's
//!    [`ReleaseLedger::released_union`] snapshotted at dispatch — the
//!    union of *all* SNPs ever released, by any earlier job, in any
//!    earlier run of the daemon — so the certified adversary power
//!    covers the cumulative release.
//! 3. The job's record is appended (checksummed, fsynced) to the ledger
//!    — commits serialized in job-id order, a retried job keeping its
//!    position — before the submitter is answered; a crash after the
//!    append can lose the response but never the release.
//!
//! Every job runs on a lane's attested member session (one election and
//! attestation per lane per daemon lifetime, channels ratcheted between
//! jobs), so the daemon releases only what an attested leader certified.
//! Admission refuses a dynamic batch count (`batches > 0`): the daemon
//! holds no pooled copy of the case cohort, and the ledger already
//! charges every earlier release to each later job.

use crate::error::ServiceError;
use crate::ledger::{LedgerRecord, ReleaseLedger};
use crate::protocol::{ClientRequest, ClientResponse, ServiceStatus};
use crate::sched::dispatch::Failpoint;
use crate::sched::{
    admission, JobVerdict, LaneFactory, Limits, ReplySink, Scheduler, SchedulerConfig, WorkerPool,
};
use crate::shard::{ShardSet, ShardSpec};
use crate::signals;
use crate::tracks::TrackCoordinator;
use gendpr_core::config::GwasParams;
use gendpr_core::error::ProtocolError;
use gendpr_core::serving::ServiceFederation;
use gendpr_fednet::client::{read_message_capped, write_message};
use gendpr_genomics::cohort::Cohort;
use gendpr_obs::{event, Level};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// How often the serve loop wakes to poll the shutdown-signal flag.
const SIGNAL_POLL: Duration = Duration::from_millis(100);

/// How often the nonblocking accept loop re-checks the shutdown flag
/// while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Read and write deadline on every accepted client connection (the same
/// figure as the metrics endpoint's): a peer that connects and says
/// nothing, or stops reading its verdict, costs a handler thread or a
/// committing worker this long and no longer.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// State shared between the scheduler, the worker lanes and the client
/// accept loop.
struct Shared {
    leader: u32,
    gdos: u32,
    sched: Arc<Scheduler>,
}

/// The long-running assessment service.
pub struct AssessmentService {
    shared: Arc<Shared>,
    pool: Option<WorkerPool>,
    accept: Option<thread::JoinHandle<()>>,
    client_addr: SocketAddr,
    drain_timeout: Duration,
}

/// A handle on one in-memory waiting submit: the job is queued; `wait`
/// blocks until a worker commits it.
pub struct JobTicket {
    job_id: u64,
    rx: mpsc::Receiver<JobVerdict>,
}

impl JobTicket {
    /// The id admission assigned.
    #[must_use]
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Blocks until the job's terminal verdict.
    ///
    /// # Errors
    ///
    /// [`ServiceError::JobFailed`] when the job ran and failed,
    /// [`ServiceError::ShuttingDown`] when the daemon drained it (or
    /// exited) before it ran.
    pub fn wait(self) -> Result<LedgerRecord, ServiceError> {
        self.rx
            .recv()
            .map_err(|_| ServiceError::ShuttingDown)?
            .into_result()
    }
}

/// What a supervised daemon is started with besides its lanes — see
/// [`AssessmentService::start_supervised`].
pub struct Supervision {
    /// Builds replacement lanes: sessions over the same cohort and seeded
    /// config as the initial ones.
    pub factory: LaneFactory,
    /// SNP sharding: each worker gets its own [`ShardSet`] built from the
    /// spec (a plan plus a factory for per-shard sub-federations), so a
    /// federated job's phases 1–2 run once per shard in parallel and
    /// merge into the primary lane's global LR search. `None`, or a plan
    /// of one shard, serves unsharded.
    pub shard: Option<ShardSpec>,
    /// Serves as one *track* of a replica fleet: the coordinator (from
    /// [`TrackCoordinator::open`], which also opened the ledger under the
    /// fleet lock) makes every admitted job stake a claim in the shared
    /// claim log and every record commit through the cross-process gate
    /// behind the scheduler's own — see [`crate::tracks`]. A fleet of one
    /// track behaves byte-identically to `None`.
    pub tracker: Option<Arc<TrackCoordinator>>,
}

impl AssessmentService {
    /// Puts the daemon in front of a pool of federation lanes, one
    /// worker per lane. Lanes must be sessions over the same cohort and
    /// federation config (same seed ⇒ same leader, deterministic
    /// certification on every lane).
    ///
    /// The ledger's existing records immediately count: the first job's
    /// LR seed is the union of everything released in earlier runs.
    ///
    /// `_params` is unused: the lanes carry the GWAS parameters. It stays
    /// until the benchmark, which passes it, is re-pinned.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] when no lane is given, a lane's panel
    /// width does not match the cohort, or the lanes disagree on the
    /// leader; [`ServiceError::Io`] when a thread cannot start.
    pub fn start_with(
        lanes: Vec<ServiceFederation>,
        ledger: ReleaseLedger,
        cohort: &Cohort,
        _params: GwasParams,
        listener: TcpListener,
        config: SchedulerConfig,
    ) -> Result<Self, ServiceError> {
        Self::start_inner(lanes, None, ledger, cohort, listener, config)
    }

    /// Like [`AssessmentService::start_with`], but *supervised*: the
    /// factory of `supervision` builds replacement lanes, so a lane whose
    /// member fails, or that panics, has its in-flight job
    /// re-queued (bounded by [`SchedulerConfig::max_retries`]) and the
    /// lane re-elected and returned to the pool — a lane crash never
    /// loses a job or kills the daemon. See [`Supervision`] for sharding
    /// and for serving as one track of a replica fleet.
    ///
    /// # Errors
    ///
    /// See [`AssessmentService::start_with`]; additionally
    /// [`ServiceError::Protocol`] when the shard plan's panel length
    /// differs from the cohort, and whatever the shard factory fails with
    /// while the sets are built eagerly at startup.
    pub fn start_supervised(
        lanes: Vec<ServiceFederation>,
        supervision: Supervision,
        ledger: ReleaseLedger,
        cohort: &Cohort,
        listener: TcpListener,
        config: SchedulerConfig,
    ) -> Result<Self, ServiceError> {
        Self::start_inner(lanes, Some(supervision), ledger, cohort, listener, config)
    }

    fn start_inner(
        lanes: Vec<ServiceFederation>,
        supervision: Option<Supervision>,
        ledger: ReleaseLedger,
        cohort: &Cohort,
        listener: TcpListener,
        config: SchedulerConfig,
    ) -> Result<Self, ServiceError> {
        let (factory, shard, tracker) = match supervision {
            Some(s) => (Some(s.factory), s.shard, s.tracker),
            None => (None, None, None),
        };
        let Some(first) = lanes.first() else {
            return Err(ProtocolError::InvalidConfig("a daemon needs at least one lane").into());
        };
        let (leader, gdos) = (first.leader(), first.gdo_count());
        for lane in &lanes {
            if lane.panel_len() != cohort.case().snps() {
                return Err(ProtocolError::InvalidConfig(
                    "federation panel width differs from the cohort",
                )
                .into());
            }
            if lane.leader() != leader || lane.gdo_count() != gdos {
                return Err(ProtocolError::InvalidConfig(
                    "worker lanes disagree on the federation (different config or seed?)",
                )
                .into());
            }
        }
        if config.max_queue == 0 {
            return Err(ProtocolError::InvalidConfig("max-queue must be at least 1").into());
        }
        if let Some(spec) = &shard {
            if spec.plan.panel_len() != cohort.case().snps() {
                return Err(ProtocolError::InvalidConfig(
                    "shard plan panel length differs from the cohort",
                )
                .into());
            }
        }
        // Shard sets are built eagerly — every sub-federation for every
        // worker elected and attested before the first job — so a bad
        // shard factory fails the daemon at startup, not mid-job. A
        // one-shard plan degrades to plain (unsharded) submits.
        let shard_sets: Vec<Option<ShardSet>> = match &shard {
            Some(spec) if spec.plan.len() > 1 => {
                let mut sets = Vec::with_capacity(lanes.len());
                for _ in 0..lanes.len() {
                    sets.push(Some(ShardSet::build(spec)?));
                }
                sets
            }
            _ => (0..lanes.len()).map(|_| None).collect(),
        };
        let client_addr = listener.local_addr()?;
        let limits = Limits {
            panel_len: first.panel_len() as u64,
            max_queue: config.max_queue,
            workers: lanes.len(),
            max_retries: config.max_retries,
        };
        crate::telemetry::register_service_metrics();
        let sched = Arc::new(Scheduler::new(ledger, limits));
        if let Some(tracker) = tracker {
            sched.set_tracker(tracker);
        }
        let shared = Arc::new(Shared {
            leader: leader as u32,
            gdos: gdos as u32,
            sched: Arc::clone(&sched),
        });
        event(
            Level::Info,
            "service",
            "daemon_started",
            &[
                ("addr", client_addr.to_string().as_str().into()),
                ("gdos", shared.gdos.into()),
                ("panel_len", limits.panel_len.into()),
                ("workers", limits.workers.into()),
                ("max_queue", limits.max_queue.into()),
            ],
        );
        let pool = WorkerPool::spawn_sharded(lanes, factory, shard_sets, &sched)?;
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("gendpr-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Self {
            shared,
            pool: Some(pool),
            accept: Some(accept),
            client_addr,
            drain_timeout: config.drain_timeout,
        })
    }

    /// Where clients reach the daemon.
    #[must_use]
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// Queues one job and blocks until its record is committed — the
    /// in-memory equivalent of a waiting submit. Workers run from
    /// `start`, so this works without [`AssessmentService::run`].
    ///
    /// # Errors
    ///
    /// A typed admission rejection, [`ServiceError::JobFailed`] when the
    /// job ran and failed, [`ServiceError::ShuttingDown`] when the
    /// daemon drained it.
    pub fn execute(&mut self, panel: Vec<u32>) -> Result<LedgerRecord, ServiceError> {
        self.submit_ticket(panel, 0)?.wait()
    }

    /// Queues one job and returns a ticket to wait on, without blocking.
    /// `batches` must be 0: admission refuses any other count. (The
    /// argument stays until the benchmark, which passes 0, is re-pinned.)
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidJob`], [`ServiceError::QueueFull`] or
    /// [`ServiceError::ShuttingDown`] when admission turns it away.
    pub fn submit_ticket(&self, panel: Vec<u32>, batches: u32) -> Result<JobTicket, ServiceError> {
        let (tx, rx) = mpsc::channel();
        let job_id = enqueue(&self.shared.sched, panel, batches, ReplySink::Channel(tx))
            .map_err(|(_, error)| error)?;
        Ok(JobTicket { job_id, rx })
    }

    /// Queues one fire-and-forget job and returns its id.
    ///
    /// # Errors
    ///
    /// The same admission verdicts as [`AssessmentService::submit_ticket`].
    pub fn submit_detached(&self, panel: Vec<u32>) -> Result<u64, ServiceError> {
        enqueue(&self.shared.sched, panel, 0, ReplySink::None).map_err(|(_, error)| error)
    }

    /// The committed record of one finished job, if any. In tracks mode
    /// this answers for the whole fleet — records committed by other
    /// tracks are pulled in first.
    #[must_use]
    pub fn results(&self, job_id: u64) -> Option<LedgerRecord> {
        self.shared.sched.refresh_view();
        self.shared
            .sched
            .with_core(|core| core.ledger.record(job_id).cloned())
    }

    /// The same status snapshot the client protocol serves.
    #[must_use]
    pub fn status(&self) -> ServiceStatus {
        status_snapshot(&self.shared)
    }

    /// Blocks until the queue is empty and every lane is idle, or
    /// `timeout` elapses; returns whether the scheduler drained.
    #[must_use]
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        self.shared.sched.wait_drained(timeout)
    }

    /// Arms a crash-test failpoint: when the job with `job_id` starts
    /// executing, the worker panics. Only the panic path is synthetic —
    /// everything from `catch_unwind` on (failed-job bookkeeping, client
    /// response, the daemon surviving) is the production code under test.
    #[doc(hidden)]
    pub fn inject_job_panic(&self, job_id: u64) {
        self.shared.sched.arm(job_id, Failpoint::Panic);
    }

    /// Arms a one-shot lane-crash failpoint: the first attempt of
    /// `job_id` dies with a lane-fatal error. Only the error itself is
    /// synthetic — the teardown, re-queue, lane rebuild (a real seeded
    /// election + attestation) and retry are the production supervision
    /// path under test.
    #[doc(hidden)]
    pub fn inject_lane_crash(&self, job_id: u64) {
        self.shared.sched.arm(job_id, Failpoint::LaneCrash);
    }

    /// Arms a stall failpoint: every attempt of `job_id` sleeps
    /// `millis` before executing, for exercising the hard drain timeout.
    #[doc(hidden)]
    pub fn inject_job_stall(&self, job_id: u64, millis: u64) {
        self.shared.sched.arm(job_id, Failpoint::Stall(millis));
    }

    /// Arms a one-shot shard-crash failpoint: before `job_id` runs shard
    /// `shard`, that shard lane is torn down. Only the teardown trigger
    /// is synthetic — the rebuild (a real seeded election + attestation
    /// of the sub-federation) and the re-run of just that shard are the
    /// production recovery path under test. A no-op on unsharded daemons.
    #[doc(hidden)]
    pub fn inject_shard_crash(&self, job_id: u64, shard: u32) {
        self.shared.sched.arm(job_id, Failpoint::ShardCrash(shard));
    }

    /// Test hook: holds dispatch so admission can be driven to the
    /// `max_queue` bound deterministically.
    #[doc(hidden)]
    pub fn pause_dispatch(&self) {
        self.shared.sched.set_paused(true);
    }

    /// Releases a [`AssessmentService::pause_dispatch`] hold.
    #[doc(hidden)]
    pub fn resume_dispatch(&self) {
        self.shared.sched.set_paused(false);
    }

    /// Serves until a client asks for [`ClientRequest::Shutdown`], a
    /// SIGTERM/SIGINT arrives, or a lane dies: in-flight jobs finish and
    /// their records are flushed to the ledger, queued-but-undispatched
    /// jobs are answered with the typed shutting-down rejection, and
    /// every federation session closes cleanly.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Interrupted`] (wrapped) when the exit was caused
    /// by a shutdown signal — the CLI maps it to its own exit code — or
    /// the underlying failure when a federation session died.
    pub fn run(self) -> Result<(), ServiceError> {
        loop {
            if signals::requested() || self.shared.sched.shutdown_requested() {
                break;
            }
            thread::sleep(SIGNAL_POLL);
        }
        self.finish(signals::requested())
    }

    /// Closes the daemon without serving: drains the queue, the workers
    /// and the accept thread, and shuts every federation session down.
    ///
    /// # Errors
    ///
    /// A federation session's failure, if one died.
    pub fn stop(self) -> Result<(), ServiceError> {
        self.finish(false)
    }

    fn finish(mut self, interrupted: bool) -> Result<(), ServiceError> {
        event(
            Level::Info,
            "service",
            "daemon_stopping",
            &[("interrupted", interrupted.into())],
        );
        // Rejects everything undispatched with the typed verdict, then
        // waits for the lanes: each finishes its in-flight job, commits
        // it (ledger append + fsync) and closes its session. The wait is
        // bounded: a lane wedged mid-election (a member that will never
        // answer) must not hold the exit past the drain deadline, so at
        // the timeout the stragglers' submitters get the typed
        // shutting-down verdict and their threads are detached.
        self.shared.sched.request_shutdown();
        if let Some(pool) = self.pool.take() {
            if !pool.join_timeout(self.drain_timeout) {
                let stragglers = self.shared.sched.drain_stragglers();
                crate::telemetry::sched_drain_timeouts().inc();
                event(
                    Level::Warn,
                    "service",
                    "drain_timeout",
                    &[
                        ("timeout_ms", (self.drain_timeout.as_millis() as u64).into()),
                        ("stragglers", stragglers.into()),
                    ],
                );
            }
        }
        // The accept loop polls the shutdown flag; no poke needed.
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(fatal) = self.shared.sched.take_fatal() {
            return Err(fatal);
        }
        if interrupted {
            return Err(ProtocolError::Interrupted.into());
        }
        Ok(())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    // Nonblocking accept so shutdown (flag or signal) is noticed within
    // one poll interval, without the connect-to-self poke the blocking
    // loop needed.
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if shared.sched.shutdown_requested() || signals::requested() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Handlers do blocking frame I/O on the connection, every
                // read and write of it under the deadline — including the
                // verdict a committing worker writes to a handed-over
                // socket long after the handler is gone.
                if stream.set_nonblocking(false).is_err()
                    || stream.set_read_timeout(Some(CLIENT_IO_TIMEOUT)).is_err()
                    || stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT)).is_err()
                {
                    continue;
                }
                let shared = Arc::clone(shared);
                let _ = thread::Builder::new()
                    .name("gendpr-client".into())
                    .spawn(move || handle_client(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_client(mut stream: TcpStream, shared: &Arc<Shared>) {
    // The largest valid request is a submit of the whole panel: a tag,
    // a length prefix, four bytes per id and two small fields.
    let max_request = 16 + 4 * shared.sched.limits().panel_len as usize;
    let Ok(request) = read_message_capped::<ClientRequest>(&mut stream, max_request) else {
        return;
    };
    let response = match request {
        ClientRequest::Status => ClientResponse::Status(status_snapshot(shared)),
        ClientRequest::Results { job_id } => {
            // Any track can answer for any job: pull other tracks'
            // commits in before the lookup.
            shared.sched.refresh_view();
            ClientResponse::Results(
                shared
                    .sched
                    .with_core(|core| core.ledger.record(job_id).cloned()),
            )
        }
        ClientRequest::Shutdown => {
            shared.sched.request_shutdown();
            ClientResponse::ShuttingDown
        }
        ClientRequest::Submit {
            panel,
            batches,
            wait,
        } => {
            if wait {
                // Hand the socket to the scheduler: the committing
                // worker writes the response, this thread exits now.
                match enqueue(&shared.sched, panel, batches, ReplySink::Socket(stream)) {
                    Ok(_) => {}
                    Err((sink, error)) => sink.deliver(JobVerdict::from_error(&error)),
                }
                return;
            }
            match enqueue(&shared.sched, panel, batches, ReplySink::None) {
                Ok(job_id) => ClientResponse::Accepted { job_id },
                Err((_, error)) => JobVerdict::from_error(&error).into_response(),
            }
        }
    };
    let _ = write_message(&mut stream, &response);
}

/// Every submit's way in: [`admission::validate`] (where a dynamic batch
/// count is refused), then the scheduler's queue.
fn enqueue(
    sched: &Scheduler,
    panel: Vec<u32>,
    batches: u32,
    reply: ReplySink,
) -> Result<u64, (ReplySink, ServiceError)> {
    match admission::validate(panel, batches, sched.limits()) {
        Ok(panel) => sched.enqueue(panel, reply),
        Err(error) => Err((reply, error)),
    }
}

fn status_snapshot(shared: &Arc<Shared>) -> ServiceStatus {
    let limits = *shared.sched.limits();
    // Fleet mode: pull other tracks' commits in, then count the claims
    // still unresolved. The steps lock separately, so a slightly stale
    // figure is possible — fine for status.
    shared.sched.refresh_view();
    let (track, claims_open) = match shared.sched.tracker() {
        Some(tracker) => (Some(tracker.track()), tracker.open_claims(&shared.sched)),
        None => (None, 0),
    };
    shared.sched.with_core(|core| ServiceStatus {
        leader: shared.leader,
        gdos: shared.gdos,
        panel_len: limits.panel_len,
        jobs_done: core.ledger.len() as u64,
        jobs_queued: core.live.len() as u64,
        released_total: core.ledger.released_len() as u64,
        links: core.ledger.link_totals(),
        metrics: gendpr_obs::render(),
        workers: limits.workers as u32,
        workers_busy: core.busy() as u32,
        max_queue: limits.max_queue as u64,
        queue: core.queue.positions(),
        track,
        claims_open,
    })
}
