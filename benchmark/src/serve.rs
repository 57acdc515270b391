//! The served workloads: a daemon with two worker lanes in front of a
//! fsynced ledger, driven through `ServiceClient` by a closed loop
//! (`serve-lan`) or an open-loop burst schedule (`serve-burst`), and
//! the service-layer probes of the traced run.

use crate::host;
use crate::inputs::{
    self, burst_schedule, job_panel, ScheduledJob, Workload, BURST_JOBS, BURST_PERIOD, GDOS,
    REOFFER_DELAY, WAN_WINDOW_MS, WARMUP_JOBS,
};
use crate::json::Json;
use crate::report::Measured;
use crate::summary::{median, ms, paired_overhead, percentile};
use crate::trace::{SpanId, Tracer};
use crate::verify::{audit_ledger, ledger_fingerprint, record_traffic, Auditor};
use gendpr_core::runtime::RuntimeOptions;
use gendpr_core::serving::{JobSpec, ServiceFederation};
use gendpr_fednet::fault::{ChaosFaults, FaultPlan};
use gendpr_fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr_fednet::transport::{PeerId, Transport};
use gendpr_genomics::snp::SnpId;
use gendpr_genomics::synth::SyntheticCohort;
use gendpr_obs::quantile_from_counts;
use gendpr_service::daemon::AssessmentService;
use gendpr_service::ledger::ReleaseLedger;
use gendpr_service::{telemetry, LedgerRecord, SchedulerConfig, ServiceClient};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Worker lanes behind the daemon, and load threads in front of it.
pub const LANES: usize = 2;
pub const LOAD_THREADS: usize = 2;

/// How long after the last burst an accepted job may still certify
/// before it counts as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

/// What carries the lanes' member traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The in-memory `Network`, zero link delay.
    Memory,
    /// Loopback TCP with a seeded 12 ms delay window on every member
    /// and no loss or duplication — the geo-distributed setting.
    Wan,
}

/// How the load arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadModel {
    /// Closed loop: two clients, each waiting for its certificate
    /// before sending the next job.
    Lan,
    /// Open loop: bursts on a fixed schedule, refusals re-offered.
    Burst,
}

impl LoadModel {
    /// The load a workload puts on the service. The one-shot workloads
    /// put none; their traced runs probe it under the closed loop.
    #[must_use]
    pub fn of(workload: Workload) -> Self {
        match workload {
            Workload::ServeBurst => Self::Burst,
            _ => Self::Lan,
        }
    }

    #[must_use]
    pub fn fabric(self) -> Fabric {
        match self {
            Self::Lan => Fabric::Memory,
            Self::Burst => Fabric::Wan,
        }
    }

    /// Admission bound: roomy for the closed loop, half a burst for the
    /// open loop so bursts overflow it and admission must refuse.
    #[must_use]
    pub fn max_queue(self) -> usize {
        match self {
            Self::Lan => 64,
            Self::Burst => 8,
        }
    }
}

/// One federation lane over `fabric`.
///
/// # Errors
///
/// The lane's start-up failure, in words.
pub fn start_lane(
    fabric: Fabric,
    lane: usize,
    study: &SyntheticCohort,
) -> Result<ServiceFederation, String> {
    let options = RuntimeOptions {
        timeout: Duration::from_secs(120),
        ..RuntimeOptions::default()
    };
    let (config, params) = (inputs::serving_config(), inputs::study_params());
    match fabric {
        Fabric::Memory => ServiceFederation::start_in_memory(config, params, study, options),
        Fabric::Wan => {
            let (roster, listeners) =
                ephemeral_listeners(GDOS).map_err(|e| format!("localhost listeners: {e}"))?;
            let transports = listeners
                .into_iter()
                .enumerate()
                .map(|(id, listener)| {
                    let transport = TcpTransport::from_listener(
                        PeerId(id as u32),
                        listener,
                        &roster,
                        TcpOptions::default(),
                    )
                    .map_err(|e| format!("member transport: {e}"))?;
                    let mut plan = FaultPlan::none();
                    plan.chaos(ChaosFaults {
                        seed: 1000 + (lane * GDOS + id) as u64,
                        drop_rate: 0.0,
                        duplicate_rate: 0.0,
                        reorder_window_ms: WAN_WINDOW_MS,
                    });
                    transport.set_faults(plan);
                    Ok(transport)
                })
                .collect::<Result<Vec<_>, String>>()?;
            ServiceFederation::start_over(transports, config, params, study, options)
        }
    }
    .map_err(|e| format!("lane {lane} did not start: {e}"))
}

/// A running daemon with its warm-up already served.
pub struct Daemon {
    service: AssessmentService,
    pub client: ServiceClient,
    pub ledger_path: PathBuf,
    pub auditor: Auditor,
    /// Records of the warm-up jobs — the canonical sequence.
    pub warmup: Vec<LedgerRecord>,
    /// Seed of the job stream that follows the warm-up.
    seed: u64,
}

impl Daemon {
    /// Synthesizes the study, starts two lanes, opens a fresh fsynced
    /// ledger under `out_dir`, starts the daemon on a loopback port and
    /// serves the warm-up jobs (the canonical sequence) one at a time.
    /// Jobs after the warm-up take their panels from `seed`.
    ///
    /// # Errors
    ///
    /// Whatever failed to start, or a warm-up job that did not certify.
    pub fn start(model: LoadModel, seed: u64, out_dir: &Path, tag: &str) -> Result<Self, String> {
        let study = inputs::study_cohort();
        let lanes = (0..LANES)
            .map(|lane| start_lane(model.fabric(), lane, &study))
            .collect::<Result<Vec<_>, _>>()?;

        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        // The process id keeps two runs in one checkout off each other's
        // ledgers.
        let ledger_path = out_dir.join(format!("{tag}-{}.ledger", std::process::id()));
        let _ = std::fs::remove_file(&ledger_path);
        let ledger = ReleaseLedger::open(&ledger_path).map_err(|e| format!("ledger: {e}"))?;
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("client listener: {e}"))?;
        let service = AssessmentService::start_with(
            lanes,
            ledger,
            study.as_ref(),
            inputs::study_params(),
            listener,
            SchedulerConfig {
                workers: LANES,
                max_queue: model.max_queue(),
                ..SchedulerConfig::default()
            },
        )
        .map_err(|e| format!("daemon did not start: {e}"))?;

        let mut daemon = Self {
            client: ServiceClient::new(service.client_addr()),
            service,
            ledger_path,
            auditor: Auditor::new(
                &inputs::serving_config(),
                &inputs::study_params(),
                study.as_ref(),
            ),
            warmup: Vec::with_capacity(WARMUP_JOBS),
            seed,
        };
        for index in 0..WARMUP_JOBS as u64 {
            let record = daemon
                .client
                .submit_and_wait(job_panel(inputs::CANONICAL_SEED, index), 0)
                .map_err(|e| format!("warm-up job failed: {e}"))?;
            daemon.auditor.check_record(&record)?;
            daemon.warmup.push(record);
        }
        Ok(daemon)
    }

    /// Messages and wire bytes per job over the canonical sequence.
    #[must_use]
    pub fn canonical_traffic(&self) -> (f64, f64) {
        let (messages, bytes) = self
            .warmup
            .iter()
            .map(record_traffic)
            .fold((0, 0), |(m, b), (dm, db)| (m + dm, b + db));
        let jobs = self.warmup.len() as f64;
        (messages as f64 / jobs, bytes as f64 / jobs)
    }

    /// Stops the daemon (drain, lane shutdown, accept-thread join),
    /// then re-opens the ledger it wrote and audits every record.
    /// Returns the stop time, the re-open time and the records.
    ///
    /// # Errors
    ///
    /// A lane that died, or a ledger that fails its audit.
    pub fn stop_and_audit(self) -> Result<(Duration, Duration, Vec<LedgerRecord>), String> {
        let stopping = Instant::now();
        self.service
            .stop()
            .map_err(|e| format!("daemon did not stop cleanly: {e}"))?;
        let stop = stopping.elapsed();
        let opening = Instant::now();
        let ledger = ReleaseLedger::open(&self.ledger_path).map_err(|e| format!("re-open: {e}"))?;
        let open = opening.elapsed();
        let records = ledger.records().to_vec();
        audit_ledger(&records)?;
        for record in &records {
            self.auditor.check_record(record)?;
        }
        let _ = std::fs::remove_file(&self.ledger_path);
        Ok((stop, open, records))
    }
}

/// What one window of load observed from the client side.
#[derive(Debug, Default)]
pub struct Window {
    /// One entry per certified job: due/submit time → verified
    /// certificate in the caller's hands.
    pub latencies_ms: Vec<f64>,
    /// The certified jobs' positions in the seeded stream, in step with
    /// `latencies_ms`.
    pub job_indexes: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Submit attempts, accepted and refused.
    pub offers: u64,
    pub refusals: u64,
    /// First operation → last certificate.
    pub elapsed: Duration,
    /// Open loop only: how late each job's first offer left.
    pub lateness_ms: Vec<f64>,
    /// Open loop only: jobs still uncertified one period after the last
    /// burst (a growing backlog would show here).
    pub backlog_at_end: u64,
}

impl Window {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    fn absorb(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.job_indexes.extend(other.job_indexes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
        self.offers += other.offers;
        self.refusals += other.refusals;
    }

    #[must_use]
    pub fn certified(&self) -> u64 {
        self.latencies_ms.len() as u64
    }
}

/// When a closed-loop window ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    Jobs(u64),
}

/// Closed loop: [`LOAD_THREADS`] clients, each holding one connection
/// at a time, each sending its next job only once the previous one's
/// certificate has verified. Jobs are taken from the seeded stream
/// starting at `first`.
pub fn closed_loop(daemon: &Daemon, until: Until, first: u64, tracer: &Tracer) -> Window {
    let started = Instant::now();
    let issued = AtomicU64::new(0);
    let mut window = Window::default();
    let parts: Vec<Window> = thread::scope(|scope| {
        let clients: Vec<_> = (0..LOAD_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut part = Window::default();
                    loop {
                        let ticket = issued.fetch_add(1, Ordering::Relaxed);
                        let more = match until {
                            Until::Elapsed(limit) => started.elapsed() < limit,
                            Until::Jobs(jobs) => ticket < jobs,
                        };
                        if !more {
                            return part;
                        }
                        let index = first + ticket;
                        let panel = job_panel(daemon.seed, index);
                        part.attempted += 1;
                        part.offers += 1;
                        let (verdict, took) = tracer.time("serve.job", None, index, |job| {
                            let (record, _) =
                                tracer.time("service.client.submit_and_wait", job, index, |_| {
                                    daemon.client.submit_and_wait(panel, 0)
                                });
                            let record = record.map_err(|e| format!("job lost: {e}"))?;
                            tracer
                                .time("core.certificate.verify", job, index, |_| {
                                    daemon.auditor.check_record(&record)
                                })
                                .0
                        });
                        match verdict {
                            Ok(()) => {
                                part.latencies_ms.push(ms(took));
                                part.job_indexes.push(index);
                            }
                            Err(e) => part.fail(e),
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    for part in parts {
        window.absorb(part);
    }
    window.elapsed = started.elapsed();
    window
}

/// An accepted job the observer is waiting on.
#[derive(Clone, Copy)]
struct Outstanding {
    job_id: u64,
    due: Instant,
    root: Option<SpanId>,
    index: u64,
}

/// Open loop: the generator thread offers each job at its due time
/// with a no-wait `submit` and re-offers a `WouldBlock` refusal after a
/// constant delay; the observer thread polls `results` for the oldest
/// accepted job (the daemon commits in acceptance order). Latency runs
/// from the job's due time to its verified certificate.
pub fn open_loop(daemon: &Daemon, schedule: &[ScheduledJob], tracer: &Tracer) -> Window {
    let started = Instant::now() + Duration::from_millis(5);
    let accepted: Mutex<VecDeque<Outstanding>> = Mutex::new(VecDeque::new());
    let generator_done = AtomicBool::new(false);
    let last_due = schedule.last().map_or(Duration::ZERO, |j| j.due);
    let give_up = started + last_due + DRAIN_DEADLINE;

    let (offered, observed) = thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut part = Window::default();
            let mut next = 0usize;
            // (retry at, schedule index, the job's root span)
            let mut reoffers: VecDeque<(Instant, usize, Option<SpanId>)> = VecDeque::new();
            loop {
                let scheduled = schedule.get(next).map(|j| started + j.due);
                let retry = reoffers.front().map(|r| r.0);
                let (at, is_retry) = match (scheduled, retry) {
                    (None, None) => break,
                    (Some(s), Some(r)) if r <= s => (r, true),
                    (Some(s), _) => (s, false),
                    (None, Some(r)) => (r, true),
                };
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let (index, root) = if is_retry {
                    let (_, index, root) = reoffers.pop_front().expect("front was just read");
                    (index, root)
                } else {
                    next += 1;
                    let due = started + schedule[next - 1].due;
                    part.attempted += 1;
                    part.lateness_ms
                        .push(ms(Instant::now().saturating_duration_since(due)));
                    (
                        next - 1,
                        tracer.open("serve.job", None, schedule[next - 1].index, due),
                    )
                };
                part.offers += 1;
                let job = schedule[index].index;
                let (reply, _) = tracer.time("service.client.submit", root, job, |_| {
                    daemon.client.submit(schedule[index].panel.clone(), 0)
                });
                match reply {
                    Ok(job_id) => {
                        accepted
                            .lock()
                            .expect("observer panicked")
                            .push_back(Outstanding {
                                job_id,
                                due: started + schedule[index].due,
                                root,
                                index: job,
                            })
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < give_up => {
                        part.refusals += 1;
                        reoffers.push_back((Instant::now() + REOFFER_DELAY, index, root));
                    }
                    Err(e) => part.fail(format!("job {index} was not accepted: {e}")),
                }
            }
            generator_done.store(true, Ordering::SeqCst);
            part
        });

        let observer = scope.spawn(|| {
            let mut part = Window::default();
            let mut done_at: Vec<Instant> = Vec::new();
            loop {
                let front = accepted
                    .lock()
                    .expect("generator panicked")
                    .front()
                    .copied();
                let Some(Outstanding {
                    job_id,
                    due,
                    root,
                    index,
                }) = front
                else {
                    if generator_done.load(Ordering::SeqCst)
                        && accepted.lock().expect("generator panicked").is_empty()
                    {
                        break;
                    }
                    thread::sleep(Duration::from_millis(1));
                    continue;
                };
                let (reply, _) = tracer.time("service.client.results", root, index, |_| {
                    daemon.client.results(job_id)
                });
                let verdict = match reply {
                    Ok(Some(record)) => Some(
                        tracer
                            .time("core.certificate.verify", root, index, |_| {
                                daemon.auditor.check_record(&record)
                            })
                            .0,
                    ),
                    Ok(None) if Instant::now() < give_up => None,
                    Ok(None) => Some(Err(format!("job {job_id} not certified by the deadline"))),
                    Err(e) => Some(Err(format!("job {job_id} result lost: {e}"))),
                };
                match verdict {
                    None => thread::sleep(Duration::from_millis(1)),
                    Some(outcome) => {
                        let now = Instant::now();
                        tracer.close(root, now);
                        accepted.lock().expect("generator panicked").pop_front();
                        match outcome {
                            Ok(()) => {
                                part.latencies_ms.push(ms(now - due));
                                part.job_indexes.push(index);
                                done_at.push(now);
                            }
                            Err(e) => part.fail(e),
                        }
                    }
                }
            }
            (part, done_at)
        });
        (
            generator.join().expect("generator thread panicked"),
            observer.join().expect("observer thread panicked"),
        )
    });

    // The generator counted the jobs and the offers; the observer
    // brings the outcomes.
    let (observed, done_at) = observed;
    let mut window = offered;
    window.absorb(observed);
    let horizon = started + last_due + BURST_PERIOD;
    window.backlog_at_end =
        window.attempted - done_at.iter().filter(|&&t| t <= horizon).count() as u64;
    window.elapsed = done_at
        .iter()
        .max()
        .map_or(Duration::ZERO, |&t| t.saturating_duration_since(started));
    window
}

/// The timed window of `model`'s load, from the start of the seeded job
/// stream: `seconds` of closed loop, or the bursts that fit `seconds`.
fn run_window(daemon: &Daemon, model: LoadModel, seconds: u64) -> Window {
    let silent = Tracer::new(false);
    match model {
        LoadModel::Lan => closed_loop(
            daemon,
            Until::Elapsed(Duration::from_secs(seconds)),
            0,
            &silent,
        ),
        LoadModel::Burst => {
            let schedule = burst_schedule(daemon.seed, inputs::bursts_in(seconds), 0);
            open_loop(daemon, &schedule, &silent)
        }
    }
}

/// A fixed-size batch for the traced run, jobs `first..first + jobs` of
/// the seeded stream: closed-loop jobs, or `jobs / BURST_JOBS` bursts.
fn run_batch(daemon: &Daemon, model: LoadModel, jobs: u64, first: u64, tracer: &Tracer) -> Window {
    match model {
        LoadModel::Lan => closed_loop(daemon, Until::Jobs(jobs), first, tracer),
        LoadModel::Burst => {
            let bursts = (jobs as usize / BURST_JOBS).max(1);
            open_loop(daemon, &burst_schedule(daemon.seed, bursts, first), tracer)
        }
    }
}

/// Scheduler telemetry read before and after a window; the difference
/// isolates the window's observations.
struct SchedSnapshot {
    wait: Vec<u64>,
    busy_s: f64,
    queue_full: u64,
    fsyncs: u64,
    appends: u64,
    cpu: Duration,
    at: Instant,
}

impl SchedSnapshot {
    fn take() -> Self {
        Self {
            wait: telemetry::sched_job_wait_seconds().bucket_counts(),
            busy_s: (0..LANES)
                .map(|w| telemetry::sched_worker_busy_seconds(w).sum())
                .sum(),
            queue_full: telemetry::sched_admission_rejects("queue_full").get(),
            fsyncs: telemetry::ledger_fsyncs().get(),
            appends: telemetry::ledger_appends().get(),
            cpu: host::process_cpu_time(),
            at: Instant::now(),
        }
    }
}

/// Scheduler-side view of one window.
struct SchedDelta {
    queue_wait_p50_ms: f64,
    worker_busy_share: f64,
    queue_full: u64,
    fsyncs_per_job: f64,
    cpu_ms_per_job: f64,
}

fn sched_delta(before: &SchedSnapshot, after: &SchedSnapshot, certified: u64) -> SchedDelta {
    let wait: Vec<u64> = after
        .wait
        .iter()
        .zip(&before.wait)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let bounds = telemetry::sched_job_wait_seconds().bounds().to_vec();
    let wall = (after.at - before.at).as_secs_f64();
    let appends = (after.appends - before.appends).max(1);
    SchedDelta {
        queue_wait_p50_ms: quantile_from_counts(&bounds, &wait, 0.5) * 1e3,
        worker_busy_share: (after.busy_s - before.busy_s) / (LANES as f64 * wall),
        queue_full: after.queue_full - before.queue_full,
        fsyncs_per_job: (after.fsyncs - before.fsyncs) as f64 / appends as f64,
        cpu_ms_per_job: ms(after.cpu - before.cpu) / certified.max(1) as f64,
    }
}

/// The untraced `serve-*` workload: set up `setup_repeats` times (study
/// synthesis, lane election + attestation, ledger open, daemon start,
/// warm-up jobs; `setup_s` is the median), run the timed window on the
/// last daemon, stop it and audit the ledger it wrote.
///
/// # Errors
///
/// A set-up or audit failure — the run cannot vouch for its numbers.
pub fn run_untraced(
    model: LoadModel,
    seed: u64,
    seconds: u64,
    setup_repeats: usize,
    out_dir: &Path,
) -> Result<Measured, String> {
    let mut setups = Vec::with_capacity(setup_repeats);
    let mut daemon = None;
    let mut canonical_traffic = None;
    for round in 0..setup_repeats {
        if let Some(previous) = daemon.take() {
            Daemon::stop_and_audit(previous)?;
        }
        let started = Instant::now();
        let fresh = Daemon::start(model, seed, out_dir, &format!("untraced-{round}"))?;
        setups.push(started.elapsed().as_secs_f64());
        // Sequential jobs on a fresh ledger over a fabric without
        // delay: the traffic must repeat exactly, or the canonical
        // sequence is not canonical. (Delayed links let the failure
        // detector's probes fire, a message or two per twenty jobs.)
        let traffic = fresh.canonical_traffic();
        if *canonical_traffic.get_or_insert(traffic) != traffic && model.fabric() == Fabric::Memory
        {
            return Err(format!(
                "canonical traffic differs between set-ups: {canonical_traffic:?} vs {traffic:?}"
            ));
        }
        daemon = Some(fresh);
    }
    let daemon = daemon.ok_or("set-up must be performed at least once")?;
    let window = run_window(&daemon, model, seconds);
    let (msgs_per_job, wire_bytes_per_job) = daemon.canonical_traffic();
    let fingerprint = ledger_fingerprint(&daemon.warmup, model.fabric() == Fabric::Memory);
    let (_, _, records) = daemon.stop_and_audit()?;

    let mut info = vec![
        ("load_threads".to_string(), Json::from(LOAD_THREADS as u64)),
        (
            "ledger_records".to_string(),
            Json::from(records.len() as u64),
        ),
        ("refusals".to_string(), Json::from(window.refusals)),
    ];
    if model == LoadModel::Burst {
        info.push((
            "generator_lateness_p95_ms".into(),
            Json::Num(percentile(&window.lateness_ms, 95)),
        ));
        info.push(("backlog_at_end".into(), Json::from(window.backlog_at_end)));
    }
    // In the order the jobs were issued (the clients' samples arrive
    // client by client), so a statistic may cut the window into
    // stretches of time.
    let mut in_order: Vec<(u64, f64)> = window
        .job_indexes
        .iter()
        .copied()
        .zip(window.latencies_ms.iter().copied())
        .collect();
    in_order.sort_by_key(|&(index, _)| index);
    Ok(Measured {
        setup_s: median(&setups),
        latencies_ms: in_order.into_iter().map(|(_, latency)| latency).collect(),
        attempted: window.attempted,
        failed: window.failed,
        failures: window.failures,
        offers: window.offers,
        elapsed: window.elapsed,
        msgs_per_job,
        wire_bytes_per_job,
        fingerprint,
        info,
    })
}

/// The service-layer metrics of a traced run, and the operations the
/// probes performed.
pub struct LayerProbes {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub samples: usize,
}

/// Direct calls on one lane, no daemon: `jobs` sequential
/// `ServiceFederation::submit`s with the seed set tracked by hand.
fn lane_job_p50(
    fabric: Fabric,
    study: &SyntheticCohort,
    seed: u64,
    jobs: u64,
    name: &'static str,
    tracer: &Tracer,
) -> Result<(f64, f64), String> {
    let started = Instant::now();
    let mut lane = start_lane(fabric, 0, study)?;
    let setup = started.elapsed();
    let mut released: BTreeSet<SnpId> = BTreeSet::new();
    let mut samples = Vec::with_capacity(jobs as usize);
    for index in 0..jobs {
        let spec = JobSpec {
            job_id: index + 1,
            panel: job_panel(seed, index).into_iter().map(SnpId).collect(),
            forced: released.iter().copied().collect(),
        };
        let (outcome, took) = tracer.time(name, None, index, |_| lane.submit(&spec));
        let outcome = outcome.map_err(|e| format!("direct lane job failed: {e}"))?;
        released.extend(outcome.released);
        samples.push(ms(took));
    }
    lane.shutdown().map_err(|e| format!("lane shutdown: {e}"))?;
    Ok((percentile(&samples, 50), ms(setup)))
}

/// Probes every service layer on the small study, then runs `model`'s
/// load on one daemon as fixed batches, each run untraced and traced.
///
/// # Errors
///
/// A layer that failed to start or an audit that failed.
#[allow(clippy::too_many_lines)] // one probe after another, each a few lines
pub fn layer_probes(
    model: LoadModel,
    seed: u64,
    smoke: bool,
    out_dir: &Path,
    tracer: &Tracer,
) -> Result<LayerProbes, String> {
    let study = inputs::study_cohort();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let scale = |full: u64, small: u64| if smoke { small } else { full };

    // ---- core::serving, no daemon ----
    let (job_ms, mem_setup_ms) = lane_job_p50(
        Fabric::Memory,
        &study,
        seed,
        scale(100, 10),
        "core.serving.job",
        tracer,
    )?;
    let (job_wan_ms, wan_setup_ms) = lane_job_p50(
        Fabric::Wan,
        &study,
        seed,
        scale(20, 4),
        "core.serving.job_wan",
        tracer,
    )?;
    let (lane_job_ms, lane_setup_ms) = match model.fabric() {
        Fabric::Memory => (job_ms, mem_setup_ms),
        Fabric::Wan => (job_wan_ms, wan_setup_ms),
    };
    metrics.push(("core.serving.lane_setup_ms", lane_setup_ms));
    metrics.push(("core.serving.job_ms", job_ms));
    metrics.push(("core.serving.job_wan_ms", job_wan_ms));

    // ---- the daemon, from inside and from a client ----
    let daemon = Daemon::start(model, seed, out_dir, "traced")?;
    let mut ticket_ms = Vec::new();
    let tickets = scale(50, 5);
    for index in 0..tickets {
        let panel = job_panel(seed, index);
        let (record, took) = tracer.time("service.daemon.ticket", None, index, |_| {
            daemon
                .service
                .submit_ticket(panel, 0)
                .and_then(gendpr_service::JobTicket::wait)
        });
        daemon
            .auditor
            .check_record(&record.map_err(|e| format!("ticket job failed: {e}"))?)?;
        ticket_ms.push(ms(took));
    }
    metrics.push(("service.daemon.ticket_ms", percentile(&ticket_ms, 50)));

    let mut status_ms = Vec::new();
    for index in 0..scale(40, 5) {
        let (status, took) = tracer.time("service.client.status_roundtrip", None, index, |_| {
            daemon.client.status()
        });
        status.map_err(|e| format!("status failed: {e}"))?;
        status_ms.push(ms(took));
    }
    metrics.push((
        "service.client.status_roundtrip_ms",
        percentile(&status_ms, 50),
    ));

    // An idle daemon should cost nothing; its poll loops cost this.
    let idle = Duration::from_secs(scale(3, 1));
    let cpu_before = host::process_cpu_time();
    thread::sleep(idle);
    let idle_cpu = host::process_cpu_time() - cpu_before;
    metrics.push((
        "service.idle_cpu_ms_per_s",
        ms(idle_cpu) / idle.as_secs_f64(),
    ));

    // ---- the workload's load in small batches. Each batch of jobs runs
    // twice, once untraced and once traced; a job's first visit finds
    // SNPs still to release and costs more than its second, so the two
    // take turns going first. Neither a drifting host, nor the jobs'
    // own differences, nor that first-visit cost then separates them.
    let (rounds, jobs) = match model {
        LoadModel::Lan => (scale(4, 2), scale(50, 10)),
        LoadModel::Burst => (scale(4, 2), BURST_JOBS as u64),
    };
    let silent = Tracer::new(false);
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let before = SchedSnapshot::take();
    for round in 0..rounds {
        let first = tickets + round * jobs;
        let mut run = |traced_pass: bool| {
            let (recorder, window) = if traced_pass {
                (tracer, &mut traced)
            } else {
                (&silent, &mut plain)
            };
            window.absorb(run_batch(&daemon, model, jobs, first, recorder));
        };
        run(round % 2 == 1);
        run(round % 2 == 0);
    }
    let after = SchedSnapshot::take();
    let certified = plain.certified() + traced.certified();
    let sched = sched_delta(&before, &after, certified);
    let refusals = plain.refusals + traced.refusals;
    let mut failures: Vec<String> = plain
        .failures
        .iter()
        .chain(&traced.failures)
        .cloned()
        .collect();
    let mut failed = plain.failed + traced.failed;
    if sched.queue_full != refusals {
        failed += 1;
        failures.push(format!(
            "clients saw {refusals} refusals, the daemon counted {}",
            sched.queue_full
        ));
    }
    let plain_p50 = percentile(&plain.latencies_ms, 50);
    metrics.push(("service.daemon.overhead_ms", plain_p50 - lane_job_ms));
    metrics.push(("service.sched.queue_wait_p50_ms", sched.queue_wait_p50_ms));
    metrics.push(("service.sched.worker_busy_share", sched.worker_busy_share));
    metrics.push((
        "service.admission.attempts",
        (plain.offers + traced.offers) as f64,
    ));
    metrics.push(("service.admission.refusals", refusals as f64));
    metrics.push(("service.ledger.fsyncs_per_job", sched.fsyncs_per_job));
    metrics.push(("service.cpu_ms_per_job", sched.cpu_ms_per_job));
    // The same jobs ran untraced and traced: compare each with itself.
    let untraced_ms: HashMap<u64, f64> = plain
        .job_indexes
        .iter()
        .copied()
        .zip(plain.latencies_ms.iter().copied())
        .collect();
    let pairs: Vec<(f64, f64)> = traced
        .job_indexes
        .iter()
        .zip(&traced.latencies_ms)
        .filter_map(|(index, &with)| untraced_ms.get(index).map(|&without| (without, with)))
        .collect();
    metrics.push(("trace.overhead_share", paired_overhead(&pairs)));
    metrics.push((
        "trace.accounted_share",
        crate::trace::accounted_share(&tracer.spans(), "serve.job"),
    ));

    // ---- shutdown, then the ledger the run just wrote ----
    let ledger_path = daemon.ledger_path.clone();
    let ledger_bytes = std::fs::metadata(&ledger_path).map_or(0, |m| m.len());
    let (stop, open, records) = daemon.stop_and_audit()?;
    metrics.push(("service.stop_ms", ms(stop)));
    metrics.push((
        "service.ledger.open_ms_per_krecord",
        ms(open) * 1_000.0 / records.len().max(1) as f64,
    ));
    metrics.push((
        "service.ledger.bytes_per_job",
        ledger_bytes as f64 / records.len().max(1) as f64,
    ));

    // Append the recorded records to a scratch ledger, one fsync each.
    let scratch_path = out_dir.join(format!("scratch-{}.ledger", std::process::id()));
    let _ = std::fs::remove_file(&scratch_path);
    let mut scratch = ReleaseLedger::open(&scratch_path).map_err(|e| format!("scratch: {e}"))?;
    let mut append_ms = Vec::new();
    for (index, record) in records.iter().take(scale(200, 20) as usize).enumerate() {
        let record = record.clone();
        let (appended, took) = tracer.time("service.ledger.append", None, index as u64, |_| {
            scratch.append(record)
        });
        appended.map_err(|e| format!("scratch append: {e}"))?;
        append_ms.push(ms(took));
    }
    drop(scratch);
    let _ = std::fs::remove_file(&scratch_path);
    metrics.push(("service.ledger.append_ms", percentile(&append_ms, 50)));

    Ok(LayerProbes {
        metrics,
        attempted: plain.attempted + traced.attempted + ticket_ms.len() as u64,
        failed,
        failures,
        samples: traced.latencies_ms.len(),
    })
}
