//! Continuous soak harness for the assessment daemon: rounds of real
//! multi-process deployments (`gendpr serve` with its member mesh over
//! loopback TCP under seeded link chaos and periodic lane crash/
//! re-election churn) driven by sustained mixed client traffic, each
//! round ended by a seeded failure — clean stop, SIGTERM mid-traffic,
//! SIGKILL mid-traffic, or an env-armed kill point inside the network
//! send or ledger append/fsync path. Half the rounds (seeded) run the
//! daemon multi-shard (`--shards`), so every failure class also lands on
//! deployments with live SNP-shard sub-federations; half the rounds
//! (independently seeded) run a multi-process replica-track fleet
//! (`--tracks`) over the shared ledger, with the induced failure always
//! landing on track 0 so the survivors' lease-expiry reclaim path gets
//! exercised by every failure class. Each round is followed by
//! invariant audits:
//!
//! * the ledger re-opens with frame-hash integrity, strictly monotone
//!   job ids, and byte-idempotent recovery (a second open recovers 0),
//! * every certificate charges a committed prefix of the ledger, proven
//!   both structurally (prefix-seeded audit) and by replaying a
//!   reference job after each restart,
//! * SLOs from the daemon's own `--metrics-addr` exposition: zero
//!   dropped jobs, bounded p99 job latency, admission rejects exactly
//!   accounted, and bounded thread/fd/RSS deltas across rounds (the new
//!   `gendpr_process_*` gauges).
//!
//! Jobs interrupted by a daemon death are re-submitted after the
//! restart, so "zero dropped" means: every job ever submitted ends in a
//! certified record or a typed rejection, never silence. The harness
//! enforces its own pass criteria and writes a round-by-round JSONL
//! audit report plus a `BENCH_soak.json` summary with latency and
//! per-failure-class recovery percentiles.

use gendpr_fednet::tcp::TcpOptions;
use gendpr_service::ledger::ReleaseLedger;
use gendpr_service::ServiceClient;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Synthetic study width; job panels are slices of `0..SNPS`. Four
/// words of 64 SNPs, so the multi-shard rounds (`--shards`) survive the
/// shard plan's degrade rule instead of silently collapsing to one lane.
const SNPS: u32 = 256;
/// Federation seed, fixed across rounds so every restart re-elects the
/// same leader and certifies identically.
const FED_SEED: u64 = 29;
/// The reference panel replayed after every restart.
const REFERENCE_PANEL: std::ops::Range<u32> = 0..40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    /// Graceful `stop` through the client protocol; exit 0.
    Clean,
    /// SIGTERM mid-traffic; drain (hard-bounded) and exit 7.
    SigTerm,
    /// SIGKILL mid-traffic; no goodbye at all.
    SigKill,
    /// `GENDPR_KILLPOINT`-armed abort inside the named site.
    KillPoint(&'static str),
}

impl Failure {
    fn name(self) -> &'static str {
        match self {
            Self::Clean => "clean",
            Self::SigTerm => "sigterm",
            Self::SigKill => "sigkill",
            Self::KillPoint(_) => "killpoint",
        }
    }
}

/// SplitMix64: one seeded stream drives every scheduling decision, so a
/// failing run reproduces exactly from `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

struct Config {
    rounds: usize,
    seed: u64,
    jobs: usize,
    workers: usize,
    gdos: usize,
    max_queue: usize,
    lane_crash_every: u64,
    shards: u32,
    tracks: u32,
    bin: PathBuf,
    out: String,
    report: String,
    p99_max_s: f64,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut config = Config {
        rounds: 10,
        seed: 42,
        jobs: 8,
        workers: 2,
        gdos: 3,
        max_queue: 4,
        lane_crash_every: 5,
        shards: 2,
        tracks: 2,
        bin: PathBuf::from("target/release/gendpr"),
        out: String::from("BENCH_soak.json"),
        report: String::from("results/soak_report.jsonl"),
        p99_max_s: 60.0,
        smoke: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                config.smoke = true;
                config.rounds = 5;
                config.jobs = 5;
            }
            "--rounds" => {
                i += 1;
                config.rounds = args[i].parse().expect("--rounds needs a count");
            }
            "--seed" => {
                i += 1;
                config.seed = args[i].parse().expect("--seed needs a number");
            }
            "--jobs" => {
                i += 1;
                config.jobs = args[i].parse().expect("--jobs needs a count");
            }
            "--workers" => {
                i += 1;
                config.workers = args[i].parse().expect("--workers needs a count");
            }
            "--max-queue" => {
                i += 1;
                config.max_queue = args[i].parse().expect("--max-queue needs a bound");
            }
            "--lane-crash-every" => {
                i += 1;
                config.lane_crash_every = args[i].parse().expect("--lane-crash-every needs N");
            }
            "--shards" => {
                i += 1;
                config.shards = args[i].parse().expect("--shards needs a count");
            }
            "--tracks" => {
                i += 1;
                config.tracks = args[i].parse().expect("--tracks needs a count");
                assert!(config.tracks >= 1, "--tracks must be at least 1");
            }
            "--bin" => {
                i += 1;
                config.bin = PathBuf::from(&args[i]);
            }
            "--out" => {
                i += 1;
                config.out = args[i].clone();
            }
            "--report" => {
                i += 1;
                config.report = args[i].clone();
            }
            "--p99-max-s" => {
                i += 1;
                config.p99_max_s = args[i].parse().expect("--p99-max-s needs seconds");
            }
            other => panic!(
                "unknown argument {other}; use --smoke | --rounds N | --seed N | --jobs N | \
                 --workers N | --max-queue N | --lane-crash-every N | --shards N | --tracks N | \
                 --bin PATH | --out PATH | --report PATH | --p99-max-s F"
            ),
        }
        i += 1;
    }
    config
}

/// A spawned `gendpr serve` process plus its addresses.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    metrics: SocketAddr,
}

fn probe_client(addr: SocketAddr) -> ServiceClient {
    ServiceClient::new(addr).with_options(TcpOptions {
        connect_timeout: Duration::from_millis(300),
        ..TcpOptions::default()
    })
}

/// Lease on every soak claim: short enough that survivors reclaim a
/// killed track's jobs within a round, long enough that a slow-but-live
/// commit is never stolen.
const TRACK_LEASE_MS: u64 = 2_000;

/// Spawns one daemon (track `track` of this round's fleet) and waits
/// until its client protocol answers. Ports are derived from the seed
/// and bumped on bind clashes.
#[allow(clippy::too_many_arguments)]
fn spawn_daemon(
    config: &Config,
    data: &Path,
    ledger: &Path,
    round: usize,
    shards: u32,
    track: u32,
    killpoint: Option<String>,
    rng: &mut Rng,
) -> Daemon {
    for attempt in 0..10u64 {
        let base = 16_000 + rng.below(40_000) + attempt * 97;
        #[allow(clippy::cast_possible_truncation)]
        let (port, mport) = (base as u16, (base + 1) as u16);
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        let metrics: SocketAddr = format!("127.0.0.1:{mport}").parse().unwrap();
        let log = std::fs::File::create(data.join(format!("round-{round}-t{track}.log")))
            .expect("round log file");
        let elog = log.try_clone().expect("round log handle");
        let mut command = Command::new(&config.bin);
        command
            .arg("serve")
            .args(["--case", &data.join("case.vcf").display().to_string()])
            .args([
                "--reference",
                &data.join("reference.vcf").display().to_string(),
            ])
            .args(["--ledger", &ledger.display().to_string()])
            .args(["--gdos", &config.gdos.to_string()])
            .arg("--tcp")
            .args([
                "--chaos",
                &config.seed.wrapping_add(round as u64).to_string(),
            ])
            .args(["--seed", &FED_SEED.to_string()])
            .args(["--workers", &config.workers.to_string()])
            .args(["--max-queue", &config.max_queue.to_string()])
            .args(["--max-retries", "3"])
            .args(["--shards", &shards.to_string()])
            .args(["--drain-timeout", "10"])
            .args(["--lane-crash-every", &config.lane_crash_every.to_string()])
            .args(["--track-id", &track.to_string()])
            .args(["--track-lease-ms", &TRACK_LEASE_MS.to_string()])
            .args(["--listen", &addr.to_string()])
            .args(["--metrics-addr", &metrics.to_string()])
            .args(["--timeout", "120"])
            .args(["--log-level", "error"])
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(elog))
            .stdin(Stdio::null());
        if let Some(spec) = &killpoint {
            command.env("GENDPR_KILLPOINT", spec);
        }
        let mut child = command.spawn().expect("spawning the daemon");

        let probe = probe_client(addr);
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if probe.status().is_ok() {
                return Daemon {
                    child,
                    addr,
                    metrics,
                };
            }
            if let Ok(Some(status)) = child.try_wait() {
                // Bind clash or killpoint fired during boot: next ports /
                // next attempt (the ledger is consistent either way).
                eprintln!("  round {round}: daemon died during boot ({status}); respawning");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "round {round}: daemon never became ready on {addr}"
            );
            thread::sleep(Duration::from_millis(50));
        }
    }
    panic!("round {round}: daemon failed to boot after 10 attempts");
}

fn sigterm(pid: u32) {
    let _ = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status();
}

/// Waits for the child with a deadline; hard-kills on overrun so the
/// harness itself can never wedge.
fn wait_with_deadline(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            return child.wait().expect("reaping the killed daemon");
        }
        thread::sleep(Duration::from_millis(50));
    }
}

/// One `GET /metrics` scrape of the daemon's exposition endpoint.
fn scrape(addr: SocketAddr) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .ok()?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n")
        .ok()?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply).ok()?;
    let body = reply.split_once("\r\n\r\n")?.1;
    Some(body.to_string())
}

/// Reads one un-labeled series from a text exposition body.
fn metric(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Sums every labeled sample of one counter family.
fn metric_family_sum(body: &str, name: &str) -> f64 {
    body.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            if !rest.starts_with('{') && !rest.starts_with(' ') {
                return None;
            }
            line.rsplit(' ').next()?.trim().parse::<f64>().ok()
        })
        .sum()
}

/// The process-resource + scheduler sample kept from the last
/// successful scrape of a round.
#[derive(Debug, Clone, Default)]
struct ResourceSample {
    threads: f64,
    open_fds: f64,
    rss_bytes: f64,
    queue_full_rejects: f64,
    truncated_frames: f64,
    lane_rebuilds: f64,
}

fn parse_sample(body: &str) -> ResourceSample {
    ResourceSample {
        threads: metric(body, "gendpr_process_threads").unwrap_or(0.0),
        open_fds: metric(body, "gendpr_process_open_fds").unwrap_or(0.0),
        rss_bytes: metric(body, "gendpr_process_rss_bytes").unwrap_or(0.0),
        queue_full_rejects: metric_family_sum(body, "gendpr_sched_admission_rejects_total")
            - metric_family_sum(
                body,
                "gendpr_sched_admission_rejects_total{reason=\"shutdown\"}",
            ),
        truncated_frames: metric(body, "gendpr_ledger_truncated_frames_total").unwrap_or(0.0),
        lane_rebuilds: metric(body, "gendpr_sched_lane_rebuilds_total").unwrap_or(0.0),
    }
}

/// Hostile wire input: raw garbage, an absurd length prefix, and a
/// truncated frame. The daemon must shed all three and keep serving.
fn send_hostile_frames(addr: SocketAddr) -> usize {
    let frames: [&[u8]; 3] = [
        b"\xff\xff\xff\xff\xff\xff\xff\xff",
        b"\xff\xff\xff\x7f pretend this is huge",
        b"\x40\x00\x00\x00trunc",
    ];
    let mut sent = 0;
    for frame in frames {
        if let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            if stream.write_all(frame).is_ok() {
                sent += 1;
            }
        }
    }
    sent
}

/// How one submitted job ended, as seen from the client side.
enum JobOutcome {
    /// Certified; wall-clock latency of the successful attempt.
    Completed(f64),
    /// Daemon went away (or rejected for shutdown) before it ran:
    /// re-submit after the restart.
    Interrupted { panel: Vec<u32> },
    /// A typed job failure — counts against the zero-dropped SLO.
    Failed(String),
}

/// Counters a traffic wave accumulates besides per-job outcomes.
#[derive(Default)]
struct WaveStats {
    queue_full_rejects: u64,
    status_probes: u64,
}

/// Runs one job to a terminal outcome: bounded retry on queue-full
/// backpressure, interruption on any connection-level failure.
fn drive_job(client: &ServiceClient, panel: Vec<u32>, no_wait: bool) -> (JobOutcome, u64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(120);
    let mut rejects = 0u64;
    loop {
        let result = if no_wait {
            client.submit(panel.clone(), 0).and_then(|job_id| {
                // Poll results until the record lands, like `--no-wait`
                // CLI users do.
                loop {
                    match client.results(job_id) {
                        Ok(Some(record)) => return Ok(record),
                        Ok(None) => {
                            if Instant::now() > deadline {
                                return Err(std::io::Error::other("job never finished"));
                            }
                            thread::sleep(Duration::from_millis(50));
                        }
                        Err(e) => return Err(e),
                    }
                }
            })
        } else {
            client.submit_and_wait(panel.clone(), 0)
        };
        match result {
            Ok(_) => {
                return (
                    JobOutcome::Completed(started.elapsed().as_secs_f64()),
                    rejects,
                )
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                rejects += 1;
                if Instant::now() > deadline {
                    return (JobOutcome::Failed("backpressure deadline".into()), rejects);
                }
                thread::sleep(Duration::from_millis(20));
            }
            // The daemon died under us or is draining: the job is not
            // lost, it is re-submitted after the restart.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionAborted
                        | ErrorKind::ConnectionRefused
                        | ErrorKind::ConnectionReset
                        | ErrorKind::BrokenPipe
                        | ErrorKind::UnexpectedEof
                        | ErrorKind::TimedOut
                        | ErrorKind::WriteZero
                ) =>
            {
                return (JobOutcome::Interrupted { panel }, rejects);
            }
            Err(e) => return (JobOutcome::Failed(e.to_string()), rejects),
        }
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Everything the post-round ledger audit yields.
struct LedgerAudit {
    records: usize,
    recovered_bytes: u64,
    released_union: Vec<u32>,
}

/// Re-opens the ledger after a daemon death and enforces every
/// invariant; a second open proves recovery was physical and idempotent.
/// The audit runs on a copy so a torn tail is left in place for the
/// *next daemon* to recover through the production open path (which is
/// what increments `gendpr_ledger_truncated_frames_total`).
fn audit_ledger(original: &Path) -> Result<LedgerAudit, String> {
    let path = original.with_extension("audit");
    std::fs::copy(original, &path).map_err(|e| format!("copying for audit: {e}"))?;
    let result = audit_copy(&path);
    let _ = std::fs::remove_file(&path);
    result
}

fn audit_copy(path: &Path) -> Result<LedgerAudit, String> {
    let first = ReleaseLedger::open(path).map_err(|e| format!("reopen failed: {e}"))?;
    let recovered_bytes = first.recovered_bytes();
    let len = first.len();
    drop(first);
    let second = ReleaseLedger::open(path).map_err(|e| format!("second open failed: {e}"))?;
    if second.recovered_bytes() != 0 {
        return Err(format!(
            "recovery not idempotent: second open recovered {} bytes",
            second.recovered_bytes()
        ));
    }
    if second.len() != len {
        return Err(format!(
            "recovery not stable: {len} records then {}",
            second.len()
        ));
    }
    gendpr_service::ledger::audit_records(second.records())?;
    let mut released_union: Vec<u32> = second.released_union().into_iter().map(|s| s.0).collect();
    released_union.sort_unstable();
    Ok(LedgerAudit {
        records: len,
        recovered_bytes,
        released_union,
    })
}

fn main() {
    let config = parse_args();
    let data = std::env::temp_dir().join(format!("gendpr-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    std::fs::create_dir_all(&data).expect("soak scratch dir");
    let ledger_path = data.join("soak.ledger");

    // The study every round serves; same seed ⇒ same cohort ⇒ every
    // restart certifies identically.
    let synth = Command::new(&config.bin)
        .args(["synth", "--snps", &SNPS.to_string()])
        .args(["--cases", "64", "--reference", "48", "--seed", "41"])
        .args(["--out", &data.display().to_string()])
        .stdout(Stdio::null())
        .status()
        .expect("running gendpr synth");
    assert!(synth.success(), "gendpr synth failed");

    let mut rng = Rng(config.seed);
    let mut report_lines: Vec<String> = Vec::new();
    let mut pending: Vec<Vec<u32>> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut recoveries: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // Per-round resource sample, keyed with the round's (shards, tracks)
    // shape: thread/fd footprints scale with the deployment shape, so
    // drift is only meaningful between same-shape rounds.
    let mut samples: BTreeMap<usize, (u32, u32, ResourceSample)> = BTreeMap::new();
    let mut prev_failure: Option<Failure> = None;
    let mut prev_union: Vec<u32> = Vec::new();
    let mut totals_completed = 0u64;
    let mut totals_resubmitted = 0u64;
    let mut totals_rejects = 0u64;
    let mut totals_hostile = 0usize;
    let mut dropped: Vec<String> = Vec::new();
    let mut audits_passed = 0usize;
    let mut final_records = 0usize;

    // One extra drain round so every interrupted job reaches a terminal
    // verdict before the zero-dropped SLO is judged.
    let total_rounds = config.rounds + 1;
    for round in 0..total_rounds {
        // Round 0 warms up and the final round drains: both clean.
        let failure = if round == 0 || round == total_rounds - 1 {
            Failure::Clean
        } else {
            match rng.below(6) {
                0 => Failure::Clean,
                1 => Failure::SigTerm,
                2 => Failure::SigKill,
                3 => Failure::KillPoint("net_send"),
                4 => Failure::KillPoint("ledger_tear"),
                _ => {
                    if rng.below(2) == 0 {
                        Failure::KillPoint("ledger_append")
                    } else {
                        Failure::KillPoint("ledger_commit")
                    }
                }
            }
        };
        let killpoint = match failure {
            // The nth hit: appends are one per job, sends are constant
            // background traffic — scale the trigger accordingly.
            Failure::KillPoint(site @ ("ledger_tear" | "ledger_append" | "ledger_commit")) => {
                Some(format!("{site}:{}", 1 + rng.below(3)))
            }
            Failure::KillPoint(site) => Some(format!("{site}:{}", 2_000 + rng.below(8_000))),
            _ => None,
        };
        // Half the rounds (seeded) run the daemon multi-shard, so every
        // failure class also lands on deployments with live shard lanes —
        // and the certificates across restarts must still be identical,
        // whichever shard counts the surviving ledger was written under.
        let shards = if rng.below(2) == 0 { config.shards } else { 1 };
        // Half the rounds (independently seeded) run a multi-track fleet
        // over the shared ledger. Every round is *tracked* (a 1-track
        // fleet is byte-identical to an untracked daemon by design), so
        // the claim log never mixes tracked and untracked commits; the
        // induced failure always lands on track 0, and the secondaries
        // are the lease-expiry survivors.
        let tracks = if rng.below(2) == 0 { config.tracks } else { 1 };

        let boot = Instant::now();
        let mut daemon = spawn_daemon(
            &config,
            &data,
            &ledger_path,
            round,
            shards,
            0,
            killpoint,
            &mut rng,
        );
        let ready = boot.elapsed().as_secs_f64();
        if let Some(prev) = prev_failure {
            recoveries.entry(prev.name()).or_default().push(ready);
        }
        // Secondary tracks never carry the killpoint env: the induced
        // death must hit track 0 so the survivors do the reclaiming.
        let mut secondaries: Vec<Daemon> = (1..tracks)
            .map(|track| {
                spawn_daemon(
                    &config,
                    &data,
                    &ledger_path,
                    round,
                    shards,
                    track,
                    None,
                    &mut rng,
                )
            })
            .collect();
        let endpoints: Vec<SocketAddr> = std::iter::once(daemon.addr)
            .chain(secondaries.iter().map(|s| s.addr))
            .collect();
        eprintln!(
            "round {round}/{}: {} in {ready:.2}s, failure class {}, {shards} shard(s), {tracks} track(s)",
            total_rounds - 1,
            daemon.addr,
            failure.name()
        );

        // Reference replay: the first job after every restart proves the
        // daemon still charges the committed prefix — its dispatch
        // snapshot must equal the audited released-union of the
        // surviving ledger.
        if round > 0 {
            let client = ServiceClient::new(daemon.addr);
            match client.submit_and_wait(REFERENCE_PANEL.collect(), 0) {
                Ok(record) => {
                    assert!(
                        record.certificate.is_some(),
                        "round {round}: reference replay came back uncertified"
                    );
                    let mut forced = record.forced.clone();
                    forced.sort_unstable();
                    assert_eq!(
                        forced, prev_union,
                        "round {round}: reference replay was not seeded with the committed union"
                    );
                    totals_completed += 1;
                }
                // A boot-armed killpoint can fire this early; the job
                // joins the pending pool like any interrupted one.
                Err(_) => pending.push(REFERENCE_PANEL.collect()),
            }
        }

        // This round's traffic: everything interrupted earlier, then a
        // fresh seeded mixed wave (blocking and --no-wait federated jobs).
        let mut wave: Vec<(Vec<u32>, bool)> =
            pending.drain(..).map(|panel| (panel, false)).collect();
        totals_resubmitted += wave.len() as u64;
        for _ in 0..config.jobs {
            // Seeded overlapping slices of the panel.
            let start = rng.below(u64::from(SNPS - 16));
            #[allow(clippy::cast_possible_truncation)]
            let panel: Vec<u32> = (start as u32..start as u32 + 16).collect();
            let no_wait = rng.below(4) == 0;
            wave.push((panel, no_wait));
        }
        // Seeded per-job arrival times spread the wave across a couple
        // of seconds so mid-traffic kills genuinely interrupt jobs.
        let staggers: Vec<u64> = wave.iter().map(|_| rng.below(1_800)).collect();

        let outcomes: Arc<Mutex<Vec<JobOutcome>>> = Arc::new(Mutex::new(Vec::new()));
        let stats: Arc<Mutex<WaveStats>> = Arc::new(Mutex::new(WaveStats::default()));
        let addr = daemon.addr;
        let handles: Vec<_> = wave
            .into_iter()
            .zip(staggers)
            .map(|((panel, no_wait), stagger_ms)| {
                let outcomes = Arc::clone(&outcomes);
                let stats = Arc::clone(&stats);
                let stagger = Duration::from_millis(stagger_ms);
                // Clients carry the whole fleet's address list: on clean
                // rounds every dial lands on track 0 (listed first and
                // alive), keeping the admission accounting exact; on
                // kill rounds traffic fails over to the survivors.
                let endpoints = endpoints.clone();
                thread::spawn(move || {
                    thread::sleep(stagger);
                    let client = ServiceClient::with_endpoints(endpoints);
                    let (outcome, rejects) = drive_job(&client, panel, no_wait);
                    let mut stats = stats.lock().unwrap();
                    stats.queue_full_rejects += rejects;
                    drop(stats);
                    outcomes.lock().unwrap().push(outcome);
                })
            })
            .collect();

        // Interleaved status probes and hostile frames while jobs run.
        let hostile = send_hostile_frames(addr);
        totals_hostile += hostile;
        let probe = probe_client(addr);
        if probe.status().is_ok() {
            stats.lock().unwrap().status_probes += 1;
        }

        // A background scraper keeps the freshest exposition sample so
        // kill rounds still yield resource readings. It is stopped
        // *before* any induced death so a mid-shutdown scrape (half the
        // threads already gone) never becomes the round's sample.
        let scraping = Arc::new(Mutex::new(None::<String>));
        let scraper_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = {
            let scraping = Arc::clone(&scraping);
            let metrics_addr = daemon.metrics;
            let flag = Arc::clone(&scraper_done);
            thread::spawn(move || {
                while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                    if let Some(body) = scrape(metrics_addr) {
                        *scraping.lock().unwrap() = Some(body);
                    }
                    thread::sleep(Duration::from_millis(150));
                }
            })
        };
        let stop_scraper = || scraper_done.store(true, std::sync::atomic::Ordering::SeqCst);

        // Inject this round's failure mid-traffic.
        let status = match failure {
            Failure::Clean => {
                for handle in handles {
                    let _ = handle.join();
                }
                // Traffic is fully drained: take one authoritative
                // scrape, then stop through the protocol.
                if let Some(body) = scrape(daemon.metrics) {
                    *scraping.lock().unwrap() = Some(body);
                }
                stop_scraper();
                let _ = ServiceClient::new(addr).shutdown();
                wait_with_deadline(&mut daemon.child, Duration::from_secs(60))
            }
            Failure::SigTerm => {
                thread::sleep(Duration::from_millis(400 + rng.below(1_400)));
                stop_scraper();
                sigterm(daemon.child.id());
                for handle in handles {
                    let _ = handle.join();
                }
                wait_with_deadline(&mut daemon.child, Duration::from_secs(60))
            }
            Failure::SigKill => {
                thread::sleep(Duration::from_millis(400 + rng.below(1_400)));
                stop_scraper();
                let _ = daemon.child.kill();
                for handle in handles {
                    let _ = handle.join();
                }
                daemon.child.wait().expect("reaping the killed daemon")
            }
            Failure::KillPoint(_) => {
                // The armed site fires on its own (scrapes of the dead
                // process simply fail); if it never does — count too
                // high for this round's traffic — fall back to SIGKILL
                // so the round still ends in a hard death.
                for handle in handles {
                    let _ = handle.join();
                }
                stop_scraper();
                wait_with_deadline(&mut daemon.child, Duration::from_secs(5))
            }
        };
        stop_scraper();
        let _ = scraper.join();

        match failure {
            Failure::Clean => assert_eq!(
                status.code(),
                Some(0),
                "round {round}: clean stop must exit 0 (got {status})"
            ),
            Failure::SigTerm => assert_eq!(
                status.code(),
                Some(7),
                "round {round}: SIGTERM must exit 7 (got {status})"
            ),
            // SIGKILL and aborts die on a signal: no exit code at all.
            Failure::SigKill | Failure::KillPoint(_) => assert_eq!(
                status.code(),
                None,
                "round {round}: a hard kill must die on the signal (got {status})"
            ),
        }

        // Stop the surviving tracks through the protocol before the
        // ledger audit so nothing is appending while the file is copied.
        // No exit-code assertion here: the induced failure is track 0's
        // alone, the survivors just have to drain and leave.
        for secondary in &mut secondaries {
            let _ = ServiceClient::new(secondary.addr).shutdown();
            let _ = wait_with_deadline(&mut secondary.child, Duration::from_secs(60));
        }
        drop(secondaries);

        // Collect the wave's outcomes.
        let outcomes = Arc::try_unwrap(outcomes)
            .map_err(|_| ())
            .expect("all job threads joined")
            .into_inner()
            .unwrap();
        let stats = Arc::try_unwrap(stats)
            .map_err(|_| ())
            .expect("all job threads joined")
            .into_inner()
            .unwrap();
        let mut round_completed = 0u64;
        let mut round_interrupted = 0u64;
        for outcome in outcomes {
            match outcome {
                JobOutcome::Completed(latency) => {
                    round_completed += 1;
                    totals_completed += 1;
                    latencies.push(latency);
                }
                JobOutcome::Interrupted { panel } => {
                    round_interrupted += 1;
                    pending.push(panel);
                }
                JobOutcome::Failed(message) => dropped.push(format!("round {round}: {message}")),
            }
        }
        totals_rejects += stats.queue_full_rejects;

        // The invariant audits every round must pass.
        let audit = match audit_ledger(&ledger_path) {
            Ok(audit) => audit,
            Err(message) => panic!("round {round}: ledger audit failed: {message}"),
        };
        audits_passed += 1;
        final_records = audit.records;
        prev_union = audit.released_union.clone();
        prev_failure = Some(failure);

        let sample = scraping
            .lock()
            .unwrap()
            .as_deref()
            .map(parse_sample)
            .unwrap_or_default();
        // Admission accounting: on clean rounds the scrape happens after
        // the whole wave drained, so the daemon's queue-full counter
        // must equal what the clients saw.
        if failure == Failure::Clean {
            #[allow(clippy::cast_precision_loss)]
            let seen = stats.queue_full_rejects as f64;
            assert!(
                (sample.queue_full_rejects - seen).abs() < 0.5,
                "round {round}: admission rejects unaccounted (daemon {}, clients {seen})",
                sample.queue_full_rejects
            );
        }
        samples.insert(round, (shards, tracks, sample.clone()));

        report_lines.push(format!(
            "{{\"round\": {round}, \"failure\": \"{}\", \"shards\": {shards}, \"tracks\": {tracks}, \"ready_s\": {ready:.3}, \
             \"completed\": {round_completed}, \"interrupted\": {round_interrupted}, \
             \"queue_full_rejects\": {}, \"hostile_frames\": {hostile}, \
             \"ledger_records\": {}, \"recovered_bytes\": {}, \
             \"truncated_frames\": {}, \"lane_rebuilds\": {}, \
             \"threads\": {}, \"open_fds\": {}, \"rss_bytes\": {}}}",
            failure.name(),
            stats.queue_full_rejects,
            audit.records,
            audit.recovered_bytes,
            sample.truncated_frames,
            sample.lane_rebuilds,
            sample.threads,
            sample.open_fds,
            sample.rss_bytes,
        ));
        eprintln!(
            "  {} done, {} interrupted, ledger {} records ({} torn bytes recovered)",
            round_completed, round_interrupted, audit.records, audit.recovered_bytes
        );
    }

    if let Some(parent) = Path::new(&config.report).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("report directory");
        }
    }
    std::fs::write(&config.report, report_lines.join("\n") + "\n")
        .expect("writing the round report");

    // ---- SLO judgement -------------------------------------------------
    assert!(
        dropped.is_empty(),
        "dropped jobs (zero-dropped SLO violated):\n  {}",
        dropped.join("\n  ")
    );
    assert!(
        pending.is_empty(),
        "{} job(s) never reached a terminal verdict",
        pending.len()
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p99) = (percentile(&latencies, 0.5), percentile(&latencies, 0.99));
    assert!(
        p99 <= config.p99_max_s,
        "p99 job latency {p99:.2}s exceeds the {:.2}s SLO",
        config.p99_max_s
    );
    // Resource ceilings: the daemon's own gauges must not drift between
    // an early warmed-up round and the last one — restarts being
    // equivalent is exactly the no-leak property under supervision. The
    // baseline is the earliest warmed-up round with the *same deployment
    // shape* (shards and tracks) as the last sampled one; thread and fd
    // counts legitimately differ across shapes.
    let last_entry = samples
        .iter()
        .rev()
        .find(|(_, (_, _, s))| s.rss_bytes > 0.0)
        .map(|(round, entry)| (*round, entry.clone()));
    let (last_round, last_shape, last) = match last_entry {
        Some((round, (shards, tracks, sample))) => (round, (shards, tracks), sample),
        None => (0, (0, 0), ResourceSample::default()),
    };
    let (baseline_round, baseline) = samples
        .iter()
        .find(|(round, (shards, tracks, s))| {
            **round >= 1
                && **round < last_round
                && (*shards, *tracks) == last_shape
                && s.rss_bytes > 0.0
        })
        .map_or((last_round, ResourceSample::default()), |(round, entry)| {
            (*round, entry.2.clone())
        });
    let (threads_delta, fds_delta, rss_delta) = (
        last.threads - baseline.threads,
        last.open_fds - baseline.open_fds,
        last.rss_bytes - baseline.rss_bytes,
    );
    if baseline.rss_bytes > 0.0 && last.rss_bytes > 0.0 {
        assert!(
            threads_delta.abs() <= 16.0,
            "thread count drifted {threads_delta} across rounds"
        );
        assert!(
            fds_delta.abs() <= 64.0,
            "open fds drifted {fds_delta} across rounds"
        );
        assert!(
            rss_delta <= 256.0 * 1024.0 * 1024.0,
            "RSS grew {rss_delta} bytes across rounds"
        );
    }

    let recovery_json: Vec<String> = recoveries
        .iter()
        .map(|(class, times)| {
            let mut sorted = times.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            format!(
                "    \"{class}\": {{ \"count\": {}, \"p50_s\": {:.3}, \"p99_s\": {:.3} }}",
                sorted.len(),
                percentile(&sorted, 0.5),
                percentile(&sorted, 0.99)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"workload\": {{\n    \"rounds\": {},\n    \"seed\": {},\n    \"jobs_per_round\": {},\n    \"workers\": {},\n    \"gdos\": {},\n    \"max_queue\": {},\n    \"lane_crash_every\": {},\n    \"smoke\": {}\n  }},\n  \"totals\": {{\n    \"jobs_completed\": {totals_completed},\n    \"jobs_resubmitted\": {totals_resubmitted},\n    \"queue_full_rejects\": {totals_rejects},\n    \"hostile_frames\": {totals_hostile},\n    \"dropped\": 0,\n    \"ledger_records\": {final_records},\n    \"audits_passed\": {audits_passed}\n  }},\n  \"job_latency_s\": {{ \"p50\": {p50:.4}, \"p99\": {p99:.4} }},\n  \"recovery_s\": {{\n{}\n  }},\n  \"resources\": {{\n    \"baseline_round\": {baseline_round},\n    \"threads_delta\": {threads_delta},\n    \"open_fds_delta\": {fds_delta},\n    \"rss_delta_bytes\": {rss_delta}\n  }}\n}}\n",
        config.rounds,
        config.seed,
        config.jobs,
        config.workers,
        config.gdos,
        config.max_queue,
        config.lane_crash_every,
        config.smoke,
        recovery_json.join(",\n"),
    );
    std::fs::write(&config.out, &json).expect("writing the JSON summary");
    println!(
        "report written to {} (rounds in {})",
        config.out, config.report
    );
    println!(
        "soak passed: {totals_completed} jobs certified across {total_rounds} rounds \
         ({totals_resubmitted} resubmitted after kills), {audits_passed} ledger audits, \
         p50/p99 latency {p50:.2}/{p99:.2}s"
    );

    let _ = std::fs::remove_dir_all(&data);
}
