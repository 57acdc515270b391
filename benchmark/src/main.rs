//! The repository benchmark. One command runs the four workloads
//! untraced (end-to-end metrics) and traced (per-layer metrics),
//! verifies every output, and prints every metric by name with its
//! unit. See `README.md` beside this crate for what is measured and why.
//!
//! ```text
//! run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! run.sh --smoke | --write-expected | --compare A.json[,…] B.json[,…]
//! ```
//!
//! With `--workload` and `--trace` both given and no `--out`, the run
//! happens in this process and the last line of standard output is the
//! result as one JSON object. Otherwise this process runs each requested
//! (workload, trace mode) in a child of its own — peak memory and CPU
//! pinning are per process — and writes the collected report to `--out`.

mod assess;
mod host;
mod inputs;
mod json;
mod metrics;
mod probes;
mod report;
mod serve;
mod summary;
mod trace;
mod verify;

use inputs::Workload;
use json::Json;
use report::Outcome;
use serve::LoadModel;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use summary::{highest_supported_tail, percentile};
use trace::Tracer;

/// Length of the timed window of a full run (`BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;
/// `--smoke`: a window this short also shrinks the traced batches.
const SMOKE_SECONDS: u64 = 3;
/// How often a full run performs its set-up; `setup_s` is the median.
/// The `assess-*` set-up is CPU-bound and under a second, so it moves
/// with the host's speed: five of them steady the median.
const SETUP_REPEATS: usize = 3;
const ASSESS_SETUP_REPEATS: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    write_expected: bool,
    compare: Option<(String, String)>,
}

impl Args {
    /// A window under half the full length is a smoke run: one set-up
    /// instead of three, and small traced batches.
    fn smoke(&self) -> bool {
        self.seconds < RUN_SECONDS / 2
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: verify::DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        out: None,
        write_expected: false,
        compare: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = |what: &str| words.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => args.seconds = SMOKE_SECONDS,
            "--write-expected" => args.write_expected = true,
            "--compare" => {
                args.compare = Some((value("two report lists")?, value("two report lists")?));
            }
            other => {
                return Err(format!(
                    "unknown argument {other} (see benchmark/README.md)"
                ))
            }
        }
    }
    if args.write_expected && args.seed != verify::DEFAULT_SEED {
        return Err(format!(
            "expected.json pins seed {}; --write-expected takes no other",
            verify::DEFAULT_SEED
        ));
    }
    Ok(args)
}

/// The benchmark's own directory: `run.sh` exports it; a binary started
/// by hand falls back to where it was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("GENDPR_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Checks (or, with `--write-expected`, records) the default seed's
/// output fingerprint. Other seeds have only the self-consistency
/// checks every run performs.
fn fingerprint_failure(args: &Args, workload: Workload, fingerprint: &str) -> Option<String> {
    if args.seed != verify::DEFAULT_SEED {
        return None;
    }
    let path = bench_dir().join("expected.json");
    if args.write_expected {
        return verify::write_expected(&path, workload.name(), fingerprint).err();
    }
    match verify::expected_fingerprint(&path, workload.name()) {
        Ok(expected) if expected == fingerprint => None,
        Ok(expected) => Some(format!(
            "outputs hash to {fingerprint}, expected.json pins {expected}"
        )),
        Err(e) => Some(e),
    }
}

fn pinned_info(pinned: Option<&host::Pinned>) -> (String, Json) {
    (
        "pinned_to_cpu".into(),
        pinned.map_or(Json::Null, |p| Json::from(u64::from(p.cpu))),
    )
}

/// The eight end-to-end metrics of one untraced run.
fn run_untraced(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let (typical, tail) = workload.latency_statistics();
    let setup_repeats = match (args.smoke(), workload.is_assess()) {
        (true, _) => 1,
        (false, true) => ASSESS_SETUP_REPEATS,
        (false, false) => SETUP_REPEATS,
    };
    let pinned = workload.is_assess().then(host::pin_to_one_cpu).flatten();
    let mut run = if workload.is_assess() {
        assess::run_untraced(workload, args.seed, args.seconds, setup_repeats)?
    } else {
        let out_dir = bench_dir().join("out");
        serve::run_untraced(
            LoadModel::of(workload),
            args.seed,
            args.seconds,
            setup_repeats,
            &out_dir,
        )?
    };
    if let Some(failure) = fingerprint_failure(args, workload, &run.fingerprint) {
        run.failed += 1;
        run.failures.push(failure);
    }
    if run.latencies_ms.is_empty() {
        return Err(format!(
            "no operation was certified ({} attempted): {:?}",
            run.attempted, run.failures
        ));
    }
    let samples = run.latencies_ms.len();
    let mut info = vec![pinned_info(pinned.as_ref())];
    info.extend(run.info);
    info.push(("fingerprint".into(), Json::Str(run.fingerprint)));
    info.push((
        "latency_statistics".into(),
        Json::Arr(vec![Json::Str(typical.label()), Json::Str(tail.label())]),
    ));
    info.push((
        "tail_percentile_supported".into(),
        highest_supported_tail(samples).map_or(Json::Null, |p| Json::from(u64::from(p))),
    ));
    // The whole distribution and the rate over the whole window, for
    // the reader: on `assess-*` they carry the host's interference and
    // are not gated (benchmark/README.md, "Which statistic").
    info.push((
        "latency_ms".into(),
        Json::obj(
            [
                ("fastest", 0),
                ("p50", 50),
                ("p75", 75),
                ("p90", 90),
                ("p95", 95),
            ]
            .map(|(name, p)| (name, Json::Num(percentile(&run.latencies_ms, p)))),
        ),
    ));
    let window_rate = samples as f64 / run.elapsed.as_secs_f64();
    info.push(("window_jobs_per_s".into(), Json::Num(window_rate)));
    let job_latency_ms = typical.of(&run.latencies_ms);
    // One caller, back to back: the rate is the reciprocal of the
    // latency, so on `assess-*` it is read off the same statistic.
    let jobs_per_s = if workload.is_assess() {
        1e3 / job_latency_ms
    } else {
        window_rate
    };
    Ok(Outcome {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures,
        samples,
        metrics: vec![
            ("setup_s", run.setup_s),
            ("job_latency_ms", job_latency_ms),
            ("job_latency_tail_ms", tail.of(&run.latencies_ms)),
            ("jobs_per_s", jobs_per_s),
            ("offers_per_job", run.offers as f64 / samples as f64),
            ("msgs_per_job", run.msgs_per_job),
            ("wire_bytes_per_job", run.wire_bytes_per_job),
            ("peak_rss_mb", host::peak_rss_mb()),
        ],
        info,
    })
}

/// Every per-layer metric of one traced run: the compute peel on the
/// workload's cohort, the primitive probes, and the service layers
/// under the workload's load model (the closed loop on `assess-*`,
/// whose own load never reaches the service).
fn run_traced(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let smoke = args.smoke();
    let tracer = Tracer::new(true);

    let pinned = workload.is_assess().then(host::pin_to_one_cpu).flatten();
    let mut info = vec![pinned_info(pinned.as_ref())];
    let synth_started = Instant::now();
    let (cohort, config, params) = if workload.is_assess() {
        (
            inputs::assess_cohort(workload, args.seed),
            inputs::federation_config(),
            inputs::assess_params(),
        )
    } else {
        (
            inputs::study_cohort(),
            inputs::serving_config(),
            inputs::study_params(),
        )
    };
    let synth = synth_started.elapsed();
    let cells =
        (cohort.case().individuals() + cohort.reference().individuals()) * cohort.panel().len();
    let runs = match (workload.is_assess(), smoke) {
        (true, false) => 10,
        (true, true) => 2,
        // The small study assesses in milliseconds.
        (false, _) => 20,
    };
    let peel = probes::peel(cohort.as_ref(), config, params, runs, pinned, &tracer)?;
    let primitives = probes::primitives(smoke, &tracer)?;
    let service =
        serve::layer_probes(LoadModel::of(workload), args.seed, smoke, &out_dir, &tracer)?;

    // `trace.*` comes from the layer the workload itself loads: the
    // peel's assessments on `assess-*`, the served batch on `serve-*`.
    let synth_metric = vec![(
        "genomics.synth_mcells_per_s",
        cells as f64 / 1e6 / synth.as_secs_f64(),
    )];
    let sources: [&[(&'static str, f64)]; 4] = if workload.is_assess() {
        [&synth_metric, &peel.metrics, &primitives, &service.metrics]
    } else {
        [&synth_metric, &service.metrics, &primitives, &peel.metrics]
    };
    let metrics = metrics::PER_LAYER
        .iter()
        .map(|layer| {
            sources
                .iter()
                .find_map(|source| source.iter().find(|(name, _)| *name == layer.name))
                .copied()
                .ok_or_else(|| format!("no probe measured {}", layer.name))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let trace_path = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    let spans = tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    info.push((
        "trace_file".into(),
        Json::Str(trace_path.display().to_string()),
    ));
    info.push(("spans".into(), Json::from(spans as u64)));
    info.push(("synth_ms".into(), Json::Num(summary::ms(synth))));
    Ok(Outcome {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: true,
        attempted: peel.attempted + service.attempted,
        failed: service.failed,
        failures: service.failures,
        samples: if workload.is_assess() {
            peel.samples
        } else {
            service.samples
        },
        metrics,
        info,
    })
}

/// Driver mode: one (workload, trace mode) in this process; the last
/// line of standard output is the result.
fn run_single(args: &Args, workload: Workload, traced: bool) -> ExitCode {
    gendpr_obs::set_level("error").expect("a valid log level");
    let run = if traced {
        run_traced(args, workload)
    } else {
        run_untraced(args, workload)
    };
    match run {
        Ok(outcome) => {
            print!("{}", outcome.render_text());
            println!("info: {}", Json::Obj(outcome.info.clone()).render());
            println!("{}", outcome.driver_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!(
                "{} ({}): {e}",
                workload.name(),
                if traced { "traced" } else { "untraced" }
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs one (workload, trace mode) in a child process, passing its
/// report through, and returns the run as a report entry.
fn run_child(args: &Args, workload: Workload, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.write_expected {
        command.arg("--write-expected");
    }
    let output = command
        .spawn()
        .and_then(std::process::Child::wait_with_output)
        .map_err(|e| format!("child run: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines.pop().and_then(|last| Json::parse(last).ok());
    let info = lines
        .pop()
        .and_then(|line| line.strip_prefix("info: "))
        .and_then(|line| Json::parse(line).ok())
        .unwrap_or(Json::Obj(Vec::new()));
    for line in &lines {
        println!("{line}");
    }
    let result = result.ok_or_else(|| {
        format!(
            "{} ({}) printed no result",
            workload.name(),
            if traced { "traced" } else { "untraced" }
        )
    })?;
    let mut fields = vec![
        ("workload".to_string(), Json::str(workload.name())),
        ("trace".to_string(), Json::from(traced)),
        ("seed".to_string(), Json::from(args.seed)),
        ("seconds".to_string(), Json::from(args.seconds)),
    ];
    fields.extend(result.fields().iter().cloned());
    fields.push(("info".to_string(), info));
    Ok(Json::Obj(fields))
}

/// Report mode: every requested (workload, trace mode), each in its own
/// process, collected into one report file.
fn run_all(args: &Args) -> ExitCode {
    let dir = bench_dir();
    let mut header = host::header_facts(&dir);
    header.extend([
        ("seed".to_string(), Json::from(args.seed)),
        ("run_seconds".to_string(), Json::from(args.seconds)),
        (
            "load_threads".to_string(),
            Json::from(serve::LOAD_THREADS as u64),
        ),
        ("assess_pinned_to_one_cpu".to_string(), Json::from(true)),
    ]);
    println!("# gendpr benchmark");
    for (key, value) in &header {
        println!("# {key}: {}", value.render());
    }

    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let modes = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut runs = Vec::new();
    let mut clean = true;
    for &workload in &workloads {
        for &traced in &modes {
            match run_child(args, workload, traced) {
                Ok(run) => {
                    clean &= run.get("correct") == Some(&Json::Bool(true));
                    runs.push(run);
                }
                Err(e) => {
                    eprintln!("{e}");
                    clean = false;
                }
            }
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| dir.join("out").join("report.json"));
    let report = Json::obj([("header", Json::Obj(header)), ("runs", Json::Arr(runs))]);
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, report.render_pretty()));
    match written {
        Ok(()) => println!("report written to {}", out.display()),
        Err(e) => {
            eprintln!("{}: {e}", out.display());
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--compare A B`: each side is a comma-separated list of report
/// files whose untraced runs are pooled; exit 1 on any `worse` row.
fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |list: &str| -> Result<Vec<Json>, String> {
        list.split(',')
            .map(|path| {
                let text =
                    std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = report::compare(&report::collect_side(&a), &report::collect_side(&b));
    print!("{}", report::render_rows(&rows));
    if rows.is_empty() {
        eprintln!("the reports share no untraced run of the same workload");
        return ExitCode::FAILURE;
    }
    let worse = rows
        .iter()
        .filter(|r| r.verdict == report::Verdict::Worse)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == report::Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b);
    }
    match (args.workload, args.trace, &args.out) {
        (Some(workload), Some(traced), None) => run_single(&args, workload, traced),
        _ => run_all(&args),
    }
}
