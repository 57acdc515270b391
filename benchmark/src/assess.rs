//! The one-shot workloads: back-to-back assessments of one cohort
//! through the driver `gendpr assess` calls, one caller, closed loop.

use crate::inputs::{self, Workload};
use crate::json::Json;
use crate::probes::assess;
use crate::report::Measured;
use crate::summary::{median, ms};
use crate::verify::{assessment_fingerprint, Auditor};
use std::time::{Duration, Instant};

/// Sets up `setup_repeats` times (cohort synthesis plus one warm-up
/// assessment; `setup_s` is the median), then assesses the cohort back
/// to back for `seconds`, verifying every certificate inside the timed
/// call.
///
/// # Errors
///
/// A warm-up assessment that fails: the run cannot vouch for its set-up.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    setup_repeats: usize,
) -> Result<Measured, String> {
    let (config, params) = (inputs::federation_config(), inputs::assess_params());
    let mut setups = Vec::with_capacity(setup_repeats);
    let mut prepared = None;
    for _ in 0..setup_repeats {
        let started = Instant::now();
        let cohort = inputs::assess_cohort(workload, seed);
        let warm = assess(config, params, cohort.as_ref())?;
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some((cohort, warm));
    }
    let (cohort, warm) = prepared.ok_or("set-up must be performed at least once")?;
    let auditor = Auditor::new(&config, &params, cohort.as_ref());
    auditor.check_assessment(&warm)?;
    let fingerprint = assessment_fingerprint(&warm);

    let funnel = [
        ("panel", cohort.panel().len()),
        ("l_prime", warm.l_prime.len()),
        ("l_double_prime", warm.l_double_prime.len()),
        ("safe", warm.safe_snps.len()),
    ];
    let mut out = Measured {
        setup_s: median(&setups),
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        offers: 0,
        elapsed: Duration::ZERO,
        msgs_per_job: 0.0,
        wire_bytes_per_job: 0.0,
        fingerprint,
        info: vec![(
            "funnel".into(),
            Json::obj(funnel.map(|(name, size)| (name, Json::from(size as u64)))),
        )],
    };
    let (mut messages, mut wire_bytes) = (0u64, 0u64);
    let mut phases: [Vec<f64>; 4] = Default::default();
    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    while started.elapsed() < window {
        out.attempted += 1;
        let call = Instant::now();
        let verdict = assess(config, params, cohort.as_ref()).and_then(|report| {
            auditor.check_assessment(&report)?;
            Ok(report)
        });
        let took = call.elapsed();
        match verdict {
            // Same input, same program: anything but the same output is
            // a failed operation.
            Ok(report) if assessment_fingerprint(&report) == out.fingerprint => {
                out.latencies_ms.push(ms(took));
                messages += report.traffic.messages;
                wire_bytes += report.traffic.wire_bytes;
                let t = report.timings;
                for (samples, phase) in
                    phases
                        .iter_mut()
                        .zip([t.aggregation, t.indexing, t.ld, t.lr])
                {
                    samples.push(ms(phase));
                }
            }
            Ok(_) => {
                out.failed += 1;
                out.failures
                    .push("an assessment's outputs differ from the warm-up's".into());
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(e);
            }
        }
        out.failures.truncate(5);
    }
    out.elapsed = started.elapsed();
    // One caller, closed loop: every job is offered exactly once.
    out.offers = out.attempted;
    let certified = out.latencies_ms.len().max(1) as f64;
    out.msgs_per_job = messages as f64 / certified;
    out.wire_bytes_per_job = wire_bytes as f64 / certified;
    if !out.latencies_ms.is_empty() {
        // The phase split the runtime itself reports, for the README's
        // "where does an assessment's wall go".
        let names = ["aggregation", "indexing", "ld", "lr"];
        out.info.push((
            "phase_ms".into(),
            Json::obj(names.into_iter().zip(phases.map(|p| Json::Num(median(&p))))),
        ));
    }
    Ok(out)
}
