//! What a run reports and how two reports are compared.

use crate::inputs::Workload;
use crate::json::Json;
use crate::metrics::{direction_of, unit_of, Better, END_TO_END};
use crate::summary::{median, quartile_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// What an untraced workload measured, before it becomes the eight
/// end-to-end metrics.
pub struct Measured {
    /// Median wall of the run's set-ups.
    pub setup_s: f64,
    /// One entry per certified job, in the order the jobs were issued:
    /// call or due time → verified certificate in the caller's hands.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Submit attempts, accepted and refused.
    pub offers: u64,
    /// First operation → last certificate.
    pub elapsed: Duration,
    pub msgs_per_job: f64,
    pub wire_bytes_per_job: f64,
    /// SHA-256 of the run's outputs (see `verify`).
    pub fingerprint: String,
    /// Workload facts for the report's info line.
    pub info: Vec<(String, Json)>,
}

/// The result of one (workload, trace mode) run.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    /// Samples behind the latency percentiles.
    pub samples: usize,
    /// Metric name → value, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts that are not metrics: shapes, phase split, header.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|&(name, value)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit_of(name).unwrap_or(""))),
                ]),
            )
        }))
    }

    /// The last line of standard output: exactly the keys the driver
    /// reads.
    #[must_use]
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// Every metric by name with its unit, for a person.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} | {} | seed {} | {} s | {} of {} operations failed | {} latency samples",
            self.workload.name(),
            if self.traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            },
            self.seed,
            self.seconds,
            self.failed,
            self.attempted,
            self.samples,
        );
        for &(name, value) in &self.metrics {
            let _ = writeln!(
                out,
                "  {name:<38} {value:>16.4} {:<8} ({} is better)",
                unit_of(name).unwrap_or(""),
                direction_of(name).map_or("?", Better::as_str),
            );
        }
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED: {failure}");
        }
        out
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Relative worsening from A to B (positive = worse).
    pub worsening: f64,
    /// The wider of the two sides' own run-to-run spreads.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread is wider than the bound, so "no worse" cannot
    /// be told from "worse by less than the noise".
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Untraced runs of a set of report files: workload → metric → one
/// value per run.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Collects the end-to-end metrics of every untraced run in `reports`.
#[must_use]
pub fn collect_side(reports: &[Json]) -> Side {
    let mut side = Side::new();
    for report in reports {
        for run in report.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            if run.get("trace") != Some(&Json::Bool(false)) {
                continue;
            }
            let Some(workload) = run.get("workload").and_then(Json::as_str) else {
                continue;
            };
            let metrics = run.get("metrics").map_or(&[][..], Json::fields);
            for (name, entry) in metrics {
                if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                    side.entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    side
}

/// Spread of a side's own runs as a share of their median: the
/// distance between the quartiles once there are enough runs to have
/// quartiles, the full range below that.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return quartile_spread(values);
    }
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / mid.abs()
}

/// Compares side B against side A: one row per (workload, end-to-end
/// metric) present on both sides. B is `worse` when its median is worse
/// than A's by more than the metric's bound; `unresolved` when it is
/// not, but either side's own runs spread wider than the bound and B's
/// runs are not all better than A's.
#[must_use]
pub fn compare(a: &Side, b: &Side) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for metric in END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(metric.name), b_metrics.get(metric.name))
            else {
                continue;
            };
            let (am, bm) = (median(av), median(bv));
            let sign = match metric.better {
                Better::Lower => 1.0,
                Better::Higher => -1.0,
            };
            let worsening = if am == 0.0 {
                0.0
            } else {
                sign * (bm - am) / am.abs()
            };
            let all_better = bv.iter().all(|&x| av.iter().all(|&y| sign * (x - y) < 0.0));
            let spread = spread(av).max(spread(bv));
            let noisy = spread > metric.bound;
            let verdict = if worsening > metric.bound {
                Verdict::Worse
            } else if noisy && !all_better {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name,
                a: am,
                b: bm,
                worsening,
                spread,
                bound: metric.bound,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as an aligned table.
#[must_use]
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>8} {:>6}  {}\n",
        "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worsening * 100.0,
            row.spread * 100.0,
            row.bound * 100.0,
            row.verdict.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, metric: &str, values: &[f64]) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(
                values
                    .iter()
                    .map(|&v| {
                        Json::obj([
                            ("workload", Json::str(workload)),
                            ("trace", Json::from(false)),
                            (
                                "metrics",
                                Json::obj([(metric, Json::obj([("value", Json::Num(v))]))]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    fn verdict(metric: &str, a: &[f64], b: &[f64]) -> (f64, Verdict) {
        let rows = compare(
            &collect_side(&[report("serve-lan", metric, a)]),
            &collect_side(&[report("serve-lan", metric, b)]),
        );
        assert_eq!(rows.len(), 1);
        (rows[0].worsening, rows[0].verdict)
    }

    #[test]
    fn lower_is_better_metrics_worsen_upwards() {
        let (change, v) = verdict("job_latency_ms", &[25.0, 25.1, 25.2], &[35.0, 35.1, 35.2]);
        assert!((change - 0.3984).abs() < 1e-3, "{change}");
        assert_eq!(v, Verdict::Worse);
        let (_, v) = verdict("job_latency_ms", &[25.0, 25.1, 25.2], &[25.5, 25.4, 25.6]);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn higher_is_better_metrics_worsen_downwards() {
        let (change, v) = verdict("jobs_per_s", &[80.0, 80.0, 80.0], &[50.0, 50.0, 50.0]);
        assert!((change - 0.375).abs() < 1e-9);
        assert_eq!(v, Verdict::Worse);
        let (change, v) = verdict("jobs_per_s", &[80.0, 80.0, 80.0], &[90.0, 90.0, 90.0]);
        assert!(change < 0.0);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        // A's own runs span 80 % of their median: far beyond any bound.
        let (_, v) = verdict("job_latency_ms", &[15.0, 25.0, 35.0], &[24.0, 25.0, 26.0]);
        assert_eq!(v, Verdict::Unresolved);
        let (_, v) = verdict("job_latency_ms", &[15.0, 25.0, 35.0], &[10.0, 11.0, 12.0]);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn traced_runs_and_foreign_metrics_are_ignored() {
        let mut traced = report("serve-lan", "job_latency_ms", &[99.0]);
        if let Json::Obj(fields) = &mut traced {
            if let Json::Arr(runs) = &mut fields[0].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    run[1].1 = Json::from(true);
                }
            }
        }
        assert!(collect_side(&[traced]).is_empty());
        let side = collect_side(&[report("serve-lan", "not_a_metric", &[1.0])]);
        assert!(compare(&side, &side).is_empty());
    }
}
