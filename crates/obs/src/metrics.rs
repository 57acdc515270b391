//! Process-global metrics: counters, gauges, and histograms.
//!
//! The registry is a flat map from metric family (name + HELP + TYPE) to
//! label series, in the spirit of the Prometheus client libraries but with
//! nothing beyond `std`. Handles are cheap `Arc`-backed clones over atomics,
//! so instrumented hot paths pay one relaxed atomic RMW per update and never
//! take the registry lock after the handle is created. Registration is
//! get-or-create: asking for the same `(name, labels)` twice returns a handle
//! to the same underlying series, which lets call sites own `OnceLock`
//! statics without coordinating.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Locks a mutex, recovering the guard from a poisoned lock. Metrics are
/// monotone aggregates, so state observed mid-panic is still meaningful.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge: a value that can go up and down.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram over fixed upper bounds (cumulative buckets are materialised
/// only at render time; observation touches exactly one bucket).
struct HistogramInner {
    /// Ascending bucket upper bounds, exclusive of the implicit `+Inf`.
    bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; one extra slot for `+Inf`.
    buckets: Vec<AtomicU64>,
    /// Sum of all observed values, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
    /// Total number of observations.
    count: AtomicU64,
    /// A detached histogram whose observations this series counts as its
    /// own too (see [`Histogram::include`]).
    part: OnceLock<Histogram>,
}

/// Histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let bounds: Vec<f64> = bounds.to_vec();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds,
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
            part: OnceLock::new(),
        }))
    }

    /// A histogram over `bounds` outside every registry: a share of
    /// observations that registered series count through
    /// [`Histogram::include`].
    pub fn detached(bounds: &[f64]) -> Self {
        Self::new(bounds)
    }

    /// Counts every observation of `part`, past and future, in this series
    /// too: its buckets, count and sum read as if each had been observed
    /// here as well. One observation of a part shared by several series
    /// costs what one [`Histogram::observe`] does, not one per series.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ, if `part` includes a histogram
    /// itself, or if this series already includes a different part.
    pub fn include(&self, part: &Histogram) {
        assert_eq!(self.0.bounds, part.0.bounds, "a part must share the bounds");
        assert!(
            part.0.part.get().is_none(),
            "a part includes nothing itself"
        );
        let set = self.0.part.get_or_init(|| part.clone());
        assert!(Arc::ptr_eq(&set.0, &part.0), "a series includes one part");
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        // First bucket whose upper bound is >= value; NaN lands in +Inf.
        let idx = self.0.bounds.partition_point(|&b| b < value);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.add_to_sum(value);
    }

    /// Records a batch counted elsewhere, as observing each would:
    /// `counts[i]` values in bucket `i` (`+Inf` last), adding up to `sum`.
    pub fn observe_counts(&self, counts: &[u64], sum: f64) {
        for (bucket, &n) in self.0.buckets.iter().zip(counts) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        let total = counts.iter().sum();
        self.0.count.fetch_add(total, Ordering::Relaxed);
        self.add_to_sum(sum);
    }

    fn add_to_sum(&self, value: f64) {
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations, its part's included.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed) + self.0.part.get().map_or(0, Histogram::count)
    }

    /// Sum of all observed values, its part's included.
    pub fn sum(&self) -> f64 {
        let own = f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed));
        match self.0.part.get() {
            Some(part) => own + part.sum(),
            None => own,
        }
    }

    /// Ascending bucket upper bounds, exclusive of the implicit `+Inf`.
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// A snapshot of the non-cumulative per-bucket counts; one extra
    /// trailing slot for `+Inf`. Subtracting two snapshots isolates a
    /// measurement window, which is how the load harness derives
    /// per-phase percentiles from the cumulative process registry. Its
    /// part's observations are included.
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        if let Some(part) = self.0.part.get() {
            for (count, extra) in counts.iter_mut().zip(part.bucket_counts()) {
                *count += extra;
            }
        }
        counts
    }

    /// Estimated `q`-quantile (`0 < q <= 1`) of everything observed so
    /// far; see [`quantile_from_counts`].
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_counts(self.bounds(), &self.bucket_counts(), q)
    }
}

/// Estimated `q`-quantile of a histogram given its bucket `bounds` and
/// non-cumulative `counts` (one extra trailing `+Inf` slot), using linear
/// interpolation within the covering bucket — the same estimator as
/// Prometheus's `histogram_quantile`. Returns `0.0` for an empty
/// histogram; observations above the last finite bound clamp to it.
pub fn quantile_from_counts(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    assert!(
        counts.len() == bounds.len() + 1,
        "counts must cover every bound plus +Inf"
    );
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        let below = cumulative;
        cumulative += count;
        if cumulative >= rank {
            if i == bounds.len() {
                // Inside +Inf: the best finite statement is the last bound.
                return bounds.last().copied().unwrap_or(f64::INFINITY);
            }
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let fraction = if count == 0 {
                1.0
            } else {
                (rank - below) as f64 / count as f64
            };
            return lower + (bounds[i] - lower) * fraction;
        }
    }
    bounds.last().copied().unwrap_or(f64::INFINITY)
}

/// Upper bounds for wall-clock spans: 500µs to 60s, roughly ×2.5 apart.
pub const DURATION_BUCKETS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0,
];

/// Upper bounds for payload sizes: 64 B to 64 MiB, ×4 apart.
pub const BYTE_BUCKETS: &[f64] = &[
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0,
    67108864.0,
];

/// One label series within a family.
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// All series sharing a metric name, HELP string, and TYPE.
struct Family {
    help: &'static str,
    kind: &'static str,
    /// Keyed by the rendered label pairs (`name="value",...`), empty for an
    /// unlabelled series. BTreeMap keeps exposition order deterministic.
    series: BTreeMap<String, Series>,
}

/// A metrics registry. Most callers want [`global`]; independent registries
/// exist only so tests can render in isolation.
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// Gets or creates a counter.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        let series = self.series(name, help, "counter", labels, || {
            Series::Counter(Counter(Arc::new(AtomicU64::new(0))))
        });
        match series {
            Series::Counter(c) => c,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Gets or creates a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        let series = self.series(name, help, "gauge", labels, || {
            Series::Gauge(Gauge(Arc::new(AtomicI64::new(0))))
        });
        match series {
            Series::Gauge(g) => g,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Gets or creates a histogram. `bounds` only matter on first creation;
    /// later calls for the same series return the existing buckets.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let series = self.series(name, help, "histogram", labels, || {
            Series::Histogram(Histogram::new(bounds))
        });
        match series {
            Series::Histogram(h) => h,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Shared get-or-create walking family then label series. Returns a
    /// cheap clone of the series handle.
    fn series(
        &self,
        name: &'static str,
        help: &'static str,
        kind: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let key = label_key(labels);
        let mut families = lock(&self.families);
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} registered as both {} and {kind}",
            family.kind
        );
        let series = family.series.entry(key).or_insert_with(make);
        match series {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, then one line per
    /// sample, with histogram buckets cumulated and closed by `+Inf`.
    pub fn render(&self) -> String {
        let families = lock(&self.families);
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&sample(name, "", labels, "", &c.get().to_string()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&sample(name, "", labels, "", &g.get().to_string()));
                    }
                    Series::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (bound, count) in h.0.bounds.iter().zip(&counts) {
                            cumulative += count;
                            let le = format!("le=\"{bound}\"");
                            out.push_str(&sample(
                                name,
                                "_bucket",
                                labels,
                                &le,
                                &cumulative.to_string(),
                            ));
                        }
                        let total = h.count();
                        out.push_str(&sample(
                            name,
                            "_bucket",
                            labels,
                            "le=\"+Inf\"",
                            &total.to_string(),
                        ));
                        out.push_str(&sample(name, "_sum", labels, "", &format!("{}", h.sum())));
                        out.push_str(&sample(name, "_count", labels, "", &total.to_string()));
                    }
                }
            }
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// One exposition line: `name[suffix][{labels[,extra]}] value`.
fn sample(name: &str, suffix: &str, labels: &str, extra: &str, value: &str) -> String {
    let block = match (labels.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (true, false) => format!("{{{extra}}}"),
        (false, true) => format!("{{{labels}}}"),
        (false, false) => format!("{{{labels},{extra}}}"),
    };
    format!("{name}{suffix}{block} {value}\n")
}

/// Canonical series key: labels sorted by name, values escaped per the
/// exposition format (backslash, double quote, newline).
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect::<Vec<_>>()
        .join(",")
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The process-global registry that [`crate::counter`]-style helpers and the
/// exposition endpoint read.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_series() {
        let reg = Registry::new();
        let a = reg.counter("t_total", "help", &[("k", "v")]);
        let b = reg.counter("t_total", "help", &[("k", "v")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let text = reg.render();
        assert!(text.contains("# TYPE t_total counter"));
        assert!(text.contains("t_total{k=\"v\"} 3"));
    }

    #[test]
    fn histogram_buckets_cumulate_in_render() {
        let reg = Registry::new();
        let h = reg.histogram("t_seconds", "help", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5.55).abs() < 1e-12);
        let text = reg.render();
        assert!(text.contains("t_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("t_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("t_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("t_seconds_count 3"));
    }

    #[test]
    fn a_batch_of_counts_renders_as_its_observations() {
        let bounds = [64.0, 1024.0];
        let (batched, each) = (Registry::new(), Registry::new());
        let values = [10.0, 100.0, 5000.0, 64.0, 700.0];
        let mut counts = [0u64; 3];
        for value in values {
            counts[bounds.partition_point(|&b| b < value)] += 1;
            each.histogram("t_bytes", "help", &[], &bounds)
                .observe(value);
        }
        let h = batched.histogram("t_bytes", "help", &[], &bounds);
        h.observe_counts(&counts, values.iter().sum());
        assert_eq!(batched.render(), each.render());
    }

    #[test]
    fn an_included_part_counts_in_every_series_that_includes_it() {
        let bounds = [64.0, 1024.0];
        let shared = Registry::new();
        let [sent, received] = ["sent", "received"]
            .map(|dir| shared.histogram("t_bytes", "help", &[("dir", dir)], &bounds));
        let both = Histogram::detached(&bounds);
        sent.include(&both);
        received.include(&both);
        sent.include(&both);
        // The same traffic observed into each series.
        let twice = Registry::new();
        let [sent2, received2] = ["sent", "received"]
            .map(|dir| twice.histogram("t_bytes", "help", &[("dir", dir)], &bounds));
        for value in [10.0, 100.0, 5000.0, 64.0] {
            both.observe(value);
            sent2.observe(value);
            received2.observe(value);
        }
        sent.observe(700.0);
        sent2.observe(700.0);
        received.observe(3.0);
        received2.observe(3.0);
        assert_eq!(shared.render(), twice.render());
        assert_eq!(sent.count(), 5);
        assert_eq!(sent.sum(), 5874.0);
        assert_eq!(received.bucket_counts(), vec![3, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "a series includes one part")]
    fn a_series_includes_one_part() {
        let h = Histogram::detached(&[1.0]);
        h.include(&Histogram::detached(&[1.0]));
        h.include(&Histogram::detached(&[1.0]));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("t_q_seconds", "help", &[], &[0.1, 1.0, 10.0]);
        for _ in 0..90 {
            h.observe(0.05);
        }
        for _ in 0..10 {
            h.observe(0.5);
        }
        assert_eq!(h.bounds(), &[0.1, 1.0, 10.0]);
        assert_eq!(h.bucket_counts(), vec![90, 10, 0, 0]);
        // p50 lands mid-way through the first bucket, p95 inside the second.
        assert!((h.quantile(0.5) - 0.1 * (50.0 / 90.0)).abs() < 1e-12);
        let p95 = h.quantile(0.95);
        assert!(p95 > 0.1 && p95 <= 1.0, "p95 = {p95}");
        // Empty histogram and +Inf overflow behave predictably.
        assert_eq!(quantile_from_counts(&[1.0], &[0, 0], 0.5), 0.0);
        assert_eq!(quantile_from_counts(&[1.0], &[0, 3], 0.99), 1.0);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = Registry::new();
        let a = reg.gauge("t_depth", "help", &[("a", "1"), ("b", "2")]);
        let b = reg.gauge("t_depth", "help", &[("b", "2"), ("a", "1")]);
        a.set(7);
        assert_eq!(b.get(), 7);
    }
}
