//! Order statistics for the report: medians, fixed percentiles and the
//! rule that says which tail percentile a sample count supports.

/// The tail percentiles a workload may be assigned, highest first.
pub const TAIL_CANDIDATES: [u32; 3] = [95, 90, 75];

/// Samples that must lie beyond a tail percentile for it to be
/// reported (choosing-metrics §1).
pub const MIN_BEYOND_TAIL: usize = 10;

/// A duration in milliseconds, the unit latencies are reported in.
#[must_use]
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p`-th percentile (nearest rank on the sorted sample).
///
/// # Panics
///
/// On an empty sample: every workload yields at least one operation.
#[must_use]
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median, averaging the middle pair of an even-sized sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
#[must_use]
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100).max(1).min(n)
}

/// The highest candidate percentile with at least
/// [`MIN_BEYOND_TAIL`] samples beyond it, if any.
#[must_use]
pub fn highest_supported_tail(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND_TAIL)
}

/// Quartile spread (Q3 − Q1) ÷ median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method) — the
/// acceptance rule's measure of run-to-run noise.
#[must_use]
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (quantile(3) - quantile(1)).abs() / mid.abs()
    }
}

/// Relative cost of a treatment measured on paired samples `(without,
/// with)` of the same operation: the median of the differences over the
/// median without. Pairing keeps what differs between operations — a
/// job's position in its burst, a panel's size — out of the estimate.
#[must_use]
pub fn paired_overhead(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let differences: Vec<f64> = pairs.iter().map(|(without, with)| with - without).collect();
    let base: Vec<f64> = pairs.iter().map(|(without, _)| *without).collect();
    median(&differences) / median(&base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), 50.0);
        assert_eq!(percentile(&samples, 75), 75.0);
        assert_eq!(percentile(&samples, 95), 95.0);
        assert_eq!(percentile(&samples, 100), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 90), 3.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 40 samples: p75 leaves exactly 10 beyond, p90 only 4.
        assert_eq!(samples_beyond(40, 75), 10);
        assert_eq!(highest_supported_tail(40), Some(75));
        assert_eq!(highest_supported_tail(39), None);
        // 100 samples support p90, 200 support p95.
        assert_eq!(highest_supported_tail(100), Some(90));
        assert_eq!(highest_supported_tail(199), Some(90));
        assert_eq!(highest_supported_tail(200), Some(95));
    }

    #[test]
    fn paired_overhead_ignores_what_differs_between_operations() {
        // Operations of very different size, each 1 slower when treated.
        let pairs = [(10.0, 11.0), (100.0, 101.0), (1000.0, 1001.0)];
        assert!((paired_overhead(&pairs) - 0.01).abs() < 1e-12);
        assert_eq!(paired_overhead(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&samples);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        assert_eq!(quartile_spread(&[5.0; 10]), 0.0);
    }
}
