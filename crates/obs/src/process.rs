//! Process-level resource gauges, sampled from `/proc` on Linux.
//!
//! An operator, and the CLI suite's drift test, read the daemon's own
//! resource footprint from the exposition its job metrics are in: thread
//! count, open file descriptors and resident set size, as
//! `gendpr_process_threads`, `gendpr_process_open_fds` and
//! `gendpr_process_rss_bytes`. [`sample`] refreshes all three; it is
//! called on every render (both the HTTP endpoint and
//! `status --metrics`), so each scrape sees current values. Off Linux —
//! or when `/proc` is unreadable — the gauges simply stay at zero;
//! nothing here can fail a scrape.

use crate::metrics;

/// Refreshes the process gauges from `/proc/self`. Cheap (two small
/// pseudo-file reads and one directory scan) and infallible: on any
/// read error the affected gauge keeps its last value.
pub fn sample() {
    // Touch the gauges unconditionally so the series exist (at zero)
    // even where /proc does not.
    let threads = crate::gauge(
        "gendpr_process_threads",
        "OS threads in the daemon process",
        &[],
    );
    let fds = crate::gauge(
        "gendpr_process_open_fds",
        "Open file descriptors in the daemon process",
        &[],
    );
    let rss = crate::gauge(
        "gendpr_process_rss_bytes",
        "Resident set size of the daemon process in bytes",
        &[],
    );
    sample_into(&threads, &fds, &rss);
}

#[cfg(target_os = "linux")]
fn sample_into(threads: &metrics::Gauge, fds: &metrics::Gauge, rss: &metrics::Gauge) {
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("Threads:") {
                if let Ok(n) = rest.trim().parse::<i64>() {
                    threads.set(n);
                }
            } else if let Some(rest) = line.strip_prefix("VmRSS:") {
                // "VmRSS:      1234 kB"
                if let Some(kb) = rest.split_whitespace().next() {
                    if let Ok(n) = kb.parse::<i64>() {
                        rss.set(n * 1024);
                    }
                }
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir("/proc/self/fd") {
        // The iterator itself holds one fd; don't count it.
        let count = entries.count() as i64;
        fds.set((count - 1).max(0));
    }
}

#[cfg(not(target_os = "linux"))]
fn sample_into(_threads: &metrics::Gauge, _fds: &metrics::Gauge, _rss: &metrics::Gauge) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_populates_the_gauges() {
        sample();
        let rendered = crate::render();
        assert!(rendered.contains("# TYPE gendpr_process_threads gauge"));
        assert!(rendered.contains("# TYPE gendpr_process_open_fds gauge"));
        assert!(rendered.contains("# TYPE gendpr_process_rss_bytes gauge"));
        #[cfg(target_os = "linux")]
        {
            let threads = crate::gauge(
                "gendpr_process_threads",
                "OS threads in the daemon process",
                &[],
            );
            assert!(threads.get() >= 1, "a live process has at least one thread");
            let rss = crate::gauge(
                "gendpr_process_rss_bytes",
                "Resident set size of the daemon process in bytes",
                &[],
            );
            assert!(rss.get() > 0, "a live process has resident memory");
        }
    }
}
