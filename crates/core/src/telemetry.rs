//! Global protocol metrics for the federation runtime.
//!
//! Mirrors the per-run [`PhaseTimings`] the leader already measures into
//! the process-global `gendpr-obs` registry, together with
//! subset-combination counts and the failure detector's suspicions, so
//! a long-running daemon can attribute latency to
//! the MAF/LD/LR phases across jobs the way the paper's §6 tables do for
//! single runs. Everything here observes; nothing feeds back into the
//! protocol.
//!
//! [`PhaseTimings`]: crate::protocol::PhaseTimings

use gendpr_obs as obs;
use std::sync::OnceLock;

const PHASE_HELP: &str = "Leader wall-clock per protocol phase";

/// Histogram of leader wall-clock for one protocol phase; `phase` is one of
/// `aggregation`, `maf`, `ld`, `lr`.
pub fn phase_seconds(phase: &'static str) -> obs::Histogram {
    obs::histogram(
        "gendpr_phase_seconds",
        PHASE_HELP,
        &[("phase", phase)],
        obs::DURATION_BUCKETS,
    )
}

/// `C(G, G−f)` evaluation subsets walked by LD/LR scans.
pub fn subsets_evaluated() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_subset_evaluations_total",
            "Collusion-tolerant evaluation subsets C(G, G-f) walked",
            &[],
        )
    })
}

/// Members declared suspect by the failure detector.
pub fn suspicions() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_suspicions_total",
            "Members declared suspect by the failure detector",
            &[],
        )
    })
}

/// LD pairs answered from shard-lane scan caches during a merged job.
pub fn shard_cache_pairs() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_shard_cache_pairs_total",
            "LD pairs served from shard-lane scan caches during merges",
            &[],
        )
    })
}

/// LD pairs a merged job had to resolve with live oracle exchanges
/// (shard-boundary pairs and replay divergence after a boundary).
pub fn shard_oracle_pairs() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_shard_oracle_pairs_total",
            "LD pairs resolved by live oracle exchanges during merges",
            &[],
        )
    })
}

/// Registers every protocol metric eagerly so the exposition endpoint
/// shows them (at zero) before the first job runs.
pub fn register_protocol_metrics() {
    for phase in ["aggregation", "maf", "ld", "lr"] {
        let _ = phase_seconds(phase);
    }
    subsets_evaluated();
    suspicions();
    shard_cache_pairs();
    shard_oracle_pairs();
    gendpr_stats::lr::register_lr_metrics();
}
