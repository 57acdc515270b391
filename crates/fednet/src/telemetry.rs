//! Global transport metrics, layered over the per-link [`TrafficMatrix`].
//!
//! The [`crate::metrics::TrafficMatrix`] stays the source of truth for the
//! per-link accounting that `gendpr status` and the bandwidth tables report;
//! this module mirrors the same events into the process-global
//! `gendpr-obs` registry so they show up on `/metrics` with histograms and
//! failure counters the matrix cannot express. Handles are resolved once
//! through `OnceLock` statics, so the per-frame cost is one atomic add
//! (none on the in-memory fabric, which adds a hand-over's at once).
//!
//! [`TrafficMatrix`]: crate::metrics::TrafficMatrix

use gendpr_obs as obs;
use std::sync::OnceLock;

/// Frames handed to a transport for delivery (any transport).
pub(crate) fn frames_sent() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_net_frames_sent_total",
            "Frames sent over the federation fabric",
            &[],
        )
    })
}

/// Frames received and decoded from the fabric (any transport).
pub(crate) fn frames_received() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_net_frames_received_total",
            "Frames received over the federation fabric",
            &[],
        )
    })
}

/// On-the-wire frame sizes, sent direction.
pub(crate) fn frame_bytes_sent() -> &'static obs::Histogram {
    static H: OnceLock<obs::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        obs::histogram(
            "gendpr_net_frame_bytes",
            "On-the-wire frame sizes by direction",
            &[("dir", "sent")],
            obs::BYTE_BUCKETS,
        )
    })
}

/// On-the-wire frame sizes, received direction.
pub(crate) fn frame_bytes_received() -> &'static obs::Histogram {
    static H: OnceLock<obs::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        obs::histogram(
            "gendpr_net_frame_bytes",
            "On-the-wire frame sizes by direction",
            &[("dir", "received")],
            obs::BYTE_BUCKETS,
        )
    })
}

/// Frame sizes on the in-memory fabric, which delivers a frame as it sends
/// it: both directions' series include this one, so a frame is observed
/// once and counts as sent and as received.
pub(crate) fn frame_bytes_in_memory() -> &'static obs::Histogram {
    static H: OnceLock<obs::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        let both = obs::Histogram::detached(obs::BYTE_BUCKETS);
        frame_bytes_sent().include(&both);
        frame_bytes_received().include(&both);
        both
    })
}

/// The in-memory fabric's frames, counted in plain integers and added to
/// the global series once per hand-over: they read as if each had been.
#[derive(Debug, Default)]
pub(crate) struct FrameTally {
    frames: u64,
    bytes: u64,
    buckets: [u64; obs::BYTE_BUCKETS.len() + 1],
}

impl FrameTally {
    pub(crate) fn count(&mut self, len: usize) {
        self.frames += 1;
        self.bytes += len as u64;
        self.buckets[obs::BYTE_BUCKETS.partition_point(|&b| b < len as f64)] += 1;
    }

    pub(crate) fn fold(&mut self) {
        if self.frames == 0 {
            return;
        }
        frames_sent().add(self.frames);
        frames_received().add(self.frames);
        frame_bytes_in_memory().observe_counts(&self.buckets, self.bytes as f64);
        *self = Self::default();
    }
}

/// Sends that the transport gave up on (fault drop, dead peer).
pub(crate) fn frames_dropped() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_net_send_failures_total",
            "Sends abandoned by the transport",
            &[("kind", "dropped")],
        )
    })
}

/// Successful re-dials after a write failed on an established connection.
pub(crate) fn reconnects() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_net_reconnects_total",
            "Connections re-established after a peer died or restarted",
            &[],
        )
    })
}

/// Individual failed connect attempts inside the retry-with-backoff loop.
pub(crate) fn connect_retries() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_net_connect_retries_total",
            "Failed dial attempts that were retried with backoff",
            &[],
        )
    })
}

/// Dial budgets exhausted without a connection.
pub(crate) fn connect_timeouts() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_net_connect_timeouts_total",
            "Dials that exhausted their connect budget",
            &[],
        )
    })
}

/// Registers every transport metric eagerly so the exposition endpoint
/// shows them (at zero) before the first frame moves. Daemons call this at
/// startup; lazy call sites stay correct without it.
pub fn register_transport_metrics() {
    frames_sent();
    frames_received();
    frame_bytes_sent();
    frame_bytes_received();
    frames_dropped();
    reconnects();
    connect_retries();
    connect_timeouts();
}
