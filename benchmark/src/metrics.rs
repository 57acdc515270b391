//! The metric catalogue: every name the benchmark reports, with its
//! unit, direction and — for end-to-end metrics — the bound by which it
//! may worsen before a change counts as a regression. `BENCHMARK.json`
//! carries the same table for the driver; a unit test keeps the two in
//! step, and `README.md` explains each row.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

/// The eight end-to-end metrics, the same names on every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "offers_per_job",
        unit: "1/job",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "msgs_per_job",
        unit: "1/job",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_job",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics a traced run reports, named crate.module.
pub const PER_LAYER: [Layer; 48] = [
    higher("genomics.synth_mcells_per_s", "Mcell/s"),
    lower("genomics.columnar_transpose_ms", "ms"),
    lower("genomics.column_counts_ms", "ms"),
    lower("stats.maf_rank_ms", "ms"),
    lower("stats.ld_pair_ns", "ns"),
    lower("stats.ld_pairs", "count"),
    lower("stats.lr_build_ms", "ms"),
    lower("stats.lr_search_ms", "ms"),
    lower("stats.lr_search_threaded_ms", "ms"),
    lower("stats.lr_candidates", "count"),
    higher("stats.lr_accept_ratio", "ratio"),
    higher("crypto.aead_seal_mb_s", "MB/s"),
    higher("crypto.aead_open_mb_s", "MB/s"),
    higher("crypto.sha256_mb_s", "MB/s"),
    lower("crypto.x25519_us", "us"),
    lower("tee.attest_handshake_ms", "ms"),
    lower("tee.session_roundtrip_us", "us"),
    lower("fednet.wire_encode_ns", "ns"),
    lower("fednet.wire_decode_ns", "ns"),
    lower("fednet.mem_roundtrip_us", "us"),
    lower("fednet.tcp_roundtrip_us", "us"),
    lower("fednet.msgs_per_ld_pair", "1/pair"),
    lower("core.protocol.inproc_ms", "ms"),
    lower("core.runtime.phase_aggregation_ms", "ms"),
    lower("core.runtime.phase_indexing_ms", "ms"),
    lower("core.runtime.phase_ld_ms", "ms"),
    lower("core.runtime.phase_lr_ms", "ms"),
    lower("core.runtime.overhead_ms", "ms"),
    lower("core.runtime.elect_attest_ms", "ms"),
    lower("core.serving.lane_setup_ms", "ms"),
    lower("core.serving.job_ms", "ms"),
    lower("core.serving.job_wan_ms", "ms"),
    lower("service.daemon.ticket_ms", "ms"),
    lower("service.daemon.overhead_ms", "ms"),
    lower("service.client.status_roundtrip_ms", "ms"),
    lower("service.sched.queue_wait_p50_ms", "ms"),
    higher("service.sched.worker_busy_share", "ratio"),
    lower("service.admission.attempts", "count"),
    lower("service.admission.refusals", "count"),
    lower("service.ledger.append_ms", "ms"),
    lower("service.ledger.fsyncs_per_job", "1/job"),
    lower("service.ledger.bytes_per_job", "bytes"),
    lower("service.ledger.open_ms_per_krecord", "ms"),
    lower("service.idle_cpu_ms_per_s", "ms/s"),
    lower("service.cpu_ms_per_job", "ms"),
    lower("service.stop_ms", "ms"),
    lower("trace.overhead_share", "ratio"),
    higher("trace.accounted_share", "ratio"),
];

fn lookup(name: &str) -> Option<(&'static str, Better)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find_map(|(n, unit, better)| (n == name).then_some((unit, better)))
}

#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    lookup(name).map(|(unit, _)| unit)
}

#[must_use]
pub fn direction_of(name: &str) -> Option<Better> {
    lookup(name).map(|(_, better)| better)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// harness emits. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).expect(key).to_string();

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, metric) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(row, "name"), metric.name);
            assert_eq!(text(row, "unit"), metric.unit);
            assert_eq!(text(row, "better"), metric.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(metric.bound));
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, metric) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(row, "name"), metric.name);
            assert_eq!(text(row, "unit"), metric.unit);
            assert_eq!(text(row, "better"), metric.better.as_str());
        }
        let workloads: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(unit_of("jobs_per_s"), Some("1/s"));
        assert_eq!(unit_of("nope"), None);
    }
}
