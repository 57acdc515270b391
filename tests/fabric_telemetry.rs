//! The in-memory fabric tallies its frames in plain integers and folds
//! them into the global transport series once per hand-over. After a run
//! the rendered series must read as if every frame had been counted and
//! observed on its own: one sent and one received frame, and one
//! `gendpr_net_frame_bytes` observation in each direction, per message of
//! the run's own traffic accounting. The global registry is per process,
//! so this file holds one test and nothing else moves frames beside it.

use gendpr::core::config::{FederationConfig, GwasParams};
use gendpr::core::runtime::{run_federation_with, RuntimeOptions};
use gendpr::genomics::synth::SyntheticCohort;
use std::time::Duration;

/// The value of the sample `series` (name and labels, as rendered) in
/// the global exposition; a series not registered yet reads 0.
fn sample(series: &str) -> f64 {
    gendpr::obs::render()
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .map_or(0.0, |value| value.parse().expect("a numeric sample"))
}

const SERIES: [&str; 6] = [
    "gendpr_net_frames_sent_total",
    "gendpr_net_frames_received_total",
    "gendpr_net_frame_bytes_count{dir=\"sent\"}",
    "gendpr_net_frame_bytes_count{dir=\"received\"}",
    "gendpr_net_frame_bytes_sum{dir=\"sent\"}",
    "gendpr_net_frame_bytes_sum{dir=\"received\"}",
];

#[test]
fn the_rendered_frame_series_count_every_message_of_an_in_memory_run() {
    let cohort = SyntheticCohort::builder()
        .snps(60)
        .case_individuals(90)
        .reference_individuals(80)
        .seed(7)
        .build();
    let options = RuntimeOptions {
        timeout: Duration::from_secs(30),
        ..RuntimeOptions::default()
    };
    let before = SERIES.map(sample);
    let report = run_federation_with(
        FederationConfig::new(3),
        GwasParams::secure_genome_defaults(),
        &cohort,
        None,
        options,
    )
    .expect("the run certifies");
    let read = |i: usize| sample(SERIES[i]) - before[i];
    let (messages, wire_bytes) = (
        report.traffic.messages as f64,
        report.traffic.wire_bytes as f64,
    );
    assert!(messages > 0.0);
    for (i, expected) in [
        messages, messages, messages, messages, wire_bytes, wire_bytes,
    ]
    .into_iter()
    .enumerate()
    {
        assert_eq!(read(i), expected, "{}", SERIES[i]);
    }
    let inf = sample("gendpr_net_frame_bytes_bucket{dir=\"sent\",le=\"+Inf\"}");
    assert_eq!(inf, sample(SERIES[2]), "the +Inf bucket closes the count");
}
