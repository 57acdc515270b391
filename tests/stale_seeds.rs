//! `gendpr_sched_stale_seed_commits_total` counts the records committed
//! behind a released union their seed did not cover — the measurement a
//! decision about re-running on a stale seed needs. The counter is
//! process-global, so this suite is one test in a binary of its own.

use gendpr::core::config::{FederationConfig, GwasParams};
use gendpr::core::runtime::RuntimeOptions;
use gendpr::core::serving::ServiceFederation;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::service::daemon::AssessmentService;
use gendpr::service::ledger::ReleaseLedger;
use gendpr::service::{telemetry, SchedulerConfig};
use gendpr::stats::lr::LrTestParams;
use std::net::TcpListener;
use std::time::Duration;

fn two_lane_daemon(tag: &str) -> AssessmentService {
    let cohort = SyntheticCohort::builder()
        .snps(100)
        .case_individuals(120)
        .reference_individuals(100)
        .seed(41)
        .drift(0.25)
        .build();
    let params = GwasParams {
        maf_cutoff: 0.05,
        ld_cutoff: 1e-5,
        lr: LrTestParams {
            false_positive_rate: 0.1,
            power_threshold: 0.6,
        },
    };
    let options = RuntimeOptions {
        timeout: Duration::from_secs(30),
        ..RuntimeOptions::default()
    };
    let lanes = (0..2)
        .map(|_| {
            ServiceFederation::start_in_memory(
                FederationConfig::new(3).with_seed(29),
                params,
                &cohort,
                options,
            )
            .expect("lane starts")
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("gendpr-stale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    AssessmentService::start_with(
        lanes,
        ReleaseLedger::open(dir.join("ledger.bin")).unwrap(),
        cohort.as_ref(),
        params,
        TcpListener::bind("127.0.0.1:0").expect("ephemeral client listener"),
        SchedulerConfig {
            workers: 2,
            max_queue: 16,
            ..SchedulerConfig::default()
        },
    )
    .expect("daemon starts")
}

#[test]
fn stale_seed_commits_are_counted_where_they_are_committed() {
    let stale = telemetry::sched_stale_seed_commits();

    // Sequential: every job is seeded with exactly what is committed.
    let mut service = two_lane_daemon("sequential");
    let first = service.execute((0..60).collect(), 0).expect("certifies");
    let second = service.execute((30..100).collect(), 0).expect("certifies");
    service.stop().expect("daemon drains cleanly");
    assert!(!first.released.is_empty() && second.forced == first.released);
    assert_eq!(stale.get(), 0, "a sequential workload has no stale seed");

    // Overlapping: both tickets are dispatched against the empty ledger
    // (the first stalled so they are certainly in flight together), so
    // the second commits behind a release its seed never saw.
    let service = two_lane_daemon("overlapping");
    service.pause_dispatch();
    let tickets = [
        service
            .submit_ticket((0..60).collect(), 0)
            .expect("admitted"),
        service
            .submit_ticket((30..100).collect(), 0)
            .expect("admitted"),
    ];
    service.inject_job_stall(1, 150);
    service.resume_dispatch();
    let [first, second] = tickets.map(|t| t.wait().expect("certifies"));
    service.stop().expect("daemon drains cleanly");
    assert!(!first.released.is_empty() && second.forced.is_empty());
    assert_eq!(stale.get(), 1, "job 2 committed behind job 1's release");
}
