//! SNP-sharded assessment: partitioning the panel across parallel
//! sub-federations must change *where* phases 1–2 run, never *what* the
//! job certifies. For every shard count, every transport, a shard-lane
//! crash mid-workload and a seeded-ledger restart, the releases and
//! certificates are byte-identical to the unsharded (`--shards 1`) run.

use gendpr::core::config::{FederationConfig, GwasParams};
use gendpr::core::runtime::RuntimeOptions;
use gendpr::core::serving::{JobOutcome, JobSpec, ServiceFederation};
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::PeerId;
use gendpr::genomics::cohort::Cohort;
use gendpr::genomics::snp::SnpId;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::service::daemon::{AssessmentService, Supervision};
use gendpr::service::ledger::{LedgerRecord, ReleaseLedger};
use gendpr::service::sched::LaneFactory;
use gendpr::service::{SchedulerConfig, ShardLaneFactory, ShardPlan, ShardSet, ShardSpec};
use gendpr::stats::lr::LrTestParams;
use proptest::prelude::*;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

/// 448 SNPs = 7 words of 64: wide enough for real multi-shard plans
/// (2, 4 and 7 shards all survive the degrade rule) with a ragged tail
/// (the last word is the panel's own edge, not a shard artifact).
const SNPS: usize = 448;

fn study() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(SNPS)
        .case_individuals(120)
        .reference_individuals(100)
        .seed(41)
        .drift(0.25)
        .build()
}

fn config(g: usize) -> FederationConfig {
    FederationConfig::new(g).with_seed(29)
}

fn params() -> GwasParams {
    GwasParams {
        maf_cutoff: 0.05,
        ld_cutoff: 1e-5,
        lr: LrTestParams {
            false_positive_rate: 0.1,
            power_threshold: 0.6,
        },
    }
}

fn options() -> RuntimeOptions {
    RuntimeOptions {
        timeout: TIMEOUT,
        ..RuntimeOptions::default()
    }
}

fn temp_ledger(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gendpr-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("ledger.bin")
}

fn lane(cohort: &Cohort, tcp: bool) -> ServiceFederation {
    lane_with(cohort, tcp, options())
}

fn lane_with(cohort: &Cohort, tcp: bool, options: RuntimeOptions) -> ServiceFederation {
    if tcp {
        let (roster, listeners) = ephemeral_listeners(3).expect("localhost listeners");
        let transports: Vec<TcpTransport> = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                TcpTransport::from_listener(
                    PeerId(id as u32),
                    listener,
                    &roster,
                    TcpOptions::default(),
                )
                .expect("transport from bound listener")
            })
            .collect();
        ServiceFederation::start_over(transports, config(3), params(), cohort, options)
            .expect("lane starts")
    } else {
        ServiceFederation::start_in_memory(config(3), params(), cohort, options)
            .expect("lane starts")
    }
}

/// A supervised daemon whose workers run jobs across `shards`
/// sub-federations — exactly what `gendpr serve --shards S` builds.
fn sharded_pool(shards: u32, ledger: ReleaseLedger, tcp: bool) -> AssessmentService {
    let cohort = Arc::new(study());
    let factory: LaneFactory = {
        let cohort = Arc::clone(&cohort);
        Arc::new(move || Ok(lane(cohort.as_ref().as_ref(), tcp)))
    };
    let plan = ShardPlan::new(SNPS, shards);
    let shard_factory: ShardLaneFactory = {
        let cohort = Arc::clone(&cohort);
        Arc::new(move |_shard, range| {
            let slice = cohort
                .as_ref()
                .as_ref()
                .column_range(range.start as usize, range.len as usize);
            Ok(lane(&slice, tcp))
        })
    };
    let lanes = vec![factory().expect("primary lane starts")];
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral client listener");
    AssessmentService::start_supervised(
        lanes,
        Supervision {
            factory,
            shard: Some(ShardSpec {
                plan,
                factory: shard_factory,
                max_retries: 2,
            }),
            tracker: None,
        },
        ledger,
        (*cohort).as_ref(),
        listener,
        SchedulerConfig {
            workers: 1,
            max_queue: 16,
            ..SchedulerConfig::default()
        },
    )
    .expect("daemon starts")
}

/// Strips the timing-dependent field (idle-keepalive Pongs can land in a
/// job's traffic window) so records can be compared for determinism.
fn deterministic(record: &LedgerRecord) -> LedgerRecord {
    LedgerRecord {
        traffic: Vec::new(),
        ..record.clone()
    }
}

/// The three-job workload every sharded variant must reproduce byte for
/// byte. Panels deliberately straddle shard boundaries (and job 3 lands
/// entirely inside one shard of every plan under test).
fn workload_panels() -> [Vec<u32>; 3] {
    [
        (0..300).collect(),
        (100..SNPS as u32).collect(),
        (0..60).collect(),
    ]
}

fn run_workload(mut service: AssessmentService) -> Vec<LedgerRecord> {
    let records: Vec<LedgerRecord> = workload_panels()
        .into_iter()
        .map(|panel| service.execute(panel).expect("job certifies"))
        .collect();
    service.stop().expect("daemon drains cleanly");
    records.iter().map(deterministic).collect()
}

/// The unsharded reference run each transport's sharded variants are
/// compared against, computed once.
fn baseline(tcp: bool) -> &'static Vec<LedgerRecord> {
    static MEMORY: std::sync::OnceLock<Vec<LedgerRecord>> = std::sync::OnceLock::new();
    static TCP: std::sync::OnceLock<Vec<LedgerRecord>> = std::sync::OnceLock::new();
    let cell = if tcp { &TCP } else { &MEMORY };
    cell.get_or_init(|| {
        let path = temp_ledger(&format!("baseline-{tcp}"));
        run_workload(sharded_pool(1, ReleaseLedger::open(&path).unwrap(), tcp))
    })
}

#[test]
fn sharded_runs_are_byte_identical_to_unsharded_in_memory() {
    for shards in [2u32, 4, 7] {
        let path = temp_ledger(&format!("ident-mem-{shards}"));
        let records = run_workload(sharded_pool(
            shards,
            ReleaseLedger::open(&path).unwrap(),
            false,
        ));
        assert_eq!(
            &records,
            baseline(false),
            "--shards {shards} changed a release or certificate"
        );
        assert!(records
            .iter()
            .all(|r| r.certificate.is_some() && !r.released.is_empty()));
    }
}

#[test]
fn sharded_runs_are_byte_identical_to_unsharded_over_tcp() {
    // TCP sub-federations are slower to elect; two plans cover the
    // transport axis, and the memory ↔ TCP cross-check closes the square.
    for shards in [2u32, 4] {
        let path = temp_ledger(&format!("ident-tcp-{shards}"));
        let records = run_workload(sharded_pool(
            shards,
            ReleaseLedger::open(&path).unwrap(),
            true,
        ));
        assert_eq!(
            &records,
            baseline(true),
            "--shards {shards} over TCP changed a release or certificate"
        );
    }
    assert_eq!(
        baseline(true),
        baseline(false),
        "transport changed the certified workload"
    );
}

#[test]
fn a_prefetching_merge_still_answers_from_the_shard_cache() {
    // With `prefetch_ld` on, shard lanes batch their LD rounds, but the
    // merging job on the primary lane must not re-fetch what they already
    // pooled: it costs no more traffic than with the option off, and the
    // result stays byte-identical to the unsharded run.
    let cohort = Arc::new(study());
    let spec = JobSpec {
        job_id: 1,
        panel: (0..300).map(SnpId).collect(),
        forced: vec![],
    };
    let run_sharded = |options: RuntimeOptions| {
        let factory: ShardLaneFactory = {
            let cohort = Arc::clone(&cohort);
            Arc::new(move |_shard, range| {
                let slice = cohort
                    .as_ref()
                    .as_ref()
                    .column_range(range.start as usize, range.len as usize);
                Ok(lane_with(&slice, false, options))
            })
        };
        let mut shards = ShardSet::build(&ShardSpec {
            plan: ShardPlan::new(SNPS, 4),
            factory,
            max_retries: 0,
        })
        .expect("shard lanes start");
        let mut primary = lane_with(cohort.as_ref().as_ref(), false, options);
        let outcome = shards
            .run_job(&mut primary, &spec, &[])
            .expect("sharded job certifies");
        primary.shutdown().expect("primary lane closes");
        outcome
    };
    let prefetching = RuntimeOptions {
        prefetch_ld: true,
        ..options()
    };
    let (off, on) = (run_sharded(options()), run_sharded(prefetching));
    let mut unsharded_lane = lane(cohort.as_ref().as_ref(), false);
    let unsharded = unsharded_lane.submit(&spec).expect("job certifies");
    unsharded_lane.shutdown().expect("lane closes");

    for sharded in [&off, &on] {
        assert_eq!(sharded.l_prime, unsharded.l_prime);
        assert_eq!(sharded.l_double_prime, unsharded.l_double_prime);
        assert_eq!(sharded.released, unsharded.released);
        assert_eq!(sharded.certificate, unsharded.certificate);
    }
    // `JobOutcome.traffic` is the merging job on the primary lane alone
    // (the process-global shard-cache counters are shared with
    // concurrently running tests). A merge that prefetched would ship
    // one request naming every adjacent pair of L' to every member.
    let cost = |job: &JobOutcome| {
        job.traffic.iter().fold((0, 0), |(messages, bytes), link| {
            (
                messages + link.stats.messages,
                bytes + link.stats.plaintext_bytes,
            )
        })
    };
    let ((off_messages, off_bytes), (on_messages, on_bytes)) = (cost(&off), cost(&on));
    assert!(
        on_messages <= off_messages && on_bytes <= off_bytes,
        "prefetching merge cost {on_messages} messages / {on_bytes} bytes, \
         plain merge {off_messages} / {off_bytes}"
    );
    assert!(
        off_messages < cost(&unsharded).0,
        "a merge replays the shard lanes' moments instead of fetching them"
    );
}

#[test]
fn a_shard_lane_crash_retries_only_that_shard_and_certifies_identically() {
    for (crash_job, crash_shard) in [(1u64, 0u32), (2, 3), (3, 1)] {
        let path = temp_ledger(&format!("crash-{crash_job}-{crash_shard}"));
        let service = sharded_pool(4, ReleaseLedger::open(&path).unwrap(), false);
        // The named shard lane is torn down right before the job touches
        // it; the production recovery path (seeded rebuild + re-run of
        // just that shard) must make the crash invisible in the output.
        service.inject_shard_crash(crash_job, crash_shard);
        let records = run_workload(service);
        assert_eq!(
            &records,
            baseline(false),
            "a shard-lane crash (job {crash_job}, shard {crash_shard}) changed a certificate"
        );
    }
}

#[test]
fn seeded_ledger_restart_preserves_sharded_certificates() {
    // The continuous sharded run…
    let continuous = {
        let path = temp_ledger("restart-continuous");
        run_workload(sharded_pool(4, ReleaseLedger::open(&path).unwrap(), false))
    };
    assert_eq!(&continuous, baseline(false));

    // …must equal the split run: daemon restarts (fresh primary lane and
    // fresh shard sub-federations, surviving ledger) between jobs 2 and 3,
    // so job 3's LR phase is seeded purely from disk.
    let path = temp_ledger("restart-split");
    let [p1, p2, p3] = workload_panels();
    let mut before = sharded_pool(4, ReleaseLedger::open(&path).unwrap(), false);
    let a = before.execute(p1).expect("job 1 certifies");
    let b = before.execute(p2).expect("job 2 certifies");
    before.stop().expect("daemon drains cleanly");
    assert_eq!(deterministic(&a), continuous[0]);
    assert_eq!(deterministic(&b), continuous[1]);

    let reopened = ReleaseLedger::open(&path).unwrap();
    assert_eq!(reopened.len(), 2, "the ledger survived the restart");
    let mut after = sharded_pool(4, reopened, false);
    let c = after.execute(p3).expect("job 3 certifies after restart");
    after.stop().expect("daemon drains cleanly");
    assert_eq!(
        deterministic(&c),
        continuous[2],
        "restarting between jobs must not change the third sharded certificate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every plan covers the panel exactly once: ranges are in order,
    // contiguous (no gap, no overlap) and 64-SNP aligned.
    #[test]
    fn plans_partition_the_panel_word_aligned(
        panel_len in 0usize..5_000,
        shards in 0u32..40,
    ) {
        let plan = ShardPlan::new(panel_len, shards);
        prop_assert_eq!(plan.panel_len(), panel_len);
        prop_assert!(!plan.ranges().is_empty(), "a plan always has at least one shard");
        let mut next = 0u32;
        for range in plan.ranges() {
            prop_assert_eq!(range.start, next, "ranges are contiguous and ordered");
            prop_assert_eq!(range.start % 64, 0, "every shard starts on a word");
            prop_assert!(range.len > 0 || panel_len == 0, "no empty shard");
            next += range.len;
        }
        prop_assert_eq!(next as usize, panel_len, "ranges cover the panel exactly");
        // Every SNP falls in exactly one range.
        if panel_len > 0 {
            for snp in [0u32, (panel_len as u32 - 1) / 2, panel_len as u32 - 1] {
                let owners = plan.ranges().iter().filter(|r| r.contains(snp)).count();
                prop_assert_eq!(owners, 1, "SNP {} owned by {} shards", snp, owners);
            }
        }
    }

    // Requests that cannot give every shard a full word degrade to one
    // shard; satisfiable requests are honored exactly.
    #[test]
    fn undersized_panels_degrade_to_one_shard(
        panel_len in 0usize..5_000,
        shards in 2u32..40,
    ) {
        let plan = ShardPlan::new(panel_len, shards);
        if (shards as usize) > panel_len / 64 {
            prop_assert_eq!(plan.len(), 1, "degenerate plans degrade to one shard");
        } else {
            prop_assert_eq!(plan.len(), shards as usize);
        }
    }
}

#[test]
fn plan_cover_is_exact_on_the_test_panel() {
    // The shapes the integration tests lean on, pinned explicitly.
    let two = ShardPlan::new(SNPS, 2);
    assert_eq!(
        two.ranges()
            .iter()
            .map(|r| (r.start, r.len))
            .collect::<Vec<_>>(),
        vec![(0, 256), (256, 192)]
    );
    let seven = ShardPlan::new(SNPS, 7);
    assert_eq!(seven.len(), 7);
    assert!(seven.ranges().iter().all(|r| r.len == 64));
    assert_eq!(
        ShardPlan::new(SNPS, 8).len(),
        1,
        "8 shards > 7 words degrades"
    );
}
