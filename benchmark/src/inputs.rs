//! The four workloads and the inputs `--seed` generates for them. The
//! seed feeds input generation only (cohort contents, job panels); the
//! federation's own configuration is fixed, and the program under test
//! receives nothing but the generated inputs.

use crate::summary::percentile;
use gendpr_core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr_genomics::synth::SyntheticCohort;
use gendpr_stats::lr::LrTestParams;
use std::time::Duration;

/// Federation size on every workload. Five member threads on two cores
/// drifted 1.58 → 2.13 s inside one process; three do not.
pub const GDOS: usize = 3;

/// The federation's election/attestation seed: configuration of the
/// program, not an input, so `--seed` never changes it.
const FEDERATION_SEED: u64 = 53;

/// Served study: SNPs, case genomes, reference genomes (the shape
/// `load_service` serves).
pub const STUDY_SNPS: u32 = 96;
const STUDY_CASES: usize = 64;
const STUDY_REFERENCE: usize = 48;
/// Width of one served job's panel and the stride between panels.
pub const JOB_PANEL: u32 = 16;
const JOB_STRIDE: u32 = 7;

/// Jobs submitted one at a time on the fresh ledger during set-up. They
/// warm the lanes, and — being sequential — they are the canonical
/// sequence whose traffic repeats exactly (`msgs_per_job`).
pub const WARMUP_JOBS: usize = 20;

/// `serve-burst`: one burst every [`BURST_PERIOD`], [`BURST_JOBS`] each
/// (8 jobs/s offered against ≈ 16 jobs/s capacity).
pub const BURST_PERIOD: Duration = Duration::from_millis(2_000);
pub const BURST_JOBS: usize = 16;
/// A refused offer is made again after this constant delay.
pub const REOFFER_DELAY: Duration = Duration::from_millis(50);
/// Link delay window of the geo-distributed lanes.
pub const WAN_WINDOW_MS: u32 = 12;

/// One number drawn from a run's latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statistic {
    /// Nearest-rank percentile.
    Percentile(u32),
    /// The fastest certified job of the run.
    Fastest,
    /// The window is cut into `stretches` equal runs of consecutive jobs
    /// and the lowest of their `percentile`s is reported: the tail the
    /// program shows when the host leaves it alone for a stretch.
    QuietestStretch { percentile: u32, stretches: usize },
}

impl Statistic {
    /// `samples` in the order the jobs were issued.
    ///
    /// # Panics
    ///
    /// On an empty sample: every workload yields at least one operation.
    #[must_use]
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Self::Percentile(p) => percentile(samples, p),
            Self::Fastest => percentile(samples, 0),
            Self::QuietestStretch {
                percentile: p,
                stretches,
            } => samples
                .chunks(samples.len().div_ceil(stretches))
                // A short last stretch has too few samples beyond its
                // percentile to be the one believed.
                .filter(|stretch| stretch.len() * stretches * 2 > samples.len())
                .map(|stretch| percentile(stretch, p))
                .fold(f64::INFINITY, f64::min),
        }
    }

    #[must_use]
    pub fn label(self) -> String {
        match self {
            Self::Percentile(p) => format!("p{p}"),
            Self::Fastest => "fastest".into(),
            Self::QuietestStretch {
                percentile: p,
                stretches,
            } => format!("lowest p{p} of {stretches} stretches"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AssessLr,
    AssessLd,
    ServeLan,
    ServeBurst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AssessLr,
        Workload::AssessLd,
        Workload::ServeLan,
        Workload::ServeBurst,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::AssessLr => "assess-lr",
            Self::AssessLd => "assess-ld",
            Self::ServeLan => "serve-lan",
            Self::ServeBurst => "serve-burst",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The statistics of a run's latency sample that `job_latency_ms`
    /// and `job_latency_tail_ms` report, fixed per workload so two runs
    /// always compare the same thing (benchmark/README.md, "Which
    /// statistic").
    ///
    /// Served jobs differ (panels, queueing, admission), so their
    /// distribution is the program's: the median, and the highest of
    /// p75/p90/p95 that a full window leaves ten samples beyond. The
    /// ≈ 1,950 jobs of a `serve-lan` window are enough to take p95 in
    /// each fifth of the window (19 beyond) and report the quietest
    /// fifth: two of twenty windows read p95 43–49 ms instead of
    /// 26.3 ms because the host stalled for part of them. Every
    /// job of an `assess-*` run is the same computation by one caller,
    /// so the distribution within a run is the host's interference,
    /// which only ever adds time: the fastest job is the program's own
    /// cost, and there is no tail of the program's making to report
    /// beside it.
    #[must_use]
    pub fn latency_statistics(self) -> (Statistic, Statistic) {
        match self {
            Self::AssessLr | Self::AssessLd => (Statistic::Fastest, Statistic::Fastest),
            Self::ServeLan => (
                Statistic::Percentile(50),
                Statistic::QuietestStretch {
                    percentile: 95,
                    stretches: 5,
                },
            ),
            Self::ServeBurst => (Statistic::Percentile(50), Statistic::Percentile(90)),
        }
    }

    /// One-shot assessments run pinned to one CPU; the serve workloads
    /// run unpinned with two load threads.
    #[must_use]
    pub fn is_assess(self) -> bool {
        matches!(self, Self::AssessLr | Self::AssessLd)
    }
}

/// The federation every workload runs: three members, tolerating one
/// colluder (four member combinations per assessment).
#[must_use]
pub fn federation_config() -> FederationConfig {
    FederationConfig::new(GDOS)
        .with_collusion(CollusionMode::Fixed(1))
        .with_seed(FEDERATION_SEED)
}

/// The federation the served lanes run (as `load_service`: no collusion
/// tolerance, so a job is one member combination).
#[must_use]
pub fn serving_config() -> FederationConfig {
    FederationConfig::new(GDOS).with_seed(FEDERATION_SEED)
}

/// Paper defaults for the one-shot assessments.
#[must_use]
pub fn assess_params() -> GwasParams {
    GwasParams::secure_genome_defaults()
}

/// The served study's thresholds (as `load_service`).
#[must_use]
pub fn study_params() -> GwasParams {
    GwasParams {
        maf_cutoff: 0.05,
        ld_cutoff: 1e-5,
        lr: LrTestParams {
            false_positive_rate: 0.1,
            power_threshold: 0.6,
        },
    }
}

/// The cohort an `assess-*` workload assesses. Shapes are in
/// `benchmark/README.md` with the reason for each size.
#[must_use]
pub fn assess_cohort(workload: Workload, seed: u64) -> SyntheticCohort {
    let builder = SyntheticCohort::builder().maf_shape(0.35, 1.3);
    match workload {
        // Sparse LD (a pre-pruned tag-SNP panel): most of the panel
        // reaches the LR search and nearly all of it is rejected there.
        Workload::AssessLr => builder
            .snps(4_000)
            .case_individuals(1_860)
            .reference_individuals(1_630)
            .ld_structure(1.5, 0.2)
            .seed(seed ^ 0x6c72_0000),
        // Paper-shaped LD blocks (generator defaults, as
        // `gendpr_bench::workload::paper_cohort`): the adjacent-pair
        // message rounds dominate and the LR search is short.
        _ => builder
            .snps(3_000)
            .case_individuals(2_000)
            .reference_individuals(1_754)
            .seed(seed ^ 0x6c64_0000),
    }
    .build()
}

/// The small study the service workloads (and the service-layer probes
/// of every traced run) serve: `load_service`'s, seed included. A daemon
/// serves one study, so the study is configuration; what `--seed`
/// generates for a served workload is the job stream. (A 16-SNP job's
/// message rounds depend on a handful of LD pairs: a study drawn per
/// seed moved `serve-burst` latency 459 → 1,079 ms between seeds 1 and
/// 2, which no bound could tell from a regression.)
#[must_use]
pub fn study_cohort() -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(STUDY_SNPS as usize)
        .case_individuals(STUDY_CASES)
        .reference_individuals(STUDY_REFERENCE)
        .drift(0.3)
        .seed(97)
        .build()
}

/// Seed of the warm-up jobs' panels: the canonical sequence is the same
/// on every run.
pub const CANONICAL_SEED: u64 = 0;

/// Panel of the `index`-th served job: 16 SNPs sliding by 7 over the
/// study, starting where the seed says, so consecutive jobs overlap and
/// later jobs find part of their panel already released. The 80
/// possible panels come round every 80 jobs, so any window of whole
/// cycles offers the same mix in a seed-dependent order.
#[must_use]
pub fn job_panel(seed: u64, index: u64) -> Vec<u32> {
    let span = u64::from(STUDY_SNPS - JOB_PANEL);
    let start = ((seed.wrapping_add(index)).wrapping_mul(u64::from(JOB_STRIDE)) % span) as u32;
    (start..start + JOB_PANEL).collect()
}

/// One job of the open-loop schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledJob {
    /// Position in the seeded job stream (names the job in the trace).
    pub index: u64,
    /// When the job is due, measured from the first burst.
    pub due: Duration,
    pub panel: Vec<u32>,
}

/// The fixed open-loop schedule: `bursts` bursts, one every
/// [`BURST_PERIOD`], each of [`BURST_JOBS`] jobs due at the same
/// instant. No jitter: the seed only chooses the panels. `first_index`
/// continues the panel sequence after the warm-up jobs.
#[must_use]
pub fn burst_schedule(seed: u64, bursts: usize, first_index: u64) -> Vec<ScheduledJob> {
    (0..bursts * BURST_JOBS)
        .map(|i| ScheduledJob {
            index: first_index + i as u64,
            due: BURST_PERIOD * (i / BURST_JOBS) as u32,
            panel: job_panel(seed, first_index + i as u64),
        })
        .collect()
}

/// Bursts that fit a timed window of `seconds` (at least one).
#[must_use]
pub fn bursts_in(seconds: u64) -> usize {
    ((seconds * 1_000) / BURST_PERIOD.as_millis() as u64).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedule_is_deterministic_with_exact_due_times() {
        let a = burst_schedule(7, 3, 20);
        assert_eq!(a, burst_schedule(7, 3, 20));
        assert_eq!(a.len(), 3 * BURST_JOBS);
        for (i, job) in a.iter().enumerate() {
            assert_eq!(job.index, 20 + i as u64);
            assert_eq!(job.due, BURST_PERIOD * (i / BURST_JOBS) as u32);
            assert_eq!(job.panel.len(), JOB_PANEL as usize);
            assert!(job.panel.iter().all(|&s| s < STUDY_SNPS));
        }
        // Another seed keeps the due times and changes the panels.
        let b = burst_schedule(8, 3, 20);
        assert!(a.iter().zip(&b).all(|(x, y)| x.due == y.due));
        assert!(a.iter().zip(&b).any(|(x, y)| x.panel != y.panel));
    }

    #[test]
    fn window_length_sets_the_burst_count() {
        assert_eq!(bursts_in(20), 10);
        assert_eq!(bursts_in(3), 1);
        assert_eq!(bursts_in(1), 1);
    }

    #[test]
    fn latency_statistics_are_fixed_per_workload() {
        // 1..=200 in an order that spreads them evenly over the window.
        let sample: Vec<f64> = (0..200).map(|i| f64::from(1 + i * 37 % 200)).collect();
        for w in Workload::ALL {
            let (typical, tail) = w.latency_statistics();
            if w.is_assess() {
                // One caller, identical jobs: the fastest job, twice.
                assert_eq!((typical.of(&sample), tail.of(&sample)), (1.0, 1.0));
                assert_eq!(typical.label(), "fastest");
            } else {
                assert_eq!(typical.of(&sample), 100.0);
                assert!(tail.of(&sample) >= 170.0, "{}", tail.label());
            }
        }
        assert_eq!(Statistic::Percentile(95).label(), "p95");
    }

    #[test]
    fn quietest_stretch_ignores_a_disturbed_part_of_the_window() {
        let quiet = Statistic::QuietestStretch {
            percentile: 95,
            stretches: 5,
        };
        // 500 jobs at 25–26 ms; the second fifth is disturbed.
        let mut window: Vec<f64> = (0..500).map(|i| 25.0 + f64::from(i % 20) / 20.0).collect();
        let calm = quiet.of(&window);
        for slow in &mut window[100..200] {
            *slow += 20.0;
        }
        assert_eq!(quiet.of(&window), calm);
        assert!(Statistic::Percentile(95).of(&window) > calm + 15.0);
        // A ragged tail of a few jobs is not a stretch.
        window.extend([1.0, 1.0, 1.0]);
        assert_eq!(quiet.of(&window), calm);
        assert_eq!(quiet.label(), "lowest p95 of 5 stretches");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("assess"), None);
    }
}
