//! Ablations of GenDPR's design choices (DESIGN.md §6).
//!
//! 1. **Work distribution** — LR-phase time vs federation size (the paper
//!    claims more GDOs make GenDPR faster because LR matrices are built
//!    in parallel at the members).
//! 2. **Collusion combinations** — verification cost vs (G, f).
//! 3. **Bit-packed genotypes** — column-count throughput vs a byte-matrix.
//! 4. **Empirical vs normal-approximation LR power** — agreement of the
//!    two estimators across frequency gaps.
//! 5. **Encryption overhead** — measured ciphertext expansion and the
//!    cost of the attested channel.
//! 6. **Transport optimizations** — compact LR matrices and the LD
//!    prefetch, same selection at a different cost.
//! 7. **Measured traffic** — messages, wire bytes and leader turnarounds
//!    of the in-memory runtime, counted at its transports.

use gendpr_bench::workload::paper_cohort;
use gendpr_bench::{ms, BenchArgs, TextTable, PAPER_CASES_FULL};
use gendpr_core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr_core::protocol::Federation;
use gendpr_core::runtime::run_federation;
use gendpr_fednet::transport::{Endpoint, Envelope, NetError, Outgoing, PeerId, Transport};
use gendpr_fednet::{FaultPlan, TrafficStats};
use gendpr_stats::lr::TheoreticalLr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args = BenchArgs::from_env();
    let params = GwasParams::secure_genome_defaults();

    ablation_work_distribution(&args, params);
    ablation_collusion_cost(&args, params);
    ablation_bit_packing(&args);
    ablation_lr_estimators();
    ablation_encryption_overhead(&args, params);
    ablation_transport_optimizations(&args, params);
    ablation_measured_traffic(&args, params);
}

fn ablation_transport_optimizations(args: &BenchArgs, params: GwasParams) {
    use gendpr_core::runtime::{run_federation_with, RuntimeOptions};
    println!("\n== Ablation 6: transport optimizations (same selection, different cost) ==");
    let cohort = paper_cohort(args.scaled(PAPER_CASES_FULL), args.scaled(2_500));
    let config = FederationConfig::new(3).with_seed(1);
    let variants: [(&str, RuntimeOptions); 4] = [
        (
            "paper-faithful (dense LR, per-pair LD)",
            RuntimeOptions::default(),
        ),
        (
            "compact LR matrices",
            RuntimeOptions {
                compact_lr: true,
                ..RuntimeOptions::default()
            },
        ),
        (
            "adjacent-pair LD prefetch",
            RuntimeOptions {
                prefetch_ld: true,
                ..RuntimeOptions::default()
            },
        ),
        (
            "both optimizations",
            RuntimeOptions {
                compact_lr: true,
                prefetch_ld: true,
                ..RuntimeOptions::default()
            },
        ),
    ];
    let mut table = TextTable::new(vec![
        "Variant",
        "Messages",
        "Wire bytes",
        "LD (ms)",
        "LR (ms)",
        "Total (ms)",
        "L_safe",
    ]);
    let mut reference_selection: Option<Vec<gendpr_genomics::snp::SnpId>> = None;
    for (label, opts) in variants {
        let opts = RuntimeOptions {
            timeout: Duration::from_secs(600),
            ..opts
        };
        let report =
            run_federation_with(config, params, &cohort, None, opts).expect("run completes");
        match &reference_selection {
            None => reference_selection = Some(report.safe_snps.clone()),
            Some(expected) => assert_eq!(
                expected, &report.safe_snps,
                "optimizations must not change the selection"
            ),
        }
        table.row(vec![
            label.to_string(),
            report.traffic.messages.to_string(),
            report.traffic.wire_bytes.to_string(),
            ms(report.timings.ld),
            ms(report.timings.lr),
            ms(report.timings.total()),
            report.safe_snps.len().to_string(),
        ]);
    }
    table.print();
    println!("(every variant selects the identical L_safe — asserted)");
}

/// An in-memory endpoint that counts its member's turnarounds: how often
/// a frame arrived after the member had sent something since the last
/// one — each is a wait on a reply, one round trip on a wide-area link.
struct Counting {
    inner: Endpoint,
    sent: AtomicBool,
    turnarounds: Arc<AtomicU64>,
}

impl Counting {
    fn received(&self, env: Envelope) -> Envelope {
        if self.sent.swap(false, Ordering::Relaxed) {
            self.turnarounds.fetch_add(1, Ordering::Relaxed);
        }
        env
    }
}

impl Transport for Counting {
    fn id(&self) -> PeerId {
        self.inner.id()
    }
    fn send(&self, to: PeerId, payload: Vec<u8>, plaintext_len: usize) -> Result<(), NetError> {
        self.sent.store(true, Ordering::Relaxed);
        self.inner.send(to, payload, plaintext_len)
    }
    fn send_all(&self, frames: &mut Vec<Outgoing>, result: &mut dyn FnMut(Result<(), NetError>)) {
        self.sent.store(true, Ordering::Relaxed);
        self.inner.send_all(frames, result);
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
        self.inner
            .recv_timeout(timeout)
            .map(|env| self.received(env))
    }
    fn try_recv(&self) -> Option<Envelope> {
        self.inner.try_recv().map(|env| self.received(env))
    }
    fn set_faults(&self, faults: FaultPlan) {
        self.inner.set_faults(faults);
    }
    fn link_stats(&self, to: PeerId) -> TrafficStats {
        self.inner.link_stats(to)
    }
    fn egress_stats(&self) -> TrafficStats {
        self.inner.egress_stats()
    }
    fn ingress_stats(&self) -> TrafficStats {
        self.inner.ingress_stats()
    }
}

fn ablation_measured_traffic(args: &BenchArgs, params: GwasParams) {
    use gendpr_core::runtime::{run_federation_over, RuntimeOptions};
    use gendpr_fednet::transport::Network;
    println!("\n== Ablation 7: measured traffic of the in-memory runtime ==");
    let cohort = paper_cohort(args.scaled(PAPER_CASES_FULL), args.scaled(2_500));
    let config = FederationConfig::new(3);
    let cli = RuntimeOptions {
        compact_lr: true,
        prefetch_ld: true,
        ..RuntimeOptions::default()
    };
    let mut table = TextTable::new(vec![
        "Options",
        "Messages",
        "Wire bytes",
        "Leader turnarounds",
        "L_safe",
    ]);
    for (label, options) in [
        (
            "RuntimeOptions::default() (paper-faithful)",
            RuntimeOptions::default(),
        ),
        ("CLI (compact LR, LD prefetch)", cli),
    ] {
        let network = Network::new();
        let turnarounds: Vec<Arc<AtomicU64>> = (0..config.gdo_count)
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();
        let transports: Vec<Counting> = turnarounds
            .iter()
            .enumerate()
            .map(|(id, count)| Counting {
                inner: network.register(PeerId(id as u32)),
                sent: AtomicBool::new(false),
                turnarounds: Arc::clone(count),
            })
            .collect();
        let options = RuntimeOptions {
            timeout: Duration::from_secs(600),
            ..options
        };
        let report = run_federation_over(transports, config, params, &cohort, options)
            .expect("run completes");
        table.row(vec![
            label.to_string(),
            report.traffic.messages.to_string(),
            report.traffic.wire_bytes.to_string(),
            turnarounds[report.leader]
                .load(Ordering::Relaxed)
                .to_string(),
            report.safe_snps.len().to_string(),
        ]);
    }
    table.print();
    println!(
        "(counted at every member's transport, election, attestation and counts \
frames included; a turnaround is the leader receiving after it sent, \
one round trip per turnaround on a wide-area link)"
    );
}

fn ablation_work_distribution(args: &BenchArgs, params: GwasParams) {
    println!("== Ablation 1: LR-phase wall time vs federation size ==");
    let cohort = paper_cohort(args.scaled(PAPER_CASES_FULL), args.scaled(5_000));
    let mut table = TextTable::new(vec!["GDOs", "LR phase (ms)", "Total (ms)"]);
    for gdos in [1usize, 2, 3, 5, 7] {
        let report = run_federation(
            FederationConfig::new(gdos),
            params,
            &cohort,
            None,
            Duration::from_secs(600),
        )
        .expect("run completes");
        table.row(vec![
            gdos.to_string(),
            ms(report.timings.lr),
            ms(report.timings.total()),
        ]);
    }
    table.print();
    println!();
}

fn ablation_collusion_cost(args: &BenchArgs, params: GwasParams) {
    println!("== Ablation 2: collusion verification cost vs (G, f) ==");
    let cohort = paper_cohort(args.scaled(PAPER_CASES_FULL / 4), args.scaled(2_000));
    let mut table = TextTable::new(vec!["G", "f", "Combinations", "Total (ms)"]);
    for g in [3usize, 5] {
        for f in 0..g {
            let mode = if f == 0 {
                CollusionMode::None
            } else {
                CollusionMode::Fixed(f)
            };
            let out = Federation::new(
                FederationConfig::new(g).with_collusion(mode),
                params,
                &cohort,
            )
            .run()
            .expect("run completes");
            table.row(vec![
                g.to_string(),
                f.to_string(),
                out.evaluations.to_string(),
                ms(out.timings.total()),
            ]);
        }
    }
    table.print();
    println!();
}

fn ablation_bit_packing(args: &BenchArgs) {
    println!("== Ablation 3: bit-packed vs byte-matrix column counts ==");
    let cohort = paper_cohort(args.scaled(PAPER_CASES_FULL), args.scaled(10_000));
    let m = cohort.case();

    let t = Instant::now();
    let packed = m.column_counts();
    let packed_time = t.elapsed();

    // Byte-matrix strawman.
    let rows: Vec<Vec<u8>> = (0..m.individuals()).map(|i| m.row(i)).collect();
    let t = Instant::now();
    let mut bytes_counts = vec![0u64; m.snps()];
    for row in &rows {
        for (c, &x) in bytes_counts.iter_mut().zip(row.iter()) {
            *c += u64::from(x);
        }
    }
    let byte_time = t.elapsed();
    assert_eq!(packed, bytes_counts);

    let mut table = TextTable::new(vec!["Representation", "Memory (KB)", "Column counts (ms)"]);
    table.row(vec![
        "bit-packed".to_string(),
        format!("{}", m.heap_bytes() / 1024),
        ms(packed_time),
    ]);
    table.row(vec![
        "byte matrix".to_string(),
        format!("{}", m.individuals() * m.snps() / 1024),
        ms(byte_time),
    ]);
    table.print();
    println!();
}

fn ablation_lr_estimators() {
    println!("== Ablation 4: empirical vs normal-approximation LR power ==");
    let mut table = TextTable::new(vec!["freq gap", "SNPs", "theoretical power", "note"]);
    for gap in [0.0f64, 0.05, 0.10, 0.20] {
        for snps in [10usize, 50] {
            let mut th = TheoreticalLr::default();
            for _ in 0..snps {
                th.add_snp(0.3 + gap, 0.3);
            }
            let p = th.power(0.1);
            table.row(vec![
                format!("{gap:.2}"),
                snps.to_string(),
                format!("{p:.3}"),
                if p >= 0.9 {
                    "would be rejected"
                } else {
                    "releasable"
                }
                .to_string(),
            ]);
        }
    }
    table.print();
    println!("(the empirical estimator's agreement is asserted in the stats test suite)\n");
}

fn ablation_encryption_overhead(args: &BenchArgs, params: GwasParams) {
    println!("== Ablation 5: encryption/framing overhead on the wire ==");
    let cohort = paper_cohort(args.scaled(PAPER_CASES_FULL / 4), args.scaled(2_000));
    let report = run_federation(
        FederationConfig::new(3),
        params,
        &cohort,
        None,
        Duration::from_secs(600),
    )
    .expect("run completes");
    let t = report.traffic;
    println!("messages:        {}", t.messages);
    println!("plaintext bytes: {}", t.plaintext_bytes);
    println!("wire bytes:      {}", t.wire_bytes);
    println!(
        "expansion:       {:.4}x (paper's AES-256+padding estimate was ~1.3x; \
ChaCha20-Poly1305 pays only a 16-byte tag plus framing per message)",
        t.expansion()
    );
}
