//! Regenerates **Table 3** — GenDPR's average resource utilization — plus
//! the bandwidth accounting discussed alongside it (§7.1).
//!
//! The paper reports, for {2, 3, 5, 7} GDOs × {1,000, 10,000} SNPs, that
//! every enclave stays under ~2.2 MB of trusted memory and <1% CPU. Here
//! the threaded runtime meters each member's enclave allocations (peak
//! bytes) and every byte on the wire, and additionally prints the
//! analytic savings of not shipping genomes (`2·L_des·N_T` bits). Every
//! row asserts that the dense leader's peak is at most the compact one's
//! plus the largest member's dense report, the buffer it decodes.

use gendpr_bench::workload::paper_cohort;
use gendpr_bench::{BenchArgs, TextTable, PAPER_CASES_FULL};
use gendpr_core::config::{FederationConfig, GwasParams};
use gendpr_core::runtime::{run_federation_with, RuntimeOptions};
use std::time::Duration;

fn main() {
    let args = BenchArgs::from_env();
    let params = GwasParams::secure_genome_defaults();
    let genomes = args.scaled(PAPER_CASES_FULL);

    println!("== Table 3: GenDPR's average resource utilization ==");
    println!(
        "(scale {:.2}: {genomes} case genomes; paper: 14,860)\n",
        args.scale
    );

    let mut table = TextTable::new(vec![
        "Configuration",
        "Member enclave peak (dense / compact)",
        "Leader enclave peak (dense / compact)",
        "Messages",
        "Wire bytes (dense / compact)",
        "Ciphertext expansion",
    ]);

    for snps in [args.scaled(1_000), args.scaled(10_000)] {
        let cohort = paper_cohort(genomes, snps);
        for gdos in [2usize, 3, 5, 7] {
            let report = run_federation_with(
                FederationConfig::new(gdos).with_seed(7),
                params,
                &cohort,
                None,
                RuntimeOptions {
                    timeout: Duration::from_secs(600),
                    ..RuntimeOptions::default()
                },
            )
            .expect("fault-free run completes");
            let compact = run_federation_with(
                FederationConfig::new(gdos).with_seed(7),
                params,
                &cohort,
                None,
                RuntimeOptions {
                    timeout: Duration::from_secs(600),
                    compact_lr: true,
                    prefetch_ld: true,
                    ..RuntimeOptions::default()
                },
            )
            .expect("fault-free run completes");
            assert_eq!(report.safe_snps, compact.safe_snps);
            let member_peak = |r: &gendpr_core::runtime::RuntimeReport| {
                r.resources
                    .iter()
                    .filter(|m| m.id != r.leader)
                    .map(|m| m.peak_enclave_bytes)
                    .max()
                    .unwrap_or(0)
            };
            let leader_peak = |r: &gendpr_core::runtime::RuntimeReport| {
                r.resources
                    .iter()
                    .find(|m| m.id == r.leader)
                    .map(|m| m.peak_enclave_bytes)
                    .unwrap_or(0)
            };
            // The leader holds LR rows as indicator bits in either mode: a
            // dense report costs it its value buffer while it is decoded.
            let rows = cohort
                .cohort()
                .case_rows_among(gdos)
                .iter()
                .map(|r| r.len())
                .max();
            let buffer = 8 * (rows.unwrap_or(0) * report.l_double_prime.len()) as u64;
            assert!(
                leader_peak(&report) <= leader_peak(&compact) + buffer,
                "{gdos} GDOs / {snps} SNPs: dense leader peak {} above compact {} + {buffer}",
                leader_peak(&report),
                leader_peak(&compact)
            );
            let kb = |b: u64| format!("{:.0} KB", b as f64 / 1024.0);
            table.row(vec![
                format!("{gdos} GDOs / {snps} SNPs"),
                format!(
                    "{} / {}",
                    kb(member_peak(&report)),
                    kb(member_peak(&compact))
                ),
                format!(
                    "{} / {}",
                    kb(leader_peak(&report)),
                    kb(leader_peak(&compact))
                ),
                format!("{}", report.traffic.messages),
                format!(
                    "{} / {}",
                    report.traffic.wire_bytes, compact.traffic.wire_bytes
                ),
                format!("{:.3}x", report.traffic.expansion()),
            ]);
        }
    }
    table.print();

    // §7.1 bandwidth discussion: count vectors vs raw genomes.
    println!("\n== Bandwidth accounting (paper §7.1) ==");
    let snps = args.scaled(10_000);
    let cohort = paper_cohort(genomes, snps);
    let n_total = cohort.case().individuals() + cohort.reference().individuals();
    let counts_vector_bytes = 4 * snps; // 32-bit integer per SNP, as the paper assumes
    let genome_bits = 2 * snps * n_total;
    println!("count vector per GDO:        {counts_vector_bytes} bytes (4*L_des)");
    println!(
        "raw genomes (never shipped): {} bytes (2*L_des*N_T bits)",
        genome_bits / 8
    );
    println!(
        "saving factor:               {:.0}x",
        genome_bits as f64 / 8.0 / counts_vector_bytes as f64
    );
}
