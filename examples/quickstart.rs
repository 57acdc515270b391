//! Quickstart: assess a small federated GWAS with GenDPR.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Generates a synthetic study, splits it across three genome data
//! owners, runs the three-phase privacy assessment and prints the safe
//! SNP set. The assessment runs in process, so no message is sent: the
//! `secure_deployment` example runs it threaded, attested and encrypted,
//! and prints the traffic it measured on the wire.

use gendpr::core::config::{FederationConfig, GwasParams};
use gendpr::core::protocol::Federation;
use gendpr::genomics::synth::SyntheticCohort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A study over 1,000 SNPs: 900 case genomes spread over the
    // federation, 800 public reference genomes.
    let cohort = SyntheticCohort::builder()
        .snps(1_000)
        .case_individuals(900)
        .reference_individuals(800)
        .seed(42)
        .build();

    // SecureGenome's suggested privacy settings (the paper's defaults):
    // MAF cutoff 0.05, LD cutoff 1e-5, FPR 0.1, power threshold 0.9.
    let params = GwasParams::secure_genome_defaults();
    let federation = Federation::new(FederationConfig::new(3), params, &cohort);

    let outcome = federation.run()?;
    println!("leader GDO: {}", outcome.leader);
    println!("desired SNP panel (L_des):       1000");
    println!("after MAF analysis (L'):         {}", outcome.l_prime.len());
    println!(
        "after LD analysis (L''):         {}",
        outcome.l_double_prime.len()
    );
    println!(
        "safe for release (L_safe):       {}",
        outcome.safe_snps.len()
    );
    println!(
        "running time:                    {:.1} ms",
        outcome.timings.total().as_secs_f64() * 1e3
    );

    let preview: Vec<String> = outcome
        .safe_snps
        .iter()
        .take(10)
        .map(ToString::to_string)
        .collect();
    println!("first safe SNPs:                 {}", preview.join(", "));
    Ok(())
}
