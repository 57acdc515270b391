//! Population stratification: the paper's strongest argument for proper
//! aggregation. §5.4: a naïve scheme "would lead to inaccurate selection
//! since each GDO's local data does not incorporate the heterogeneous
//! distribution of genomes among the GDOs". With Balding–Nichols
//! subpopulations assigned contiguously (each biocenter samples its own
//! geographic population), GDO shards are genuinely heterogeneous — and
//! GenDPR must *still* match the centralized assessment exactly.

use gendpr::core::baseline::centralized::CentralizedPipeline;
use gendpr::core::baseline::naive::NaiveDistributed;
use gendpr::core::config::{FederationConfig, GwasParams};
use gendpr::core::protocol::Federation;
use gendpr::genomics::synth::SyntheticCohort;

const GDOS: usize = 3;

fn stratified(seed: u64) -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(400)
        .case_individuals(900) // 300 per GDO, one subpopulation each
        .reference_individuals(600)
        .subpopulations(GDOS, 0.08)
        .seed(seed)
        .build()
}

#[test]
fn gendpr_matches_centralized_even_with_heterogeneous_members() {
    // The last input is one member holding every case: a leader core over
    // a single member selects what the centralized pipeline selects.
    for (seed, gdos) in [(1u64, GDOS), (2, GDOS), (3, GDOS), (1, 1)] {
        let c = stratified(seed);
        let params = GwasParams::secure_genome_defaults();
        let central = CentralizedPipeline::new(params).run(c.as_ref()).unwrap();
        let gendpr = Federation::new(FederationConfig::new(gdos), params, &c)
            .run()
            .unwrap();
        let case = format!("seed {seed}, {gdos} GDOs");
        assert_eq!(central.l_prime, gendpr.l_prime, "{case}");
        assert_eq!(central.l_double_prime, gendpr.l_double_prime, "{case}");
        assert_eq!(central.safe_snps, gendpr.safe_snps, "{case}");
    }
}

#[test]
fn naive_protocol_diverges_under_stratification() {
    let c = stratified(4);
    let params = GwasParams::secure_genome_defaults();
    let gendpr = Federation::new(FederationConfig::new(GDOS), params, &c)
        .run()
        .unwrap();
    let naive = NaiveDistributed::new(params, GDOS).run(c.as_ref()).unwrap();
    // MAF still agrees (aggregated counts), LD/LR do not. Note the
    // direction of the error is data-dependent: with small local shards
    // the local LD test is *underpowered* and may keep correlated SNPs the
    // pooled test correctly removes — wrong either way.
    assert_eq!(naive.l_prime, gendpr.l_prime);
    assert_ne!(naive.l_double_prime, gendpr.l_double_prime);
}

#[test]
fn stratification_makes_local_views_less_representative() {
    // Quantify the §5.4 argument with the Jaccard distance between the
    // naive LD selection and the correct (pooled) one: on stratified data
    // the local views are less representative of the global distribution,
    // so the naive selection drifts further from the truth than on a
    // homogeneous cohort of identical dimensions.
    let params = GwasParams::secure_genome_defaults();
    let divergence = |c: &SyntheticCohort| -> f64 {
        let gendpr = Federation::new(FederationConfig::new(GDOS), params, c)
            .run()
            .unwrap();
        let naive = NaiveDistributed::new(params, GDOS).run(c.as_ref()).unwrap();
        let correct: std::collections::HashSet<_> = gendpr.l_double_prime.iter().copied().collect();
        let got: std::collections::HashSet<_> = naive.l_double_prime.iter().copied().collect();
        let intersection = correct.intersection(&got).count() as f64;
        let union = correct.union(&got).count().max(1) as f64;
        1.0 - intersection / union
    };

    let mut hetero_total = 0.0;
    let mut homo_total = 0.0;
    for seed in 10..14u64 {
        hetero_total += divergence(&stratified(seed));
        let homogeneous = SyntheticCohort::builder()
            .snps(400)
            .case_individuals(900)
            .reference_individuals(600)
            .seed(seed)
            .build();
        homo_total += divergence(&homogeneous);
    }
    assert!(
        hetero_total > homo_total,
        "naive selection should drift further on stratified data: Jaccard distance {hetero_total:.3} (hetero) vs {homo_total:.3} (homo)"
    );
}
