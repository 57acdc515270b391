//! Pins the in-process drivers' decisions byte for byte: `Federation::run`
//! (five collusion configurations) and the naïve baseline at G = 3, each
//! hashed (FNV-1a 64) on a fixed synthetic cohort. The constants were
//! captured at the commit before these drivers became wiring over one
//! pooled-subset type, and the last two `Federation` cases (`AllUpTo` at
//! G = 4, `Fixed(1)` at G = 5) at the commit before they became
//! configurations of the attested leader's core, so any change to what
//! they select, in any phase, fails here. The third and fifth cases were
//! captured with a second, data-oblivious subset search that selected
//! identically; the one search still meets them.

use gendpr::core::baseline::naive::NaiveDistributed;
use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::protocol::Federation;
use gendpr::genomics::snp::SnpId;
use gendpr::genomics::synth::SyntheticCohort;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn snps(&mut self, snps: &[SnpId]) -> &mut Self {
        self.bytes(&(snps.len() as u64).to_le_bytes());
        for s in snps {
            self.bytes(&s.0.to_le_bytes());
        }
        self
    }

    fn freqs(&mut self, freqs: &[f64]) -> &mut Self {
        self.bytes(&(freqs.len() as u64).to_le_bytes());
        for f in freqs {
            self.bytes(&f.to_bits().to_le_bytes());
        }
        self
    }
}

fn cohort(seed: u64) -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(220)
        .case_individuals(330)
        .reference_individuals(280)
        .seed(seed)
        .drift(0.06)
        .build()
}

fn params() -> GwasParams {
    let mut params = GwasParams::secure_genome_defaults();
    params.lr.power_threshold = 0.7;
    params
}

fn federation_hash(config: FederationConfig, seed: u64) -> (u64, usize) {
    let c = cohort(seed);
    let out = Federation::new(config, params(), &c).run().unwrap();
    let mut h = Fnv::new();
    h.snps(&out.l_prime)
        .snps(&out.l_double_prime)
        .snps(&out.safe_snps)
        .snps(&out.full_set_safe)
        .freqs(&out.case_freqs)
        .freqs(&out.ref_freqs);
    (h.0, out.safe_snps.len())
}

#[test]
fn federation_decisions_are_pinned() {
    let cases = [
        (
            FederationConfig::new(3).with_seed(1),
            41,
            0xc6d2_26ae_8ec5_a234_u64,
        ),
        (
            FederationConfig::new(4)
                .with_collusion(CollusionMode::Fixed(2))
                .with_seed(2),
            42,
            0x8fd9_99c9_74ea_f519,
        ),
        (
            FederationConfig::new(3).with_seed(3),
            43,
            0xd38a_f4c5_189a_cfd7,
        ),
        (
            FederationConfig::new(4)
                .with_collusion(CollusionMode::AllUpTo)
                .with_seed(4),
            46,
            0xa389_3fb2_6627_8d18,
        ),
        (
            FederationConfig::new(5)
                .with_collusion(CollusionMode::Fixed(1))
                .with_seed(5),
            47,
            0x70f1_ea94_24a4_4ee4,
        ),
    ];
    for (config, seed, pinned) in cases {
        let (hash, safe) = federation_hash(config, seed);
        assert!(
            safe > 0,
            "{config:?}: the pin must cover a non-empty release"
        );
        assert_eq!(hash, pinned, "{config:?}: got {hash:#018x}");
    }
}

#[test]
fn naive_decisions_are_pinned() {
    let c = cohort(44);
    let out = NaiveDistributed::new(params(), 3).run(c.as_ref()).unwrap();
    assert!(!out.safe_snps.is_empty());
    let mut h = Fnv::new();
    h.snps(&out.l_prime)
        .snps(&out.l_double_prime)
        .snps(&out.safe_snps);
    assert_eq!(h.0, 0xe538_f890_6108_940c, "got {:#018x}", h.0);
}
