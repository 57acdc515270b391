//! Property-based tests of the substrates: bit-packed genotype matrices,
//! statistics invariants, sealing/channels, and the synthetic generator.

use gendpr::crypto::aead::ChaCha20Poly1305;
use gendpr::crypto::rng::ChaChaRng;
use gendpr::genomics::columnar::ColumnarGenotypes;
use gendpr::genomics::genotype::GenotypeMatrix;
use gendpr::genomics::snp::SnpId;
use gendpr::stats::contingency::{PairwiseTable, SinglewiseTable};
use gendpr::stats::ld::LdMoments;
use gendpr::stats::special::{chi2_sf, gamma_p, gamma_q, normal_cdf, normal_quantile};
use proptest::prelude::*;

fn matrix_strategy() -> impl Strategy<Value = GenotypeMatrix> {
    (1usize..40, 1usize..80, any::<u64>()).prop_map(|(n, l, seed)| {
        let mut rng = ChaChaRng::from_seed_u64(seed);
        let mut m = GenotypeMatrix::zeroed(n, l);
        for i in 0..n {
            for j in 0..l {
                if rng.next_bool(0.35) {
                    m.set(i, j, true);
                }
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitpacked_matrix_equals_byte_semantics(m in matrix_strategy()) {
        // column_counts must equal the naive per-cell accumulation.
        let counts = m.column_counts();
        #[allow(clippy::needless_range_loop)]
        for l in 0..m.snps() {
            let manual: u64 = (0..m.individuals()).map(|i| u64::from(m.get(i, l))).sum();
            prop_assert_eq!(counts[l], manual);
        }
        // Row roundtrip through from_rows.
        let rows: Vec<Vec<u8>> = (0..m.individuals()).map(|i| m.row(i)).collect();
        let rebuilt = GenotypeMatrix::from_rows(&rows, m.snps()).unwrap();
        prop_assert_eq!(rebuilt, m);
    }

    #[test]
    fn columnar_kernels_match_row_major(m in matrix_strategy()) {
        // The SNP-major transpose must agree with the row-major matrix on
        // every kernel the protocol uses — including panel widths that are
        // not multiples of 64 (the strategy draws 1..80 SNPs).
        let col = ColumnarGenotypes::from_matrix(&m);
        prop_assert_eq!(col.individuals(), m.individuals());
        prop_assert_eq!(col.snps(), m.snps());
        let counts = m.column_counts();
        prop_assert_eq!(&col.column_counts(), &counts);
        let n = m.individuals() as u64;
        for a in 0..m.snps() {
            prop_assert_eq!(col.column_count(SnpId(a as u32)), counts[a]);
            for b in a + 1..m.snps() {
                let (a, b) = (SnpId(a as u32), SnpId(b as u32));
                let naive: u64 = (0..m.individuals())
                    .map(|i| u64::from(m.get(i, a.index()) == 1 && m.get(i, b.index()) == 1))
                    .sum();
                prop_assert_eq!(col.pair_count(a, b), naive);
                // And the moments built from columnar counts equal the
                // row-major scan the protocol used before.
                let from_cols =
                    LdMoments::from_counts(counts[a.index()], counts[b.index()], naive, n);
                prop_assert_eq!(from_cols, LdMoments::from_matrix(&m, a, b));
            }
        }
        // Batched pair counts are the same sweep, one call.
        if m.snps() >= 2 {
            let a = SnpId(0);
            let rest: Vec<SnpId> = (1..m.snps() as u32).map(SnpId).collect();
            let batched = col.pair_counts(a, &rest);
            for (b, joint) in rest.iter().zip(batched) {
                prop_assert_eq!(joint, col.pair_count(a, *b));
            }
        }
    }

    #[test]
    fn row_range_parts_hold_the_original_rows(m in matrix_strategy(), cut_at in 0usize..40) {
        let cut = cut_at.min(m.individuals());
        for (start, len) in [(0, cut), (cut, m.individuals() - cut)] {
            let part = m.row_range(start, len);
            prop_assert_eq!((part.individuals(), part.snps()), (len, m.snps()));
            for i in 0..len {
                prop_assert_eq!(part.row(i), m.row(start + i));
            }
        }
    }

    #[test]
    fn ld_moments_merge_is_associative_and_matches_pooled(
        m in matrix_strategy(),
        cut_at in 1usize..39,
    ) {
        prop_assume!(m.snps() >= 2);
        prop_assume!(m.individuals() >= 2);
        let cut = cut_at.min(m.individuals() - 1);
        let a = SnpId(0);
        let b = SnpId((m.snps() - 1) as u32);
        let top = m.row_range(0, cut);
        let bottom = m.row_range(cut, m.individuals() - cut);
        let merged = LdMoments::from_matrix(&top, a, b).merge(LdMoments::from_matrix(&bottom, a, b));
        let pooled = LdMoments::from_matrix(&m, a, b);
        prop_assert_eq!(merged, pooled);
        // r² stays in [0, 1] and the p-value in [0, 1].
        prop_assert!((0.0..=1.0).contains(&pooled.r_squared()));
        prop_assert!((0.0..=1.0).contains(&pooled.p_value()));
    }

    #[test]
    fn contingency_margins_always_consistent(
        case_minor in 0u64..100,
        case_extra in 0u64..100,
        ctrl_minor in 0u64..100,
        ctrl_extra in 0u64..100,
    ) {
        let t = SinglewiseTable::new(
            case_minor,
            case_minor + case_extra,
            ctrl_minor,
            ctrl_minor + ctrl_extra,
        );
        prop_assert_eq!(t.major_total() + t.minor_total(), t.grand_total());
        prop_assert!((0.0..=1.0).contains(&t.pooled_frequency()));
    }

    #[test]
    fn pairwise_table_r2_bounded(
        both in 0u64..20,
        only_a in 0u64..20,
        only_b in 0u64..20,
        neither in 0u64..20,
    ) {
        let n = both + only_a + only_b + neither;
        prop_assume!(n > 0);
        let t = PairwiseTable::from_counts(both + only_a, both + only_b, both, n);
        let r2 = t.r_squared();
        prop_assert!((0.0..=1.0).contains(&r2), "r2 = {}", r2);
    }

    #[test]
    fn special_function_identities(a in 0.1f64..20.0, x in 0.0f64..40.0) {
        prop_assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-9);
        prop_assert!(gamma_p(a, x) >= -1e-12);
        prop_assert!(gamma_q(a, x) <= 1.0 + 1e-12);
    }

    #[test]
    fn chi2_sf_is_monotone(x1 in 0.0f64..50.0, x2 in 0.0f64..50.0, df in 1u32..10) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(chi2_sf(lo, df) >= chi2_sf(hi, df) - 1e-12);
    }

    #[test]
    fn normal_quantile_inverts_cdf(p in 0.0001f64..0.9999) {
        let x = normal_quantile(p);
        prop_assert!((normal_cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn aead_roundtrip_any_payload(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        aad in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let cipher = ChaCha20Poly1305::new(&key);
        let sealed = cipher.seal(&nonce, &payload, &aad);
        prop_assert_eq!(cipher.open(&nonce, &sealed, &aad).unwrap(), payload);
    }

    #[test]
    fn aead_bit_flip_always_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..100),
        flip_at in any::<prop::sample::Index>(),
    ) {
        let cipher = ChaCha20Poly1305::new(&[9u8; 32]);
        let nonce = [3u8; 12];
        let mut sealed = cipher.seal(&nonce, &payload, b"");
        let idx = flip_at.index(sealed.len());
        sealed[idx] ^= 0x40;
        prop_assert!(cipher.open(&nonce, &sealed, b"").is_err());
    }

    #[test]
    fn synthetic_generator_respects_dimensions(
        snps in 1usize..60,
        cases in 1usize..60,
        refs in 1usize..60,
        seed in any::<u64>(),
    ) {
        let sc = gendpr::genomics::synth::SyntheticCohort::builder()
            .snps(snps)
            .case_individuals(cases)
            .reference_individuals(refs)
            .seed(seed)
            .build();
        prop_assert_eq!(sc.case().individuals(), cases);
        prop_assert_eq!(sc.reference().individuals(), refs);
        prop_assert_eq!(sc.panel().len(), snps);
        prop_assert!(sc.reference_freqs().iter().all(|p| (0.0..=1.0).contains(p)));
        prop_assert!(sc.case_freqs().iter().all(|p| (0.0..=1.0).contains(p)));
    }
}
