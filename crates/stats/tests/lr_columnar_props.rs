//! Property-based equivalence of the columnar LR subset search against
//! the retained scalar reference: for any two-valued LR matrices (dense,
//! decoded from a compact report, or columnar), any candidate order and
//! any forced set, the
//! selection must be **byte-identical** —
//! `kept_columns`, `final_power` and `final_threshold` all compare equal
//! as exact values.

use gendpr_crypto::rng::ChaChaRng;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::lr::{
    select_safe_subset, select_safe_subset_naive, LrColumns, LrMatrix, LrTestParams, LrValues,
};
use proptest::prelude::*;

/// A reproducible LR test fixture: genotype-derived case/null matrices
/// with empirical frequencies, plus a candidate visiting order.
#[derive(Debug, Clone)]
struct Fixture {
    case_g: GenotypeMatrix,
    null_g: GenotypeMatrix,
    ids: Vec<SnpId>,
    case_freqs: Vec<f64>,
    ref_freqs: Vec<f64>,
    order: Vec<usize>,
}

impl Fixture {
    fn generate(n_case: usize, n_ref: usize, snps: usize, gap: f64, seed: u64) -> Self {
        let mut rng = ChaChaRng::from_seed_u64(seed);
        let mut case_freqs = Vec::with_capacity(snps);
        let mut ref_freqs = Vec::with_capacity(snps);
        for j in 0..snps {
            let p = 0.15 + 0.4 * rng.next_f64();
            ref_freqs.push(p);
            case_freqs.push(if j % 3 == 0 { (p + gap).min(0.95) } else { p });
        }
        let mut case_g = GenotypeMatrix::zeroed(n_case, snps);
        let mut null_g = GenotypeMatrix::zeroed(n_ref, snps);
        for i in 0..n_case {
            for (j, &f) in case_freqs.iter().enumerate() {
                if rng.next_bool(f) {
                    case_g.set(i, j, true);
                }
            }
        }
        for i in 0..n_ref {
            for (j, &f) in ref_freqs.iter().enumerate() {
                if rng.next_bool(f) {
                    null_g.set(i, j, true);
                }
            }
        }
        // The attack model uses the empirical frequencies, as the
        // protocol would compute them.
        let cf: Vec<f64> = case_g
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n_case as f64)
            .collect();
        let rf: Vec<f64> = null_g
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n_ref as f64)
            .collect();
        Self {
            case_g,
            null_g,
            ids: (0..snps as u32).map(SnpId).collect(),
            case_freqs: cf,
            ref_freqs: rf,
            order: (0..snps).collect(),
        }
    }

    fn dense(&self) -> (LrMatrix, LrMatrix) {
        (
            LrMatrix::from_genotypes(&self.case_g, &self.ids, &self.case_freqs, &self.ref_freqs),
            LrMatrix::from_genotypes(&self.null_g, &self.ids, &self.case_freqs, &self.ref_freqs),
        )
    }

    /// Both matrices as a member's compact report reaches the leader:
    /// row-major indicator words, decoded (and transposed) into columns.
    fn reported(&self) -> (LrColumns, LrColumns) {
        let report = |g: &GenotypeMatrix| {
            let view = ColumnarGenotypes::from_matrix(g);
            let wire = view.select_row_major(&self.ids);
            LrColumns::from_row_bits(
                g.individuals(),
                self.ids.len(),
                &wire,
                &self.case_freqs,
                &self.ref_freqs,
            )
            .expect("well-formed report")
        };
        (report(&self.case_g), report(&self.null_g))
    }
}

fn fixture_strategy() -> impl Strategy<Value = Fixture> {
    (
        1usize..200,  // case individuals (crossing the 64/128 word edges)
        1usize..200,  // reference individuals
        1usize..90,   // snps (crossing the one-word column edge)
        0.0f64..0.35, // case/ref frequency gap
        any::<u64>(), // seed
    )
        .prop_map(|(n_case, n_ref, snps, gap, seed)| {
            Fixture::generate(n_case, n_ref, snps, gap, seed)
        })
}

fn params_strategy() -> impl Strategy<Value = LrTestParams> {
    (0.0f64..0.5, 0.2f64..1.0).prop_map(|(fpr, power)| LrTestParams {
        false_positive_rate: fpr,
        power_threshold: power,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_search_equals_naive_for_all_representations(
        fx in fixture_strategy(),
        params in params_strategy(),
    ) {
        let (case_d, null_d) = fx.dense();
        let reference = select_safe_subset_naive(&case_d, &null_d, &[], &fx.order, &params);

        // Dense input routed through the columnar kernels.
        prop_assert_eq!(
            &select_safe_subset(&case_d, &null_d, &[], &fx.order, &params),
            &reference
        );
        // Decoded reports (64×64 transpose path), and a mixed pairing.
        let (case_c, null_c) = fx.reported();
        prop_assert_eq!(
            &select_safe_subset(&case_c, &null_c, &[], &fx.order, &params),
            &reference
        );
        prop_assert_eq!(
            &select_safe_subset(&case_c, &null_d, &[], &fx.order, &params),
            &reference
        );
    }

    #[test]
    fn seeded_columnar_search_equals_naive(
        fx in fixture_strategy(),
        params in params_strategy(),
        split in any::<proptest::sample::Index>(),
    ) {
        // Carve a forced prefix out of the candidate order; the rest are
        // candidates (the seeded contract forbids overlap).
        let cut = split.index(fx.order.len() + 1);
        let forced = &fx.order[..cut];
        let order = &fx.order[cut..];

        let (case_d, null_d) = fx.dense();
        let reference = select_safe_subset_naive(&case_d, &null_d, forced, order, &params);
        prop_assert_eq!(
            &select_safe_subset(&case_d, &null_d, forced, order, &params),
            &reference
        );
        // The leader's route: decoded reports, the forced prefix
        // accumulated by the search itself.
        let (case_c, null_c) = fx.reported();
        prop_assert_eq!(
            &select_safe_subset(&case_c, &null_c, forced, order, &params),
            &reference
        );
    }

    #[test]
    fn to_columns_roundtrips_every_cell(fx in fixture_strategy()) {
        let (case_d, _) = fx.dense();
        let cols = case_d.to_columns().expect("LR matrices are two-valued");
        prop_assert_eq!(cols.individuals(), case_d.individuals());
        prop_assert_eq!(cols.snps(), case_d.snps());
        for i in 0..case_d.individuals() {
            for j in 0..case_d.snps() {
                prop_assert_eq!(
                    cols.get(i, j).to_bits(),
                    LrValues::get(&case_d, i, j).to_bits(),
                    "cell ({}, {})", i, j
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The attested leader's assembly: its own rows gathered from the
    /// SNP-major shard, every other member's rows validated and
    /// block-transposed from the row-major words of a compact report, all
    /// stitched column by column at row offsets that are not word-aligned.
    /// The dense row-major merge, cell by cell, and the in-process
    /// driver's assembly are the references.
    #[test]
    fn stitched_parts_equal_the_row_major_merge(
        fx in fixture_strategy(),
        cut_a in any::<proptest::sample::Index>(),
        cut_b in any::<proptest::sample::Index>(),
    ) {
        let n = fx.case_g.individuals();
        let mut cuts = [cut_a.index(n + 1), cut_b.index(n + 1)];
        cuts.sort_unstable();
        let shards: Vec<GenotypeMatrix> = [(0, cuts[0]), (cuts[0], cuts[1]), (cuts[1], n)]
            .iter()
            .map(|&(from, to)| fx.case_g.row_range(from, to - from))
            .collect();
        let views: Vec<ColumnarGenotypes> =
            shards.iter().map(ColumnarGenotypes::from_matrix).collect();
        let (cf, rf) = (&fx.case_freqs, &fx.ref_freqs);

        let parts: Vec<LrColumns> = views
            .iter()
            .enumerate()
            .map(|(g, view)| {
                if g == 0 {
                    LrColumns::from_columnar(view, &fx.ids, cf, rf)
                } else {
                    let wire = view.select_row_major(&fx.ids);
                    LrColumns::from_row_bits(view.individuals(), fx.ids.len(), &wire, cf, rf)
                        .expect("well-formed report")
                }
            })
            .collect();
        let stitched = LrColumns::concat_rows(&parts);

        let row_major: Vec<LrMatrix> = shards
            .iter()
            .map(|s| LrMatrix::from_genotypes(s, &fx.ids, cf, rf))
            .collect();
        let merged = LrMatrix::concat_rows(&row_major);
        prop_assert_eq!(stitched.individuals(), n);
        for i in 0..n {
            for j in 0..fx.ids.len() {
                prop_assert_eq!(
                    stitched.get(i, j).to_bits(),
                    merged.get(i, j).to_bits(),
                    "cell ({}, {})", i, j
                );
            }
        }
        let view_refs: Vec<&ColumnarGenotypes> = views.iter().collect();
        prop_assert_eq!(
            &stitched,
            &LrColumns::from_columnar_parts(&view_refs, &fx.ids, cf, rf)
        );
    }
}

/// Level values that break the search's null-quantile band: signed zeros,
/// infinities, NaNs of both signs, subnormals and 1e300 jumps, whose
/// back-out leaves the committed sums far from where the band expects them.
const HOSTILE_LEVELS: [f64; 12] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE,
    1e300,
    -1e300,
    1e-300,
];

/// Arbitrary two-valued case and null matrices sharing per-column levels,
/// most of them ordinary LR magnitudes and the rest drawn from
/// [`HOSTILE_LEVELS`].
fn hostile_matrices(
    n_case: usize,
    n_null: usize,
    snps: usize,
    hostile_share: f64,
    seed: u64,
) -> (LrMatrix, LrMatrix) {
    let mut rng = ChaChaRng::from_seed_u64(seed);
    let level = |rng: &mut ChaChaRng| {
        if rng.next_bool(hostile_share) {
            HOSTILE_LEVELS[(rng.next_u64() % HOSTILE_LEVELS.len() as u64) as usize]
        } else {
            4.0 * rng.next_f64() - 2.0
        }
    };
    let levels: Vec<(f64, f64, f64)> = (0..snps)
        .map(|_| (level(&mut rng), level(&mut rng), rng.next_f64()))
        .collect();
    let values = |rows: usize, rng: &mut ChaChaRng| {
        let mut v = Vec::with_capacity(rows * snps);
        for _ in 0..rows {
            for &(major, minor, freq) in &levels {
                v.push(if rng.next_bool(freq) { minor } else { major });
            }
        }
        LrMatrix::from_values(rows, snps, v)
    };
    let case = values(n_case, &mut rng);
    let null = values(n_null, &mut rng);
    (case, null)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The band kernel against the scalar reference on hostile levels, for
    /// null sizes across the 8-sum chunk and 64-bit word edges, a zero
    /// false-positive rate (`k = n − 1`, no interpolation) and forced
    /// prefixes. Power and threshold compare by bits: `==` fails on NaN.
    #[test]
    fn band_search_equals_naive_on_hostile_levels(
        sizes in (1usize..200, 1usize..80, 1usize..40),
        hostile_share in 0.0f64..0.6,
        fpr_pick in 0usize..6,
        power_threshold in 0.0f64..1.2,
        seed in any::<u64>(),
        split in any::<proptest::sample::Index>(),
    ) {
        let (n_null, n_case, snps) = sizes;
        let (case, null) = hostile_matrices(n_case, n_null, snps, hostile_share, seed);
        let params = LrTestParams {
            false_positive_rate: [0.0, 0.0, 0.01, 0.1, 0.37, 0.9][fpr_pick],
            power_threshold,
        };
        let order: Vec<usize> = (0..snps).collect();
        let cut = split.index(snps + 1);
        let (forced, order) = order.split_at(cut);

        let reference = select_safe_subset_naive(&case, &null, forced, order, &params);
        let fast = select_safe_subset(&case, &null, forced, order, &params);
        prop_assert_eq!(&fast.kept_columns, &reference.kept_columns);
        prop_assert_eq!(fast.final_power.to_bits(), reference.final_power.to_bits());
        prop_assert_eq!(
            fast.final_threshold.to_bits(),
            reference.final_threshold.to_bits()
        );
    }
}

/// A column of [`one_sweep_matrices`]: what the search does with it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// The same small levels on both sides: the attack gains nothing, kept.
    Keep,
    /// Case levels far above the null's: every case sum clears the
    /// threshold, rejected.
    Reject,
    /// A reject whose null levels are ±1e300 (and case levels above them):
    /// its back-out, `(s + v) − v`, leaves every sum at a round-off of
    /// zero, so the next candidate's band (built from the committed
    /// statistics) misses and the full quickselect runs over the sums of
    /// the sweep that backed it out.
    Annihilate,
}

/// Case and null matrices column by column from `plans`, each individual
/// on a level by a coin of the column's frequency.
fn one_sweep_matrices(
    plans: &[Plan],
    n_case: usize,
    n_null: usize,
    rng: &mut ChaChaRng,
) -> (LrMatrix, LrMatrix) {
    let small = |rng: &mut ChaChaRng| 0.4 * rng.next_f64() - 0.2;
    let (mut case_levels, mut null_levels, mut freqs) = (Vec::new(), Vec::new(), Vec::new());
    for plan in plans {
        let null = match plan {
            Plan::Annihilate => (1e300, -1e300),
            Plan::Keep | Plan::Reject => (small(rng), small(rng)),
        };
        case_levels.push(match plan {
            Plan::Keep => null,
            Plan::Reject => (20.0 + rng.next_f64(), 30.0 + rng.next_f64()),
            Plan::Annihilate => (2e300, 3e300),
        });
        null_levels.push(null);
        freqs.push(0.2 + 0.6 * rng.next_f64());
    }
    let mut values = |rows: usize, levels: &[(f64, f64)]| {
        let mut v = Vec::with_capacity(rows * levels.len());
        for _ in 0..rows {
            for (&(major, minor), &freq) in levels.iter().zip(&freqs) {
                v.push(if rng.next_bool(freq) { minor } else { major });
            }
        }
        LrMatrix::from_values(rows, levels.len(), v)
    };
    let case = values(n_case, &case_levels);
    let null = values(n_null, &null_levels);
    (case, null)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-sweep search, which backs a rejected column out in the next
    /// candidate's sweep, on the paths that exposes: long reject streaks,
    /// a band miss right after a reject (the full quickselect over the
    /// sums of the sweep that backed it out) and forced prefixes of every
    /// kind of column ahead of the candidates.
    /// The selection must be the reference's, power and threshold by bits.
    #[test]
    fn one_sweep_search_equals_naive_on_streaks_misses_and_prefixes(
        sizes in (1usize..150, 1usize..150, 2usize..60),
        streak in 1usize..25,
        miss_share in 0.0f64..0.4,
        fpr_pick in 0usize..4,
        power_threshold in 0.3f64..0.95,
        seed in any::<u64>(),
        split in any::<proptest::sample::Index>(),
    ) {
        let (n_null, n_case, snps) = sizes;
        let mut rng = ChaChaRng::from_seed_u64(seed);
        // Runs of up to `streak` rejects (some of them annihilating), each
        // run closed by a kept column.
        let mut plans = Vec::with_capacity(snps);
        while plans.len() < snps {
            let run = 1 + (rng.next_u64() % streak as u64) as usize;
            for _ in 0..run.min(snps - plans.len()) {
                plans.push(if rng.next_bool(miss_share) { Plan::Annihilate } else { Plan::Reject });
            }
            if plans.len() < snps {
                plans.push(Plan::Keep);
            }
        }
        let (case, null) = one_sweep_matrices(&plans, n_case, n_null, &mut rng);
        let params = LrTestParams {
            false_positive_rate: [0.0, 0.05, 0.1, 0.3][fpr_pick],
            power_threshold,
        };
        let columns: Vec<usize> = (0..snps).collect();
        let (forced, order) = columns.split_at(split.index(snps / 2 + 1));

        let reference = select_safe_subset_naive(&case, &null, forced, order, &params);
        let (case_c, null_c) = (case.to_columns().unwrap(), null.to_columns().unwrap());
        for fast in [
            select_safe_subset(&case, &null, forced, order, &params),
            select_safe_subset(&case_c, &null_c, forced, order, &params),
        ] {
            prop_assert_eq!(&fast.kept_columns, &reference.kept_columns);
            prop_assert_eq!(fast.final_power.to_bits(), reference.final_power.to_bits());
            prop_assert_eq!(
                fast.final_threshold.to_bits(),
                reference.final_threshold.to_bits()
            );
        }
        // The fixture does what it is for: a reject follows a reject —
        // unless a forced ±1e300 column left every case sum below the
        // threshold.
        let rejected: Vec<bool> = order
            .iter()
            .map(|c| !reference.kept_columns.contains(c))
            .collect();
        let streaks = rejected.windows(2).any(|w| w[0] && w[1]);
        let two_rejects = order.windows(2).any(|w| plans[w[0]] != Plan::Keep && plans[w[1]] != Plan::Keep);
        let forced_annihilate = forced.iter().any(|&c| plans[c] == Plan::Annihilate);
        prop_assert!(
            streaks || !two_rejects || forced_annihilate,
            "no reject streak: forced {:?}, plans {:?}",
            forced,
            plans
        );
    }
}

/// Three-valued columns must refuse the columnar view and fall back to the
/// reference path (not silently mis-pack).
#[test]
fn three_valued_matrix_declines_columnar_view() {
    let m = LrMatrix::from_values(3, 1, vec![0.25, 0.5, 0.75]);
    assert!(m.to_columns().is_none());
    let null = LrMatrix::from_values(2, 1, vec![0.1, 0.2]);
    let params = LrTestParams::secure_genome_defaults();
    // Still selects, via the naive fallback.
    let sel = select_safe_subset(&m, &null, &[], &[0], &params);
    assert_eq!(sel, select_safe_subset_naive(&m, &null, &[], &[0], &params));
}

/// `+0.0` and `-0.0` are distinct level values for the kernels: the bit
/// pattern matters for summation and `total_cmp` ordering.
#[test]
fn signed_zero_levels_stay_distinct() {
    let m = LrMatrix::from_values(2, 1, vec![0.0, -0.0]);
    let cols = m.to_columns().expect("two bitwise-distinct values");
    assert_eq!(cols.get(0, 0).to_bits(), 0.0f64.to_bits());
    assert_eq!(cols.get(1, 0).to_bits(), (-0.0f64).to_bits());
}
