//! Data-oblivious variants of the selection kernels.
//!
//! The paper's conclusion: "In future work, we plan to extend GenDPR to
//! cope with side-channel attacks against TEEs by designing an oblivious
//! version of the protocol." SGX enclaves leak through memory access
//! patterns (§2.1), so an adversary observing the leader enclave's cache
//! lines could learn which SNPs were rejected *before* the release is
//! published, or worse, properties of individual genomes.
//!
//! This module provides the oblivious building blocks for the leader-side
//! decisions, trading time for pattern-freedom:
//!
//! * [`bitonic_sort`] — a fixed-topology sorting network (the comparison
//!   sequence depends only on the input *length*), replacing the
//!   data-dependent quickselect in the LR-test's quantile,
//! * [`select_safe_subset_oblivious`] — the SecureGenome subset search
//!   with branchless keep/back-out updates: every candidate performs the
//!   same reads and writes whether it is kept or rejected,
//! * [`oblivious_maf_flags`] — Phase 1's cutoff comparison as branchless
//!   flag arithmetic.
//!
//! The selected sets are **identical** to the non-oblivious kernels
//! (asserted by tests); the overhead is measured by the `ablation`
//! binary, reproducing the literature's observation that
//! data-oblivious genomic processing pays a significant constant factor.
//!
//! The data-independence claimed here has only been argued at source
//! level: nobody has read the release assembly, and `stats::lr`'s sweeps —
//! written with the same mask select as `fselect` below — compiled to a
//! conditional jump on the secret bit until they were rewritten.

use crate::lr::{LrSelection, LrTestParams, LrValues};

/// Branchless f64 select on the bit level (safe for infinities, where
/// `mask*a + (1-mask)*b` would produce NaN): picks `a` when `choice` is 1.
#[inline]
fn fselect(choice: u8, a: f64, b: f64) -> f64 {
    debug_assert!(choice <= 1);
    let mask = u64::from(choice).wrapping_neg();
    f64::from_bits((mask & a.to_bits()) | (!mask & b.to_bits()))
}

/// Sorts `data` in place with a bitonic network padded to the next power
/// of two. The sequence of compared indices depends only on `data.len()`,
/// never on the values.
///
/// # Panics
///
/// Panics if the input contains NaN (LR sums are always finite).
pub fn bitonic_sort(data: &mut [f64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(data.iter().all(|x| !x.is_nan()), "cannot sort NaN");
    let padded = n.next_power_of_two();
    // Pad with +inf so the suffix sorts to the end and can be truncated.
    let mut buf = Vec::with_capacity(padded);
    buf.extend_from_slice(data);
    buf.resize(padded, f64::INFINITY);

    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..padded {
                let partner = i ^ j;
                if partner > i {
                    let ascending = i & k == 0;
                    // Branchless compare-exchange: min/max are compiled to
                    // branch-free instructions on f64.
                    let (lo, hi) = (buf[i].min(buf[partner]), buf[i].max(buf[partner]));
                    if ascending {
                        buf[i] = lo;
                        buf[partner] = hi;
                    } else {
                        buf[i] = hi;
                        buf[partner] = lo;
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    data.copy_from_slice(&buf[..n]);
}

/// The (1−β) quantile computed over a bitonic-sorted copy — same type-7
/// estimator as the fast path, fixed access pattern.
fn oblivious_quantile(sums: &[f64], q: f64) -> f64 {
    let mut sorted = sums.to_vec();
    bitonic_sort(&mut sorted);
    crate::special::empirical_quantile(&sorted, q)
}

/// Oblivious SecureGenome subset search. Produces exactly the same
/// selection as [`crate::lr::select_safe_subset`], but every candidate
/// column triggers the identical sequence of memory operations whether it
/// is kept or backed out, and the null-quantile uses a sorting network.
///
/// # Panics
///
/// Same conditions as [`crate::lr::select_safe_subset`].
#[must_use]
pub fn select_safe_subset_oblivious<M: LrValues + ?Sized, N: LrValues + ?Sized>(
    case: &M,
    null: &N,
    order: &[usize],
    params: &LrTestParams,
) -> LrSelection {
    assert_eq!(
        case.snps(),
        null.snps(),
        "case and null must cover the same SNPs"
    );
    assert!(
        null.individuals() > 0,
        "need reference individuals for the null model"
    );
    assert!(
        (0.0..1.0).contains(&params.false_positive_rate),
        "false-positive rate must be in [0,1)"
    );

    let mut case_sums = vec![0.0f64; case.individuals()];
    let mut null_sums = vec![0.0f64; null.individuals()];
    // One keep flag per visited candidate — written unconditionally.
    let mut keep_flags = vec![0.0f64; order.len()];
    let mut final_power = 0.0;
    let mut final_threshold = f64::INFINITY;

    for (step, &col) in order.iter().enumerate() {
        assert!(col < case.snps(), "ranking indexes a non-existent column");
        // Tentatively add the column (always).
        for (i, sum) in case_sums.iter_mut().enumerate() {
            *sum += case.get(i, col);
        }
        for (i, sum) in null_sums.iter_mut().enumerate() {
            *sum += null.get(i, col);
        }
        let threshold = oblivious_quantile(&null_sums, 1.0 - params.false_positive_rate);
        // Branchless detection count: (sum > threshold) as f64 summed.
        let detected: f64 = case_sums
            .iter()
            .map(|&s| f64::from(u8::from(s > threshold)))
            .sum();
        let power = detected / case.individuals().max(1) as f64;
        let keep = u8::from(power < params.power_threshold);
        keep_flags[step] = f64::from(keep);
        // Back the column out scaled by (1 - keep): a kept column
        // subtracts zero, a rejected one subtracts its contribution —
        // identical reads and writes either way.
        let back = 1.0 - f64::from(keep);
        for (i, sum) in case_sums.iter_mut().enumerate() {
            *sum -= back * case.get(i, col);
        }
        for (i, sum) in null_sums.iter_mut().enumerate() {
            *sum -= back * null.get(i, col);
        }
        // Track the final decision metrics branchlessly.
        final_power = fselect(keep, power, final_power);
        final_threshold = fselect(keep, threshold, final_threshold);
    }

    // The kept set itself is public output (it IS the release), so
    // materializing it non-obliviously leaks nothing new.
    let kept_columns: Vec<usize> = order
        .iter()
        .zip(keep_flags.iter())
        .filter(|(_, &flag)| flag == 1.0)
        .map(|(&col, _)| col)
        .collect();

    LrSelection {
        kept_columns,
        final_power,
        final_threshold,
    }
}

/// Phase 1's cutoff decision as branchless flag arithmetic over the whole
/// panel: returns a 0/1 flag per SNP without any data-dependent branch or
/// early exit.
#[must_use]
pub fn oblivious_maf_flags(global_freqs: &[f64], cutoff: f64) -> Vec<u8> {
    global_freqs
        .iter()
        .map(|&f| {
            let folded = f.min(1.0 - f);
            u8::from(folded >= cutoff)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr::select_safe_subset;
    use gendpr_crypto::rng::ChaChaRng;

    #[test]
    fn bitonic_sort_matches_std_sort() {
        let mut rng = ChaChaRng::from_seed_u64(1);
        for n in [0usize, 1, 2, 3, 7, 8, 9, 100, 255, 256, 1000] {
            let mut data: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
            let mut expected = data.clone();
            expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
            bitonic_sort(&mut data);
            assert_eq!(data, expected, "n = {n}");
        }
    }

    #[test]
    fn bitonic_sort_handles_duplicates_and_infinities() {
        let mut data = vec![3.0, f64::NEG_INFINITY, 3.0, 0.0, f64::INFINITY, -1.0];
        bitonic_sort(&mut data);
        assert_eq!(
            data,
            vec![f64::NEG_INFINITY, -1.0, 0.0, 3.0, 3.0, f64::INFINITY]
        );
    }

    #[test]
    #[should_panic(expected = "cannot sort NaN")]
    fn bitonic_sort_rejects_nan() {
        let mut data = vec![1.0, f64::NAN];
        bitonic_sort(&mut data);
    }

    fn random_matrices(
        snps: usize,
        n: usize,
        gap: f64,
        seed: u64,
    ) -> (crate::lr::LrMatrix, crate::lr::LrMatrix, Vec<usize>) {
        use gendpr_genomics::genotype::GenotypeMatrix;
        use gendpr_genomics::snp::SnpId;
        let mut rng = ChaChaRng::from_seed_u64(seed);
        let mut case = GenotypeMatrix::zeroed(n, snps);
        let mut reference = GenotypeMatrix::zeroed(n, snps);
        for j in 0..snps {
            let p = 0.2 + 0.3 * rng.next_f64();
            let q = (p + gap * rng.next_f64()).min(0.9);
            for i in 0..n {
                if rng.next_bool(q) {
                    case.set(i, j, true);
                }
                if rng.next_bool(p) {
                    reference.set(i, j, true);
                }
            }
        }
        use crate::lr::LrMatrix;
        let ids: Vec<SnpId> = (0..snps as u32).map(SnpId).collect();
        let cf: Vec<f64> = case
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n as f64)
            .collect();
        let rf: Vec<f64> = reference
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n as f64)
            .collect();
        let case_m = LrMatrix::from_genotypes(&case, &ids, &cf, &rf);
        let null_m = LrMatrix::from_genotypes(&reference, &ids, &cf, &rf);
        (case_m, null_m, (0..snps).collect())
    }

    #[test]
    fn oblivious_selection_equals_fast_path() {
        for seed in 0..6u64 {
            let (case, null, order) = random_matrices(30, 150, 0.25, seed);
            let params = LrTestParams {
                false_positive_rate: 0.1,
                power_threshold: 0.6,
            };
            let fast = select_safe_subset(&case, &null, &[], &order, &params, None);
            let obl = select_safe_subset_oblivious(&case, &null, &order, &params);
            assert_eq!(fast.kept_columns, obl.kept_columns, "seed {seed}");
            assert!((fast.final_power - obl.final_power).abs() < 1e-12);
            assert!(
                (fast.final_threshold - obl.final_threshold).abs() < 1e-9
                    || (fast.final_threshold.is_infinite() && obl.final_threshold.is_infinite()),
                "seed {seed}: {} vs {}",
                fast.final_threshold,
                obl.final_threshold
            );
        }
    }

    #[test]
    fn oblivious_maf_flags_match_branching_path() {
        use crate::maf::passes_maf;
        let freqs = [0.0, 0.03, 0.05, 0.2, 0.5, 0.8, 0.97, 1.0];
        let flags = oblivious_maf_flags(&freqs, 0.05);
        for (f, flag) in freqs.iter().zip(flags.iter()) {
            assert_eq!(*flag == 1, passes_maf(*f, 0.05), "freq {f}");
        }
    }

    #[test]
    fn empty_candidate_list_is_fine() {
        let (case, null, _) = random_matrices(5, 20, 0.1, 9);
        let sel = select_safe_subset_oblivious(
            &case,
            &null,
            &[],
            &LrTestParams::secure_genome_defaults(),
        );
        assert!(sel.kept_columns.is_empty());
        assert_eq!(sel.final_power, 0.0);
    }
}
