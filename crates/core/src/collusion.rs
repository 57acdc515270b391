//! Collusion-tolerance machinery (paper §5.6, §6.1).
//!
//! Up to `f` honest-but-curious members may pool their knowledge. Because
//! colluders know their own inputs, they can subtract them from any
//! released aggregate and isolate the remaining honest members' data. To
//! certify that no such isolation enables a membership attack, GenDPR
//! re-evaluates every phase over each combination of `G − f` members and
//! releases only SNPs safe in *every* combination (set intersection).

use crate::config::CollusionMode;
use gendpr_genomics::snp::SnpId;

/// All `k`-element subsets of `0..n`, in lexicographic order.
///
/// # Panics
///
/// Panics if `k > n`.
#[must_use]
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    assert!(k <= n, "cannot choose {k} of {n}");
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..k).collect();
    if k == 0 {
        return vec![Vec::new()];
    }
    loop {
        out.push(current.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if current[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        current[i] += 1;
        for j in i + 1..k {
            current[j] = current[j - 1] + 1;
        }
    }
}

/// Binomial coefficient `C(n, k)`.
///
/// The multiply-then-divide recurrence is evaluated in `u128`: the
/// intermediate `result * (n - i)` can exceed `u64` even when the final
/// value fits (e.g. `C(64, 32)`), which silently wrapped before.
///
/// # Panics
///
/// Panics if the final coefficient itself exceeds `u64::MAX`.
#[must_use]
pub fn combination_count(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result = 1u128;
    for i in 0..k {
        result = result * (n - i) as u128 / (i + 1) as u128;
    }
    u64::try_from(result).expect("C(n, k) exceeds u64")
}

/// The member subsets a given collusion mode requires evaluating.
///
/// The full federation is always evaluated (the release itself must be
/// safe with zero colluders); `Fixed(f)` adds every `G−f` subset,
/// `AllUpTo` adds every subset size from 1 to `G−1`.
///
/// # Panics
///
/// Panics if the mode is invalid for `g` (use
/// [`crate::config::FederationConfig::validate`] first).
#[must_use]
pub fn evaluation_subsets(g: usize, mode: CollusionMode) -> Vec<Vec<usize>> {
    let full: Vec<usize> = (0..g).collect();
    match mode {
        CollusionMode::None => vec![full],
        CollusionMode::Fixed(f) => {
            assert!(f >= 1 && f < g, "f must be in 1..G");
            let mut subsets = vec![full];
            subsets.extend(combinations(g, g - f));
            subsets
        }
        CollusionMode::AllUpTo => {
            let mut subsets = vec![full];
            for f in 1..g {
                subsets.extend(combinations(g, g - f));
            }
            subsets
        }
    }
}

/// Intersects per-combination SNP selections, preserving the order of the
/// first (panel order, as the phases produce them) — `getIntersection` of
/// §6.1. Consecutive repeats in the first selection collapse to one.
///
/// # Panics
///
/// Panics on an empty selection list (at least the full-set evaluation is
/// always present).
#[must_use]
pub fn intersect_selections(selections: &[Vec<SnpId>]) -> Vec<SnpId> {
    assert!(!selections.is_empty(), "need at least one selection");
    // Round-stamped survival in a vector indexed by SNP id, as wide as the
    // first selection's largest id: an id survives round `r` only if it
    // was present in every earlier selection too. Round 0 marks the first
    // selection's ids, so stamps are offset by one and 0 means absent.
    let width = selections[0]
        .iter()
        .map(|id| id.index() + 1)
        .max()
        .unwrap_or(0);
    let mut last_round = vec![0u32; width];
    for id in &selections[0] {
        last_round[id.index()] = 1;
    }
    for (round, sel) in (2u32..).zip(&selections[1..]) {
        for id in sel {
            if let Some(seen) = last_round.get_mut(id.index()) {
                if *seen == round - 1 {
                    *seen = round;
                }
            }
        }
    }
    let final_round = selections.len() as u32;
    let mut out: Vec<SnpId> = selections[0]
        .iter()
        .copied()
        .filter(|id| last_round[id.index()] == final_round)
        .collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_enumerate_lexicographically() {
        assert_eq!(
            combinations(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(combinations(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(combinations(5, 1).len(), 5);
    }

    #[test]
    fn combination_count_matches_enumeration() {
        for n in 0..=8 {
            for k in 0..=n {
                assert_eq!(
                    combination_count(n, k),
                    combinations(n, k).len() as u64,
                    "C({n},{k})"
                );
            }
        }
        assert_eq!(combination_count(3, 5), 0);
    }

    #[test]
    fn combination_count_survives_large_n() {
        // Additive Pascal triangle as the overflow-free reference: every
        // C(n, k) that fits u64 must match. The old multiply-first u64
        // recurrence wrapped around n = 62 (e.g. C(64, 32)'s intermediate
        // product exceeds u64::MAX by ~3x).
        let mut row: Vec<u128> = vec![1];
        for n in 1..=64usize {
            let mut next = vec![1u128; n + 1];
            for k in 1..n {
                next[k] = row[k - 1] + row[k];
            }
            row = next;
            for (k, &expected) in row.iter().enumerate() {
                if let Ok(expected) = u64::try_from(expected) {
                    assert_eq!(combination_count(n, k), expected, "C({n},{k})");
                }
            }
        }
        assert_eq!(combination_count(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(combination_count(62, 31), 465_428_353_255_261_088);
    }

    #[test]
    #[should_panic(expected = "exceeds u64")]
    fn combination_count_rejects_results_beyond_u64() {
        let _ = combination_count(80, 40);
    }

    #[test]
    fn evaluation_subsets_none_is_just_full() {
        assert_eq!(
            evaluation_subsets(3, CollusionMode::None),
            vec![vec![0, 1, 2]]
        );
    }

    #[test]
    fn evaluation_subsets_fixed() {
        // G = 3, f = 1: full set + every 2-subset.
        let subsets = evaluation_subsets(3, CollusionMode::Fixed(1));
        assert_eq!(subsets.len(), 1 + 3);
        assert_eq!(subsets[0], vec![0, 1, 2]);
        // G = 3, f = 2: full set + every singleton.
        let subsets = evaluation_subsets(3, CollusionMode::Fixed(2));
        assert_eq!(subsets.len(), 1 + 3);
        assert!(subsets.contains(&vec![2]));
    }

    #[test]
    fn evaluation_subsets_all_up_to() {
        // G = 3: full + C(3,2) + C(3,1) = 1 + 3 + 3.
        let subsets = evaluation_subsets(3, CollusionMode::AllUpTo);
        assert_eq!(subsets.len(), 7);
        // G = 4: 1 + C(4,3) + C(4,2) + C(4,1) = 1 + 4 + 6 + 4 = 15.
        assert_eq!(evaluation_subsets(4, CollusionMode::AllUpTo).len(), 15);
    }

    #[test]
    fn intersection_preserves_order_of_first() {
        let sels = vec![
            vec![SnpId(3), SnpId(1), SnpId(7)],
            vec![SnpId(1), SnpId(3)],
            vec![SnpId(7), SnpId(3), SnpId(1)],
        ];
        assert_eq!(intersect_selections(&sels), vec![SnpId(3), SnpId(1)]);
    }

    #[test]
    fn intersection_with_disjoint_is_empty() {
        let sels = vec![vec![SnpId(1)], vec![SnpId(2)]];
        assert!(intersect_selections(&sels).is_empty());
    }

    /// The map fold `intersect_selections` ran before its stamp vector.
    fn intersect_by_map(selections: &[Vec<SnpId>]) -> Vec<SnpId> {
        let mut last_round: std::collections::HashMap<SnpId, u32> =
            selections[0].iter().map(|&id| (id, 0)).collect();
        for (round, sel) in (1u32..).zip(&selections[1..]) {
            for id in sel {
                if let Some(seen) = last_round.get_mut(id) {
                    if *seen == round - 1 {
                        *seen = round;
                    }
                }
            }
        }
        let final_round = (selections.len() - 1) as u32;
        let mut out: Vec<SnpId> = selections[0]
            .iter()
            .copied()
            .filter(|id| last_round.get(id) == Some(&final_round))
            .collect();
        out.dedup();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Sorted selections with repeats (and, when `shuffle_first`, a first
        /// selection out of order): the stamp vector keeps exactly what the
        /// map fold kept, in the same order.
        #[test]
        fn the_stamp_vector_intersects_as_the_map_fold_did(
            selections in proptest::collection::vec(
                proptest::collection::vec(0u32..80, 0..40),
                1..6,
            ),
            shuffle_first in proptest::prelude::any::<bool>(),
        ) {
            let mut sels: Vec<Vec<SnpId>> = selections
                .iter()
                .map(|v| {
                    let mut ids: Vec<SnpId> = v.iter().map(|&x| SnpId(x)).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            if shuffle_first {
                sels[0].reverse();
                let half = sels[0].len() / 2;
                sels[0].rotate_left(half);
            }
            proptest::prop_assert_eq!(intersect_selections(&sels), intersect_by_map(&sels));
        }
    }

    #[test]
    fn intersection_is_monotone_in_subset_count() {
        // More combinations can only shrink the result.
        let base = vec![vec![SnpId(1), SnpId(2), SnpId(3)], vec![SnpId(1), SnpId(2)]];
        let more = {
            let mut m = base.clone();
            m.push(vec![SnpId(2)]);
            m
        };
        let a = intersect_selections(&base);
        let b = intersect_selections(&more);
        assert!(b.iter().all(|id| a.contains(id)));
        assert!(b.len() <= a.len());
    }
}
