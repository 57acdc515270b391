//! Memoization of results that are pure functions of session-fixed inputs.
//!
//! [`LrPrefixMemo`] is what the engine uses: the forced-prefix sums of the
//! seeded LR search, once per (combination, forced sequence).
//! [`MomentMemo`] is out of the protocol — a member's joint count is
//! `popcount(AND)` over ⌈n/64⌉ words, cheaper than the lookup that guarded
//! it — and serves two measuring harnesses: `bench_phases`' pooled-moment
//! row (the reference panel's long columns, asked once per combination)
//! and `benchmark/src/probes.rs`.
//!
//! Interior mutability keeps the owners' APIs `&self` (queries are
//! logically read-only); a mutex rather than a `RefCell` keeps them
//! `Sync`, and it is never contended.

use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::LrPrefixSums;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A `(a, b) → LdMoments` cache. `benchmark/src/probes.rs:223` wraps its
/// reference moments in one (`new` + `get_or_compute`), so both
/// signatures are frozen until the benchmark stops naming them.
#[derive(Debug, Default)]
pub struct MomentMemo {
    map: Mutex<HashMap<(u32, u32), LdMoments>>,
}

impl MomentMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memoized moments for `(a, b)`, computing and storing
    /// them on first request.
    pub fn get_or_compute(
        &self,
        a: SnpId,
        b: SnpId,
        compute: impl FnOnce() -> LdMoments,
    ) -> LdMoments {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *map.entry((a.0, b.0)).or_insert_with(compute)
    }
}

/// A memo of seeded LR-search prefix sums, keyed by collusion combination
/// and the exact forced SNP sequence.
///
/// A ledger-seeded leader job accumulates the forced (already-released)
/// columns into the cumulative case/null sums once per combination; every
/// later subset evaluation against the same combination and forced
/// sequence reuses the snapshot instead of re-accumulating. The key must
/// be the *sequence* (not the set): floating-point accumulation order is
/// part of the byte-identical-release contract. Entries are only valid
/// while the session inputs behind them (shard order, frequencies,
/// reference panel) are fixed — which is exactly the lifetime of the
/// serving-layer state that owns this memo.
#[derive(Debug, Default)]
pub struct LrPrefixMemo {
    map: Mutex<PrefixMap>,
}

/// Combination id + forced SNP sequence → shared prefix snapshot.
type PrefixMap = HashMap<(u32, Vec<u32>), Arc<LrPrefixSums>>;

impl LrPrefixMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memoized prefix for `(combination, forced sequence)`,
    /// computing and storing it on first request.
    pub fn get_or_compute(
        &self,
        combination: u32,
        forced: &[SnpId],
        compute: impl FnOnce() -> LrPrefixSums,
    ) -> Arc<LrPrefixSums> {
        let key = (combination, forced.iter().map(|s| s.0).collect::<Vec<_>>());
        if let Some(hit) = self.lock().get(&key) {
            return Arc::clone(hit);
        }
        // Computed outside the lock: a racing thread may duplicate the
        // (deterministic) work, but never blocks on it.
        let fresh = Arc::new(compute());
        Arc::clone(self.lock().entry(key).or_insert(fresh))
    }

    /// Number of distinct prefixes cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    #[allow(clippy::type_complexity)]
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(u32, Vec<u32>), Arc<LrPrefixSums>>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moment_memo_computes_an_ordered_pair_once() {
        let memo = MomentMemo::new();
        let moments = |v: u64| LdMoments::from_counts(v, v, v, 10);
        assert_eq!(
            memo.get_or_compute(SnpId(1), SnpId(2), || moments(1))
                .sum_xy,
            1
        );
        assert_eq!(
            memo.get_or_compute(SnpId(2), SnpId(1), || moments(2))
                .sum_xy,
            2
        );
        let back = memo.get_or_compute(SnpId(1), SnpId(2), || unreachable!());
        assert_eq!(back.sum_xy, 1);
    }

    #[test]
    fn lr_prefix_memo_keys_on_combination_and_sequence() {
        use gendpr_stats::lr::{BitLrMatrix, LrPrefixSums, LrTestParams, LrValues};
        let m = BitLrMatrix::from_indicator(3, &[0.4, 0.5], &[0.3, 0.5], |i, j| (i + j) % 2 == 0);
        let cols = m.to_columns().expect("two-valued");
        let params = LrTestParams::secure_genome_defaults();
        let accumulate = |forced: &[usize]| LrPrefixSums::accumulate(&cols, &cols, forced, &params);
        let memo = LrPrefixMemo::new();
        let mut calls = 0;
        for _ in 0..3 {
            let _ = memo.get_or_compute(0, &[SnpId(0)], || {
                calls += 1;
                accumulate(&[0])
            });
        }
        assert_eq!(calls, 1, "same combination and sequence hit the cache");
        let _ = memo.get_or_compute(1, &[SnpId(0)], || {
            calls += 1;
            accumulate(&[0])
        });
        let _ = memo.get_or_compute(0, &[SnpId(1), SnpId(0)], || {
            calls += 1;
            accumulate(&[1, 0])
        });
        assert_eq!(
            calls, 3,
            "combination and sequence are both part of the key"
        );
        assert_eq!(memo.len(), 3);
        let hit = memo.get_or_compute(0, &[SnpId(0)], || unreachable!());
        assert_eq!(*hit, accumulate(&[0]));
    }
}
