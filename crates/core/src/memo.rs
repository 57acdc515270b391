//! Per-member LD-moment memoization.
//!
//! Collusion tolerance re-runs the LD phase once per member combination
//! (§5.6), and a member belongs to most combinations — under `AllUpTo`
//! the same `(a, b)` pair is requested an exponential number of times.
//! The moments are a pure function of the member's shard, so each member
//! computes a pair once and serves every later request from this memo.
//!
//! Interior mutability keeps the owning node's API `&self` (queries are
//! logically read-only); a mutex rather than a `RefCell` keeps the node
//! `Sync`, and it is never contended.

use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::LrPrefixSums;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A `(a, b) → LdMoments` cache.
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
        let key = (a.0, b.0);
        if let Some(&hit) = self.lock().get(&key) {
            return hit;
        }
        // Computed outside the lock: a racing thread may duplicate the
        // (deterministic) work, but never blocks on it.
        let fresh = compute();
        self.lock().entry(key).or_insert(fresh);
        fresh
    }

    /// Number of distinct pairs cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(u32, u32), LdMoments>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Clone for MomentMemo {
    fn clone(&self) -> Self {
        Self {
            map: Mutex::new(self.lock().clone()),
        }
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

    fn moments(v: u64) -> LdMoments {
        LdMoments::from_counts(v, v, v, 10)
    }

    #[test]
    fn caches_first_computation() {
        let memo = MomentMemo::new();
        let mut calls = 0;
        for _ in 0..5 {
            let m = memo.get_or_compute(SnpId(1), SnpId(2), || {
                calls += 1;
                moments(3)
            });
            assert_eq!(m.sum_xy, 3);
        }
        assert_eq!(calls, 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn keys_are_ordered_pairs() {
        let memo = MomentMemo::new();
        memo.get_or_compute(SnpId(1), SnpId(2), || moments(1));
        memo.get_or_compute(SnpId(2), SnpId(1), || moments(2));
        assert_eq!(memo.len(), 2, "(a,b) and (b,a) are distinct queries");
        let back = memo.get_or_compute(SnpId(2), SnpId(1), || unreachable!());
        assert_eq!(back.sum_xy, 2);
    }

    #[test]
    fn clone_carries_cache() {
        let memo = MomentMemo::new();
        memo.get_or_compute(SnpId(0), SnpId(1), || moments(7));
        let copy = memo.clone();
        assert_eq!(copy.len(), 1);
        let hit = copy.get_or_compute(SnpId(0), SnpId(1), || unreachable!());
        assert_eq!(hit.sum_xy, 7);
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

    #[test]
    fn concurrent_queries_agree() {
        let memo = MomentMemo::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..50u32 {
                        let m =
                            memo.get_or_compute(SnpId(i), SnpId(i + 1), || moments(u64::from(i)));
                        assert_eq!(m.sum_x, u64::from(i));
                    }
                });
            }
        });
        assert_eq!(memo.len(), 50);
    }
}
