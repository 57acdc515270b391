//! Memoization of pooled LD moments: [`MomentMemo`]. It is out of the
//! protocol — a member's joint count is `popcount(AND)` over ⌈n/64⌉
//! words, cheaper than the lookup that guarded it — and serves two
//! measuring harnesses: `bench_phases`' pooled-moment row (the reference
//! panel's long columns, asked once per combination) and
//! `benchmark/src/probes.rs`.
//!
//! Interior mutability keeps the API `&self` (queries are logically
//! read-only); a mutex rather than a `RefCell` keeps it `Sync`, and it is
//! never contended.

use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use std::collections::HashMap;
use std::sync::Mutex;

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
}
