//! Phase 2: LD analysis (Algorithm 1 lines 28–58).
//!
//! A greedy left-to-right scan over `L'`: the current *survivor* is
//! compared against the next retained SNP; if the pair's r² p-value is
//! above the cutoff they are independent and both stay, otherwise only the
//! better-χ²-ranked of the two survives. The scan needs the **pooled**
//! moments of each compared pair, which the leader obtains by querying
//! every member (plus the reference set) — abstracted here as a moments
//! oracle so the same scan drives the distributed protocol, the threaded
//! runtime and the centralized baseline. A pair is decided by an
//! [`LdTest`], built once per cutoff: the same decision as comparing the
//! p-value with the cutoff, mostly taken from the statistic alone.

use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::{LdMoments, LdTest};

/// The LD scan as a resumable state: [`pending`](Self::pending) names the
/// pair whose pooled moments the scan needs next, [`feed`](Self::feed)
/// decides it. A caller that must wait for a pair's moments (the attested
/// leader, one message round per miss) can advance several scans between
/// waits; [`run_ld_scan`] is the loop over one.
#[derive(Debug, Clone)]
pub struct LdScan<'a> {
    l_prime: &'a [SnpId],
    // Index into `l_prime` of the SNP the survivor is compared with next.
    next: usize,
    retained: Vec<SnpId>,
}

impl<'a> LdScan<'a> {
    /// A scan over `l_prime`, positioned before its first comparison.
    #[must_use]
    pub fn new(l_prime: &'a [SnpId]) -> Self {
        Self {
            l_prime,
            next: 1,
            retained: l_prime.first().copied().into_iter().collect(),
        }
    }

    /// The `(survivor, next)` pair to compare, or `None` once the scan is
    /// complete.
    #[must_use]
    pub fn pending(&self) -> Option<(SnpId, SnpId)> {
        Some((*self.retained.last()?, *self.l_prime.get(self.next)?))
    }

    /// Decides the pending pair from its **aggregated** moments.
    ///
    /// # Panics
    ///
    /// Panics if no pair is pending.
    pub fn feed(&mut self, pooled: LdMoments, rank_p_value: impl Fn(SnpId) -> f64, test: &LdTest) {
        let (current, next) = self.pending().expect("a pair is pending");
        self.next += 1;
        if test.independent(&pooled) {
            self.retained.push(next);
        } else if rank_p_value(next) < rank_p_value(current) {
            // Dependent: keep the better-ranked SNP (smaller p-value wins;
            // ties keep the earlier SNP, matching ranking::most_ranked).
            self.retained.pop();
            self.retained.push(next);
        }
    }

    /// `L''` in panel order (of the pairs decided so far).
    #[must_use]
    pub fn into_retained(self) -> Vec<SnpId> {
        self.retained
    }
}

/// Runs the LD scan over `l_prime`.
///
/// * `moments` — oracle returning the **aggregated** moments of a pair
///   (federation-wide plus reference),
/// * `rank_p_value` — each SNP's χ² association p-value (for
///   `getMostRanked`),
/// * `ld_cutoff` — pairs with p-value ≤ cutoff are dependent (decided by
///   the cutoff's [`LdTest`]).
///
/// Returns `L''` in panel order.
#[must_use]
pub fn run_ld_scan(
    l_prime: &[SnpId],
    mut moments: impl FnMut(SnpId, SnpId) -> LdMoments,
    rank_p_value: impl Fn(SnpId) -> f64,
    ld_cutoff: f64,
) -> Vec<SnpId> {
    let test = LdTest::new(ld_cutoff);
    let mut scan = LdScan::new(l_prime);
    while let Some((current, next)) = scan.pending() {
        scan.feed(moments(current, next), &rank_p_value, &test);
    }
    scan.into_retained()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_stats::ld::is_independent;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::HashMap;

    // Perfectly correlated 1000-individual pair: p ~ 0.
    const DEPENDENT: LdMoments = LdMoments {
        sum_x: 500,
        sum_y: 500,
        sum_xy: 500,
        sum_xx: 500,
        sum_yy: 500,
        n: 1000,
    };
    // Independent balanced pair: r² = 0.
    const INDEPENDENT: LdMoments = LdMoments {
        sum_xy: 250,
        ..DEPENDENT
    };

    /// Oracle over a fixed p-value map keyed by (a, b); moments are forged
    /// so that `p_value()` is 1.0 (independent) unless the pair is listed.
    fn scan_with(snps: &[u32], dependent_pairs: &[(u32, u32)], ranks: &[(u32, f64)]) -> Vec<u32> {
        let dep: std::collections::HashSet<(u32, u32)> = dependent_pairs.iter().copied().collect();
        let rank: HashMap<u32, f64> = ranks.iter().copied().collect();
        let ids: Vec<SnpId> = snps.iter().map(|&s| SnpId(s)).collect();
        let queries = RefCell::new(0usize);
        let out = run_ld_scan(
            &ids,
            |a, b| {
                *queries.borrow_mut() += 1;
                if dep.contains(&(a.0, b.0)) {
                    DEPENDENT
                } else {
                    INDEPENDENT
                }
            },
            |s| rank.get(&s.0).copied().unwrap_or(0.5),
            1e-5,
        );
        assert_eq!(*queries.borrow(), ids.len().saturating_sub(1));
        out.into_iter().map(|s| s.0).collect()
    }

    /// The scan as it was written before [`LdScan`] existed, verbatim: the
    /// oracle the stepper is checked against.
    fn run_ld_scan_before_the_stepper(
        l_prime: &[SnpId],
        mut moments: impl FnMut(SnpId, SnpId) -> LdMoments,
        rank_p_value: impl Fn(SnpId) -> f64,
        ld_cutoff: f64,
    ) -> Vec<SnpId> {
        let mut retained: Vec<SnpId> = Vec::new();
        let mut iter = l_prime.iter().copied();
        let Some(first) = iter.next() else {
            return retained;
        };
        retained.push(first);

        for next in iter {
            let current = *retained.last().expect("retained is never empty here");
            let pooled = moments(current, next);
            if is_independent(pooled.p_value(), ld_cutoff) {
                retained.push(next);
            } else {
                // Dependent: keep the better-ranked SNP (smaller p-value wins;
                // ties keep the earlier SNP, matching ranking::most_ranked).
                if rank_p_value(next) < rank_p_value(current) {
                    retained.pop();
                    retained.push(next);
                }
            }
        }
        retained
    }

    proptest! {
        /// Same `retained`, same pairs asked in the same order, for any
        /// dependence map and rank table: `density` 0 keeps everything, 100
        /// is one all-dependent chain, and four rank levels make ties
        /// common. Lengths 0 and 1 ask nothing.
        #[test]
        fn the_stepper_asks_and_keeps_what_the_loop_did(
            len in 0usize..40,
            levels in proptest::collection::vec(0u8..4, 40..41),
            density in 0u64..=100,
            salt in any::<u64>(),
        ) {
            let ids: Vec<SnpId> = (0..len as u32).map(|s| SnpId(3 * s + 1)).collect();
            let rank = |s: SnpId| f64::from(levels[(s.0 / 3) as usize]) / 4.0;
            let moments = |a: SnpId, b: SnpId| {
                let mix = (u64::from(a.0) << 32 | u64::from(b.0)) ^ salt;
                if (mix.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 100 < density {
                    DEPENDENT
                } else {
                    INDEPENDENT
                }
            };

            let mut asked_before = Vec::new();
            let before = run_ld_scan_before_the_stepper(
                &ids,
                |a, b| {
                    asked_before.push((a, b));
                    moments(a, b)
                },
                rank,
                1e-5,
            );

            let mut asked = Vec::new();
            let mut scan = LdScan::new(&ids);
            while let Some((a, b)) = scan.pending() {
                asked.push((a, b));
                scan.feed(moments(a, b), rank, &LdTest::new(1e-5));
            }
            prop_assert_eq!(&asked, &asked_before);
            prop_assert_eq!(scan.into_retained(), before.clone());
            prop_assert_eq!(run_ld_scan(&ids, moments, rank, 1e-5), before);
        }
    }

    #[test]
    fn all_independent_keeps_everything() {
        assert_eq!(scan_with(&[0, 1, 2, 3], &[], &[]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dependent_pair_keeps_better_ranked() {
        // 0-1 dependent; 1 ranks better (smaller p) -> 1 replaces 0.
        assert_eq!(
            scan_with(&[0, 1, 2], &[(0, 1)], &[(0, 0.5), (1, 0.01)]),
            vec![1, 2]
        );
        // 0 ranks better -> 1 dropped.
        assert_eq!(
            scan_with(&[0, 1, 2], &[(0, 1)], &[(0, 0.01), (1, 0.5)]),
            vec![0, 2]
        );
    }

    #[test]
    fn tie_keeps_earlier_snp() {
        assert_eq!(
            scan_with(&[0, 1], &[(0, 1)], &[(0, 0.3), (1, 0.3)]),
            vec![0]
        );
    }

    #[test]
    fn chain_of_dependence_collapses_to_one() {
        // Every adjacent pair dependent, ranks improving rightward.
        let out = scan_with(
            &[0, 1, 2, 3],
            &[(0, 1), (1, 2), (2, 3)],
            &[(0, 0.4), (1, 0.3), (2, 0.2), (3, 0.1)],
        );
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn survivor_is_compared_with_later_snps() {
        // 1 is dropped against 0; then the scan compares (0, 2) — which is
        // also dependent — so only the best of the chain remains.
        let out = scan_with(
            &[0, 1, 2],
            &[(0, 1), (0, 2)],
            &[(0, 0.1), (1, 0.5), (2, 0.5)],
        );
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(scan_with(&[], &[], &[]), Vec::<u32>::new());
        assert_eq!(scan_with(&[7], &[], &[]), vec![7]);
    }
}
