//! SNP ranking by χ² significance.
//!
//! Phase 2 keeps "the higher ranked (in terms of p-value on χ²)" SNP of a
//! dependent pair, and Phase 3 admits candidates most-significant-first.
//! Ranking needs only the aggregate singlewise tables, so the leader can
//! compute it from the counts gathered in Phase 1.

use crate::chi2::chi2_p_value;
use crate::contingency::SinglewiseTable;
use gendpr_genomics::snp::SnpId;

/// A SNP's association score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnpRank {
    /// Which SNP.
    pub snp: SnpId,
    /// χ² association p-value (smaller = more significant).
    pub p_value: f64,
}

/// Computes each candidate SNP's χ² p-value from global case/reference
/// counts.
///
/// `case_counts[j]` / `ref_counts[j]` are the pooled minor-allele counts of
/// `snps[j]`.
///
/// # Panics
///
/// Panics if the slices disagree in length.
#[must_use]
pub fn rank_by_association(
    snps: &[SnpId],
    case_counts: &[u64],
    case_total: u64,
    ref_counts: &[u64],
    ref_total: u64,
) -> Vec<SnpRank> {
    assert_eq!(snps.len(), case_counts.len(), "one case count per SNP");
    assert_eq!(snps.len(), ref_counts.len(), "one reference count per SNP");
    snps.iter()
        .zip(case_counts.iter().zip(ref_counts.iter()))
        .map(|(&snp, (&cc, &rc))| rank_one(snp, cc, case_total, rc, ref_total))
        .collect()
}

/// One SNP's entry of [`rank_by_association`]: its χ² association p-value
/// from its pooled case and reference minor-allele counts.
#[must_use]
pub fn rank_one(
    snp: SnpId,
    case_count: u64,
    case_total: u64,
    ref_count: u64,
    ref_total: u64,
) -> SnpRank {
    let table = SinglewiseTable::new(case_count, case_total, ref_count, ref_total);
    SnpRank {
        snp,
        p_value: chi2_p_value(&table),
    }
}

/// Total order on p-values that ranks NaN strictly worst (least
/// significant). A degenerate zero-variance SNP — every genotype identical,
/// so a marginal total of the χ² table is 0 — yields a NaN p-value; it must
/// sort after every real result instead of panicking the leader
/// mid-protocol, and identically on every member for determinism.
#[must_use]
pub fn cmp_p_values(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.total_cmp(&b),
        (true, true) => std::cmp::Ordering::Equal,
        // NaN is "worse" regardless of sign bit, unlike bare total_cmp.
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
    }
}

/// Sorts ranks most-significant-first (ascending p-value, NaN last; ties
/// broken by SNP id for determinism across leaders).
#[must_use]
pub fn sort_most_significant_first(mut ranks: Vec<SnpRank>) -> Vec<SnpRank> {
    ranks.sort_by(|a, b| cmp_p_values(a.p_value, b.p_value).then(a.snp.cmp(&b.snp)));
    ranks
}

/// Of two SNPs, returns the one with the better (smaller) p-value — the
/// `getMostRanked` helper of Algorithm 1. Ties prefer the first argument.
#[must_use]
pub fn most_ranked(a: SnpRank, b: SnpRank) -> SnpId {
    if cmp_p_values(b.p_value, a.p_value) == std::cmp::Ordering::Less {
        b.snp
    } else {
        a.snp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_orders_by_significance() {
        let snps = [SnpId(0), SnpId(1), SnpId(2)];
        // SNP1 is strongly associated, SNP0 mildly, SNP2 not at all.
        let ranks = rank_by_association(&snps, &[30, 80, 20], 100, &[20, 20, 20], 100);
        let sorted = sort_most_significant_first(ranks);
        assert_eq!(sorted[0].snp, SnpId(1));
        assert_eq!(sorted[1].snp, SnpId(0));
        assert_eq!(sorted[2].snp, SnpId(2));
        assert!(sorted[0].p_value < sorted[1].p_value);
    }

    #[test]
    fn ties_break_by_id() {
        let snps = [SnpId(5), SnpId(3)];
        let ranks = rank_by_association(&snps, &[10, 10], 50, &[10, 10], 50);
        let sorted = sort_most_significant_first(ranks);
        assert_eq!(sorted[0].snp, SnpId(3));
        assert_eq!(sorted[1].snp, SnpId(5));
    }

    #[test]
    fn most_ranked_picks_smaller_p() {
        let a = SnpRank {
            snp: SnpId(0),
            p_value: 0.2,
        };
        let b = SnpRank {
            snp: SnpId(1),
            p_value: 0.01,
        };
        assert_eq!(most_ranked(a, b), SnpId(1));
        assert_eq!(most_ranked(b, a), SnpId(1));
        // Tie prefers the first argument.
        let c = SnpRank {
            snp: SnpId(2),
            p_value: 0.2,
        };
        assert_eq!(most_ranked(a, c), SnpId(0));
    }

    #[test]
    #[should_panic(expected = "one case count per SNP")]
    fn mismatched_lengths_panic() {
        let _ = rank_by_association(&[SnpId(0)], &[1, 2], 10, &[1], 10);
    }

    #[test]
    fn constant_genotype_snp_ranks_worst_instead_of_panicking() {
        // SNP1's minor allele never occurs in either cohort (constant
        // genotype), making its χ² table degenerate: a marginal total is
        // 0. The guarded statistic maps that to p = 1.0, but a NaN from
        // any degenerate float path used to hit the old
        // partial_cmp().expect("p-values are finite") and panic the
        // leader mid-protocol — so harden the degenerate entry to NaN and
        // require the sort to survive and rank it worst.
        let snps = [SnpId(0), SnpId(1), SnpId(2)];
        let mut ranks = rank_by_association(&snps, &[30, 0, 20], 100, &[10, 0, 20], 100);
        ranks[1].p_value = f64::NAN;
        let sorted = sort_most_significant_first(ranks);
        assert_eq!(sorted[2].snp, SnpId(1), "NaN ranks last");
        assert!(!sorted[0].p_value.is_nan());
        // NaN never wins a pairwise comparison either.
        let nan = SnpRank {
            snp: SnpId(1),
            p_value: f64::NAN,
        };
        let real = SnpRank {
            snp: SnpId(0),
            p_value: 0.9,
        };
        assert_eq!(most_ranked(nan, real), SnpId(0));
        assert_eq!(most_ranked(real, nan), SnpId(0));
    }

    #[test]
    fn cmp_p_values_totally_orders_nans() {
        use std::cmp::Ordering::*;
        assert_eq!(cmp_p_values(f64::NAN, 0.5), Greater);
        assert_eq!(cmp_p_values(0.5, f64::NAN), Less);
        assert_eq!(cmp_p_values(f64::NAN, f64::NAN), Equal);
        assert_eq!(cmp_p_values(-f64::NAN, 0.5), Greater);
        assert_eq!(cmp_p_values(0.1, 0.5), Less);
    }
}
