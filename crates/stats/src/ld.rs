//! Linkage-disequilibrium (LD) analysis — Phase 2 of GenDPR.
//!
//! Two SNPs in high LD are statistically dependent; releasing both hands an
//! adversary correlated information (paper §3.2.2), and dependence violates
//! the LR-test's independence assumption. GenDPR's key trick is that the
//! correlation between two 0/1 columns is a function of six *additive*
//! moments (Σx, Σy, Σxy, Σx², Σy², n), so each GDO can outsource its local
//! moments and the leader sums them — no genotypes leave the premises.

use crate::special::chi2_sf;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;

/// The additive correlation moments for one pair of SNPs — exactly the
/// `μ_l, μ_{l+1}, μ_{(l,l+1)}, μ_{l²}, μ_{(l+1)²}` a GDO outsources in
/// Algorithm 1 lines 35–41.
///
/// For 0/1 alleles `Σx² = Σx`, but the squares are carried explicitly so
/// the structure matches the protocol (and generalizes to dosage data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LdMoments {
    /// `Σ_n x_n` — minor count at the first SNP.
    pub sum_x: u64,
    /// `Σ_n y_n` — minor count at the second SNP.
    pub sum_y: u64,
    /// `Σ_n x_n·y_n` — joint minor count.
    pub sum_xy: u64,
    /// `Σ_n x_n²`.
    pub sum_xx: u64,
    /// `Σ_n y_n²`.
    pub sum_yy: u64,
    /// Number of individuals contributing.
    pub n: u64,
}

impl LdMoments {
    /// Computes the local moments of one GDO's genotype shard for SNP pair
    /// `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    #[must_use]
    pub fn from_matrix(m: &GenotypeMatrix, a: SnpId, b: SnpId) -> Self {
        let sum_x = m.column_count(a);
        let sum_y = m.column_count(b);
        let sum_xy = m.pair_count(a, b);
        Self {
            sum_x,
            sum_y,
            sum_xy,
            sum_xx: sum_x, // x ∈ {0,1} ⇒ x² = x
            sum_yy: sum_y,
            n: m.individuals() as u64,
        }
    }

    /// Builds moments from already-known counts: the two marginal minor
    /// counts (the MAF phase computed them), the joint count and the cohort
    /// size. Every driver takes this path, since only `Σxy` needs a fresh
    /// pass over the genotypes — a `popcount(AND)` over two SNP-major
    /// columns (`ColumnarGenotypes::pair_count`).
    #[must_use]
    pub fn from_counts(count_a: u64, count_b: u64, joint: u64, n: u64) -> Self {
        Self {
            sum_x: count_a,
            sum_y: count_b,
            sum_xy: joint,
            sum_xx: count_a,
            sum_yy: count_b,
            n,
        }
    }

    /// Aggregates another member's moments (leader-side `+=` of
    /// Algorithm 1 lines 35–46).
    #[must_use]
    pub fn merge(self, other: LdMoments) -> LdMoments {
        LdMoments {
            sum_x: self.sum_x + other.sum_x,
            sum_y: self.sum_y + other.sum_y,
            sum_xy: self.sum_xy + other.sum_xy,
            sum_xx: self.sum_xx + other.sum_xx,
            sum_yy: self.sum_yy + other.sum_yy,
            n: self.n + other.n,
        }
    }

    /// Pearson r² between the two SNPs.
    ///
    /// Returns 0 when either SNP is monomorphic in the pooled data.
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let sx = self.sum_x as f64;
        let sy = self.sum_y as f64;
        let sxy = self.sum_xy as f64;
        let sxx = self.sum_xx as f64;
        let syy = self.sum_yy as f64;
        let cov = n * sxy - sx * sy;
        let var_x = n * sxx - sx * sx;
        let var_y = n * syy - sy * sy;
        if var_x <= 0.0 || var_y <= 0.0 {
            return 0.0;
        }
        ((cov * cov) / (var_x * var_y)).min(1.0)
    }

    /// P-value on r² — `computeR2` in Algorithm 1. Under independence,
    /// `n·r²` is asymptotically χ²(1), the standard LD significance test.
    #[must_use]
    pub fn p_value(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        chi2_sf(self.n as f64 * self.r_squared(), 1)
    }
}

/// Phase 2 decision for one pair: SNPs are *independent* (both can stay)
/// iff the p-value is at or above the LD cutoff. The paper treats p-values
/// below 1e-5 as evidence of dependence.
#[must_use]
pub fn is_independent(p_value: f64, ld_cutoff: f64) -> bool {
    p_value > ld_cutoff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_from(rows: &[(u8, u8)]) -> GenotypeMatrix {
        let mut m = GenotypeMatrix::zeroed(rows.len(), 2);
        for (i, &(x, y)) in rows.iter().enumerate() {
            if x == 1 {
                m.set(i, 0, true);
            }
            if y == 1 {
                m.set(i, 1, true);
            }
        }
        m
    }

    #[test]
    fn moments_from_matrix() {
        let m = matrix_from(&[(0, 0), (1, 0), (1, 1), (0, 1), (1, 1)]);
        let mo = LdMoments::from_matrix(&m, SnpId(0), SnpId(1));
        assert_eq!(mo.sum_x, 3);
        assert_eq!(mo.sum_y, 3);
        assert_eq!(mo.sum_xy, 2);
        assert_eq!(mo.sum_xx, 3);
        assert_eq!(mo.n, 5);
    }

    #[test]
    fn merge_equals_pooled_computation() {
        let rows = [(0u8, 0u8), (1, 0), (1, 1), (0, 1), (1, 1), (0, 0), (1, 1)];
        let pooled = matrix_from(&rows);
        let shard1 = matrix_from(&rows[..3]);
        let shard2 = matrix_from(&rows[3..]);
        let merged = LdMoments::from_matrix(&shard1, SnpId(0), SnpId(1))
            .merge(LdMoments::from_matrix(&shard2, SnpId(0), SnpId(1)));
        let direct = LdMoments::from_matrix(&pooled, SnpId(0), SnpId(1));
        assert_eq!(merged, direct);
        assert!((merged.r_squared() - direct.r_squared()).abs() < 1e-15);
    }

    #[test]
    fn perfect_correlation() {
        let m = matrix_from(&[(0, 0), (1, 1), (1, 1), (0, 0), (1, 1)]);
        let mo = LdMoments::from_matrix(&m, SnpId(0), SnpId(1));
        assert!((mo.r_squared() - 1.0).abs() < 1e-12);
        assert!(mo.p_value() < 0.05);
    }

    #[test]
    fn perfect_anticorrelation() {
        let m = matrix_from(&[(0, 1), (1, 0), (1, 0), (0, 1)]);
        let mo = LdMoments::from_matrix(&m, SnpId(0), SnpId(1));
        assert!((mo.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independence_gives_zero_r2() {
        // Balanced independent design.
        let m = matrix_from(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mo = LdMoments::from_matrix(&m, SnpId(0), SnpId(1));
        assert!(mo.r_squared().abs() < 1e-12);
        assert!((mo.p_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monomorphic_snp_is_independent() {
        let m = matrix_from(&[(0, 0), (0, 1), (0, 0)]);
        let mo = LdMoments::from_matrix(&m, SnpId(0), SnpId(1));
        assert_eq!(mo.r_squared(), 0.0);
        assert_eq!(mo.p_value(), 1.0);
    }

    #[test]
    fn empty_moments_are_neutral() {
        let mo = LdMoments::default();
        assert_eq!(mo.r_squared(), 0.0);
        assert_eq!(mo.p_value(), 1.0);
    }

    #[test]
    fn r2_matches_contingency_table_formula() {
        use crate::contingency::PairwiseTable;
        let rows = [(0u8, 0u8), (1, 0), (1, 1), (0, 1), (1, 1), (1, 1), (0, 0)];
        let m = matrix_from(&rows);
        let mo = LdMoments::from_matrix(&m, SnpId(0), SnpId(1));
        let t = PairwiseTable::from_counts(mo.sum_x, mo.sum_y, mo.sum_xy, mo.n);
        assert!((mo.r_squared() - t.r_squared()).abs() < 1e-12);
    }

    #[test]
    fn significance_grows_with_n() {
        // Same correlation structure, more individuals -> smaller p-value.
        let base = [
            (1u8, 1u8),
            (1, 1),
            (0, 0),
            (0, 0),
            (1, 0),
            (0, 1),
            (1, 1),
            (0, 0),
        ];
        let small = matrix_from(&base);
        let mut big_rows = Vec::new();
        for _ in 0..50 {
            big_rows.extend_from_slice(&base);
        }
        let big = matrix_from(&big_rows);
        let p_small = LdMoments::from_matrix(&small, SnpId(0), SnpId(1)).p_value();
        let p_big = LdMoments::from_matrix(&big, SnpId(0), SnpId(1)).p_value();
        assert!(p_big < p_small);
        assert!(is_independent(p_small, 1e-5));
        assert!(!is_independent(p_big, 1e-5) || p_big > 1e-5);
    }

    #[test]
    fn cutoff_semantics() {
        assert!(is_independent(0.5, 1e-5));
        assert!(!is_independent(1e-6, 1e-5));
        assert!(!is_independent(1e-5, 1e-5), "boundary counts as dependent");
    }
}
