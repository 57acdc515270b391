//! Linkage-disequilibrium (LD) analysis — Phase 2 of GenDPR.
//!
//! Two SNPs in high LD are statistically dependent; releasing both hands an
//! adversary correlated information (paper §3.2.2), and dependence violates
//! the LR-test's independence assumption. GenDPR's key trick is that the
//! correlation between two 0/1 columns is a function of six *additive*
//! moments (Σx, Σy, Σxy, Σx², Σy², n), so each GDO can outsource its local
//! moments and the leader sums them — no genotypes leave the premises.
//!
//! # Deciding from the statistic
//!
//! A pair is independent iff its p-value `chi2_sf(n·r², 1)` is above the
//! cutoff ([`is_independent`]). The survival function falls as `n·r²`
//! grows, so for a fixed cutoff the decision is a threshold on the
//! statistic, and [`LdTest`] takes it there without evaluating the
//! incomplete gamma function. It is built once per cutoff: it bisects the
//! *computed* `chi2_sf(·, 1)` for the statistic where it crosses the cutoff
//! and pads that bracket by a relative guard of 10⁻⁶ on each side. A
//! statistic below the padded band is independent, one above it dependent;
//! only one inside it (or any pair without individuals) takes the exact
//! path, `is_independent(p_value(), cutoff)`.
//!
//! Why the shortcut is exact: at the band's edges the computed p-value must
//! clear the cutoff by a relative margin of 10⁻⁹ (checked when the test is
//! built; where it does not, e.g. for a cutoff within ~10⁻⁹ of 1 or below
//! the smallest normal float, every decision takes the exact path). The true
//! survival function is strictly decreasing, and the computed one is within
//! a relative ~10⁻¹³ of it wherever its value is a normal float (the
//! Lanczos `ln_gamma` and the series and continued fraction of
//! [`crate::special`], stopped at 3·10⁻¹⁵), four orders inside that margin.
//! So every statistic below the band has a computed p-value above the
//! cutoff and every statistic above it one at or below the cutoff —
//! subnormal or zero p-values included, since they lie under a normal
//! cutoff. The band itself is 2·10⁻⁶ of the statistic wide.

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

    /// The LD test statistic `n·r²`, asymptotically χ²(1) under
    /// independence.
    #[must_use]
    pub fn statistic(&self) -> f64 {
        self.n as f64 * self.r_squared()
    }

    /// P-value on r² — `computeR2` in Algorithm 1: the χ²(1) survival
    /// function at [`statistic`](Self::statistic), the standard LD
    /// significance test.
    #[must_use]
    pub fn p_value(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        chi2_sf(self.statistic(), 1)
    }
}

/// Phase 2 decision for one pair: SNPs are *independent* (both can stay)
/// iff the p-value is at or above the LD cutoff. The paper treats p-values
/// below 1e-5 as evidence of dependence.
#[must_use]
pub fn is_independent(p_value: f64, ld_cutoff: f64) -> bool {
    p_value > ld_cutoff
}

/// Relative padding of the bisected crossing on each side of [`LdTest`]'s
/// band.
const GUARD: f64 = 1e-6;

/// Relative margin by which the computed p-value at each band edge must
/// clear the cutoff for the band to be used.
const MARGIN: f64 = 1e-9;

/// [`is_independent`] for one cutoff, decided from the statistic `n·r²`
/// outside a guard band around the cutoff's crossing (module docs,
/// *Deciding from the statistic*). Build it once per cutoff.
#[derive(Debug, Clone, Copy)]
pub struct LdTest {
    cutoff: f64,
    /// Statistics below `.0` are independent, above `.1` dependent; `None`
    /// sends every decision down the exact path.
    band: Option<(f64, f64)>,
}

impl LdTest {
    /// The test for `ld_cutoff`. A non-finite cutoff, one outside (0, 1)
    /// or one whose band fails its margin check decides every pair by the
    /// exact path.
    #[must_use]
    pub fn new(ld_cutoff: f64) -> Self {
        Self {
            cutoff: ld_cutoff,
            band: band_for(ld_cutoff),
        }
    }

    /// Whether the pair with pooled moments `m` is independent: always
    /// `is_independent(m.p_value(), cutoff)`.
    #[must_use]
    pub fn independent(&self, m: &LdMoments) -> bool {
        if m.n == 0 {
            return is_independent(m.p_value(), self.cutoff);
        }
        self.independent_at(m.statistic())
    }

    /// The decision for statistic `x` (`n > 0`).
    fn independent_at(&self, x: f64) -> bool {
        match self.band {
            Some((lo, _)) if x < lo => true,
            Some((_, hi)) if x > hi => false,
            _ => is_independent(chi2_sf(x, 1), self.cutoff),
        }
    }
}

/// The padded band of `cutoff`'s crossing, or `None` where the shortcut
/// is not used.
fn band_for(cutoff: f64) -> Option<(f64, f64)> {
    if !(f64::MIN_POSITIVE..1.0).contains(&cutoff) {
        return None;
    }
    let independent = |x: f64| is_independent(chi2_sf(x, 1), cutoff);
    // `independent(lo)` and `!independent(hi)` hold throughout: sf(0) = 1
    // is above any cutoff below 1, and the search upward ends where the
    // computed p-value underflows, if not before.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while independent(hi) {
        lo = hi;
        hi *= 2.0;
        if !hi.is_finite() {
            return None;
        }
    }
    loop {
        let mid = lo + (hi - lo) / 2.0;
        if mid <= lo || mid >= hi {
            break;
        }
        if independent(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let band = (lo * (1.0 - GUARD), hi * (1.0 + GUARD));
    let clears = chi2_sf(band.0, 1) > cutoff * (1.0 + MARGIN)
        && chi2_sf(band.1, 1) < cutoff * (1.0 - MARGIN);
    clears.then_some(band)
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

    /// The cutoffs the property below runs at: the paper's, a common one,
    /// one near the smallest normal float, and three that take the exact
    /// path throughout.
    const CUTOFFS: [f64; 6] = [1e-5, 0.05, 1e-300, 0.0, 1.0, f64::NAN];

    /// Moments over `n` individuals with marginal counts `sx`, `sy` and the
    /// joint count that brings `n·r²` nearest `target` (the statistic is a
    /// parabola in the joint count).
    fn moments_near(n: u64, sx: u64, sy: u64, target: f64) -> LdMoments {
        let (nf, sxf, syf) = (n as f64, sx as f64, sy as f64);
        let spread = ((nf * sxf - sxf * sxf) * (nf * syf - syf * syf) * target / nf).sqrt();
        let joint_lo = (sx + sy).saturating_sub(n);
        let joint_hi = sx.min(sy);
        let joint = ((sxf * syf + spread) / nf)
            .round()
            .clamp(joint_lo as f64, joint_hi as f64);
        LdMoments::from_counts(sx, sy, joint as u64, n)
    }

    /// The statistic `k` ulps away from `x`.
    fn ulps_from(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k).max(0) as u64)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `LdTest` decides as `is_independent(p_value(), cutoff)` does, on
        /// arbitrary moments over up to 10⁵ individuals, on the moments
        /// nearest each band edge of every cutoff, on statistics a few ulps
        /// either side of each edge and of the bisected crossing, and at
        /// cutoffs chosen so that an edge or the crossing falls within
        /// ulps of the drawn moments' own statistic.
        #[test]
        fn the_ld_test_decides_as_the_p_value_does(
            n in 1u64..100_001,
            marginals in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            k in -4i64..5,
        ) {
            let sx = (marginals.0 * n as f64) as u64;
            let sy = (marginals.1 * n as f64) as u64;
            let (lo, hi) = ((sx + sy).saturating_sub(n), sx.min(sy));
            let joint = lo + ((hi - lo) as f64 * marginals.2) as u64;
            let drawn = LdMoments::from_counts(sx, sy, joint, n);
            let exact = |m: &LdMoments, cutoff: f64| is_independent(m.p_value(), cutoff);

            for cutoff in CUTOFFS {
                let test = LdTest::new(cutoff);
                proptest::prop_assert_eq!(test.independent(&drawn), exact(&drawn, cutoff));
                let Some((edge_lo, edge_hi)) = test.band else {
                    proptest::prop_assert!(!(1e-300..=0.05).contains(&cutoff), "{} has no band", cutoff);
                    continue;
                };
                let crossing = edge_lo / (1.0 - GUARD);
                for target in [edge_lo, crossing, edge_hi] {
                    let near = moments_near(n, sx, sy, target);
                    proptest::prop_assert_eq!(test.independent(&near), exact(&near, cutoff));
                    let x = ulps_from(target, k);
                    proptest::prop_assert_eq!(
                        test.independent_at(x),
                        is_independent(chi2_sf(x, 1), cutoff),
                        "cutoff {} statistic {}", cutoff, x
                    );
                }
            }

            // Cutoffs that put the crossing, or an edge, at this statistic.
            let x = drawn.statistic();
            if x > 0.0 {
                for at in [x, x / (1.0 - GUARD), x / (1.0 + GUARD)] {
                    let cutoff = chi2_sf(ulps_from(at, k), 1);
                    let test = LdTest::new(cutoff);
                    proptest::prop_assert_eq!(test.independent(&drawn), exact(&drawn, cutoff));
                }
            }
        }
    }

    #[test]
    fn the_band_brackets_the_crossing_of_the_paper_cutoff() {
        let test = LdTest::new(1e-5);
        let (lo, hi) = test.band.expect("1e-5 has a band");
        // χ²(1) crosses 1e-5 at ≈ 19.51142.
        assert!(
            lo < 19.51142 && 19.51142 < hi && hi - lo < 1e-4,
            "({lo}, {hi})"
        );
        assert!(chi2_sf(lo, 1) > 1e-5 && chi2_sf(hi, 1) <= 1e-5);
        for cutoff in [0.0, 1.0, -1.0, 2.0, f64::NAN, f64::INFINITY, 1e-310] {
            assert_eq!(LdTest::new(cutoff).band, None, "{cutoff}");
        }
    }

    #[test]
    fn cutoff_semantics() {
        assert!(is_independent(0.5, 1e-5));
        assert!(!is_independent(1e-6, 1e-5));
        assert!(!is_independent(1e-5, 1e-5), "boundary counts as dependent");
    }
}
