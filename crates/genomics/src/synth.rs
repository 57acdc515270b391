//! Seeded synthetic cohort generation.
//!
//! The paper evaluates on 27,895 real genomes from the access-controlled
//! dbGaP dataset phs001039.v1.p1. This module is the substitution
//! documented in `DESIGN.md` §4: a deterministic generator that controls
//! exactly the properties GenDPR's three phases consume —
//!
//! * the **minor-allele-frequency spectrum** (Beta-distributed, with real
//!   mass below the 0.05 cutoff, driving Phase 1 attrition),
//! * **linkage-disequilibrium structure** (haplotype blocks with geometric
//!   lengths and within-block allele copying, driving Phase 2 attrition),
//! * **case/reference frequency divergence** (per-SNP drift plus planted
//!   effect SNPs, driving Phase 3's LR-test power).
//!
//! Everything is reproducible from a single `u64` seed.

use crate::cohort::Cohort;
use crate::genotype::GenotypeMatrix;
use crate::snp::SnpPanel;
use gendpr_crypto::rng::ChaChaRng;

/// A generated study dataset plus the ground-truth parameters it was drawn
/// from (useful for assertions in tests and benches).
#[derive(Debug, Clone)]
pub struct SyntheticCohort {
    cohort: Cohort,
    reference_freqs: Vec<f64>,
    case_freqs: Vec<f64>,
    effect_snps: Vec<usize>,
    block_starts: Vec<usize>,
}

impl SyntheticCohort {
    /// Starts configuring a generator.
    #[must_use]
    pub fn builder() -> SyntheticCohortBuilder {
        SyntheticCohortBuilder::default()
    }

    /// The generated cohort.
    #[must_use]
    pub fn cohort(&self) -> &Cohort {
        &self.cohort
    }

    /// Ground-truth reference minor-allele frequencies.
    #[must_use]
    pub fn reference_freqs(&self) -> &[f64] {
        &self.reference_freqs
    }

    /// Ground-truth case minor-allele frequencies.
    #[must_use]
    pub fn case_freqs(&self) -> &[f64] {
        &self.case_freqs
    }

    /// Indices of planted effect SNPs (strong case/control association).
    #[must_use]
    pub fn effect_snps(&self) -> &[usize] {
        &self.effect_snps
    }

    /// Indices where a new LD block starts.
    #[must_use]
    pub fn block_starts(&self) -> &[usize] {
        &self.block_starts
    }
}

impl SyntheticCohort {
    /// The SNP panel — delegates to [`Cohort::panel`].
    #[must_use]
    pub fn panel(&self) -> &SnpPanel {
        self.cohort.panel()
    }

    /// Pooled case genotypes — delegates to [`Cohort::case`].
    #[must_use]
    pub fn case(&self) -> &GenotypeMatrix {
        self.cohort.case()
    }

    /// Shared reference genotypes — delegates to [`Cohort::reference`].
    #[must_use]
    pub fn reference(&self) -> &GenotypeMatrix {
        self.cohort.reference()
    }

    /// Shards the case population — delegates to [`Cohort::split_case_among`].
    #[must_use]
    pub fn split_case_among(&self, gdos: usize) -> Vec<GenotypeMatrix> {
        self.cohort.split_case_among(gdos)
    }
}

impl AsRef<Cohort> for SyntheticCohort {
    fn as_ref(&self) -> &Cohort {
        &self.cohort
    }
}

impl From<SyntheticCohort> for Cohort {
    fn from(sc: SyntheticCohort) -> Cohort {
        sc.cohort
    }
}

/// Builder for [`SyntheticCohort`].
///
/// # Example
///
/// ```
/// use gendpr_genomics::synth::SyntheticCohort;
///
/// let a = SyntheticCohort::builder().snps(50).seed(3).build();
/// let b = SyntheticCohort::builder().snps(50).seed(3).build();
/// assert_eq!(a.case(), b.case()); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticCohortBuilder {
    snps: usize,
    case_individuals: usize,
    reference_individuals: usize,
    seed: u64,
    maf_alpha: f64,
    maf_beta: f64,
    ld_mean_block_len: f64,
    ld_rho: f64,
    effect_fraction: f64,
    effect_shift: f64,
    drift: f64,
    subpopulations: usize,
    fst: f64,
}

impl Default for SyntheticCohortBuilder {
    fn default() -> Self {
        Self {
            snps: 1_000,
            case_individuals: 1_000,
            reference_individuals: 1_000,
            seed: 0,
            maf_alpha: 0.55,
            maf_beta: 1.1,
            ld_mean_block_len: 6.0,
            ld_rho: 0.55,
            effect_fraction: 0.03,
            effect_shift: 0.10,
            drift: 0.012,
            subpopulations: 1,
            fst: 0.0,
        }
    }
}

impl SyntheticCohortBuilder {
    /// Number of SNP positions (`L_des`).
    #[must_use]
    pub fn snps(mut self, snps: usize) -> Self {
        self.snps = snps;
        self
    }

    /// Number of case individuals across the whole federation.
    #[must_use]
    pub fn case_individuals(mut self, n: usize) -> Self {
        self.case_individuals = n;
        self
    }

    /// Number of reference (≈ control) individuals.
    #[must_use]
    pub fn reference_individuals(mut self, n: usize) -> Self {
        self.reference_individuals = n;
        self
    }

    /// Master seed; every derived stream forks from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Beta(α, β) shape of the reference MAF spectrum (scaled to
    /// `[0.005, 0.5]`). The default puts roughly a third of SNPs below the
    /// 0.05 MAF cutoff, mirroring the attrition in the paper's Table 4.
    #[must_use]
    pub fn maf_shape(mut self, alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && beta > 0.0,
            "Beta parameters must be positive"
        );
        self.maf_alpha = alpha;
        self.maf_beta = beta;
        self
    }

    /// Mean LD-block length in SNPs (geometric distribution) and the
    /// within-block allele-copy probability `ρ ∈ [0, 1)`.
    #[must_use]
    pub fn ld_structure(mut self, mean_block_len: f64, rho: f64) -> Self {
        assert!(mean_block_len >= 1.0, "blocks contain at least one SNP");
        assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
        self.ld_mean_block_len = mean_block_len;
        self.ld_rho = rho;
        self
    }

    /// Fraction of SNPs with a planted case-frequency shift and the size of
    /// that shift.
    #[must_use]
    pub fn effects(mut self, fraction: f64, shift: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.effect_fraction = fraction;
        self.effect_shift = shift;
        self
    }

    /// Standard deviation of the per-SNP case/reference frequency drift
    /// affecting *all* SNPs (this is what gives the LR-test its power).
    #[must_use]
    pub fn drift(mut self, sd: f64) -> Self {
        assert!(sd >= 0.0, "drift must be non-negative");
        self.drift = sd;
        self
    }

    /// Adds population stratification: individuals are assigned in
    /// contiguous blocks (individual `n` of `N` to subpopulation `n·k / N`)
    /// to `k` subpopulations whose per-SNP frequencies deviate from the
    /// ancestral frequency following the Balding–Nichols model with
    /// fixation index `fst` — the standard way GWAS methods papers model
    /// the under-represented-populations problem the paper's §3.1 raises.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `fst` is outside `[0, 1)`.
    #[must_use]
    pub fn subpopulations(mut self, k: usize, fst: f64) -> Self {
        assert!(k >= 1, "need at least one subpopulation");
        assert!((0.0..1.0).contains(&fst), "Fst must be in [0, 1)");
        self.subpopulations = k;
        self.fst = fst;
        self
    }

    /// Generates the cohort.
    ///
    /// # Panics
    ///
    /// Panics if `snps == 0`.
    #[must_use]
    pub fn build(self) -> SyntheticCohort {
        assert!(self.snps > 0, "a study needs at least one SNP");
        let mut master = ChaChaRng::from_seed_u64(self.seed);
        let mut freq_rng = master.fork("frequencies");
        let mut block_rng = master.fork("blocks");
        let mut case_rng = master.fork("case-genotypes");
        let mut ref_rng = master.fork("reference-genotypes");

        // 1. Reference MAF spectrum.
        let reference_freqs: Vec<f64> = (0..self.snps)
            .map(|_| 0.005 + 0.495 * sample_beta(&mut freq_rng, self.maf_alpha, self.maf_beta))
            .collect();

        // 2. Case frequencies: drift on every SNP, plus planted effects.
        let effect_count = (self.snps as f64 * self.effect_fraction).round() as usize;
        let mut indices: Vec<usize> = (0..self.snps).collect();
        freq_rng.shuffle(&mut indices);
        let mut effect_snps: Vec<usize> = indices.into_iter().take(effect_count).collect();
        effect_snps.sort_unstable();
        let mut case_freqs = Vec::with_capacity(self.snps);
        for (l, &p) in reference_freqs.iter().enumerate() {
            let mut q = p + self.drift * freq_rng.next_gaussian();
            if effect_snps.binary_search(&l).is_ok() {
                q += self.effect_shift;
            }
            case_freqs.push(q.clamp(0.002, 0.95));
        }

        // 2b. Population stratification: Balding–Nichols per-subpopulation
        //     frequencies around each ancestral frequency.
        let subpop_case_freqs = stratify(&mut freq_rng, &case_freqs, self.subpopulations, self.fst);
        let subpop_ref_freqs = stratify(
            &mut freq_rng,
            &reference_freqs,
            self.subpopulations,
            self.fst,
        );

        // 3. LD block boundaries (shared between populations, as real
        //    haplotype structure would be).
        let new_block_p = 1.0 / self.ld_mean_block_len;
        let mut block_starts = vec![0usize];
        for l in 1..self.snps {
            if block_rng.next_bool(new_block_p) {
                block_starts.push(l);
            }
        }

        // 4. Genotypes: within a block, copy the previous SNP's allele with
        //    probability rho, otherwise draw from the population frequency.
        //    The populations draw from independent forks, so they are built
        //    side by side. Everything they use is allocated here: the build
        //    thread allocates nothing, so it gets no malloc arena of its own
        //    to outlive it.
        let mut linked = vec![0u64; self.snps.div_ceil(64)];
        for l in 1..self.snps {
            linked[l / 64] |= 1 << (l % 64);
        }
        for &s in &block_starts {
            linked[s / 64] &= !(1 << (s % 64));
        }
        let copy = threshold(self.ld_rho);
        let case_fresh = thresholds(&subpop_case_freqs);
        let ref_fresh = thresholds(&subpop_ref_freqs);
        let mut case = GenotypeMatrix::zeroed(self.case_individuals, self.snps);
        let mut reference = GenotypeMatrix::zeroed(self.reference_individuals, self.snps);
        std::thread::scope(|scope| {
            scope.spawn(|| draw_genotypes(&mut case, &mut case_rng, &case_fresh, &linked, copy));
            draw_genotypes(&mut reference, &mut ref_rng, &ref_fresh, &linked, copy);
        });

        let cohort = Cohort::new(SnpPanel::synthetic(self.snps), case, reference)
            .expect("generator produces consistent dimensions");

        SyntheticCohort {
            cohort,
            reference_freqs,
            case_freqs,
            effect_snps,
            block_starts,
        }
    }
}

/// Per-subpopulation frequency vectors: row `s` holds subpopulation `s`'s
/// frequency for every SNP. With `k == 1` or `fst == 0` every row equals
/// the ancestral vector.
fn stratify(
    rng: &mut ChaChaRng,
    ancestral: &[f64],
    subpopulations: usize,
    fst: f64,
) -> Vec<Vec<f64>> {
    if subpopulations == 1 || fst == 0.0 {
        return vec![ancestral.to_vec()];
    }
    // Balding–Nichols: p_s ~ Beta(p(1−F)/F, (1−p)(1−F)/F).
    let scale = (1.0 - fst) / fst;
    (0..subpopulations)
        .map(|_| {
            ancestral
                .iter()
                .map(|&p| {
                    let p = p.clamp(0.01, 0.99);
                    sample_beta(rng, p * scale, (1.0 - p) * scale).clamp(0.002, 0.98)
                })
                .collect()
        })
        .collect()
}

/// `p` as a threshold on a draw's top 53 bits: `u >> 11 < threshold(p)`
/// exactly when [`ChaChaRng::next_bool`]`(p)` returns true on the draw
/// `u`. It compares `(u >> 11) · 2⁻⁵³ < p`; scaling both sides by 2⁵³ is
/// exact, and an integer is below a real exactly when it is below the
/// real's ceiling.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`, as `next_bool` does.
fn threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Every subpopulation's frequencies as [`threshold`]s.
fn thresholds(subpop_freqs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    subpop_freqs
        .iter()
        .map(|freqs| freqs.iter().map(|&p| threshold(p)).collect())
        .collect()
}

/// One population's genotypes into `m`: per individual and SNP, a ρ draw
/// against `copy` if the SNP's bit in `linked` is set (it is not the
/// first of its block; copy the previous SNP's allele on a hit), then,
/// unless it copied, a draw against the individual's subpopulation's
/// threshold in `fresh`. Individual `n` of `N` belongs to subpopulation
/// `n·k / N`. Each row's 64-SNP words are built in a register and stored
/// whole; the draws are the generator's [`ChaChaRng::next_u64_if`], so
/// whether a draw happens is data, not a branch.
fn draw_genotypes(
    m: &mut GenotypeMatrix,
    rng: &mut ChaChaRng,
    fresh: &[Vec<u64>],
    linked: &[u64],
    copy: u64,
) {
    let individuals = m.individuals();
    for n in 0..individuals {
        // Contiguous assignment: consecutive individuals share a
        // subpopulation, so federation shards are genuinely heterogeneous
        // — the geographically-distant-biocenters setting of §3.1.
        let fresh = &fresh[(n * fresh.len()) / individuals];
        let mut prev = false;
        let row = m.row_words_mut(n).iter_mut().zip(linked);
        for ((word, &links), fresh) in row.zip(fresh.chunks(64)) {
            let mut bits = 0u64;
            for (j, &t) in fresh.iter().enumerate() {
                // A draw not taken is read and discarded: `link` and
                // `copied` mask it out.
                let link = links >> j & 1 != 0;
                let copied = link & (rng.next_u64_if(link) >> 11 < copy);
                let drawn = rng.next_u64_if(!copied) >> 11 < t;
                let allele = (copied & prev) | (!copied & drawn);
                bits |= u64::from(allele) << j;
                prev = allele;
            }
            *word = bits;
        }
    }
}

/// Samples Beta(α, β) via two Gamma draws (Marsaglia–Tsang).
fn sample_beta(rng: &mut ChaChaRng, alpha: f64, beta: f64) -> f64 {
    let x = sample_gamma(rng, alpha);
    let y = sample_gamma(rng, beta);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

/// Samples Gamma(shape, 1) with the Marsaglia–Tsang squeeze method.
fn sample_gamma(rng: &mut ChaChaRng, shape: f64) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let u: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.next_gaussian();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snp::SnpId;

    fn small() -> SyntheticCohort {
        SyntheticCohort::builder()
            .snps(300)
            .case_individuals(400)
            .reference_individuals(400)
            .seed(42)
            .build()
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.case(), b.case());
        assert_eq!(a.reference(), b.reference());
        assert_eq!(a.effect_snps(), b.effect_snps());
    }

    #[test]
    fn different_seed_different_data() {
        let a = small();
        let b = SyntheticCohort::builder()
            .snps(300)
            .case_individuals(400)
            .reference_individuals(400)
            .seed(43)
            .build();
        assert_ne!(a.case(), b.case());
    }

    #[test]
    fn empirical_frequencies_track_ground_truth() {
        let sc = SyntheticCohort::builder()
            .snps(100)
            .case_individuals(3_000)
            .reference_individuals(3_000)
            .ld_structure(1.0, 0.0) // independent SNPs for a clean check
            .seed(7)
            .build();
        let counts = sc.reference().column_counts();
        let n = sc.reference().individuals() as f64;
        for (l, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n;
            let truth = sc.reference_freqs()[l];
            // Binomial sd ~ sqrt(p(1-p)/n) <= 0.009; allow 5 sigma.
            assert!(
                (emp - truth).abs() < 0.05,
                "snp {l}: empirical {emp:.3} vs truth {truth:.3}"
            );
        }
    }

    #[test]
    fn maf_spectrum_has_mass_below_cutoff() {
        let sc = SyntheticCohort::builder()
            .snps(2_000)
            .case_individuals(10)
            .reference_individuals(10)
            .seed(1)
            .build();
        let below = sc.reference_freqs().iter().filter(|&&p| p < 0.05).count() as f64 / 2_000.0;
        assert!(
            (0.10..0.60).contains(&below),
            "fraction below MAF cutoff = {below}"
        );
    }

    #[test]
    fn ld_blocks_induce_adjacent_correlation() {
        let sc = SyntheticCohort::builder()
            .snps(200)
            .case_individuals(2_000)
            .reference_individuals(10)
            .ld_structure(8.0, 0.8)
            .seed(5)
            .build();
        let m = sc.case();
        let n = m.individuals() as f64;
        // Average |r| over within-block adjacent pairs should clearly exceed
        // the cross-block baseline.
        let block_start: std::collections::HashSet<usize> =
            sc.block_starts().iter().copied().collect();
        let mut within = Vec::new();
        let mut across = Vec::new();
        for l in 1..200usize {
            let a = m.column_count(SnpId((l - 1) as u32)) as f64;
            let b = m.column_count(SnpId(l as u32)) as f64;
            let ab = m.pair_count(SnpId((l - 1) as u32), SnpId(l as u32)) as f64;
            let cov = ab / n - (a / n) * (b / n);
            let var_a = a / n * (1.0 - a / n);
            let var_b = b / n * (1.0 - b / n);
            if var_a <= 0.0 || var_b <= 0.0 {
                continue;
            }
            let r = cov / (var_a * var_b).sqrt();
            if block_start.contains(&l) {
                across.push(r.abs());
            } else {
                within.push(r.abs());
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&within) > mean(&across) + 0.2,
            "within {} vs across {}",
            mean(&within),
            mean(&across)
        );
    }

    #[test]
    fn effect_snps_shift_case_frequency() {
        let sc = SyntheticCohort::builder()
            .snps(500)
            .case_individuals(4_000)
            .reference_individuals(4_000)
            .effects(0.05, 0.2)
            .drift(0.0)
            .ld_structure(1.0, 0.0)
            .seed(3)
            .build();
        let case_counts = sc.case().column_counts();
        let n = sc.case().individuals() as f64;
        for &l in sc.effect_snps() {
            let emp_case = case_counts[l] as f64 / n;
            let p_ref = sc.reference_freqs()[l];
            assert!(
                emp_case > p_ref + 0.1,
                "effect snp {l}: case {emp_case:.3} vs ref {p_ref:.3}"
            );
        }
    }

    #[test]
    fn stratification_spreads_subpopulation_frequencies() {
        let fst = 0.15;
        let sc = SyntheticCohort::builder()
            .snps(60)
            .case_individuals(4_000)
            .reference_individuals(10)
            .subpopulations(2, fst)
            .ld_structure(1.0, 0.0)
            .drift(0.0)
            .effects(0.0, 0.0)
            .seed(41)
            .build();
        // Individuals are contiguously assigned, so the first and second
        // halves belong to different subpopulations; their empirical
        // frequencies must diverge far more than binomial noise allows.
        let m = sc.case();
        let half = m.individuals() / 2;
        let mut divergence = 0.0;
        for l in 0..60 {
            let (mut first, mut second) = (0u32, 0u32);
            for i in 0..m.individuals() {
                if m.get(i, l) == 1 {
                    if i < half {
                        first += 1;
                    } else {
                        second += 1;
                    }
                }
            }
            let n_half = half as f64;
            divergence += (f64::from(first) / n_half - f64::from(second) / n_half).abs();
        }
        divergence /= 60.0;
        // Balding–Nichols with Fst 0.15 around p≈0.2 gives sd ≈ 0.15 per
        // subpopulation; the mean absolute difference should be well above
        // the ~0.012 binomial noise floor.
        assert!(divergence > 0.05, "mean |p_even - p_odd| = {divergence}");

        // Without stratification the same measurement sits at noise level.
        let flat = SyntheticCohort::builder()
            .snps(60)
            .case_individuals(4_000)
            .reference_individuals(10)
            .ld_structure(1.0, 0.0)
            .drift(0.0)
            .effects(0.0, 0.0)
            .seed(41)
            .build();
        let m = flat.case();
        let half = m.individuals() / 2;
        let mut flat_div = 0.0;
        for l in 0..60 {
            let (mut first, mut second) = (0u32, 0u32);
            for i in 0..m.individuals() {
                if m.get(i, l) == 1 {
                    if i < half {
                        first += 1;
                    } else {
                        second += 1;
                    }
                }
            }
            let n_half = half as f64;
            flat_div += (f64::from(first) / n_half - f64::from(second) / n_half).abs();
        }
        flat_div /= 60.0;
        assert!(
            divergence > 3.0 * flat_div,
            "stratified {divergence} vs flat {flat_div}"
        );
    }

    #[test]
    fn balding_nichols_preserves_the_ancestral_mean() {
        let mut rng = ChaChaRng::from_seed_u64(7);
        let ancestral = vec![0.3; 500];
        let sub = stratify(&mut rng, &ancestral, 40, 0.1);
        let mean: f64 = sub.iter().flat_map(|v| v.iter()).sum::<f64>() / (40.0 * 500.0);
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "Fst must be in [0, 1)")]
    fn stratification_validates_fst() {
        let _ = SyntheticCohort::builder().subpopulations(2, 1.0);
    }

    #[test]
    fn gamma_sampler_mean_and_variance() {
        let mut rng = ChaChaRng::from_seed_u64(9);
        for shape in [0.5f64, 1.0, 2.5, 8.0] {
            let n = 20_000;
            let draws: Vec<f64> = (0..n).map(|_| sample_gamma(&mut rng, shape)).collect();
            let mean = draws.iter().sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(0.5),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn beta_sampler_stays_in_unit_interval() {
        let mut rng = ChaChaRng::from_seed_u64(10);
        for _ in 0..5_000 {
            let b = sample_beta(&mut rng, 0.55, 1.1);
            assert!((0.0..=1.0).contains(&b));
        }
    }

    /// SHA-256 over everything a built cohort holds: its dimensions, the
    /// case and reference words, both frequency vectors' bits, the effect
    /// SNPs and the block starts.
    fn cohort_digest(sc: &SyntheticCohort) -> String {
        let mut h = gendpr_crypto::sha256::Sha256::new();
        for m in [sc.case(), sc.reference()] {
            h.update(&(m.individuals() as u64).to_le_bytes());
            h.update(&(m.snps() as u64).to_le_bytes());
            for w in m.words() {
                h.update(&w.to_le_bytes());
            }
        }
        for f in sc.reference_freqs().iter().chain(sc.case_freqs()) {
            h.update(&f.to_bits().to_le_bytes());
        }
        for &i in sc.effect_snps().iter().chain(sc.block_starts()) {
            h.update(&(i as u64).to_le_bytes());
        }
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn the_cohorts_are_pinned() {
        // Captured from the generator that drew one allele per `next_bool`
        // and set one bit per minor allele. Every shape's SNP count but
        // one is off the 64-SNP word grid.
        let shapes: [(SyntheticCohortBuilder, &str); 6] = [
            (
                SyntheticCohort::builder()
                    .snps(130)
                    .case_individuals(70)
                    .reference_individuals(50)
                    .seed(1),
                "2b366107cb1d08fcd1656a2062d40ae54803ecb1394e1720ee75235c85106124",
            ),
            (
                SyntheticCohort::builder()
                    .snps(200)
                    .case_individuals(90)
                    .reference_individuals(61)
                    .subpopulations(3, 0.05)
                    .seed(2),
                "0c39fc39287e4a15101f12c5aeddd05c0252d38e0b58834f66f7e416749cc926",
            ),
            (
                SyntheticCohort::builder()
                    .snps(101)
                    .case_individuals(40)
                    .reference_individuals(33)
                    .ld_structure(4.0, 0.0)
                    .seed(3),
                "48ef0f32fc110c22f5985dd7007d47e2b0ea18e6285fa182e4f7f460bfc3eba7",
            ),
            (
                SyntheticCohort::builder()
                    .snps(257)
                    .case_individuals(45)
                    .reference_individuals(38)
                    .ld_structure(8.0, 0.9)
                    .effects(0.1, 0.2)
                    .seed(4),
                "013c1714a193264088b0c9fe138e8b1ce9a6cfee4c44b77f2ab1e654a935655a",
            ),
            (
                SyntheticCohort::builder()
                    .snps(128)
                    .case_individuals(17)
                    .reference_individuals(29)
                    .maf_shape(0.35, 1.3)
                    .subpopulations(2, 0.15)
                    .ld_structure(3.0, 0.9)
                    .seed(5),
                "171542ffdde9921e46157f838ecbdc1f81b4ac771a7068b2ced201b221c83e86",
            ),
            (
                SyntheticCohort::builder()
                    .snps(1)
                    .case_individuals(9)
                    .reference_individuals(3)
                    .seed(6),
                "7a67b65e28c6c392b0a2d683c054d24e60f5449a04196248981bcd61f37f0434",
            ),
        ];
        for (i, (builder, pin)) in shapes.into_iter().enumerate() {
            let digest = cohort_digest(&builder.build());
            assert_eq!(digest, pin, "shape {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one SNP")]
    fn zero_snps_rejected() {
        let _ = SyntheticCohort::builder().snps(0).build();
    }
}
