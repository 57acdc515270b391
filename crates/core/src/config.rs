//! Study and federation configuration.

use gendpr_stats::lr::LrTestParams;

/// Privacy-assessment parameters of one GWAS (the paper's `MAF_cutoff`,
/// `LD_cutoff`, `α`, `β`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GwasParams {
    /// Phase 1: SNPs with global MAF below this are removed (paper: 0.05).
    pub maf_cutoff: f64,
    /// Phase 2: pairs whose r² p-value is at or below this are dependent
    /// (paper: 1e-5).
    pub ld_cutoff: f64,
    /// Phase 3: LR-test false-positive rate and power bound.
    pub lr: LrTestParams,
}

impl GwasParams {
    /// SecureGenome's suggested settings, used throughout the paper's
    /// evaluation: MAF 0.05, LD 1e-5, FPR 0.1, power 0.9.
    #[must_use]
    pub fn secure_genome_defaults() -> Self {
        Self {
            maf_cutoff: 0.05,
            ld_cutoff: 1e-5,
            lr: LrTestParams::secure_genome_defaults(),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(0.0..=0.5).contains(&self.maf_cutoff) {
            return Err("maf_cutoff must be in [0, 0.5]");
        }
        if !(0.0..1.0).contains(&self.ld_cutoff) {
            return Err("ld_cutoff must be in [0, 1)");
        }
        if !(0.0..1.0).contains(&self.lr.false_positive_rate) {
            return Err("false_positive_rate must be in [0, 1)");
        }
        if self.lr.power_threshold <= self.lr.false_positive_rate {
            return Err("power_threshold must exceed the false-positive rate");
        }
        Ok(())
    }
}

impl Default for GwasParams {
    fn default() -> Self {
        Self::secure_genome_defaults()
    }
}

/// Which honest-but-curious collusions the federation defends against
/// (paper §5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollusionMode {
    /// No collusion tolerance: one evaluation over all members (f = 0).
    #[default]
    None,
    /// Tolerate exactly `f` colluders: evaluate every C(G, G−f)
    /// combination and intersect.
    Fixed(usize),
    /// The conservative mode: tolerate every f in 1..=G−1
    /// (Σ C(G, G−f) combinations).
    AllUpTo,
}

/// Federation-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationConfig {
    /// Number of genome data owners `G`.
    pub gdo_count: usize,
    /// Collusion tolerance mode.
    pub collusion: CollusionMode,
    /// Master seed for leader election and any protocol randomness.
    pub seed: u64,
}

impl FederationConfig {
    /// A federation of `gdo_count` members, no collusion tolerance, seed 0.
    #[must_use]
    pub fn new(gdo_count: usize) -> Self {
        Self {
            gdo_count,
            collusion: CollusionMode::None,
            seed: 0,
        }
    }

    /// Sets the collusion mode.
    #[must_use]
    pub fn with_collusion(mut self, collusion: CollusionMode) -> Self {
        self.collusion = collusion;
        self
    }

    /// Sets the protocol seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a static description of the violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.gdo_count == 0 {
            return Err("a federation needs at least one member");
        }
        if let CollusionMode::Fixed(f) = self.collusion {
            if f >= self.gdo_count {
                return Err("f must be at most G - 1");
            }
            if f == 0 {
                return Err("use CollusionMode::None for f = 0");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = GwasParams::secure_genome_defaults();
        assert_eq!(p.maf_cutoff, 0.05);
        assert_eq!(p.ld_cutoff, 1e-5);
        assert_eq!(p.lr.false_positive_rate, 0.1);
        assert_eq!(p.lr.power_threshold, 0.9);
        assert!(p.validate().is_ok());
        assert_eq!(GwasParams::default(), p);
    }

    #[test]
    fn param_validation_catches_bad_ranges() {
        let mut p = GwasParams::secure_genome_defaults();
        p.maf_cutoff = 0.6;
        assert!(p.validate().is_err());
        let mut p = GwasParams::secure_genome_defaults();
        p.lr.power_threshold = 0.05;
        assert!(p.validate().is_err());
    }

    #[test]
    fn federation_validation() {
        assert!(FederationConfig::new(3).validate().is_ok());
        assert!(FederationConfig::new(0).validate().is_err());
        assert!(FederationConfig::new(3)
            .with_collusion(CollusionMode::Fixed(2))
            .validate()
            .is_ok());
        assert!(FederationConfig::new(3)
            .with_collusion(CollusionMode::Fixed(3))
            .validate()
            .is_err());
        assert!(FederationConfig::new(3)
            .with_collusion(CollusionMode::Fixed(0))
            .validate()
            .is_err());
        assert!(FederationConfig::new(2)
            .with_collusion(CollusionMode::AllUpTo)
            .with_seed(9)
            .validate()
            .is_ok());
    }
}
