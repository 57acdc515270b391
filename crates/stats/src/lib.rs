//! GWAS statistics for the GenDPR reproduction.
//!
//! Everything the three GenDPR phases and the released study itself need:
//!
//! * [`special`] — ln-gamma, incomplete gamma, erf, normal CDF/quantile
//!   (from scratch, validated against published values),
//! * [`contingency`] — the paper's Tables 2a/2b,
//! * [`maf`] — Phase 1 minor-allele-frequency screening,
//! * [`ld`] — Phase 2 linkage-disequilibrium moments, r² and p-values,
//! * [`chi2`] — χ² association statistics (standard + the paper's
//!   simplified form),
//! * [`ranking`] — most-significant-first SNP ordering,
//! * [`lr`] — the SecureGenome likelihood-ratio test: LR matrices, the
//!   empirical safe-subset search, and a normal-approximation cross-check,
//! * [`homer`] — Homer et al.'s distance statistic, the attack the
//!   LR-test provably dominates.
//!
//! Every function here consumes *aggregate* quantities (counts, moments,
//! frequencies, LR contributions) rather than raw genotypes. That design is
//! the crux of GenDPR: since the statistics are additive in those
//! aggregates, a leader enclave summing per-GDO contributions computes
//! exactly what a centralized enclave pooling all genomes would.
//!
//! # Example
//!
//! ```
//! use gendpr_stats::contingency::SinglewiseTable;
//! use gendpr_stats::chi2::chi2_p_value;
//!
//! // 100 cases (30 minor alleles) vs 100 references (10 minor alleles).
//! let table = SinglewiseTable::new(30, 100, 10, 100);
//! let p = chi2_p_value(&table);
//! assert!(p < 0.01, "clear association: p = {p}");
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod chi2;
pub mod contingency;
pub mod homer;
pub mod ld;
pub mod lr;
pub mod maf;
pub mod ranking;
pub mod special;

pub use contingency::{PairwiseTable, SinglewiseTable};
pub use ld::LdMoments;
pub use lr::{LrMatrix, LrSelection, LrTestParams};
pub use ranking::SnpRank;
