//! Genome data model for the GenDPR reproduction.
//!
//! GWAS encode each individual's genotype at `L` SNP positions as one bit
//! per SNP (0 = major allele only, 1 = minor allele present) — Table 1 of
//! the paper. This crate provides:
//!
//! * [`snp`] — SNP identifiers and panel metadata,
//! * [`genotype`] — bit-packed genotype matrices with fast column counts,
//! * [`columnar`] — SNP-major transposed views for popcount-speed column
//!   and pair kernels,
//! * [`cohort`] — case/reference cohorts and federation partitioning,
//! * [`synth`] — a seeded synthetic cohort generator substituting for the
//!   paper's access-controlled dbGaP dataset (see `DESIGN.md` §4),
//! * [`vcf`] — a minimal signed VCF-like text format (the paper assumes the
//!   trusted code verifies the authenticity of signed variant files).
//!
//! # Example
//!
//! ```
//! use gendpr_genomics::synth::SyntheticCohort;
//!
//! let cohort = SyntheticCohort::builder()
//!     .snps(100)
//!     .case_individuals(50)
//!     .reference_individuals(60)
//!     .seed(1)
//!     .build();
//! assert_eq!(cohort.panel().len(), 100);
//! assert_eq!(cohort.case().individuals(), 50);
//! let shards = cohort.split_case_among(3);
//! assert_eq!(shards.iter().map(|m| m.individuals()).sum::<usize>(), 50);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cohort;
pub mod columnar;
pub mod error;
pub mod genotype;
pub mod snp;
pub mod synth;
pub mod vcf;

pub use cohort::{Cohort, Population};
pub use columnar::ColumnarGenotypes;
pub use error::GenomicsError;
pub use genotype::GenotypeMatrix;
pub use snp::{SnpId, SnpInfo, SnpPanel};
pub use synth::SyntheticCohort;
