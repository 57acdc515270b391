//! Case/reference cohorts and federation partitioning.
//!
//! A GenDPR study involves a *case* population (individuals with the
//! phenotype of interest), distributed across the federation's GDOs, and a
//! *reference* population (e.g. 1000 Genomes) that every member can access
//! and that the leader uses for the MAF/LD/LR computations. Like the
//! paper's evaluation, we use the study's control population as reference.

use crate::error::GenomicsError;
use crate::genotype::GenotypeMatrix;
use crate::snp::SnpPanel;
use std::ops::Range;
use std::sync::Arc;

/// Which population an individual belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Population {
    /// Has the phenotype of interest; membership in this group is what an
    /// adversary tries to infer.
    Case,
    /// Does not have the phenotype.
    Control,
    /// Public panel used as the LR-test's null model.
    Reference,
}

impl std::fmt::Display for Population {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Case => "case",
            Self::Control => "control",
            Self::Reference => "reference",
        })
    }
}

/// A complete study dataset: panel metadata, pooled case genotypes and the
/// shared reference population. The matrices sit behind `Arc`s, so a
/// clone, and every run's members, share them rather than copy them.
#[derive(Debug, Clone)]
pub struct Cohort {
    panel: SnpPanel,
    case: Arc<GenotypeMatrix>,
    reference: Arc<GenotypeMatrix>,
}

impl Cohort {
    /// Assembles a cohort.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::DimensionMismatch`] if the matrices do not
    /// have exactly one column per panel SNP.
    pub fn new(
        panel: SnpPanel,
        case: GenotypeMatrix,
        reference: GenotypeMatrix,
    ) -> Result<Self, GenomicsError> {
        for (m, _name) in [(&case, "case"), (&reference, "reference")] {
            if m.snps() != panel.len() {
                return Err(GenomicsError::DimensionMismatch {
                    got: m.snps(),
                    expected: panel.len(),
                    what: "snps",
                });
            }
        }
        Ok(Self {
            panel,
            case: Arc::new(case),
            reference: Arc::new(reference),
        })
    }

    /// The SNP panel (`L_des`).
    #[must_use]
    pub fn panel(&self) -> &SnpPanel {
        &self.panel
    }

    /// Pooled case genotypes.
    #[must_use]
    pub fn case(&self) -> &GenotypeMatrix {
        &self.case
    }

    /// Shared reference genotypes.
    #[must_use]
    pub fn reference(&self) -> &GenotypeMatrix {
        &self.reference
    }

    /// The case and reference matrices as the cohort shares them.
    #[must_use]
    pub fn shared(&self) -> (&Arc<GenotypeMatrix>, &Arc<GenotypeMatrix>) {
        (&self.case, &self.reference)
    }

    /// The case rows of each of `gdos` near-equal shards (the paper divides
    /// genomes equally among federation members), in member order.
    ///
    /// The first `case % gdos` shards receive one extra individual so every
    /// genome is assigned exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `gdos == 0`.
    #[must_use]
    pub fn case_rows_among(&self, gdos: usize) -> Vec<Range<usize>> {
        assert!(gdos > 0, "federation must have at least one member");
        let n = self.case.individuals();
        let (base, extra) = (n / gdos, n % gdos);
        let mut end = 0;
        (0..gdos)
            .map(|g| {
                let start = end;
                end += base + usize::from(g < extra);
                start..end
            })
            .collect()
    }

    /// The shards of [`case_rows_among`](Self::case_rows_among), each a
    /// copy of its rows; panics likewise.
    #[must_use]
    pub fn split_case_among(&self, gdos: usize) -> Vec<GenotypeMatrix> {
        self.case_rows_among(gdos)
            .into_iter()
            .map(|rows| self.case.row_range(rows.start, rows.len()))
            .collect()
    }

    /// Restricts the study to the SNP columns `[start, start + len)`.
    ///
    /// `start` must sit on a 64-SNP word boundary (see
    /// [`GenotypeMatrix::column_range`]); the sliced cohort is a complete
    /// study over the narrower panel, so a federation built on it runs
    /// every phase with local 0-based SNP ids.
    ///
    /// # Panics
    ///
    /// Panics if `start` is unaligned or the range exceeds the panel.
    #[must_use]
    pub fn column_range(&self, start: usize, len: usize) -> Cohort {
        Self {
            panel: self.panel.range(start, len),
            case: Arc::new(self.case.column_range(start, len)),
            reference: Arc::new(self.reference.column_range(start, len)),
        }
    }

    /// Total number of case individuals.
    #[must_use]
    pub fn case_individuals(&self) -> usize {
        self.case.individuals()
    }

    /// Total number of reference individuals.
    #[must_use]
    pub fn reference_individuals(&self) -> usize {
        self.reference.individuals()
    }
}

impl AsRef<Cohort> for Cohort {
    fn as_ref(&self) -> &Cohort {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cohort(case_n: usize, ref_n: usize, l: usize) -> Cohort {
        Cohort::new(
            SnpPanel::synthetic(l),
            GenotypeMatrix::zeroed(case_n, l),
            GenotypeMatrix::zeroed(ref_n, l),
        )
        .unwrap()
    }

    #[test]
    fn new_validates_dimensions() {
        let panel = SnpPanel::synthetic(5);
        let bad = GenotypeMatrix::zeroed(3, 4);
        let good = GenotypeMatrix::zeroed(3, 5);
        assert!(Cohort::new(panel.clone(), bad.clone(), good.clone()).is_err());
        assert!(Cohort::new(panel.clone(), good.clone(), bad).is_err());
        assert!(Cohort::new(panel, good.clone(), good).is_ok());
    }

    #[test]
    fn split_covers_everyone_exactly_once() {
        let cohort = tiny_cohort(10, 4, 3);
        for gdos in 1..=7 {
            let shards = cohort.split_case_among(gdos);
            assert_eq!(shards.len(), gdos);
            let total: usize = shards.iter().map(GenotypeMatrix::individuals).sum();
            assert_eq!(total, 10, "gdos = {gdos}");
            // Near-equal: max-min <= 1.
            let sizes: Vec<usize> = shards.iter().map(GenotypeMatrix::individuals).collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1, "gdos = {gdos}, sizes {sizes:?}");
        }
    }

    #[test]
    fn split_preserves_data() {
        let panel = SnpPanel::synthetic(4);
        let mut case = GenotypeMatrix::zeroed(5, 4);
        for i in 0..5 {
            case.set(i, i % 4, true);
        }
        let cohort = Cohort::new(panel, case.clone(), GenotypeMatrix::zeroed(2, 4)).unwrap();
        let shards = cohort.split_case_among(2);
        assert_eq!(shards.iter().map(|s| s.individuals()).sum::<usize>(), 5);
        let rows = shards
            .iter()
            .flat_map(|s| (0..s.individuals()).map(|i| s.row(i)));
        assert!(rows.eq((0..5).map(|i| case.row(i))));
    }

    #[test]
    fn column_range_scopes_panel_and_matrices() {
        let panel = SnpPanel::synthetic(130);
        let mut case = GenotypeMatrix::zeroed(3, 130);
        case.set(1, 64, true);
        case.set(2, 129, true);
        let cohort = Cohort::new(panel.clone(), case, GenotypeMatrix::zeroed(2, 130)).unwrap();
        let shard = cohort.column_range(64, 66);
        assert_eq!(shard.panel().len(), 66);
        assert_eq!(
            shard.panel().get(crate::snp::SnpId(0)),
            panel.get(crate::snp::SnpId(64))
        );
        assert_eq!(shard.case().get(1, 0), 1);
        assert_eq!(shard.case().get(2, 65), 1);
        assert_eq!(shard.reference().snps(), 66);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn split_zero_members_panics() {
        let _ = tiny_cohort(4, 2, 2).split_case_among(0);
    }

    #[test]
    fn population_display() {
        assert_eq!(Population::Case.to_string(), "case");
        assert_eq!(Population::Reference.to_string(), "reference");
    }
}
