//! Bit-packed genotype matrices.
//!
//! Each individual's genotype is one bit per SNP (the paper's Table 1
//! encoding: 0 = major allele, 1 = minor allele present). A matrix of
//! `N` individuals × `L` SNPs is stored row-major with 64 SNPs per word,
//! so 14,860 genomes × 10,000 SNPs — the paper's largest setting — fits in
//! ≈ 18 MB instead of 148 MB, and per-SNP allele counts reduce to popcounts.

use crate::error::GenomicsError;
use crate::snp::SnpId;

/// A dense `individuals × snps` matrix of biallelic genotypes.
///
/// # Example
///
/// ```
/// use gendpr_genomics::genotype::GenotypeMatrix;
///
/// let mut m = GenotypeMatrix::zeroed(2, 3);
/// m.set(0, 1, true);
/// m.set(1, 1, true);
/// assert_eq!(m.get(0, 1), 1);
/// assert_eq!(m.column_counts(), vec![0, 2, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenotypeMatrix {
    individuals: usize,
    snps: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl GenotypeMatrix {
    /// Creates an all-major-allele (all-zero) matrix.
    #[must_use]
    pub fn zeroed(individuals: usize, snps: usize) -> Self {
        let words_per_row = snps.div_ceil(64);
        Self {
            individuals,
            snps,
            words_per_row,
            words: vec![0u64; individuals * words_per_row],
        }
    }

    /// Builds a matrix from row-major byte data (any nonzero = minor allele).
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::DimensionMismatch`] if `rows` are not all of
    /// length `snps`.
    pub fn from_rows(rows: &[Vec<u8>], snps: usize) -> Result<Self, GenomicsError> {
        let mut m = Self::zeroed(rows.len(), snps);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != snps {
                return Err(GenomicsError::DimensionMismatch {
                    got: row.len(),
                    expected: snps,
                    what: "snps",
                });
            }
            for (l, &allele) in row.iter().enumerate() {
                if allele != 0 {
                    m.set(i, l, true);
                }
            }
        }
        Ok(m)
    }

    /// Number of individuals (rows).
    #[must_use]
    pub fn individuals(&self) -> usize {
        self.individuals
    }

    /// Number of SNPs (columns).
    #[must_use]
    pub fn snps(&self) -> usize {
        self.snps
    }

    /// Approximate heap size in bytes (used for enclave memory accounting).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Packed words, row-major (64 SNPs per word).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Words per packed row.
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of `individual`'s row: SNP `64w + j` is bit `j`
    /// of word `w`. Bits past the last SNP must stay zero.
    pub(crate) fn row_words_mut(&mut self, individual: usize) -> &mut [u64] {
        assert!(individual < self.individuals, "individual out of bounds");
        let start = individual * self.words_per_row;
        &mut self.words[start..start + self.words_per_row]
    }

    /// Returns the allele of `individual` at SNP `snp` as 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[must_use]
    #[inline]
    pub fn get(&self, individual: usize, snp: usize) -> u8 {
        assert!(individual < self.individuals, "individual out of bounds");
        assert!(snp < self.snps, "snp out of bounds");
        let word = self.words[individual * self.words_per_row + snp / 64];
        ((word >> (snp % 64)) & 1) as u8
    }

    /// Sets the allele of `individual` at SNP `snp`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn set(&mut self, individual: usize, snp: usize, minor: bool) {
        assert!(individual < self.individuals, "individual out of bounds");
        assert!(snp < self.snps, "snp out of bounds");
        let idx = individual * self.words_per_row + snp / 64;
        let bit = 1u64 << (snp % 64);
        if minor {
            self.words[idx] |= bit;
        } else {
            self.words[idx] &= !bit;
        }
    }

    /// Minor-allele count of one column (`N₁` for that SNP).
    #[must_use]
    pub fn column_count(&self, snp: SnpId) -> u64 {
        let l = snp.index();
        assert!(l < self.snps, "snp out of bounds");
        let word_idx = l / 64;
        let bit = 1u64 << (l % 64);
        let mut count = 0u64;
        for row in 0..self.individuals {
            if self.words[row * self.words_per_row + word_idx] & bit != 0 {
                count += 1;
            }
        }
        count
    }

    /// Minor-allele counts for every column — the `caseLocalCounts[L_des]`
    /// vector each GDO outsources in the paper's pre-processing step.
    ///
    /// Works 64 rows at a time: each 64×64 bit tile is transposed in
    /// registers and its columns popcounted, instead of walking every set
    /// bit with `trailing_zeros`. Density-independent and ~word-speed.
    #[must_use]
    pub fn column_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.snps];
        let mut block = [0u64; 64];
        for q in 0..self.individuals.div_ceil(64) {
            let rows = (self.individuals - q * 64).min(64);
            for w in 0..self.words_per_row {
                for (r, slot) in block.iter_mut().enumerate().take(rows) {
                    *slot = self.words[(q * 64 + r) * self.words_per_row + w];
                }
                for slot in block.iter_mut().skip(rows) {
                    *slot = 0;
                }
                crate::columnar::transpose64(&mut block);
                let cols = (self.snps - w * 64).min(64);
                for (i, &col) in block.iter().enumerate().take(cols) {
                    counts[w * 64 + i] += u64::from(col.count_ones());
                }
            }
        }
        counts
    }

    /// Row `individual` unpacked to one byte per SNP.
    ///
    /// # Panics
    ///
    /// Panics if `individual` is out of bounds.
    #[must_use]
    pub fn row(&self, individual: usize) -> Vec<u8> {
        assert!(individual < self.individuals, "individual out of bounds");
        (0..self.snps).map(|l| self.get(individual, l)).collect()
    }

    /// Pairwise product count `Σ_n x_{n,a} · x_{n,b}` — both minor.
    ///
    /// This and [`Self::column_count`] are exactly the second-order moments
    /// GDO enclaves outsource during the LD phase.
    #[must_use]
    pub fn pair_count(&self, a: SnpId, b: SnpId) -> u64 {
        let (la, lb) = (a.index(), b.index());
        assert!(la < self.snps && lb < self.snps, "snp out of bounds");
        let (wa, ba) = (la / 64, 1u64 << (la % 64));
        let (wb, bb) = (lb / 64, 1u64 << (lb % 64));
        let mut count = 0u64;
        for row in 0..self.individuals {
            let base = row * self.words_per_row;
            let has_a = self.words[base + wa] & ba != 0;
            let has_b = self.words[base + wb] & bb != 0;
            if has_a && has_b {
                count += 1;
            }
        }
        count
    }

    /// Creates a sub-matrix containing rows `[start, start + len)`.
    ///
    /// Used to shard a cohort across federation members.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix.
    #[must_use]
    pub fn row_range(&self, start: usize, len: usize) -> GenotypeMatrix {
        assert!(start + len <= self.individuals, "row range out of bounds");
        let mut out = Self::zeroed(len, self.snps);
        let src = start * self.words_per_row;
        out.words
            .copy_from_slice(&self.words[src..src + len * self.words_per_row]);
        out
    }

    /// Creates a sub-matrix containing columns `[start, start + len)`.
    ///
    /// `start` must sit on a 64-SNP word boundary so the packed words can
    /// be copied verbatim — every surviving bit keeps its in-word
    /// position, which is what lets sharded columnar kernels reproduce
    /// the whole-panel arithmetic exactly.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not word-aligned or the range exceeds the
    /// matrix.
    #[must_use]
    pub fn column_range(&self, start: usize, len: usize) -> GenotypeMatrix {
        assert!(
            start.is_multiple_of(64),
            "column range must start on a word boundary"
        );
        assert!(start + len <= self.snps, "column range out of bounds");
        let mut out = Self::zeroed(self.individuals, len);
        let word_start = start / 64;
        let words = len.div_ceil(64);
        let tail_bits = len % 64;
        let tail_mask = if tail_bits == 0 {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        };
        for row in 0..self.individuals {
            let src = row * self.words_per_row + word_start;
            let dst = row * out.words_per_row;
            out.words[dst..dst + words].copy_from_slice(&self.words[src..src + words]);
            if words > 0 {
                out.words[dst + words - 1] &= tail_mask;
            }
        }
        out
    }

    /// Restricts the matrix to the given columns, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of bounds.
    #[must_use]
    pub fn select_columns(&self, snps: &[SnpId]) -> GenotypeMatrix {
        let mut out = Self::zeroed(self.individuals, snps.len());
        for (new_l, id) in snps.iter().enumerate() {
            let old_l = id.index();
            assert!(old_l < self.snps, "snp out of bounds");
            for row in 0..self.individuals {
                if self.get(row, old_l) == 1 {
                    out.set(row, new_l, true);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkerboard(n: usize, l: usize) -> GenotypeMatrix {
        let mut m = GenotypeMatrix::zeroed(n, l);
        for i in 0..n {
            for j in 0..l {
                if (i + j) % 2 == 0 {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = GenotypeMatrix::zeroed(3, 130); // crosses word boundaries
        m.set(1, 0, true);
        m.set(1, 63, true);
        m.set(1, 64, true);
        m.set(2, 129, true);
        assert_eq!(m.get(1, 0), 1);
        assert_eq!(m.get(1, 63), 1);
        assert_eq!(m.get(1, 64), 1);
        assert_eq!(m.get(2, 129), 1);
        assert_eq!(m.get(0, 0), 0);
        m.set(1, 63, false);
        assert_eq!(m.get(1, 63), 0);
    }

    #[test]
    fn column_counts_match_scalar_path() {
        let m = checkerboard(13, 70);
        let fast = m.column_counts();
        #[allow(clippy::needless_range_loop)]
        for l in 0..70 {
            assert_eq!(fast[l], m.column_count(SnpId(l as u32)), "col {l}");
            let manual: u64 = (0..13).map(|i| u64::from(m.get(i, l))).sum();
            assert_eq!(fast[l], manual);
        }
    }

    #[test]
    fn pair_count_matches_manual() {
        let m = checkerboard(10, 8);
        for a in 0..8u32 {
            for b in 0..8u32 {
                let manual: u64 = (0..10)
                    .map(|i| u64::from(m.get(i, a as usize) & m.get(i, b as usize)))
                    .sum();
                assert_eq!(m.pair_count(SnpId(a), SnpId(b)), manual);
            }
        }
    }

    #[test]
    fn from_rows_validates_dimensions() {
        let rows = vec![vec![0u8, 1, 0], vec![1, 1]];
        let err = GenotypeMatrix::from_rows(&rows, 3).unwrap_err();
        assert!(matches!(
            err,
            GenomicsError::DimensionMismatch { got: 2, .. }
        ));
        let ok = GenotypeMatrix::from_rows(&[vec![0, 1, 1]], 3).unwrap();
        assert_eq!(ok.row(0), vec![0, 1, 1]);
    }

    #[test]
    fn row_range_parts_hold_the_original_rows() {
        let m = checkerboard(9, 33);
        for (start, len) in [(0, 4), (4, 5)] {
            let part = m.row_range(start, len);
            assert_eq!((part.individuals(), part.snps()), (len, 33));
            for i in 0..len {
                assert_eq!(part.row(i), m.row(start + i), "row {}", start + i);
            }
        }
    }

    #[test]
    fn column_range_preserves_bits_and_masks_the_tail() {
        let m = checkerboard(9, 150); // 3 words per row, ragged tail
        for (start, len) in [(0usize, 64usize), (64, 64), (64, 86), (128, 22), (0, 150)] {
            let sub = m.column_range(start, len);
            assert_eq!(sub.snps(), len);
            assert_eq!(sub.individuals(), 9);
            for i in 0..9 {
                for j in 0..len {
                    assert_eq!(
                        sub.get(i, j),
                        m.get(i, start + j),
                        "({start},{len}) @ {i},{j}"
                    );
                }
            }
            // The tail word must be clean so popcount kernels see only
            // in-range bits.
            let counts = sub.column_counts();
            let total: u64 = counts.iter().sum();
            let manual: u64 = (0..9)
                .map(|i| {
                    (0..len)
                        .map(|j| u64::from(m.get(i, start + j)))
                        .sum::<u64>()
                })
                .sum();
            assert_eq!(total, manual);
        }
        let empty = m.column_range(64, 0);
        assert_eq!(empty.snps(), 0);
    }

    #[test]
    #[should_panic(expected = "word boundary")]
    fn column_range_rejects_unaligned_start() {
        let m = checkerboard(2, 100);
        let _ = m.column_range(32, 10);
    }

    #[test]
    fn select_columns_projects() {
        let m = checkerboard(4, 10);
        let sel = m.select_columns(&[SnpId(9), SnpId(0), SnpId(4)]);
        assert_eq!(sel.snps(), 3);
        for i in 0..4 {
            assert_eq!(sel.get(i, 0), m.get(i, 9));
            assert_eq!(sel.get(i, 1), m.get(i, 0));
            assert_eq!(sel.get(i, 2), m.get(i, 4));
        }
    }

    #[test]
    fn heap_bytes_reflects_packing() {
        let m = GenotypeMatrix::zeroed(100, 1000);
        // 1000 SNPs -> 16 words/row -> 12.8 kB, far below the byte encoding.
        assert_eq!(m.heap_bytes(), 100 * 16 * 8);
    }

    #[test]
    #[should_panic(expected = "snp out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = GenotypeMatrix::zeroed(1, 1);
        let _ = m.get(0, 1);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = GenotypeMatrix::zeroed(0, 0);
        assert_eq!(m.column_counts(), Vec::<u64>::new());
        assert_eq!(m.individuals(), 0);
        let m2 = GenotypeMatrix::zeroed(5, 0);
        assert_eq!(m2.column_counts(), Vec::<u64>::new());
    }
}
