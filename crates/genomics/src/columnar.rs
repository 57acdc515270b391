//! SNP-major (columnar) genotype storage.
//!
//! [`GenotypeMatrix`] packs genotypes row-major: one individual per row,
//! 64 SNPs per word. That layout is ideal for shipping shards around, but
//! the kernels the GenDPR phases hammer — per-SNP allele counts and
//! pairwise `Σ x_a·x_b` products — walk a *column*, touching one bit per
//! 8-byte stride. [`ColumnarGenotypes`] stores the transpose: each SNP is
//! a contiguous `N`-bit vector, so a column count is a straight popcount
//! sweep and a pair count is `popcount(AND)` over `N/64` words.
//!
//! The transpose itself is done 64×64 bits at a time with the classic
//! recursive block-swap (Hacker's Delight §7-3, adapted to LSB-first bit
//! order), so building the columnar view costs O(N·L/64) word operations
//! — amortized once per shard, then every kernel runs at memory speed.
//! [`transpose64`] is the one tile kernel behind every re-packing in the
//! workspace: [`ColumnarGenotypes::from_matrix`],
//! [`ColumnarGenotypes::select_row_major`],
//! [`GenotypeMatrix::column_counts`] and the LR search's decoding of a
//! compact report. Where the CPU reports AVX-512F at run time (std caches
//! the probe) a tile is eight registers, and the private `avx512` module
//! runs the six rounds of the block swap on them: three between registers,
//! three within each by `vpermq`. Every other CPU runs the scalar block
//! swap, which is also the oracle the kernel is tested against.

#[cfg(target_arch = "x86_64")]
mod avx512;

use crate::genotype::GenotypeMatrix;
use crate::snp::SnpId;
use std::ops::Range;

/// Whether this CPU runs the `avx512` transpose. Std caches the probe, so
/// asking per tile costs a load and a branch.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// Transposes a 64×64 bit matrix in place.
///
/// `a[r]` is row `r` with LSB-first columns: bit `c` of `a[r]` is element
/// `(r, c)`. After the call, bit `c` of `a[r]` is the original `(c, r)`.
///
/// Exported so downstream word kernels (the columnar LR search in
/// `gendpr-stats`) can re-pack between row- and SNP-major layouts without
/// reimplementing the block swap.
#[inline]
pub fn transpose64(a: &mut [u64; 64]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: `has_avx512()` detected AVX-512F on this CPU.
        return unsafe { avx512::transpose64(a) };
    }
    transpose64_scalar(a);
}

/// [`transpose64`] one word pair at a time: the fallback and the oracle.
fn transpose64_scalar(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            // Swap the top-right block of each 2j×2j tile with its
            // bottom-left block.
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// A SNP-major copy of a [`GenotypeMatrix`]: one contiguous bit-vector of
/// `individuals` bits per SNP.
///
/// # Example
///
/// ```
/// use gendpr_genomics::columnar::ColumnarGenotypes;
/// use gendpr_genomics::genotype::GenotypeMatrix;
/// use gendpr_genomics::snp::SnpId;
///
/// let mut m = GenotypeMatrix::zeroed(3, 2);
/// m.set(0, 1, true);
/// m.set(2, 1, true);
/// let c = ColumnarGenotypes::from_matrix(&m);
/// assert_eq!(c.column_count(SnpId(1)), 2);
/// assert_eq!(c.pair_count(SnpId(0), SnpId(1)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarGenotypes {
    individuals: usize,
    snps: usize,
    words_per_snp: usize,
    words: Vec<u64>,
}

impl ColumnarGenotypes {
    /// Builds the SNP-major view by block-transposing `m`.
    #[must_use]
    pub fn from_matrix(m: &GenotypeMatrix) -> Self {
        Self::from_rows(m, 0..m.individuals())
    }

    /// Builds the SNP-major view of the individuals `rows` of `m` by
    /// block-transposing them where they lie, so a shard of a shared
    /// matrix needs no row-major copy first.
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the matrix.
    #[must_use]
    pub fn from_rows(m: &GenotypeMatrix, rows: Range<usize>) -> Self {
        assert!(rows.end <= m.individuals(), "row range out of bounds");
        let individuals = rows.len();
        let snps = m.snps();
        let words_per_row = m.words_per_row();
        let words_per_snp = individuals.div_ceil(64);
        let src = &m.words()[rows.start * words_per_row..rows.end * words_per_row];
        let mut words = vec![0u64; snps * words_per_snp];
        let mut block = [0u64; 64];
        // One 64×64 tile per (individual-block q, snp-word w).
        for q in 0..words_per_snp {
            let rows = (individuals - q * 64).min(64);
            for w in 0..words_per_row {
                for r in 0..rows {
                    block[r] = src[(q * 64 + r) * words_per_row + w];
                }
                for slot in block.iter_mut().skip(rows) {
                    *slot = 0;
                }
                transpose64(&mut block);
                let cols = (snps - w * 64).min(64);
                for (i, &col) in block.iter().enumerate().take(cols) {
                    words[(w * 64 + i) * words_per_snp + q] = col;
                }
            }
        }
        Self {
            individuals,
            snps,
            words_per_snp,
            words,
        }
    }

    /// Number of individuals (bits per SNP vector).
    #[must_use]
    pub fn individuals(&self) -> usize {
        self.individuals
    }

    /// Number of SNPs (columns of the source matrix).
    #[must_use]
    pub fn snps(&self) -> usize {
        self.snps
    }

    /// Approximate heap size in bytes (enclave memory accounting).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The contiguous bit-vector of one SNP.
    ///
    /// # Panics
    ///
    /// Panics if `snp` is out of bounds.
    #[must_use]
    #[inline]
    pub fn snp_words(&self, snp: SnpId) -> &[u64] {
        let l = snp.index();
        assert!(l < self.snps, "snp out of bounds");
        &self.words[l * self.words_per_snp..(l + 1) * self.words_per_snp]
    }

    /// Minor-allele count of one SNP: a contiguous popcount sweep.
    #[must_use]
    pub fn column_count(&self, snp: SnpId) -> u64 {
        self.snp_words(snp)
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// Minor-allele counts for every SNP.
    #[must_use]
    pub fn column_counts(&self) -> Vec<u64> {
        (0..self.snps)
            .map(|l| {
                self.words[l * self.words_per_snp..(l + 1) * self.words_per_snp]
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum()
            })
            .collect()
    }

    /// Pairwise product count `Σ_n x_{n,a} · x_{n,b}`: `popcount(AND)`
    /// over the two contiguous columns, four words per step.
    #[must_use]
    pub fn pair_count(&self, a: SnpId, b: SnpId) -> u64 {
        and_popcount(self.snp_words(a), self.snp_words(b))
    }

    /// Batched [`Self::pair_count`] against a fixed anchor `a`,
    /// amortizing the anchor column load across all partners.
    #[must_use]
    pub fn pair_counts(&self, a: SnpId, bs: &[SnpId]) -> Vec<u64> {
        let col_a = self.snp_words(a);
        bs.iter()
            .map(|&b| and_popcount(col_a, self.snp_words(b)))
            .collect()
    }

    /// Gathers the selected columns back into a row-major bit buffer
    /// (row stride `⌈snps.len()/64⌉` words, 64 SNPs per word, LSB-first)
    /// — the word-at-a-time kernel behind LR matrix construction, which
    /// replaces per-cell `get` loops with one 64×64 block transpose per
    /// tile.
    ///
    /// # Panics
    ///
    /// Panics if any id in `snps` is out of bounds.
    #[must_use]
    pub fn select_row_major(&self, snps: &[SnpId]) -> Vec<u64> {
        let words_per_row = snps.len().div_ceil(64);
        let mut out = vec![0u64; self.individuals * words_per_row];
        let mut block = [0u64; 64];
        for q in 0..self.words_per_snp {
            let rows = (self.individuals - q * 64).min(64);
            for w in 0..words_per_row {
                let cols = (snps.len() - w * 64).min(64);
                for (k, slot) in block.iter_mut().enumerate().take(cols) {
                    *slot = self.snp_words(snps[w * 64 + k])[q];
                }
                for slot in block.iter_mut().skip(cols) {
                    *slot = 0;
                }
                transpose64(&mut block);
                for (r, &row) in block.iter().enumerate().take(rows) {
                    out[(q * 64 + r) * words_per_row + w] = row;
                }
            }
        }
        out
    }
}

impl From<&GenotypeMatrix> for ColumnarGenotypes {
    fn from(m: &GenotypeMatrix) -> Self {
        Self::from_matrix(m)
    }
}

/// `Σ popcount(x & y)` with a four-way unrolled main loop.
#[inline]
fn and_popcount(xs: &[u64], ys: &[u64]) -> u64 {
    debug_assert_eq!(xs.len(), ys.len());
    let mut chunks_x = xs.chunks_exact(4);
    let mut chunks_y = ys.chunks_exact(4);
    let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
    for (cx, cy) in chunks_x.by_ref().zip(chunks_y.by_ref()) {
        c0 += u64::from((cx[0] & cy[0]).count_ones());
        c1 += u64::from((cx[1] & cy[1]).count_ones());
        c2 += u64::from((cx[2] & cy[2]).count_ones());
        c3 += u64::from((cx[3] & cy[3]).count_ones());
    }
    let tail: u64 = chunks_x
        .remainder()
        .iter()
        .zip(chunks_y.remainder())
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum();
    c0 + c1 + c2 + c3 + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 fill, ~`density` fraction of minor alleles.
    fn random_matrix(n: usize, l: usize, seed: u64, density: f64) -> GenotypeMatrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut m = GenotypeMatrix::zeroed(n, l);
        for i in 0..n {
            for j in 0..l {
                if (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < density {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    #[test]
    fn a_row_range_transposes_as_its_copied_rows() {
        let m = random_matrix(200, 130, 3, 0.3);
        for (start, len) in [(0, 200), (0, 67), (67, 67), (134, 66), (63, 1), (10, 0)] {
            assert_eq!(
                ColumnarGenotypes::from_rows(&m, start..start + len),
                ColumnarGenotypes::from_matrix(&m.row_range(start, len)),
                "rows {start}..{}",
                start + len
            );
        }
    }

    #[test]
    fn transpose64_matches_naive() {
        let mut state = 7u64;
        let mut a = [0u64; 64];
        for slot in &mut a {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            *slot = state;
        }
        let original = a;
        transpose64(&mut a);
        for (r, &row) in a.iter().enumerate() {
            for (c, &col) in original.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "element ({r},{c})");
            }
        }
        // An involution: transposing twice restores the input.
        transpose64(&mut a);
        assert_eq!(a, original);
    }

    /// One transpose width, called directly rather than through the
    /// dispatch, which on a CPU with AVX-512F never reaches the scalar
    /// block swap.
    #[derive(Debug, Clone, Copy)]
    enum Width {
        Scalar,
        #[cfg(target_arch = "x86_64")]
        Avx512,
    }

    impl Width {
        /// Every width this CPU runs, the scalar oracle first. A vector
        /// width the CPU lacks is left out and named on stdout.
        fn detected() -> Vec<Width> {
            #[allow(unused_mut)]
            let mut widths = vec![Width::Scalar];
            #[cfg(target_arch = "x86_64")]
            if has_avx512() {
                widths.push(Width::Avx512);
            } else {
                println!("skipped: this CPU does not run the Avx512 transpose");
            }
            widths
        }

        fn transpose(self, a: &mut [u64; 64]) {
            match self {
                Width::Scalar => transpose64_scalar(a),
                // SAFETY: `detected` lists this width only where
                // `has_avx512()` detected AVX-512F.
                #[cfg(target_arch = "x86_64")]
                Width::Avx512 => unsafe { avx512::transpose64(a) },
            }
        }
    }

    /// Random tiles of every density, and every single-bit tile: each
    /// width moves every bit where the scalar block swap does.
    #[test]
    fn every_width_transposes_as_the_scalar_swap() {
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state ^ (state >> 29)
        };
        let mut tiles: Vec<[u64; 64]> = (0..400)
            .map(|i| {
                std::array::from_fn(|_| match i % 4 {
                    0 => next(),
                    1 => next() & next() & next(),
                    2 => next() | next() | next(),
                    _ => 1 << (next() % 64),
                })
            })
            .collect();
        for bit in 0..64 * 64 {
            let mut tile = [0u64; 64];
            tile[bit / 64] = 1 << (bit % 64);
            tiles.push(tile);
        }
        for tile in tiles {
            let mut expected = tile;
            transpose64_scalar(&mut expected);
            for (r, &row) in expected.iter().enumerate() {
                for (c, &col) in tile.iter().enumerate() {
                    assert_eq!((row >> c) & 1, (col >> r) & 1, "scalar ({r},{c})");
                }
            }
            for width in Width::detected() {
                let mut got = tile;
                width.transpose(&mut got);
                assert_eq!(got, expected, "{width:?}");
            }
        }
    }

    #[test]
    fn from_matrix_matches_per_cell_gets_on_ragged_shapes() {
        for &(n, l) in &[(1, 1), (5, 64), (63, 65), (64, 1), (129, 191), (200, 67)] {
            let m = random_matrix(n, l, (n * 7 + l) as u64, 0.45);
            let c = ColumnarGenotypes::from_matrix(&m);
            for snp in 0..l {
                let words = c.snp_words(SnpId(snp as u32));
                for i in 0..n {
                    let bit = words[i / 64] >> (i % 64) & 1;
                    assert_eq!(bit as u8, m.get(i, snp), "{n}x{l} ({i},{snp})");
                }
                // Bits past the last individual stay clear.
                let tail = words
                    .last()
                    .map_or(0, |w| if n % 64 == 0 { 0 } else { w >> (n % 64) });
                assert_eq!(tail, 0, "{n}x{l} snp {snp}");
            }
        }
    }

    #[test]
    fn columnar_matches_row_major_on_odd_shapes() {
        // Shapes straddling word boundaries in both dimensions,
        // including snps % 64 != 0 and individuals % 64 != 0.
        for &(n, l) in &[(1, 1), (3, 70), (64, 64), (65, 63), (130, 129), (67, 200)] {
            for &density in &[0.05, 0.5, 0.95] {
                let m = random_matrix(n, l, (n * 1000 + l) as u64, density);
                let c = ColumnarGenotypes::from_matrix(&m);
                assert_eq!(c.individuals(), n);
                assert_eq!(c.snps(), l);
                assert_eq!(c.column_counts(), m.column_counts(), "{n}x{l}@{density}");
                for snp in 0..l as u32 {
                    assert_eq!(
                        c.column_count(SnpId(snp)),
                        m.column_count(SnpId(snp)),
                        "{n}x{l}@{density} col {snp}"
                    );
                }
                for a in (0..l as u32).step_by(7) {
                    for b in (0..l as u32).step_by(11) {
                        assert_eq!(
                            c.pair_count(SnpId(a), SnpId(b)),
                            m.pair_count(SnpId(a), SnpId(b)),
                            "{n}x{l}@{density} pair ({a},{b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_pair_counts_match_singles() {
        let m = random_matrix(150, 90, 42, 0.3);
        let c = ColumnarGenotypes::from_matrix(&m);
        let partners: Vec<SnpId> = (0..90).step_by(3).map(SnpId).collect();
        let batched = c.pair_counts(SnpId(17), &partners);
        for (i, &b) in partners.iter().enumerate() {
            assert_eq!(batched[i], c.pair_count(SnpId(17), b));
        }
    }

    #[test]
    fn select_row_major_matches_per_cell_gets() {
        for &(n, l) in &[(1, 1), (3, 70), (65, 63), (130, 129), (67, 200)] {
            let m = random_matrix(n, l, (n * 31 + l) as u64, 0.4);
            let c = ColumnarGenotypes::from_matrix(&m);
            // A strided, boundary-straddling selection.
            let snps: Vec<SnpId> = (0..l as u32).rev().step_by(3).map(SnpId).collect();
            let words_per_row = snps.len().div_ceil(64);
            let packed = c.select_row_major(&snps);
            assert_eq!(packed.len(), n * words_per_row);
            for i in 0..n {
                for (j, id) in snps.iter().enumerate() {
                    let bit = packed[i * words_per_row + j / 64] >> (j % 64) & 1;
                    assert_eq!(bit == 1, m.get(i, id.index()) == 1, "{n}x{l} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn unused_tail_bits_do_not_leak() {
        // All-ones matrix: the last word of each column has unused high
        // bits that must stay zero or counts would overshoot.
        let mut m = GenotypeMatrix::zeroed(70, 5);
        for i in 0..70 {
            for j in 0..5 {
                m.set(i, j, true);
            }
        }
        let c = ColumnarGenotypes::from_matrix(&m);
        assert_eq!(c.column_counts(), vec![70; 5]);
        assert_eq!(c.pair_count(SnpId(0), SnpId(4)), 70);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let c = ColumnarGenotypes::from_matrix(&GenotypeMatrix::zeroed(0, 0));
        assert_eq!(c.column_counts(), Vec::<u64>::new());
        let c2 = ColumnarGenotypes::from_matrix(&GenotypeMatrix::zeroed(5, 0));
        assert_eq!(c2.column_counts(), Vec::<u64>::new());
        let c3 = ColumnarGenotypes::from_matrix(&GenotypeMatrix::zeroed(0, 3));
        assert_eq!(c3.column_counts(), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "snp out of bounds")]
    fn out_of_bounds_snp_panics() {
        let c = ColumnarGenotypes::from_matrix(&GenotypeMatrix::zeroed(2, 2));
        let _ = c.column_count(SnpId(2));
    }

    #[test]
    fn heap_bytes_reflects_packing() {
        let c = ColumnarGenotypes::from_matrix(&GenotypeMatrix::zeroed(100, 1000));
        // 100 individuals -> 2 words per SNP -> 16 kB.
        assert_eq!(c.heap_bytes(), 1000 * 2 * 8);
    }
}
