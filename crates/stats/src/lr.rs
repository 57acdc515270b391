//! The SecureGenome likelihood-ratio test — Phase 3 of GenDPR.
//!
//! An adversary holding a victim's genotype computes the LR statistic of
//! Eq. 1 against the released frequencies; if it exceeds a threshold the
//! victim is flagged as a case participant. SecureGenome (Sankararaman et
//! al.) inverts this: it *simulates* the attack over the study's own data
//! and keeps only a subset of SNPs for which the attack's power stays below
//! a configured bound at a tolerated false-positive rate.
//!
//! The distributed twist (paper §5.5): each GDO computes the per-individual
//! per-SNP LR *contributions* for its local genomes — using the **global**
//! case/reference frequencies broadcast by the leader — and ships that
//! matrix; the leader concatenates the rows and runs the subset search.
//!
//! # Columnar search kernels
//!
//! The subset search is the LR phase's hot path (≈ 40 of a ≈ 61 ms
//! `assess-lr` job before the band below, ≈ 45 % of its CPU before the
//! vector sweeps; 87 % of the in-process protocol at paper scale in
//! `BENCH_phases.json`), so [`select_safe_subset`] routes
//! through [`LrColumns`], a column-major bit-packed view in which each
//! candidate SNP is a contiguous `individuals`-bit vector. Evaluating a
//! column is then a word-wise sweep over the cumulative per-individual
//! sums — no per-candidate allocation anywhere. The scalar reference
//! implementation is retained as [`select_safe_subset_naive`].
//!
//! The leader's Phase 3 is one path: a member's compact report decodes
//! straight into [`LrColumns`] ([`LrColumns::from_row_bits`], one 64×64
//! block transpose), the parts are stitched ([`LrColumns::concat_rows`]),
//! and [`select_safe_subset`] accumulates the forced (already released)
//! columns itself before the first candidate. The dense [`LrMatrix`] and
//! [`select_safe_subset_naive`] are the reference the property tests
//! compare against.
//!
//! A candidate costs one sweep over the null sums and one over the case
//! sums, accepted or rejected. The stored sums are those of the candidate
//! evaluated last, `s + v`: kept as they are after an accept, and after a
//! reject the next sweep subtracts `v` before it adds its own column — the
//! reference's `(s + v) − v`, which is not a restore of `s` — so a reject's
//! back-out rides in the next candidate's sweep.
//!
//! The per-candidate null quantile is read from a verified band. A column
//! with levels `(major, minor)` moves each sum by one of the two, and
//! round-to-nearest is monotone, so the new `k`-th and `(k + 1)`-th order
//! statistics lie in `[kth + min, kth₁ + max]` of the committed ones. The
//! null sweep also stores the candidate's sums, counts those below that
//! band and marks those inside it, a byte an octet; only the ≈ 30 marked
//! sums have their `i64` total-order keys classified and gathered, and the
//! select runs among those. The result is used only when the exact counts
//! place the order statistics in the band; otherwise every key is
//! refreshed and the full quickselect runs
//! (`gendpr_lr_quantile_fallbacks_total` counts those candidates).
//! Correctness rests on the count alone; the bound decides the hit rate.
//!
//! What the source guarantees: every sweep performs, per individual, the
//! `+=` and `-=` of exactly `major` or `minor` the reference performs, in
//! its order, so sums, thresholds and selections are byte-identical (tests
//! compare each sweep with the scalar loop by `to_bits()`, property tests
//! compare the selections).
//!
//! On an x86-64 CPU the sweeps run at the widest vector width detected at
//! run time (`Width`; std caches the probe; there is no knob). With
//! AVX-512F they run eight individuals a step, in the private `avx512`
//! module: byte `j` of a column's bit word holds the bits of individuals
//! `8j … 8j + 7`, and that byte *is* the `__mmask8` of the step, so the
//! level is `mask_blend(byte, major, minor)` of the two broadcast levels —
//! no broadcast of the word, no AND, no compare. Every count is a per-lane
//! `i64` counter bumped under a compare mask and reduced once a sweep.
//! With AVX2 only they run four individuals a step, in the private `avx2`
//! module: the genotype bits become lane masks (`cmpeq` against `[1, 2, 4,
//! 8]`) and the level is an explicit blend, `blendv(major, minor, mask)`.
//! Neither width loads a table or branches on a bit. DESIGN.md
//! (*Performance architecture*) and EXPERIMENTS.md give the measurements.
//!
//! The scalar loops stay as the fallback on every other CPU and as the
//! oracle of both vector widths, which the tests call directly, each where
//! the CPU has it. They read the level from a two-entry table,
//! `[major, minor][bit]`, which rustc 1.95 compiles to an indexed load
//! (x86-64, release profile). The mask select before that,
//! `from_bits((ma & !mask) | (mi & mask))`, was documented as branchless
//! while LLVM recognised the select and emitted `testb $1 ; je` — a jump on
//! every genotype bit, fast on a column the predictor had seen and 3.8 ns
//! per individual in the search. Branch-freedom is a property of the
//! emitted code: `bench_phases`' `lr_sweep` row (1,630 individuals × 2,000
//! random columns against one column repeated) and its
//! `"branch_free": true` gate in `scripts/check.sh` re-check the sweep
//! that runs whenever the toolchain moves.

use gendpr_genomics::columnar::{transpose64, ColumnarGenotypes};
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_obs as obs;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

/// Frequencies are clamped away from 0/1 so `ln` stays finite even for
/// degenerate counts.
const FREQ_EPS: f64 = 1e-9;

/// One individual's LR contribution at one SNP (Eq. 1 summand):
/// `x·ln(p̂/p) + (1−x)·ln((1−p̂)/(1−p))`.
#[must_use]
pub fn lr_contribution(x: u8, case_freq: f64, ref_freq: f64) -> f64 {
    debug_assert!(x <= 1, "allele must be 0/1");
    let p_hat = case_freq.clamp(FREQ_EPS, 1.0 - FREQ_EPS);
    let p = ref_freq.clamp(FREQ_EPS, 1.0 - FREQ_EPS);
    if x == 1 {
        (p_hat / p).ln()
    } else {
        ((1.0 - p_hat) / (1.0 - p)).ln()
    }
}

/// The two possible per-column LR contributions: `(major, minor)` values
/// for each SNP, i.e. the Eq. 1 summand at `x = 0` and `x = 1`.
///
/// Since an LR matrix column holds only these two values, a matrix can be
/// transported as one bit per cell plus the frequency vectors the leader
/// already broadcast — the compressed LR reports of the optimized runtime.
///
/// # Panics
///
/// Panics if the vectors disagree in length.
#[must_use]
pub fn lr_levels(case_freqs: &[f64], ref_freqs: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        case_freqs.len(),
        ref_freqs.len(),
        "one pair of frequencies per SNP"
    );
    let major = case_freqs
        .iter()
        .zip(ref_freqs.iter())
        .map(|(&p_hat, &p)| lr_contribution(0, p_hat, p))
        .collect();
    let minor = case_freqs
        .iter()
        .zip(ref_freqs.iter())
        .map(|(&p_hat, &p)| lr_contribution(1, p_hat, p))
        .collect();
    (major, minor)
}

/// A dense `individuals × snps` matrix of LR contributions — the paper's
/// "local LR-matrix" of size `N^case_g × L''`.
#[derive(Debug, Clone, PartialEq)]
pub struct LrMatrix {
    individuals: usize,
    snps: usize,
    values: Vec<f64>,
}

impl LrMatrix {
    /// Builds the LR matrix for `genotypes` restricted to `snps` (ids into
    /// the original panel), with `case_freqs[j]` / `ref_freqs[j]` giving the
    /// global frequencies of `snps[j]`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency vectors do not match `snps` in length.
    #[must_use]
    pub fn from_genotypes(
        genotypes: &GenotypeMatrix,
        snps: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Self {
        assert_eq!(snps.len(), case_freqs.len(), "one case frequency per SNP");
        assert_eq!(
            snps.len(),
            ref_freqs.len(),
            "one reference frequency per SNP"
        );
        let n = genotypes.individuals();
        let l = snps.len();
        // Each column takes one of exactly two values (x = 0 or x = 1), so
        // the logarithms are computed once per SNP, not once per cell.
        let (major, minor) = lr_levels(case_freqs, ref_freqs);
        let mut values = Vec::with_capacity(n * l);
        for ind in 0..n {
            for (j, id) in snps.iter().enumerate() {
                let x = genotypes.get(ind, id.index());
                values.push(if x == 1 { minor[j] } else { major[j] });
            }
        }
        Self {
            individuals: n,
            snps: l,
            values,
        }
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

    /// The contribution of `individual` at column `snp`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[must_use]
    pub fn get(&self, individual: usize, snp: usize) -> f64 {
        assert!(
            individual < self.individuals && snp < self.snps,
            "index out of bounds"
        );
        self.values[individual * self.snps + snp]
    }

    /// Raw row-major values (for serialization).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Reassembles a matrix from row-major values (the wire decoder's side).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != individuals * snps`.
    #[must_use]
    pub fn from_values(individuals: usize, snps: usize, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            individuals * snps,
            "value buffer has wrong size"
        );
        Self {
            individuals,
            snps,
            values,
        }
    }

    /// Rebuilds a matrix from its two per-column levels and a minor-allele
    /// indicator — the decompression side of the compact LR transport.
    ///
    /// # Panics
    ///
    /// Panics if the level vectors do not both have `snps` entries.
    #[must_use]
    pub fn from_indicator(
        individuals: usize,
        snps: usize,
        major: &[f64],
        minor: &[f64],
        indicator: impl Fn(usize, usize) -> bool,
    ) -> Self {
        assert_eq!(major.len(), snps, "one major level per SNP");
        assert_eq!(minor.len(), snps, "one minor level per SNP");
        let mut values = Vec::with_capacity(individuals * snps);
        for i in 0..individuals {
            for j in 0..snps {
                values.push(if indicator(i, j) { minor[j] } else { major[j] });
            }
        }
        Self {
            individuals,
            snps,
            values,
        }
    }

    /// Concatenates the rows of all matrices — the leader-side merge of
    /// Algorithm 1 lines 63–67.
    ///
    /// # Panics
    ///
    /// Panics if the matrices disagree on the number of SNPs, or `parts`
    /// is empty.
    #[must_use]
    pub fn concat_rows(parts: &[LrMatrix]) -> LrMatrix {
        assert!(!parts.is_empty(), "need at least one LR matrix");
        let snps = parts[0].snps;
        let mut individuals = 0;
        let mut values = Vec::new();
        for p in parts {
            assert_eq!(p.snps, snps, "all LR matrices must cover the same SNPs");
            individuals += p.individuals;
            values.extend_from_slice(&p.values);
        }
        LrMatrix {
            individuals,
            snps,
            values,
        }
    }

    /// Approximate heap size in bytes (enclave memory accounting).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }
}

/// Read access to an `individuals × snps` table of LR contributions.
///
/// Implemented by the dense [`LrMatrix`] (the paper's matrices, and the
/// reference the property tests compare against) and the column-major
/// bit-packed [`LrColumns`]. The subset search is generic over both but
/// runs on [`LrColumns`]: it takes the two-valued column view
/// ([`LrValues::to_columns`]) whenever both inputs offer one, and reads
/// cell by cell only when one does not. The leader thus makes the exact
/// same selection over 64× less enclave memory when the federation uses
/// compact LR transport.
pub trait LrValues {
    /// Number of individuals (rows).
    fn individuals(&self) -> usize;
    /// Number of SNPs (columns).
    fn snps(&self) -> usize;
    /// The contribution of `individual` at column `snp`.
    fn get(&self, individual: usize, snp: usize) -> f64;
    /// A column-major bit-packed view of the table, if every column takes
    /// at most two (bitwise-)distinct values — the representation the
    /// subset search's word kernels run on. `None` routes the search to
    /// the scalar reference path.
    fn to_columns(&self) -> Option<LrColumns>;
}

impl LrValues for LrMatrix {
    fn individuals(&self) -> usize {
        self.individuals
    }
    fn snps(&self) -> usize {
        self.snps
    }
    fn get(&self, individual: usize, snp: usize) -> f64 {
        LrMatrix::get(self, individual, snp)
    }
    fn to_columns(&self) -> Option<LrColumns> {
        // Direct slice scan: no per-cell bounds asserts or dispatch.
        columns_from_fn(self.individuals, self.snps, |i, j| {
            self.values[i * self.snps + j].to_bits()
        })
    }
}

/// Column-major bit-packed LR contributions: each SNP is a contiguous
/// `individuals`-bit minor-allele indicator (64 individuals per word,
/// LSB-first), plus the two per-column contribution levels, mirroring
/// `genomics::columnar`. A member's compact report, row-major on the wire,
/// decodes straight into it ([`LrColumns::from_row_bits`]).
///
/// This is the layout the subset-search kernels run on: admitting a column
/// is one linear sweep of its bit words against the cumulative sum vector,
/// instead of a strided per-cell walk of a row-major matrix. The bit buffer
/// is `Arc`-shared so cloning a view (e.g. to reuse indicator bits across
/// collusion combinations) costs nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct LrColumns {
    individuals: usize,
    snps: usize,
    words_per_col: usize,
    bits: Arc<[u64]>,
    major: Vec<f64>,
    minor: Vec<f64>,
}

impl LrColumns {
    /// Builds the columnar view straight from a SNP-major genotype shard:
    /// each selected column is a word-for-word copy of the shard's
    /// contiguous SNP bit-vector.
    ///
    /// # Panics
    ///
    /// Panics if the frequency vectors do not match `snps` in length or an
    /// id is out of bounds.
    #[must_use]
    pub fn from_columnar(
        genotypes: &ColumnarGenotypes,
        snps: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Self {
        assert_eq!(snps.len(), case_freqs.len(), "one case frequency per SNP");
        let (major, minor) = lr_levels(case_freqs, ref_freqs);
        let n = genotypes.individuals();
        let words_per_col = n.div_ceil(64);
        let mut bits = vec![0u64; snps.len() * words_per_col];
        for (j, &id) in snps.iter().enumerate() {
            bits[j * words_per_col..(j + 1) * words_per_col]
                .copy_from_slice(genotypes.snp_words(id));
        }
        Self {
            individuals: n,
            snps: snps.len(),
            words_per_col,
            bits: bits.into(),
            major,
            minor,
        }
    }

    /// Builds the columnar view of the row-concatenation of several
    /// SNP-major shards (the leader-side merge), stitching each column's
    /// bit-vectors end to end. Shard sizes need not be word-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, the frequency vectors do not match
    /// `snps`, or an id is out of bounds for some shard.
    #[must_use]
    pub fn from_columnar_parts(
        parts: &[&ColumnarGenotypes],
        snps: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Self {
        assert!(!parts.is_empty(), "need at least one shard");
        assert_eq!(snps.len(), case_freqs.len(), "one case frequency per SNP");
        let (major, minor) = lr_levels(case_freqs, ref_freqs);
        let sizes: Vec<usize> = parts.iter().map(|p| p.individuals()).collect();
        Self::stitched(&sizes, major, minor, |p, j| parts[p].snp_words(snps[j]))
    }

    /// Vertically concatenates columnar matrices (leader-side merge),
    /// stitching each column's parts at their row offsets.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the parts disagree on columns or
    /// levels.
    #[must_use]
    pub fn concat_rows(parts: &[LrColumns]) -> LrColumns {
        assert!(!parts.is_empty(), "need at least one LR matrix");
        let first = &parts[0];
        for p in parts {
            assert_eq!(
                p.snps, first.snps,
                "all LR matrices must cover the same SNPs"
            );
            assert_eq!(p.major, first.major, "parts must share contribution levels");
            assert_eq!(p.minor, first.minor, "parts must share contribution levels");
        }
        let sizes: Vec<usize> = parts.iter().map(|p| p.individuals).collect();
        Self::stitched(&sizes, first.major.clone(), first.minor.clone(), |p, j| {
            parts[p].col_words(j)
        })
    }

    /// The one stitch loop: column `j` of the result is the `sizes[p]`-bit
    /// vectors `part_words(p, j)` laid end to end, shifting each part to
    /// its row offset and carrying the spill into the next word.
    fn stitched<'a>(
        sizes: &[usize],
        major: Vec<f64>,
        minor: Vec<f64>,
        part_words: impl Fn(usize, usize) -> &'a [u64],
    ) -> Self {
        let n: usize = sizes.iter().sum();
        let snps = major.len();
        let words_per_col = n.div_ceil(64);
        let mut bits = vec![0u64; snps * words_per_col];
        for j in 0..snps {
            let col = &mut bits[j * words_per_col..(j + 1) * words_per_col];
            let mut offset = 0usize;
            for (p, &size) in sizes.iter().enumerate() {
                let words = part_words(p, j);
                assert_eq!(words.len(), size.div_ceil(64), "part column width");
                let (base, shift) = (offset / 64, offset % 64);
                for (k, &word) in words.iter().enumerate() {
                    // Bits at or past `size` would land in the next part's
                    // rows. Every constructor zero-fills them; the words may
                    // descend from a peer's report, so mask, don't trust.
                    let w = if k + 1 == words.len() && size % 64 != 0 {
                        word & ((1 << (size % 64)) - 1)
                    } else {
                        word
                    };
                    col[base + k] |= w << shift;
                    let spill = if shift == 0 { 0 } else { w >> (64 - shift) };
                    if spill != 0 {
                        col[base + k + 1] |= spill;
                    }
                }
                offset += size;
            }
        }
        Self {
            individuals: n,
            snps,
            words_per_col,
            bits: bits.into(),
            major,
            minor,
        }
    }

    /// Decodes a member's compact LR report: `bits` are its row-major
    /// minor-allele indicator words, each row starting on a word boundary
    /// (stride `⌈snps/64⌉`), 64×64 block-transposed into columns; the
    /// levels come from the frequencies the leader broadcast. The report is
    /// peer input: its dimensions are checked, and bits past a row's
    /// declared width never reach a column.
    ///
    /// # Errors
    ///
    /// Returns a static description if the buffer or the frequency vectors
    /// do not match the declared dimensions.
    pub fn from_row_bits(
        individuals: usize,
        snps: usize,
        bits: &[u64],
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Result<Self, &'static str> {
        let words_per_row = snps.div_ceil(64);
        if individuals.checked_mul(words_per_row) != Some(bits.len()) {
            return Err("bit buffer does not match dimensions");
        }
        if case_freqs.len() != snps || ref_freqs.len() != snps {
            return Err("frequency vectors do not match dimensions");
        }
        let (major, minor) = lr_levels(case_freqs, ref_freqs);
        let words_per_col = individuals.div_ceil(64);
        let mut columns = vec![0u64; snps * words_per_col];
        let mut block = [0u64; 64];
        for q in 0..words_per_col {
            let rows = (individuals - q * 64).min(64);
            for w in 0..words_per_row {
                for (r, slot) in block.iter_mut().enumerate() {
                    *slot = if r < rows {
                        bits[(q * 64 + r) * words_per_row + w]
                    } else {
                        0
                    };
                }
                transpose64(&mut block);
                // Columns past `snps` hold the rows' stray high bits.
                let width = (snps - w * 64).min(64);
                for (j, &col) in block.iter().enumerate().take(width) {
                    columns[(w * 64 + j) * words_per_col + q] = col;
                }
            }
        }
        Ok(Self {
            individuals,
            snps,
            words_per_col,
            bits: columns.into(),
            major,
            minor,
        })
    }

    /// One column's contiguous bit words.
    #[inline]
    fn col_words(&self, col: usize) -> &[u64] {
        &self.bits[col * self.words_per_col..(col + 1) * self.words_per_col]
    }

    /// One column as the search's sweeps read it.
    #[inline]
    fn column(&self, col: usize) -> Column<'_> {
        Column {
            words: self.col_words(col),
            major: self.major[col],
            minor: self.minor[col],
        }
    }

    /// Approximate heap size in bytes (enclave memory accounting).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * 8 + (self.major.len() + self.minor.len()) * 8
    }
}

impl LrValues for LrColumns {
    fn individuals(&self) -> usize {
        self.individuals
    }
    fn snps(&self) -> usize {
        self.snps
    }
    fn get(&self, individual: usize, snp: usize) -> f64 {
        assert!(
            individual < self.individuals && snp < self.snps,
            "index out of bounds"
        );
        let w = self.bits[snp * self.words_per_col + individual / 64];
        if w >> (individual % 64) & 1 == 1 {
            self.minor[snp]
        } else {
            self.major[snp]
        }
    }
    fn to_columns(&self) -> Option<LrColumns> {
        Some(self.clone())
    }
}

/// Scans an arbitrary two-valued table into [`LrColumns`]; `None` if some
/// column holds a third bitwise-distinct value. Values are compared by bit
/// pattern (`to_bits`), not `==`: `+0.0` and `-0.0` compare equal but are
/// not interchangeable under summation or `total_cmp`, and NaNs never
/// compare equal to themselves.
fn columns_from_fn(
    individuals: usize,
    snps: usize,
    get_bits: impl Fn(usize, usize) -> u64,
) -> Option<LrColumns> {
    let words_per_col = individuals.div_ceil(64);
    let mut bits = vec![0u64; snps * words_per_col];
    let mut major = vec![0u64; snps];
    let mut minor = vec![0u64; snps];
    // 0 = no value seen, 1 = one distinct value, 2 = two distinct values.
    let mut seen = vec![0u8; snps];
    for i in 0..individuals {
        for j in 0..snps {
            let b = get_bits(i, j);
            let is_minor = match seen[j] {
                0 => {
                    major[j] = b;
                    minor[j] = b;
                    seen[j] = 1;
                    false
                }
                1 if b == major[j] => false,
                1 => {
                    minor[j] = b;
                    seen[j] = 2;
                    true
                }
                _ if b == major[j] => false,
                _ if b == minor[j] => true,
                _ => return None,
            };
            if is_minor {
                bits[j * words_per_col + i / 64] |= 1 << (i % 64);
            }
        }
    }
    Some(LrColumns {
        individuals,
        snps,
        words_per_col,
        bits: bits.into(),
        major: major.into_iter().map(f64::from_bits).collect(),
        minor: minor.into_iter().map(f64::from_bits).collect(),
    })
}

/// Parameters of the LR-test subset search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrTestParams {
    /// Tolerated false-positive rate β of the simulated attack (paper uses
    /// 0.1): the detection threshold is the (1−β) quantile of the null
    /// distribution.
    pub false_positive_rate: f64,
    /// Maximum tolerated identification power (paper uses 0.9): a SNP set
    /// is safe while the attack detects fewer than this fraction of true
    /// case participants.
    pub power_threshold: f64,
}

impl LrTestParams {
    /// SecureGenome's suggested settings: β = 0.1, power < 0.9.
    #[must_use]
    pub fn secure_genome_defaults() -> Self {
        Self {
            false_positive_rate: 0.1,
            power_threshold: 0.9,
        }
    }
}

/// Result of the subset search.
#[derive(Debug, Clone, PartialEq)]
pub struct LrSelection {
    /// Column indices (into the candidate matrix) retained as safe, in the
    /// order they were admitted.
    pub kept_columns: Vec<usize>,
    /// The attack's empirical power over the final kept set.
    pub final_power: f64,
    /// The detection threshold (null-quantile) over the final kept set.
    pub final_threshold: f64,
}

/// Runs the SecureGenome empirical subset search (`LRtest` in Algorithm 1).
///
/// `case` holds LR contributions of the true case participants, `null` the
/// contributions of reference individuals (the null model). The `forced`
/// columns are unconditionally part of the release before any candidate
/// is considered — a served job charges every earlier release this way,
/// since released statistics cannot be retracted (a one-off study passes
/// `&[]`). They
/// seed the cumulative LR sums; `order` then visits candidate columns
/// most-significant-first (the χ² ranking), and each is kept iff the
/// attack's power over `forced ∪ kept` stays *below*
/// `params.power_threshold`.
///
/// `kept_columns` contains only the newly admitted candidates (not the
/// forced set); `final_power`/`final_threshold` describe the full
/// cumulative release.
///
/// Routes through the columnar word kernels whenever both inputs expose a
/// two-valued column view ([`LrValues::to_columns`]); the result is
/// byte-identical to [`select_safe_subset_naive`] either way. The search
/// is serial: candidates are admitted one at a time, each against the sums
/// the previous accepts left, after the forced columns were accumulated in
/// their given order.
///
/// # Panics
///
/// Panics if the matrices disagree on columns, `forced` or `order` index
/// out of bounds, or `null` has no individuals (no null model to test
/// against).
#[must_use]
pub fn select_safe_subset<M: LrValues + ?Sized, N: LrValues + ?Sized>(
    case: &M,
    null: &N,
    forced: &[usize],
    order: &[usize],
    params: &LrTestParams,
) -> LrSelection {
    check_search_inputs(case, null, params);
    match (case.to_columns(), null.to_columns()) {
        (Some(c), Some(n)) => {
            for &col in order {
                debug_assert!(!forced.contains(&col), "candidate overlaps forced set");
            }
            columns_search(&c, &n, forced, order, params)
        }
        _ => select_safe_subset_naive(case, null, forced, order, params),
    }
}

/// The retained scalar reference implementation of the subset search
/// (per-cell `get` loops, one quickselect scratch reuse per search). The
/// columnar kernels are validated against it cell-for-cell by property
/// tests and the bench harness; production callers use
/// [`select_safe_subset`].
///
/// # Panics
///
/// Same conditions as [`select_safe_subset`].
#[must_use]
pub fn select_safe_subset_naive<M: LrValues + ?Sized, N: LrValues + ?Sized>(
    case: &M,
    null: &N,
    forced: &[usize],
    order: &[usize],
    params: &LrTestParams,
) -> LrSelection {
    check_search_inputs(case, null, params);

    let mut scratch = Vec::new();
    let mut case_sums = vec![0.0f64; case.individuals()];
    let mut null_sums = vec![0.0f64; null.individuals()];
    for &col in forced {
        assert!(col < case.snps(), "forced column out of range");
        for (i, sum) in case_sums.iter_mut().enumerate() {
            *sum += case.get(i, col);
        }
        for (i, sum) in null_sums.iter_mut().enumerate() {
            *sum += null.get(i, col);
        }
    }
    let power_of = |case_sums: &[f64], threshold: f64| {
        let detected = case_sums.iter().filter(|&&s| s > threshold).count();
        detected as f64 / case.individuals().max(1) as f64
    };
    let mut final_threshold = if forced.is_empty() {
        f64::INFINITY
    } else {
        null_quantile_with(&mut scratch, &null_sums, 1.0 - params.false_positive_rate)
    };
    let mut final_power = if forced.is_empty() {
        0.0
    } else {
        power_of(&case_sums, final_threshold)
    };
    let mut kept = Vec::new();

    for &col in order {
        assert!(col < case.snps(), "ranking indexes a non-existent column");
        debug_assert!(!forced.contains(&col), "candidate overlaps forced set");
        // Tentatively admit the column.
        for (i, sum) in case_sums.iter_mut().enumerate() {
            *sum += case.get(i, col);
        }
        for (i, sum) in null_sums.iter_mut().enumerate() {
            *sum += null.get(i, col);
        }
        let threshold =
            null_quantile_with(&mut scratch, &null_sums, 1.0 - params.false_positive_rate);
        let power = power_of(&case_sums, threshold);
        if power < params.power_threshold {
            kept.push(col);
            final_power = power;
            final_threshold = threshold;
        } else {
            // Back the column out and move on.
            for (i, sum) in case_sums.iter_mut().enumerate() {
                *sum -= case.get(i, col);
            }
            for (i, sum) in null_sums.iter_mut().enumerate() {
                *sum -= null.get(i, col);
            }
        }
    }

    LrSelection {
        kept_columns: kept,
        final_power,
        final_threshold,
    }
}

/// The common input validation of every search entry point.
fn check_search_inputs<M: LrValues + ?Sized, N: LrValues + ?Sized>(
    case: &M,
    null: &N,
    params: &LrTestParams,
) {
    assert_eq!(
        case.snps(),
        null.snps(),
        "case and null must cover the same SNPs"
    );
    assert!(
        null.individuals() > 0,
        "need reference individuals for the null model"
    );
    assert!(
        (0.0..1.0).contains(&params.false_positive_rate),
        "false-positive rate must be in [0,1)"
    );
}

/// The (1−β) quantile of the null LR sums: the type-7 estimator, computed
/// with two quickselects instead of a full sort. `scratch` is reused
/// across calls so the per-candidate invocation allocates nothing.
fn null_quantile_with(scratch: &mut Vec<f64>, null_sums: &[f64], q: f64) -> f64 {
    let n = null_sums.len();
    if n == 1 {
        return null_sums[0];
    }
    let h = q * (n as f64 - 1.0);
    let lo = (h.floor() as usize).min(n - 1);
    let frac = h - lo as f64;
    scratch.clear();
    scratch.extend_from_slice(null_sums);
    // total_cmp: LR sums can degenerate to NaN (log of a zero-probability
    // genotype); quickselect must stay panic-free and deterministic.
    let cmp = |a: &f64, b: &f64| a.total_cmp(b);
    let (_, &mut low_stat, rest) = scratch.select_nth_unstable_by(lo, cmp);
    if frac == 0.0 || rest.is_empty() {
        return low_stat;
    }
    let high_stat = rest
        .iter()
        .copied()
        .min_by(|a, b| cmp(a, b))
        .expect("rest is non-empty");
    low_stat + frac * (high_stat - low_stat)
}

#[cfg(test)]
fn null_quantile(null_sums: &[f64], q: f64) -> f64 {
    null_quantile_with(&mut Vec::new(), null_sums, q)
}

// ---------------------------------------------------------------------------
// Columnar search kernels
// ---------------------------------------------------------------------------

/// Candidates examined by the columnar search.
fn lr_candidates_total() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_lr_candidates_total",
            "Candidate SNP columns examined by the LR subset search",
            &[],
        )
    })
}

/// Columns admitted into the safe subset.
fn lr_columns_kept_total() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_lr_columns_kept_total",
            "Candidate SNP columns admitted as safe by the LR subset search",
            &[],
        )
    })
}

/// Latency of one columnar search, forced prefix and every candidate. One
/// observation a search: timing each candidate would cost a tenth of its
/// work in clock reads.
fn lr_search_seconds() -> &'static obs::Histogram {
    static H: OnceLock<obs::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        obs::histogram(
            "gendpr_lr_search_seconds",
            "Time per LR subset search: the forced prefix, then every candidate's null quantile, power and decision",
            &[],
            obs::DURATION_BUCKETS,
        )
    })
}

/// Candidates whose null quantile fell outside the search's band and took
/// the full quickselect.
fn lr_quantile_fallbacks_total() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        obs::counter(
            "gendpr_lr_quantile_fallbacks_total",
            "LR search candidates whose null quantile missed the band and ran a full quickselect",
            &[],
        )
    })
}

/// Eagerly registers the LR kernel metrics so they render (at zero) before
/// the first search runs.
pub fn register_lr_metrics() {
    let _ = lr_candidates_total();
    let _ = lr_columns_kept_total();
    let _ = lr_search_seconds();
    let _ = lr_quantile_fallbacks_total();
}

/// Maps an `f64` to an `i64` whose natural order equals `f64::total_cmp`:
/// an involution flipping the low 63 bits of negative values. Keys let the
/// band select and the quickselect run on plain integer comparisons.
#[inline]
fn total_order_key(v: f64) -> i64 {
    let b = v.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Inverse of [`total_order_key`] (the transform is its own inverse, since
/// it never flips the sign bit).
#[inline]
fn key_value(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

/// One column as the sweeps read it: its bit words and its two levels.
#[derive(Debug, Clone, Copy)]
struct Column<'a> {
    words: &'a [u64],
    major: f64,
    minor: f64,
}

impl Column<'_> {
    /// Individual `i`'s level, from a two-entry table indexed by the bit:
    /// an indexed load, not a jump (module docs).
    #[inline]
    fn level(&self, i: usize) -> f64 {
        [self.major, self.minor][(self.words[i / 64] >> (i % 64) & 1) as usize]
    }
}

/// `level + s` as the reference's `*sum += level` compiles: with both
/// operands NaN, x86 keeps the first one's, the level. Spelled out because
/// an add of two registers may be emitted either way round.
#[inline]
fn add_level(level: f64, s: f64) -> f64 {
    if level.is_nan() {
        level + 0.0
    } else {
        s + level
    }
}

/// The sweeps' width: the widest vector kernels the CPU runs, else the
/// scalar loops. A vector variant is made only by [`Width::best`] and the
/// tests' `Width::detected`, each after its probe, which the `unsafe`
/// calls below rely on. A column with a NaN level runs the scalar loops:
/// only [`add_level`] pins which of two NaNs an add keeps. Without NaN
/// levels no add meets two NaNs. LR levels are never NaN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Width {
    /// The widest width this CPU runs.
    fn best() -> Width {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            return Width::Avx512;
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Width::Avx2;
        }
        Width::Scalar
    }

    /// `self`, or the scalar loops if a level of either column is NaN.
    fn for_levels(self, back_out: Option<Column<'_>>, next: Column<'_>) -> Width {
        let nan = |c: Column<'_>| c.major.is_nan() || c.minor.is_nan();
        if nan(next) || back_out.is_some_and(nan) {
            Width::Scalar
        } else {
            self
        }
    }

    /// The case side of a candidate: backs `back_out` (the candidate
    /// before, rejected) out of the stored case sums, adds `next` and
    /// counts the new sums `> t`.
    fn case(
        self,
        sums: &mut [f64],
        back_out: Option<Column<'_>>,
        next: Column<'_>,
        t: f64,
    ) -> usize {
        match self.for_levels(back_out, next) {
            Width::Scalar => {
                let mut detected = 0;
                walk_scalar(sums, back_out, next, |_, s| detected += usize::from(s > t));
                detected
            }
            // SAFETY: a vector width exists only where its probe found it.
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => unsafe { avx2::case_sweep(sums, back_out, next, t) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => unsafe { avx512::case_sweep(sums, back_out, next, t) },
        }
    }

    /// The null side of a candidate, as [`case`](Self::case) up to the
    /// new sums; then it returns the count of those `< lo` and marks in
    /// `marks` (bit `i % 8` of byte `i / 8`, whole 64-sum chunks) each the
    /// f64 compares leave inside `[lo, hi]`, NaNs included.
    fn null(
        self,
        sums: &mut [f64],
        (back_out, next): (Option<Column<'_>>, Column<'_>),
        edges: (f64, f64),
        marks: &mut [u8],
    ) -> usize {
        match self.for_levels(back_out, next) {
            Width::Scalar => {
                let (mut below, (lo, hi)) = (0, edges);
                marks.fill(0);
                walk_scalar(sums, back_out, next, |i, s| {
                    below += usize::from(s < lo);
                    marks[i / 8] |= u8::from(!(s < lo || s > hi)) << (i % 8);
                });
                below
            }
            // SAFETY: as in `case`.
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => unsafe { avx2::null_sweep(sums, back_out, next, edges, marks) },
            // SAFETY: as in `case`.
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => unsafe { avx512::null_sweep(sums, back_out, next, edges, marks) },
        }
    }
}

/// A candidate's sweep in scalar form, the vector ones' fallback and
/// oracle: per individual, `back_out`'s level subtracted, `next`'s added,
/// the sum stored and handed to `step(i, sum)`.
#[inline]
fn walk_scalar(
    sums: &mut [f64],
    back_out: Option<Column<'_>>,
    next: Column<'_>,
    mut step: impl FnMut(usize, f64),
) {
    for (i, s) in sums.iter_mut().enumerate() {
        if let Some(c) = back_out {
            *s -= c.level(i);
        }
        *s = add_level(next.level(i), *s);
        step(i, *s);
    }
}

/// Type-7 quantile over the current null sums, evaluated on their reusable
/// total-order keys. The k-th order statistic is representation-agnostic,
/// so the result is bit-identical to [`null_quantile_with`] on the same
/// sums (including the interpolation arithmetic, evaluated on the decoded
/// `f64` endpoints).
fn quantile_from_keys(keys: &mut [i64], q: f64) -> f64 {
    let n = keys.len();
    debug_assert!(n > 0, "null model cannot be empty");
    let h = q * (n as f64 - 1.0);
    let lo = (h.floor() as usize).min(n - 1);
    let frac = h - lo as f64;
    let (_, &mut low_key, rest) = keys.select_nth_unstable(lo);
    let low_stat = key_value(low_key);
    if frac == 0.0 || rest.is_empty() {
        return low_stat;
    }
    let high_stat = key_value(*rest.iter().min().expect("rest is non-empty"));
    low_stat + frac * (high_stat - low_stat)
}

/// Relative padding of a band edge: 2^20 ulps of the edge's scale, far
/// more than the round-off that rejects leave in the committed sums.
const BAND_PAD: f64 = f64::EPSILON * 1_048_576.0;

/// The rank arithmetic of [`quantile_from_keys`], fixed for a search
/// because the null size and `q` are: the threshold is the `k`-th order
/// statistic, interpolated towards the `(k + 1)`-th when `interpolate`.
#[derive(Debug, Clone, Copy)]
struct QuantileRank {
    k: usize,
    frac: f64,
    interpolate: bool,
}

impl QuantileRank {
    fn new(n: usize, q: f64) -> Self {
        let h = q * (n as f64 - 1.0);
        let k = (h.floor() as usize).min(n - 1);
        let frac = h - k as f64;
        Self {
            k,
            frac,
            interpolate: frac != 0.0 && k + 1 < n,
        }
    }

    /// The highest order statistic the threshold reads.
    fn top(&self) -> usize {
        self.k + usize::from(self.interpolate)
    }

    /// The threshold from the `k`-th and [`top`](Self::top)-th order
    /// statistics: [`quantile_from_keys`]' expression.
    fn threshold(&self, (low, high): (f64, f64)) -> f64 {
        if self.interpolate {
            low + self.frac * (high - low)
        } else {
            low
        }
    }
}

/// The per-candidate null quantile of [`columns_search`], usually read
/// from a small band of keys instead of a quickselect over all of them.
///
/// Adding a column with levels `(major, minor)` moves every sum `s` to
/// `fl(s + l)`, which round-to-nearest keeps between `fl(s + min)` and
/// `fl(s + max)`; so the new `k`-th and top-th order statistics lie in
/// `[kth + min, top + max]` of the committed ones. A candidate's null
/// sweep counts the sums below that band and marks those inside it; the
/// marked keys are gathered and the select runs among them. The band's
/// bound only decides how often that works: the result is taken from the
/// band only when the exact counts place both order statistics inside it,
/// and otherwise from [`quantile_from_keys`] over every key.
struct NullBand {
    q: f64,
    rank: QuantileRank,
    /// The `k`-th and top-th order statistics of the committed sums: exact
    /// after an accept, and within a reject's round-off after one.
    committed: (f64, f64),
    /// The same pair for the candidate evaluated last.
    evaluated: (f64, f64),
    band: Vec<i64>,
    keys: Vec<i64>,
    /// The null sweep's in-band marks, a byte an octet, padded to whole
    /// 64-sum chunks.
    marks: Vec<u8>,
}

impl NullBand {
    fn new(null_sums: &[f64], q: f64) -> Self {
        let n = null_sums.len();
        let mut band = Self {
            q,
            rank: QuantileRank::new(n, q),
            committed: (0.0, 0.0),
            evaluated: (0.0, 0.0),
            band: Vec::new(),
            keys: vec![0; n],
            marks: vec![0; n.div_ceil(64) * 8],
        };
        band.select_all(null_sums);
        band.commit();
        band
    }

    /// Runs the null side of a candidate over `sums`, the stored null sums
    /// ([`Width::null`]), and returns the quantile of the new sums and
    /// whether the band held it.
    fn quantile(
        &mut self,
        width: Width,
        sums: &mut [f64],
        columns: (Option<Column<'_>>, Column<'_>),
    ) -> (f64, bool) {
        let edges = BandEdges::new(self.committed, columns.1.major, columns.1.minor);
        let below = width.null(sums, columns, (edges.lo, edges.hi), &mut self.marks);
        let below = self.gather(sums, edges, below);
        self.select(sums, below)
    }

    /// Files each marked sum by its key ([`BandEdges::classify`]) and
    /// returns `below` plus those it counts below the band.
    fn gather(&mut self, sums: &[f64], edges: BandEdges, mut below: usize) -> usize {
        self.band.clear();
        for (chunk, marks) in self.marks.as_chunks::<8>().0.iter().enumerate() {
            let mut marks = u64::from_le_bytes(*marks);
            while marks != 0 {
                let v = sums[64 * chunk + marks.trailing_zeros() as usize];
                edges.classify(v, &mut below, &mut self.band);
                marks &= marks - 1;
            }
        }
        below
    }

    /// The null quantile of the committed sums: [`quantile_from_keys`]'
    /// result over them, from the order statistics it left.
    fn committed_threshold(&self) -> f64 {
        self.rank.threshold(self.committed)
    }

    /// The candidate evaluated last was accepted: its sums are committed.
    fn commit(&mut self) {
        self.committed = self.evaluated;
    }

    /// The candidate's quantile from the gathered band and the count of
    /// sums below it — or, when the count does not place both order
    /// statistics in the band, from [`select_all`](Self::select_all).
    fn select(&mut self, sums: &[f64], below: usize) -> (f64, bool) {
        let k = self.rank.k;
        if k < below || self.rank.top() >= below + self.band.len() {
            return (self.select_all(sums), false);
        }
        let (_, &mut low, rest) = self.band.select_nth_unstable(k - below);
        let high = if self.rank.interpolate {
            *rest.iter().min().expect("the count put k + 1 in the band")
        } else {
            low
        };
        self.evaluated = (key_value(low), key_value(high));
        (self.rank.threshold(self.evaluated), true)
    }

    /// The fallback: every key refreshed from `sums`,
    /// [`quantile_from_keys`] as is, and the order statistics read back
    /// from the selected keys.
    fn select_all(&mut self, sums: &[f64]) -> f64 {
        for (key, &s) in self.keys.iter_mut().zip(sums) {
            *key = total_order_key(s);
        }
        let threshold = quantile_from_keys(&mut self.keys, self.q);
        // The quickselect left the k-th key at index k, every larger one
        // after it.
        let k = self.rank.k;
        let low = self.keys[k];
        let high = if self.rank.interpolate {
            *self.keys[k + 1..].iter().min().expect("k + 1 < n")
        } else {
            low
        };
        self.evaluated = (key_value(low), key_value(high));
        threshold
    }
}

/// The band `[kth + min, top + max]`, padded by [`BAND_PAD`] of its scale.
/// Infinite or NaN levels can make an edge NaN or infinite; the band then
/// gathers more sums, which stays exact and is only slower.
fn band_edges((kth, top): (f64, f64), major: f64, minor: f64) -> (f64, f64) {
    let (min, max) = if major <= minor {
        (major, minor)
    } else {
        (minor, major)
    };
    let pad = BAND_PAD * (kth.abs() + top.abs() + min.abs() + max.abs());
    (kth + min - pad, top + max + pad)
}

/// A candidate's band `[lo, hi]` and its edges' total-order keys.
#[derive(Debug, Clone, Copy)]
struct BandEdges {
    lo: f64,
    hi: f64,
    lo_key: i64,
    hi_key: i64,
}

impl BandEdges {
    fn new(committed: (f64, f64), major: f64, minor: f64) -> Self {
        let (lo, hi) = band_edges(committed, major, minor);
        Self {
            lo,
            hi,
            lo_key: total_order_key(lo),
            hi_key: total_order_key(hi),
        }
    }

    /// Files a sum the f64 compares left inside the band by its key:
    /// `v < lo` and `v > hi` as f64 compares imply the same in total order,
    /// so the compares undercount `below` and over-gather; the keys then
    /// sort NaNs and signed zeros at the edges exactly.
    #[inline]
    fn classify(&self, v: f64, below: &mut usize, band: &mut Vec<i64>) {
        let key = total_order_key(v);
        if key < self.lo_key {
            *below += 1;
        } else if key <= self.hi_key {
            band.push(key);
        }
    }
}

/// The columnar search kernel: the `forced` columns accumulated in order,
/// then one candidate at a time in `order`, each decision depending on the
/// sums the accepts before it left behind, one sweep a side a candidate
/// (module docs).
fn columns_search(
    case: &LrColumns,
    null: &LrColumns,
    forced: &[usize],
    order: &[usize],
    params: &LrTestParams,
) -> LrSelection {
    let started = Instant::now();
    let width = Width::best();
    let n_case = case.individuals;
    let mut case_sums = vec![0.0f64; n_case];
    let mut null_sums = vec![0.0f64; null.individuals];
    // The reference's operation sequence: per forced column, the case
    // adds, then the null adds (a sweep whose count goes unused).
    for &col in forced {
        assert!(col < case.snps, "forced column out of range");
        width.case(&mut case_sums, None, case.column(col), f64::NAN);
        width.case(&mut null_sums, None, null.column(col), f64::NAN);
    }
    let mut band = NullBand::new(&null_sums, 1.0 - params.false_positive_rate);
    let (mut final_threshold, mut final_power) = if forced.is_empty() {
        (f64::INFINITY, 0.0)
    } else {
        let threshold = band.committed_threshold();
        let detected = case_sums.iter().filter(|&&s| s > threshold).count();
        (threshold, detected as f64 / n_case.max(1) as f64)
    };
    let mut fallbacks = 0u64;
    let mut kept = Vec::new();
    // The candidate before, if it was rejected: the stored sums still hold
    // its column, which the next sweeps back out before adding their own.
    let mut rejected: Option<usize> = None;

    for &col in order {
        assert!(col < case.snps, "ranking indexes a non-existent column");
        let back_out = rejected.map(|p| null.column(p));
        let (threshold, hit) = band.quantile(width, &mut null_sums, (back_out, null.column(col)));
        fallbacks += u64::from(!hit);
        let back_out = rejected.map(|p| case.column(p));
        let detected = width.case(&mut case_sums, back_out, case.column(col), threshold);
        let power = detected as f64 / n_case.max(1) as f64;
        let accepted = power < params.power_threshold;
        if accepted {
            kept.push(col);
            final_power = power;
            final_threshold = threshold;
            band.commit();
        }
        rejected = (!accepted).then_some(col);
    }

    lr_candidates_total().add(order.len() as u64);
    lr_columns_kept_total().add(kept.len() as u64);
    lr_quantile_fallbacks_total().add(fallbacks);
    lr_search_seconds().observe_duration(started.elapsed());
    LrSelection {
        kept_columns: kept,
        final_power,
        final_threshold,
    }
}

/// Normal-approximation of the LR-test (used by the ablation benches and to
/// cross-check the empirical search).
///
/// Accumulates per-SNP terms of the null/alternative mean and variance of
/// the LR statistic; `power` then evaluates
/// `P(N(μ₁,σ₁²) > μ₀ + z_{1−β}·σ₀)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TheoreticalLr {
    /// Mean under the null (individual drawn from the reference).
    pub mu0: f64,
    /// Variance under the null.
    pub var0: f64,
    /// Mean under the alternative (individual in the case group).
    pub mu1: f64,
    /// Variance under the alternative.
    pub var1: f64,
}

impl TheoreticalLr {
    /// Adds one SNP's contribution given its global case/reference
    /// frequencies.
    pub fn add_snp(&mut self, case_freq: f64, ref_freq: f64) {
        let p_hat = case_freq.clamp(FREQ_EPS, 1.0 - FREQ_EPS);
        let p = ref_freq.clamp(FREQ_EPS, 1.0 - FREQ_EPS);
        let l1 = (p_hat / p).ln();
        let l0 = ((1.0 - p_hat) / (1.0 - p)).ln();
        let lambda = l1 - l0;
        self.mu0 += p * l1 + (1.0 - p) * l0;
        self.var0 += p * (1.0 - p) * lambda * lambda;
        self.mu1 += p_hat * l1 + (1.0 - p_hat) * l0;
        self.var1 += p_hat * (1.0 - p_hat) * lambda * lambda;
    }

    /// Detection power at false-positive rate β under the normal
    /// approximation.
    #[must_use]
    pub fn power(&self, false_positive_rate: f64) -> f64 {
        if self.var0 <= 0.0 || self.var1 <= 0.0 {
            return 0.0;
        }
        let z = crate::special::normal_quantile(1.0 - false_positive_rate);
        let threshold = self.mu0 + z * self.var0.sqrt();
        crate::special::normal_sf((threshold - self.mu1) / self.var1.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_crypto::rng::ChaChaRng;

    /// The one-off study's search: nothing forced.
    fn plain_search<M: LrValues, N: LrValues>(
        case: &M,
        null: &N,
        order: &[usize],
        params: &LrTestParams,
    ) -> LrSelection {
        select_safe_subset(case, null, &[], order, params)
    }

    #[test]
    fn contribution_signs() {
        // Minor allele more frequent in cases: carrying it raises the LR.
        assert!(lr_contribution(1, 0.4, 0.2) > 0.0);
        assert!(lr_contribution(0, 0.4, 0.2) < 0.0);
        // Equal frequencies carry no information.
        assert_eq!(lr_contribution(1, 0.3, 0.3), 0.0);
        assert_eq!(lr_contribution(0, 0.3, 0.3), 0.0);
    }

    #[test]
    fn contribution_is_finite_for_degenerate_freqs() {
        for x in [0u8, 1] {
            assert!(lr_contribution(x, 0.0, 0.5).is_finite());
            assert!(lr_contribution(x, 1.0, 0.5).is_finite());
            assert!(lr_contribution(x, 0.5, 0.0).is_finite());
            assert!(lr_contribution(x, 0.5, 1.0).is_finite());
        }
    }

    fn toy_matrix(rows: &[&[u8]]) -> GenotypeMatrix {
        let snps = rows[0].len();
        let mut m = GenotypeMatrix::zeroed(rows.len(), snps);
        for (i, row) in rows.iter().enumerate() {
            for (l, &x) in row.iter().enumerate() {
                if x == 1 {
                    m.set(i, l, true);
                }
            }
        }
        m
    }

    #[test]
    fn matrix_from_genotypes_matches_manual() {
        let g = toy_matrix(&[&[0, 1], &[1, 1]]);
        let snps = [SnpId(0), SnpId(1)];
        let cf = [0.4, 0.6];
        let rf = [0.2, 0.5];
        let m = LrMatrix::from_genotypes(&g, &snps, &cf, &rf);
        assert_eq!(m.individuals(), 2);
        assert_eq!(m.snps(), 2);
        assert!((m.get(0, 0) - lr_contribution(0, 0.4, 0.2)).abs() < 1e-15);
        assert!((m.get(0, 1) - lr_contribution(1, 0.6, 0.5)).abs() < 1e-15);
        assert!((m.get(1, 0) - lr_contribution(1, 0.4, 0.2)).abs() < 1e-15);
    }

    #[test]
    fn concat_rows_stacks() {
        let g1 = toy_matrix(&[&[0, 1]]);
        let g2 = toy_matrix(&[&[1, 0], &[1, 1]]);
        let snps = [SnpId(0), SnpId(1)];
        let cf = [0.4, 0.6];
        let rf = [0.2, 0.5];
        let m1 = LrMatrix::from_genotypes(&g1, &snps, &cf, &rf);
        let m2 = LrMatrix::from_genotypes(&g2, &snps, &cf, &rf);
        let merged = LrMatrix::concat_rows(&[m1.clone(), m2]);
        assert_eq!(merged.individuals(), 3);
        assert!((merged.get(0, 0) - m1.get(0, 0)).abs() < 1e-15);
        // Row 1 of merged == row 0 of g2.
        assert!((merged.get(1, 0) - lr_contribution(1, 0.4, 0.2)).abs() < 1e-15);
    }

    #[test]
    fn values_roundtrip() {
        let g = toy_matrix(&[&[0, 1], &[1, 0]]);
        let m = LrMatrix::from_genotypes(&g, &[SnpId(0), SnpId(1)], &[0.3, 0.3], &[0.2, 0.4]);
        let rebuilt = LrMatrix::from_values(2, 2, m.values().to_vec());
        assert_eq!(m, rebuilt);
    }

    /// Builds case/null LR matrices from synthetic frequencies: `divergent`
    /// columns have a real case/ref frequency gap, the rest none.
    fn synthetic_lr(
        n_case: usize,
        n_ref: usize,
        divergent: usize,
        neutral: usize,
        gap: f64,
        seed: u64,
    ) -> (LrMatrix, LrMatrix, Vec<usize>) {
        let mut rng = ChaChaRng::from_seed_u64(seed);
        let total = divergent + neutral;
        let mut case_freqs = Vec::new();
        let mut ref_freqs = Vec::new();
        for j in 0..total {
            let p = 0.2 + 0.3 * rng.next_f64();
            ref_freqs.push(p);
            case_freqs.push(if j < divergent {
                (p + gap).min(0.95)
            } else {
                p
            });
        }
        let mut case_g = GenotypeMatrix::zeroed(n_case, total);
        let mut ref_g = GenotypeMatrix::zeroed(n_ref, total);
        for i in 0..n_case {
            #[allow(clippy::needless_range_loop)]
            for j in 0..total {
                if rng.next_bool(case_freqs[j]) {
                    case_g.set(i, j, true);
                }
            }
        }
        for i in 0..n_ref {
            #[allow(clippy::needless_range_loop)]
            for j in 0..total {
                if rng.next_bool(ref_freqs[j]) {
                    ref_g.set(i, j, true);
                }
            }
        }
        let ids: Vec<SnpId> = (0..total as u32).map(SnpId).collect();
        // The "attack model" uses the empirical frequencies, as the protocol
        // would compute them.
        let emp_case: Vec<f64> = case_g
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n_case as f64)
            .collect();
        let emp_ref: Vec<f64> = ref_g
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n_ref as f64)
            .collect();
        let case_m = LrMatrix::from_genotypes(&case_g, &ids, &emp_case, &emp_ref);
        let null_m = LrMatrix::from_genotypes(&ref_g, &ids, &emp_case, &emp_ref);
        let order: Vec<usize> = (0..total).collect();
        (case_m, null_m, order)
    }

    #[test]
    fn selection_keeps_everything_when_no_divergence() {
        let (case, null, order) = synthetic_lr(300, 300, 0, 30, 0.0, 1);
        let sel = plain_search(
            &case,
            &null,
            &order,
            &LrTestParams::secure_genome_defaults(),
        );
        assert_eq!(sel.kept_columns.len(), 30, "neutral SNPs are all safe");
        assert!(sel.final_power < 0.9);
    }

    #[test]
    fn selection_drops_columns_when_divergence_is_extreme() {
        // 60 strongly divergent SNPs: the attack gains power as columns
        // accumulate, so the search must reject some.
        let (case, null, order) = synthetic_lr(400, 400, 60, 0, 0.35, 2);
        let sel = plain_search(
            &case,
            &null,
            &order,
            &LrTestParams::secure_genome_defaults(),
        );
        assert!(
            sel.kept_columns.len() < 60,
            "kept {} of 60 strongly divergent SNPs",
            sel.kept_columns.len()
        );
        assert!(sel.final_power < 0.9, "power bound respected");
    }

    #[test]
    fn final_power_bound_holds() {
        for seed in 0..5 {
            let (case, null, order) = synthetic_lr(200, 200, 20, 20, 0.25, seed);
            let params = LrTestParams {
                false_positive_rate: 0.1,
                power_threshold: 0.6,
            };
            let sel = plain_search(&case, &null, &order, &params);
            assert!(
                sel.final_power < 0.6,
                "seed {seed}: power {}",
                sel.final_power
            );
        }
    }

    #[test]
    fn stricter_power_threshold_keeps_fewer() {
        let (case, null, order) = synthetic_lr(300, 300, 40, 10, 0.3, 3);
        let loose = plain_search(
            &case,
            &null,
            &order,
            &LrTestParams {
                false_positive_rate: 0.1,
                power_threshold: 0.9,
            },
        );
        let strict = plain_search(
            &case,
            &null,
            &order,
            &LrTestParams {
                false_positive_rate: 0.1,
                power_threshold: 0.3,
            },
        );
        assert!(strict.kept_columns.len() <= loose.kept_columns.len());
    }

    #[test]
    fn theoretical_power_tracks_empirical() {
        // One configuration, both estimators should agree on the big picture.
        let n = 2_000;
        let (case, null, order) = synthetic_lr(n, n, 15, 0, 0.12, 4);
        let sel = plain_search(
            &case,
            &null,
            &order,
            &LrTestParams {
                false_positive_rate: 0.1,
                power_threshold: 2.0, // never reject: measure full-set power
            },
        );
        // Theoretical power over all 15 columns with the same frequencies is
        // hard to reconstruct here without re-deriving frequencies, so check
        // qualitative agreement: with a real gap, power is well above beta.
        assert!(sel.final_power > 0.2, "power {}", sel.final_power);

        let mut th = TheoreticalLr::default();
        for _ in 0..15 {
            th.add_snp(0.42, 0.30);
        }
        let p = th.power(0.1);
        assert!(p > 0.2 && p <= 1.0, "theoretical power {p}");
        // More divergent SNPs -> more power.
        let mut th2 = th;
        for _ in 0..15 {
            th2.add_snp(0.42, 0.30);
        }
        assert!(th2.power(0.1) > p);
    }

    #[test]
    fn theoretical_power_zero_without_divergence() {
        let mut th = TheoreticalLr::default();
        th.add_snp(0.3, 0.3);
        assert_eq!(th.power(0.1), 0.0, "no variance, no power");
    }

    #[test]
    fn bit_matrix_matches_dense_everywhere() {
        let g = toy_matrix(&[&[0, 1], &[1, 1], &[1, 0]]);
        let snps = [SnpId(0), SnpId(1)];
        let cf = [0.4, 0.6];
        let rf = [0.2, 0.5];
        let dense = LrMatrix::from_genotypes(&g, &snps, &cf, &rf);
        let packed = LrColumns::from_columnar(&ColumnarGenotypes::from_matrix(&g), &snps, &cf, &rf);
        assert_eq!(packed.individuals(), dense.individuals());
        assert_eq!(packed.snps(), dense.snps());
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(
                    LrValues::get(&packed, i, j).to_bits(),
                    dense.get(i, j).to_bits()
                );
            }
        }
        // The 64x packing advantage shows at realistic sizes (the tiny
        // matrix above is dominated by the level vectors).
        let big = GenotypeMatrix::zeroed(1_000, 128);
        let ids: Vec<SnpId> = (0..128u32).map(SnpId).collect();
        let freqs = vec![0.3; 128];
        let big_dense = LrMatrix::from_genotypes(&big, &ids, &freqs, &freqs);
        let big_packed =
            LrColumns::from_columnar(&ColumnarGenotypes::from_matrix(&big), &ids, &freqs, &freqs);
        assert!(big_packed.heap_bytes() * 30 < big_dense.heap_bytes());
    }

    #[test]
    fn packed_selection_equals_dense_selection() {
        let (case, null, order) = synthetic_lr(200, 200, 15, 15, 0.25, 8);
        let params = LrTestParams::secure_genome_defaults();
        let dense_sel = select_safe_subset_naive(&case, &null, &[], &order, &params);
        let (case_cols, null_cols) = (case.to_columns().unwrap(), null.to_columns().unwrap());
        assert_eq!(
            plain_search(&case_cols, &null_cols, &order, &params),
            dense_sel
        );
        // A mixed pairing takes the columnar route too.
        assert_eq!(plain_search(&case_cols, &null, &order, &params), dense_sel);
    }

    #[test]
    fn bit_matrix_concat_matches_dense_concat() {
        let g1 = toy_matrix(&[&[0, 1]]);
        let g2 = toy_matrix(&[&[1, 0], &[1, 1]]);
        let snps = [SnpId(0), SnpId(1)];
        let cf = [0.4, 0.6];
        let rf = [0.2, 0.5];
        let packed = |g: &GenotypeMatrix| {
            LrColumns::from_columnar(&ColumnarGenotypes::from_matrix(g), &snps, &cf, &rf)
        };
        let merged = LrColumns::concat_rows(&[packed(&g1), packed(&g2)]);
        let dense = LrMatrix::concat_rows(&[
            LrMatrix::from_genotypes(&g1, &snps, &cf, &rf),
            LrMatrix::from_genotypes(&g2, &snps, &cf, &rf),
        ]);
        assert_eq!(merged.individuals(), 3);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(merged.get(i, j).to_bits(), dense.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn raw_bits_validation() {
        let decode = |words: usize, freqs: usize| {
            LrColumns::from_row_bits(2, 70, &vec![0; words], &vec![0.5; freqs], &[0.4; 70])
        };
        assert!(decode(4, 70).is_ok());
        assert!(decode(3, 70).is_err());
        assert!(decode(4, 69).is_err());
    }

    /// Ragged shapes (neither dimension a multiple of 64, stray bits set
    /// past each row's width): every decoded cell is the level its bit in
    /// the report selects, and no column word holds a bit past the last
    /// individual.
    #[test]
    fn from_row_bits_matches_per_cell_reads_on_ragged_shapes() {
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state ^ (state >> 29)
        };
        for &(n, l) in &[
            (1usize, 1usize),
            (63, 65),
            (65, 63),
            (130, 129),
            (7, 200),
            (191, 64),
        ] {
            let words_per_row = l.div_ceil(64);
            let bits: Vec<u64> = (0..n * words_per_row).map(|_| next()).collect();
            let cf: Vec<f64> = (0..l)
                .map(|j| 0.05 + 0.9 * (j % 17) as f64 / 17.0)
                .collect();
            let rf: Vec<f64> = (0..l).map(|j| 0.1 + 0.8 * (j % 13) as f64 / 13.0).collect();
            let cols = LrColumns::from_row_bits(n, l, &bits, &cf, &rf).unwrap();
            for i in 0..n {
                for j in 0..l {
                    let bit = bits[i * words_per_row + j / 64] >> (j % 64) & 1;
                    let level = if bit == 1 {
                        cols.minor[j]
                    } else {
                        cols.major[j]
                    };
                    assert_eq!(
                        cols.get(i, j).to_bits(),
                        level.to_bits(),
                        "{n}x{l} ({i},{j})"
                    );
                }
            }
            for j in 0..l {
                let last = cols.col_words(j).last().copied().unwrap_or(0);
                let past = if n % 64 == 0 { 0 } else { last >> (n % 64) };
                assert_eq!(past, 0, "{n}x{l} column {j}");
            }
        }
    }

    #[test]
    fn stray_bits_in_a_report_never_reach_a_neighbouring_part() {
        // A compact report is peer input: only its dimensions are checked.
        // Bits past the declared width of a row must vanish in the
        // transpose, so the stitched columns hold the declared cells only.
        let (n, l) = (70, 5);
        let (cf, rf) = ([0.4; 5], [0.3; 5]);
        let clean = vec![0b10110u64; n];
        let noisy: Vec<u64> = clean.iter().map(|w| w | !0 << l).collect();
        let columns =
            |bits: Vec<u64>| LrColumns::from_row_bits(bits.len(), l, &bits, &cf, &rf).unwrap();
        let own = columns(vec![0b01001u64; 3]);
        let stitched = LrColumns::concat_rows(&[own.clone(), columns(noisy), own.clone()]);
        assert_eq!(
            stitched,
            LrColumns::concat_rows(&[own.clone(), columns(clean), own])
        );
        assert_eq!(stitched.individuals(), 76);
        for i in 0..76 {
            let row = if (3..73).contains(&i) {
                0b10110u64
            } else {
                0b01001
            };
            for j in 0..l {
                let level = if row >> j & 1 == 1 {
                    stitched.minor[j]
                } else {
                    stitched.major[j]
                };
                assert_eq!(stitched.get(i, j).to_bits(), level.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn seeded_selection_with_empty_forced_equals_plain() {
        let (case, null, order) = synthetic_lr(200, 200, 10, 20, 0.2, 12);
        let params = LrTestParams::secure_genome_defaults();
        let plain = plain_search(&case, &null, &order, &params);
        assert_eq!(
            plain,
            select_safe_subset_naive(&case, &null, &[], &order, &params)
        );
    }

    #[test]
    fn forced_columns_consume_the_power_budget() {
        let (case, null, order) = synthetic_lr(300, 300, 30, 0, 0.3, 13);
        let params = LrTestParams {
            false_positive_rate: 0.1,
            power_threshold: 0.6,
        };
        // Without a forced set, some candidates fit under the budget.
        let plain = plain_search(&case, &null, &order, &params);
        assert!(!plain.kept_columns.is_empty());
        // Force the plain selection; the remaining candidates must admit
        // no more than what a fresh run over the leftovers would.
        let leftovers: Vec<usize> = order
            .iter()
            .copied()
            .filter(|c| !plain.kept_columns.contains(c))
            .collect();
        let seeded = select_safe_subset(&case, &null, &plain.kept_columns, &leftovers, &params);
        // The forced set already sits just under the bound, so few (often
        // zero) additional divergent columns can join.
        assert!(
            seeded.kept_columns.len() <= leftovers.len(),
            "sanity: cannot admit more than offered"
        );
        assert!(seeded.final_power < params.power_threshold);
    }

    #[test]
    fn null_quantile_matches_sorted_estimator() {
        let mut rng = ChaChaRng::from_seed_u64(31);
        for n in [1usize, 2, 5, 100, 1001] {
            let sums: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
            for q in [0.0, 0.1, 0.5, 0.9, 0.95, 1.0] {
                let mut sorted = sums.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let reference = crate::special::empirical_quantile(&sorted, q);
                let fast = super::null_quantile(&sums, q);
                assert!(
                    (fast - reference).abs() < 1e-12,
                    "n={n} q={q}: {fast} vs {reference}"
                );
            }
        }
    }

    /// Level pairs the sweeps must carry through untouched: ordinary LR
    /// levels, signed zero next to a subnormal, both infinities, and a NaN.
    const SWEEP_LEVELS: [(f64, f64); 4] = [
        (-0.287_682_072_451_780_9, 0.405_465_108_108_164_4),
        (-0.0, 5e-324),
        (f64::INFINITY, f64::NEG_INFINITY),
        (f64::NAN, 1.5),
    ];
    const SWEEP_SIZES: [usize; 5] = [1, 63, 64, 65, 1_630];

    /// `n` starting sums (finite, both signs, a few zeros) and a bit column.
    fn sweep_inputs(n: usize, seed: u64) -> (Vec<f64>, Vec<u64>) {
        let mut rng = ChaChaRng::from_seed_u64(seed);
        let sums = (0..n)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => 40.0 * (rng.next_f64() - 0.5),
            })
            .collect();
        let words = (0..n.div_ceil(64))
            .map(|_| (0..64).fold(0u64, |w, b| w | u64::from(rng.next_bool(0.4)) << b))
            .collect();
        (sums, words)
    }

    /// The scalar per-individual loop of `select_safe_subset_naive`.
    fn scalar_level(words: &[u64], i: usize, major: f64, minor: f64) -> f64 {
        if words[i / 64] >> (i % 64) & 1 == 1 {
            minor
        } else {
            major
        }
    }

    fn bits_of(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A null sweep's outputs: the count below and the in-band marks.
    struct NullOut {
        below: usize,
        marks: Vec<u8>,
    }

    impl Width {
        /// Every width this CPU runs, the scalar oracle first: the
        /// dispatch on a CPU with AVX-512 never reaches the AVX2 kernels. A
        /// vector width the CPU lacks is left out and named on stdout.
        fn detected() -> Vec<Width> {
            #[allow(unused_mut)]
            let mut widths = vec![Width::Scalar];
            #[cfg(target_arch = "x86_64")]
            for (width, present) in [
                (Width::Avx2, std::arch::is_x86_feature_detected!("avx2")),
                (Width::Avx512, Width::best() == Width::Avx512),
            ] {
                if present {
                    widths.push(width);
                } else {
                    println!("skipped: this CPU does not run the {width:?} kernels");
                }
            }
            widths
        }

        /// The null side's pass with marks the size `NullBand` gives them.
        fn null_out(
            self,
            sums: &mut [f64],
            columns: (Option<Column<'_>>, Column<'_>),
            edges: (f64, f64),
        ) -> NullOut {
            let mut marks = vec![0; sums.len().div_ceil(64) * 8];
            let below = self.null(sums, columns, edges, &mut marks);
            NullOut { below, marks }
        }
    }

    #[test]
    fn sweep_kernels_match_the_scalar_loop_bit_for_bit() {
        for width in Width::detected() {
            for (case, &n) in SWEEP_SIZES.iter().enumerate() {
                for (pair, &(major, minor)) in SWEEP_LEVELS.iter().enumerate() {
                    let (start, words) = sweep_inputs(n, (case * 10 + pair) as u64);
                    let (_, previous_words) = sweep_inputs(n, (case * 10 + pair + 100) as u64);
                    let next = Column {
                        words: &words,
                        major,
                        minor,
                    };
                    let (pmajor, pminor) = SWEEP_LEVELS[(pair + 1) % SWEEP_LEVELS.len()];
                    let previous = Column {
                        words: &previous_words,
                        major: pmajor,
                        minor: pminor,
                    };
                    let ctx = format!("{width:?} n={n} levels=({major:e}, {minor:e})");

                    // The oracle backs a rejected column out as (a + b) − b,
                    // the stored sums being a + b, before it adds the next.
                    let v = |i: usize| scalar_level(&previous_words, i, pmajor, pminor);
                    for back_out in [None, Some(previous)] {
                        let evaluated: Vec<f64> = (0..n)
                            .map(|i| {
                                let kept = if back_out.is_some() {
                                    start[i] - v(i)
                                } else {
                                    start[i]
                                };
                                kept + scalar_level(&words, i, major, minor)
                            })
                            .collect();
                        let ctx = format!("{ctx} back_out={}", back_out.is_some());
                        for threshold in [0.0, -3.5, f64::INFINITY, f64::NAN] {
                            let mut sums = start.clone();
                            let detected = width.case(&mut sums, back_out, next, threshold);
                            assert_eq!(bits_of(&sums), bits_of(&evaluated), "case sums {ctx}");
                            assert_eq!(
                                detected,
                                evaluated.iter().filter(|&&s| s > threshold).count(),
                                "case count {ctx} threshold={threshold}"
                            );
                        }
                        for (lo, hi) in [(-2.0, 2.0), (0.0, 0.0), (f64::NAN, 1.0)] {
                            let mut sums = start.clone();
                            let out = width.null_out(&mut sums, (back_out, next), (lo, hi));
                            let ctx = format!("{ctx} edges=({lo}, {hi})");
                            assert_eq!(bits_of(&sums), bits_of(&evaluated), "null sums {ctx}");
                            assert_eq!(out.below, evaluated.iter().filter(|&&s| s < lo).count());
                            for (i, &s) in evaluated.iter().enumerate() {
                                let marked = out.marks[i / 8] >> (i % 8) & 1 == 1;
                                assert_eq!(marked, !(s < lo || s > hi), "mark {i} {ctx}");
                            }
                            let marks = out.marks.iter().map(|m| m.count_ones()).sum::<u32>();
                            let inside = evaluated.iter().filter(|&&s| !(s < lo || s > hi));
                            assert_eq!(marks as usize, inside.count(), "stray marks {ctx}");
                        }
                    }
                }
            }
        }
        // The dispatch runs one of the widths above.
        let (start, words) = sweep_inputs(1_630, 7);
        let column = Column {
            words: &words,
            major: 0.25,
            minor: -1.5,
        };
        let (mut dispatched, mut scalar) = (start.clone(), start);
        let count = Width::best().case(&mut dispatched, Some(column), column, 0.0);
        assert_eq!(
            count,
            Width::Scalar.case(&mut scalar, Some(column), column, 0.0)
        );
        assert_eq!(bits_of(&dispatched), bits_of(&scalar));
    }

    /// Values the vector sweeps must carry exactly as the scalar loops do,
    /// as levels, starting sums, thresholds and band statistics: ordinary
    /// LR magnitudes, signed zeros, infinities, NaNs of both signs,
    /// subnormals and 1e300.
    const LANE_VALUES: [f64; 14] = [
        -0.287_682_072_451_780_9,
        0.405_465_108_108_164_4,
        3.25,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Each vector width this CPU runs (AVX2 and AVX-512, called
        /// directly) against the scalar kernels, by `to_bits`, for 1–200
        /// individuals (whole and partial quads, octets and words), with
        /// and without a rejected column to back out: the case side's
        /// stored sums and count, and the null side's stored sums, count
        /// below and in-band marks.
        #[test]
        fn vector_kernels_match_the_scalar_kernels_bit_for_bit(
            n in 1usize..201,
            levels in (0usize..14, 0usize..14),
            previous_levels in (0usize..14, 0usize..14),
            edges in (0usize..14, 0usize..28, 0usize..28),
            hostile_sums in 0.0f64..0.5,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = ChaChaRng::from_seed_u64(seed);
            let start: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.next_bool(hostile_sums) {
                        LANE_VALUES[rng.next_below(14) as usize]
                    } else {
                        40.0 * (rng.next_f64() - 0.5)
                    }
                })
                .collect();
            // Bits past `n` in the last word are set too: no sweep reads them.
            let words: Vec<u64> = (0..n.div_ceil(64)).map(|_| rng.next_u64()).collect();
            let previous_words: Vec<u64> = (0..n.div_ceil(64)).map(|_| rng.next_u64()).collect();
            let next = Column { words: &words, major: LANE_VALUES[levels.0], minor: LANE_VALUES[levels.1] };
            let previous = Column {
                words: &previous_words,
                major: LANE_VALUES[previous_levels.0],
                minor: LANE_VALUES[previous_levels.1],
            };
            let stat = |i: usize| if i < 14 { LANE_VALUES[i] } else { start[i * 7_919 % n] };
            let threshold = LANE_VALUES[edges.0];
            let band = BandEdges::new((stat(edges.1), stat(edges.2)), next.major, next.minor);

            for back_out in [None, Some(previous)] {
                let mut evaluated = start.clone();
                let detected = Width::Scalar.case(&mut evaluated, back_out, next, threshold);
                let scalar = Width::Scalar.null_out(&mut start.clone(), (back_out, next), (band.lo, band.hi));
                let ctx = back_out.is_some();
                for width in Width::detected() {
                    let mut vector = start.clone();
                    let count = width.case(&mut vector, back_out, next, threshold);
                    proptest::prop_assert_eq!(bits_of(&vector), bits_of(&evaluated), "{:?} {} case sums", width, ctx);
                    proptest::prop_assert_eq!(count, detected, "{:?} {} count", width, ctx);

                    let mut vector = start.clone();
                    let out = width.null_out(&mut vector, (back_out, next), (band.lo, band.hi));
                    proptest::prop_assert_eq!(bits_of(&vector), bits_of(&evaluated), "{:?} {} null sums", width, ctx);
                    proptest::prop_assert_eq!(out.below, scalar.below, "{:?} {} below", width, ctx);
                    proptest::prop_assert_eq!(&out.marks, &scalar.marks, "{:?} {} marks", width, ctx);
                }
            }
        }
    }

    #[test]
    fn backing_a_column_out_is_not_a_restore() {
        // Why the sweep after a reject subtracts its column instead of
        // restoring the sums before it: (a + b) − b ≠ a in floating point,
        // and the oracle leaves (a + b) − b behind. A column of −0 levels
        // adds nothing.
        let (start, words) = sweep_inputs(1_630, 99);
        let (major, minor) = SWEEP_LEVELS[0];
        let column = Column {
            words: &words,
            major,
            minor,
        };
        let unchanged = Column {
            major: -0.0,
            minor: -0.0,
            ..column
        };
        let mut sums = start.clone();
        Width::best().case(&mut sums, None, column, 0.0);
        Width::best().case(&mut sums, Some(column), unchanged, 0.0);
        assert_ne!(bits_of(&sums), bits_of(&start));
    }

    #[test]
    #[should_panic(expected = "same SNPs")]
    fn selection_rejects_mismatched_matrices() {
        let a = LrMatrix::from_values(1, 2, vec![0.0; 2]);
        let b = LrMatrix::from_values(1, 3, vec![0.0; 3]);
        let _ = plain_search(&a, &b, &[0], &LrTestParams::secure_genome_defaults());
    }

    /// One band step over `sums` from a hand-set committed pair, checked
    /// against the quickselect over every key: the threshold bit for bit,
    /// the order statistics it reports, and whether the band held them.
    fn band_step(sums: &[f64], q: f64, committed: (f64, f64), levels: (f64, f64)) -> bool {
        let mut band = NullBand::new(sums, q);
        band.committed = committed;
        let edges = BandEdges::new(committed, levels.0, levels.1);
        // A column of −0 levels leaves every sum as it is, NaNs and signed
        // zeros included.
        let zeros = vec![0; sums.len().div_ceil(64)];
        let unchanged = Column {
            words: &zeros,
            major: -0.0,
            minor: -0.0,
        };
        let mut sums = sums.to_vec();
        let columns = (None, unchanged);
        let below = Width::Scalar.null(&mut sums, columns, (edges.lo, edges.hi), &mut band.marks);
        let below = band.gather(&sums, edges, below);
        let (threshold, hit) = band.select(&sums, below);

        let mut keys: Vec<i64> = sums.iter().map(|&s| total_order_key(s)).collect();
        let expected = quantile_from_keys(&mut keys, q);
        let ctx = format!("sums={sums:?} q={q} committed={committed:?} levels={levels:?}");
        assert_eq!(threshold.to_bits(), expected.to_bits(), "threshold {ctx}");
        keys.sort_unstable();
        let rank = QuantileRank::new(sums.len(), q);
        assert_eq!(
            (
                total_order_key(band.evaluated.0),
                total_order_key(band.evaluated.1)
            ),
            (keys[rank.k], keys[rank.top()]),
            "order statistics {ctx}"
        );
        hit
    }

    #[test]
    fn the_band_selects_what_the_full_quickselect_selects() {
        let nan = f64::NAN;
        let ordinary: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.25 - 3.0).collect();
        for q in [0.9, 0.5, 1.0] {
            let rank = QuantileRank::new(ordinary.len(), q);
            let stats = (ordinary[rank.k] - 0.1, ordinary[rank.top()] - 0.1);
            assert!(band_step(&ordinary, q, stats, (0.1, 0.05)), "q={q}");

            // NaNs of both signs: below and above every number. At q = 1
            // the +NaN is the selected statistic, above the band: a miss.
            let mut with_nans = ordinary.clone();
            with_nans[3] = -nan;
            with_nans[30] = nan;
            with_nans.push(-nan);
            let hit = band_step(&with_nans, q, stats, (0.1, 0.05));
            assert_eq!(hit, q < 1.0, "NaNs q={q}");
        }
        // −NaNs pass the f64 compare as "not below" and are gathered; the
        // key filter must count them below, ahead of the numbers that the
        // f64 count already holds (rank 3 is the number 1.0, not a −NaN).
        let mut low_nans = vec![-nan; 3];
        low_nans.extend((1..=10).map(f64::from));
        assert!(!band_step(&low_nans, 0.25, (2.5, 2.5), (0.0, 0.0)));

        // Signed zeros on both edges: the band is exactly [+0, +0], so a
        // −0 is below it and the count must say so.
        let zeros = [-0.0, 0.0, -0.0, 0.0, 0.0, -1.0, 1.0, -0.0, 0.0, 0.0];
        for q in [0.5, 0.9, 1.0] {
            band_step(&zeros, q, (0.0, 0.0), (-0.0, 0.0));
            band_step(&zeros, q, (-0.0, 0.0), (0.0, -0.0));
        }
        // With +0 selected the band holds it; with −0 selected (rank 2 of
        // the ten, q = 0.25) it is below the band: a miss.
        assert!(band_step(&zeros, 0.7, (0.0, 0.0), (-0.0, 0.0)));
        assert!(!band_step(&zeros, 0.25, (0.0, 0.0), (-0.0, 0.0)));

        // Duplicates straddling both edges: runs of three on each edge and
        // one ulp outside it. The band holds ranks 3..9.
        let (committed, levels) = ((2.0, 3.0), (0.0, 1.0));
        let (lo, hi) = band_edges(committed, levels.0, levels.1);
        let outside = [
            f64::from_bits(lo.to_bits() - 1),
            f64::from_bits(hi.to_bits() + 1),
        ];
        let dups: Vec<f64> = [outside[0], lo, hi, outside[1]]
            .iter()
            .flat_map(|&v| [v; 3])
            .collect();
        for q in [0.0, 0.2, 0.25, 0.3, 0.5, 0.7, 0.72, 0.75, 0.8, 1.0] {
            let rank = QuantileRank::new(dups.len(), q);
            let held = (3..9).contains(&rank.k) && (3..9).contains(&rank.top());
            assert_eq!(band_step(&dups, q, committed, levels), held, "q={q}");
        }

        // A forced miss: committed statistics far from the sums, as a
        // 1e300 column leaves them after its back-out.
        assert!(!band_step(&ordinary, 0.9, (1e3, 1e3 + 1.0), (0.0, 0.0)));
        assert!(!band_step(&ordinary, 0.9, (-1e3, -1e3), (0.0, 0.0)));
        // NaN edges gather everything and still select exactly.
        band_step(&ordinary, 0.9, (nan, nan), (0.0, 0.0));
        band_step(&ordinary, 0.9, (0.0, 1.0), (nan, 0.5));
        // One individual: k = 0, nothing to interpolate.
        assert!(band_step(&[7.5], 0.9, (7.0, 7.0), (0.5, 0.25)));
    }

    #[test]
    fn a_band_miss_is_counted_once() {
        // Null sums (1, 2) from the forced column; candidate 1 adds 1e300
        // and is rejected (every case sum is past the threshold), backing
        // the null sums out to (0, 0) while the committed statistics stay
        // (1, 2); candidate 2 adds zeros, so both sums fall below its band.
        let null = LrMatrix::from_values(2, 3, vec![1.0, 1e300, 0.0, 2.0, 1e300, 0.0]);
        let case = LrMatrix::from_values(2, 3, vec![0.0, 1e301, 0.0, 0.0, 1e301, 0.0]);
        let params = LrTestParams::secure_genome_defaults();
        let before = lr_quantile_fallbacks_total().get();
        let selection = select_safe_subset(&case, &null, &[0], &[1, 2], &params);
        assert_eq!(lr_quantile_fallbacks_total().get() - before, 1);
        assert_eq!(selection.kept_columns, [2]);
        assert_eq!(
            selection,
            select_safe_subset_naive(&case, &null, &[0], &[1, 2], &params)
        );
    }
}
