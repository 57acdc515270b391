//! AVX2 forms of the LR search's column sweeps: four individuals a step.
//!
//! A step broadcasts the column's bit word, ANDs it with a selector that
//! holds bit `j` in lane `j` (`[1, 2, 4, 8]`, shifted on by four bits per
//! step), turns the lanes whose bit is set into an all-ones mask with
//! `cmpeq`, blends `major` and `minor` by that mask and adds (or
//! subtracts) the blend to four sums. Per individual that is the one `+=`
//! or `-=` of exactly `major` or `minor` the scalar loops of the parent
//! module perform, so every sum is bit-identical to theirs; the individuals
//! of a word past its last whole quad take that scalar step itself.
//!
//! Bit-identity covers NaNs, whose sign orders them under `total_cmp`.
//! When both operands of an x86 add are NaN the result is the first
//! operand's, and the scalar `s += level` compiles with the level first
//! (the sum is the folded memory operand), so the vector add is written
//! `add(level, sums)` too; a subtraction keeps the sum first in both.
//!
//! The parent module calls in here only after detecting AVX2 and POPCNT at
//! run time. Its scalar loops stay as the fallback for every other CPU and
//! as the oracle the tests compare these kernels with.

use std::arch::x86_64::{
    __m256d, __m256i, _mm256_add_pd, _mm256_and_si256, _mm256_blendv_pd, _mm256_castsi256_pd,
    _mm256_cmp_pd, _mm256_cmpeq_epi64, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_or_pd,
    _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setr_epi64x, _mm256_slli_epi64, _mm256_storeu_pd,
    _mm256_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ,
};

#[inline]
#[target_feature(enable = "avx2")]
fn load(quad: &[f64; 4]) -> __m256d {
    // SAFETY: `quad` is four readable `f64`s and `loadu` needs no alignment;
    // AVX is implied by the enclosing AVX2 target feature.
    unsafe { _mm256_loadu_pd(quad.as_ptr()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store(quad: &mut [f64; 4], v: __m256d) {
    // SAFETY: `quad` is four writable `f64`s and `storeu` needs no
    // alignment; AVX is implied by the enclosing AVX2 target feature.
    unsafe { _mm256_storeu_pd(quad.as_mut_ptr(), v) }
}

/// The one walk every kernel shares. For each 64-sum chunk and its bit
/// word: `quad(state, sums, levels, i)` for each whole quad, with the four
/// levels its bits select and `i` its first sum's place in the chunk;
/// `single(state, sum, level, i)` for the sums left over; then
/// `chunk_done(state, chunk)`.
#[inline]
#[target_feature(enable = "avx2")]
fn sweep<S>(
    sums: &mut [f64],
    words: &[u64],
    (major, minor): (f64, f64),
    state: &mut S,
    quad: impl Fn(&mut S, &mut [f64; 4], __m256d, usize),
    single: impl Fn(&mut S, &mut f64, f64, usize),
    chunk_done: impl Fn(&mut S, &[f64]),
) {
    let (major_v, minor_v) = (_mm256_set1_pd(major), _mm256_set1_pd(minor));
    let levels = [major, minor];
    let walk = |state: &mut S, chunk: &mut [f64], word: u64| {
        let bits: __m256i = _mm256_set1_epi64x(word as i64);
        let mut select = _mm256_setr_epi64x(1, 2, 4, 8);
        let (quads, rest) = chunk.as_chunks_mut::<4>();
        let first = quads.len() * 4;
        for (j, q) in quads.iter_mut().enumerate() {
            let is_minor = _mm256_cmpeq_epi64(_mm256_and_si256(bits, select), select);
            quad(
                state,
                q,
                _mm256_blendv_pd(major_v, minor_v, _mm256_castsi256_pd(is_minor)),
                4 * j,
            );
            select = _mm256_slli_epi64::<4>(select);
        }
        for (i, s) in (first..).zip(rest) {
            single(state, s, levels[(word >> i & 1) as usize], i);
        }
        chunk_done(state, chunk);
    };
    // Whole chunks reach `walk` with a constant length: their sixteen steps
    // unroll.
    let (full, tail) = sums.as_chunks_mut::<64>();
    let n_full = full.len();
    for (chunk, &word) in full.iter_mut().zip(words) {
        walk(state, chunk, word);
    }
    if let Some(&word) = words.get(n_full) {
        if !tail.is_empty() {
            walk(state, tail, word);
        }
    }
}

/// `sums[i] += level(bit_i)`.
#[target_feature(enable = "avx2,popcnt")]
pub(super) fn add_column(sums: &mut [f64], words: &[u64], major: f64, minor: f64) {
    sweep(
        sums,
        words,
        (major, minor),
        &mut (),
        |(), q, level, _| store(q, _mm256_add_pd(level, load(q))),
        |(), s, level, _| *s += level,
        |(), _| {},
    );
}

/// `sums[i] -= level(bit_i)`: the back-out, `(a + b) − b` as the scalar
/// loop leaves it.
#[target_feature(enable = "avx2,popcnt")]
pub(super) fn sub_column(sums: &mut [f64], words: &[u64], major: f64, minor: f64) {
    sweep(
        sums,
        words,
        (major, minor),
        &mut (),
        |(), q, level, _| store(q, _mm256_sub_pd(load(q), level)),
        |(), s, level, _| *s -= level,
        |(), _| {},
    );
}

/// The case side in one pass: adds the column and counts the new sums
/// `> threshold` (an ordered compare, so a NaN sum never counts).
#[target_feature(enable = "avx2,popcnt")]
pub(super) fn add_column_count(
    sums: &mut [f64],
    words: &[u64],
    major: f64,
    minor: f64,
    threshold: f64,
) -> usize {
    let threshold_v = _mm256_set1_pd(threshold);
    let mut detected = 0u32;
    sweep(
        sums,
        words,
        (major, minor),
        &mut detected,
        |detected, q, level, _| {
            let v = _mm256_add_pd(level, load(q));
            store(q, v);
            *detected +=
                _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(v, threshold_v)).count_ones();
        },
        |detected, s, level, _| {
            *s += level;
            *detected += u32::from(*s > threshold);
        },
        |_, _| {},
    );
    detected as usize
}

/// The null side in one pass: adds the column, counts the new sums `< lo`
/// and marks every sum the f64 compares leave inside `[lo, hi]` (NaNs
/// included); after each chunk's vector steps, the marked sums go to
/// `inside`. Returns the count.
#[target_feature(enable = "avx2,popcnt")]
pub(super) fn add_column_band(
    sums: &mut [f64],
    words: &[u64],
    levels: (f64, f64),
    (lo, hi): (f64, f64),
    inside: impl FnMut(f64),
) -> usize {
    let (lo_v, hi_v) = (_mm256_set1_pd(lo), _mm256_set1_pd(hi));
    // (sums below, the chunk's in-band marks, the visitor)
    let mut state = (0u32, 0u64, inside);
    sweep(
        sums,
        words,
        levels,
        &mut state,
        |(below, marks, _), q, level, i| {
            let v = _mm256_add_pd(level, load(q));
            store(q, v);
            let under = _mm256_cmp_pd::<_CMP_LT_OQ>(v, lo_v);
            let over = _mm256_cmp_pd::<_CMP_GT_OQ>(v, hi_v);
            *below += _mm256_movemask_pd(under).count_ones();
            let outside = _mm256_movemask_pd(_mm256_or_pd(under, over));
            *marks |= u64::from(!outside as u8 & 0b1111) << i;
        },
        |(below, marks, _), s, level, i| {
            *s += level;
            let v = *s;
            *below += u32::from(v < lo);
            *marks |= u64::from(!(v < lo || v > hi)) << i;
        },
        // Kept out of the vector steps: the visitor may grow a vector, and
        // a call inside them makes every register a spill.
        |(_, marks, inside), chunk| {
            while *marks != 0 {
                inside(chunk[marks.trailing_zeros() as usize]);
                *marks &= *marks - 1;
            }
        },
    );
    state.0 as usize
}
