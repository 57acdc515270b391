//! AVX-512 forms of the LR search's column sweeps: eight individuals a
//! step.
//!
//! A column's bit word holds one genotype bit per individual, and byte `j`
//! of it covers individuals `8j … 8j + 7`: that byte *is* an `__mmask8`.
//! A step therefore blends `major` and `minor` by the byte directly,
//! `mask_blend(byte, major, minor)`, with no broadcast, AND or compare to
//! build a lane mask first (the AVX2 kernels need all three), and adds (or
//! subtracts) the blend to eight sums. The compares of the counting kernels
//! yield masks too, so a count is `count_ones` of the mask. Per individual
//! that is the one `+=` or `-=` of exactly `major` or `minor` the scalar
//! loops of the parent module perform, so every sum is bit-identical to
//! theirs; the individuals of a word past its last whole octet take that
//! scalar step itself.
//!
//! Bit-identity covers NaNs, whose sign orders them under `total_cmp`.
//! When both operands of an x86 add are NaN the result is the first
//! operand's, and the scalar `s += level` compiles with the level first
//! (the sum is the folded memory operand), so the vector add is written
//! `add(level, sums)`, as in the AVX2 kernels; a subtraction keeps the sum
//! first in both.
//!
//! The parent module calls in here only after detecting AVX-512F and POPCNT
//! at run time. The AVX2 kernels stay as the fallback below that width and
//! the scalar loops as the fallback of every other CPU; the scalar loops are
//! the oracle the tests compare both vector widths with.

use std::arch::x86_64::{
    __m512d, _mm512_add_pd, _mm512_cmp_pd_mask, _mm512_loadu_pd, _mm512_mask_blend_pd,
    _mm512_set1_pd, _mm512_storeu_pd, _mm512_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ,
};

#[inline]
#[target_feature(enable = "avx512f")]
fn load(octet: &[f64; 8]) -> __m512d {
    // SAFETY: `octet` is eight readable `f64`s and `loadu` needs no
    // alignment; AVX-512F is enabled on the enclosing function.
    unsafe { _mm512_loadu_pd(octet.as_ptr()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn store(octet: &mut [f64; 8], v: __m512d) {
    // SAFETY: `octet` is eight writable `f64`s and `storeu` needs no
    // alignment; AVX-512F is enabled on the enclosing function.
    unsafe { _mm512_storeu_pd(octet.as_mut_ptr(), v) }
}

/// The one walk every kernel shares. For each 64-sum chunk and its bit
/// word: `octet(state, sums, levels, i)` for each whole octet, with the
/// eight levels its byte selects and `i` its first sum's place in the
/// chunk; `single(state, sum, level, i)` for the sums left over; then
/// `chunk_done(state, chunk)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn sweep<S>(
    sums: &mut [f64],
    words: &[u64],
    (major, minor): (f64, f64),
    state: &mut S,
    octet: impl Fn(&mut S, &mut [f64; 8], __m512d, usize),
    single: impl Fn(&mut S, &mut f64, f64, usize),
    chunk_done: impl Fn(&mut S, &[f64]),
) {
    let (major_v, minor_v) = (_mm512_set1_pd(major), _mm512_set1_pd(minor));
    let levels = [major, minor];
    let walk = |state: &mut S, chunk: &mut [f64], word: u64| {
        let (octets, rest) = chunk.as_chunks_mut::<8>();
        let first = octets.len() * 8;
        for (j, o) in octets.iter_mut().enumerate() {
            // Lane `l` of the blend is `minor` iff bit `8j + l` is set.
            let byte = (word >> (8 * j)) as u8;
            octet(
                state,
                o,
                _mm512_mask_blend_pd(byte, major_v, minor_v),
                8 * j,
            );
        }
        for (i, s) in (first..).zip(rest) {
            single(state, s, levels[(word >> i & 1) as usize], i);
        }
        chunk_done(state, chunk);
    };
    // Whole chunks reach `walk` with a constant length: their eight steps
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
#[target_feature(enable = "avx512f,popcnt")]
pub(super) fn add_column(sums: &mut [f64], words: &[u64], major: f64, minor: f64) {
    sweep(
        sums,
        words,
        (major, minor),
        &mut (),
        |(), o, level, _| store(o, _mm512_add_pd(level, load(o))),
        |(), s, level, _| *s += level,
        |(), _| {},
    );
}

/// `sums[i] -= level(bit_i)`: the back-out, `(a + b) − b` as the scalar
/// loop leaves it.
#[target_feature(enable = "avx512f,popcnt")]
pub(super) fn sub_column(sums: &mut [f64], words: &[u64], major: f64, minor: f64) {
    sweep(
        sums,
        words,
        (major, minor),
        &mut (),
        |(), o, level, _| store(o, _mm512_sub_pd(load(o), level)),
        |(), s, level, _| *s -= level,
        |(), _| {},
    );
}

/// The case side in one pass: adds the column and counts the new sums
/// `> threshold` (an ordered compare, so a NaN sum never counts).
#[target_feature(enable = "avx512f,popcnt")]
pub(super) fn add_column_count(
    sums: &mut [f64],
    words: &[u64],
    major: f64,
    minor: f64,
    threshold: f64,
) -> usize {
    let threshold_v = _mm512_set1_pd(threshold);
    let mut detected = 0u32;
    sweep(
        sums,
        words,
        (major, minor),
        &mut detected,
        |detected, o, level, _| {
            let v = _mm512_add_pd(level, load(o));
            store(o, v);
            *detected += _mm512_cmp_pd_mask::<_CMP_GT_OQ>(v, threshold_v).count_ones();
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
#[target_feature(enable = "avx512f,popcnt")]
pub(super) fn add_column_band(
    sums: &mut [f64],
    words: &[u64],
    levels: (f64, f64),
    (lo, hi): (f64, f64),
    inside: impl FnMut(f64),
) -> usize {
    let (lo_v, hi_v) = (_mm512_set1_pd(lo), _mm512_set1_pd(hi));
    // (sums below, the chunk's in-band marks, the visitor)
    let mut state = (0u32, 0u64, inside);
    sweep(
        sums,
        words,
        levels,
        &mut state,
        |(below, marks, _), o, level, i| {
            let v = _mm512_add_pd(level, load(o));
            store(o, v);
            let under = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, lo_v);
            let over = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(v, hi_v);
            *below += under.count_ones();
            *marks |= u64::from(!(under | over)) << i;
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
