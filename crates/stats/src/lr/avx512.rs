//! AVX-512 forms of the LR search's column sweeps: eight individuals a
//! step.
//!
//! A column's bit word holds one genotype bit per individual, and byte `j`
//! of it covers individuals `8j … 8j + 7`: that byte *is* an `__mmask8`.
//! A step therefore blends `major` and `minor` by the byte directly,
//! `mask_blend(byte, major, minor)`, with no broadcast, AND or compare to
//! build a lane mask first (the AVX2 kernels need all three).
//!
//! A candidate's sweep is one pass per side. Each step loads eight stored
//! sums, backs out the previous candidate's column if it was rejected
//! (`sub(s, level)`), adds the candidate's own (`add(level, s)`) and stores
//! the result: per individual the `-=` and `+=` of exactly `major` or
//! `minor` the scalar loops perform. A count is a per-lane `i64` counter
//! bumped under the compare mask and reduced once a sweep, so no mask goes
//! through a general register to be counted; the null side also writes
//! one in-band byte an octet. The octet past a sum count that is not a
//! multiple of eight runs on a copy padded with NaNs, its lanes masked to
//! the real ones. No column with a NaN level reaches these kernels (the
//! parent's `Width`), so no add meets two NaNs and operand order cannot
//! show.
//!
//! The parent module calls in here only after detecting AVX-512F at run
//! time; the AVX2 kernels and the scalar loops are the fallbacks below it,
//! and the scalar loops the oracle the tests compare both widths with.

use std::arch::x86_64::{
    __m512d, __m512i, __mmask8, _mm512_add_pd, _mm512_loadu_pd, _mm512_mask_add_epi64,
    _mm512_mask_blend_pd, _mm512_mask_cmp_pd_mask, _mm512_reduce_add_epi64, _mm512_set1_epi64,
    _mm512_set1_pd, _mm512_setzero_si512, _mm512_storeu_pd, _mm512_sub_pd, _CMP_GT_OQ, _CMP_NGT_UQ,
    _CMP_NLT_UQ,
};

use super::Column;

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

/// The walk every sweep shares, `commit` being the back-out of the
/// previous candidate (or nothing). For octet `j` of 64-sum chunk `k`, with
/// the real lanes `lanes`: `commit(sums, previous levels) + next levels` is
/// stored and handed to `step(k, j, lanes, sums)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn walk(
    sums: &mut [f64],
    (previous, previous_levels): (&[u64], (f64, f64)),
    next: Column<'_>,
    commit: impl Fn(__m512d, __m512d) -> __m512d,
    mut step: impl FnMut(usize, usize, __mmask8, __m512d),
) {
    let chunks = sums.len().div_ceil(64);
    assert!(previous.len() >= chunks && next.words.len() >= chunks);
    let p = (
        _mm512_set1_pd(previous_levels.0),
        _mm512_set1_pd(previous_levels.1),
    );
    let c = (_mm512_set1_pd(next.major), _mm512_set1_pd(next.minor));
    // Lane `l` of a blend is `minor` iff bit `l` of the byte is set.
    let mut octet = |k, j, lanes, sums: &mut [f64; 8], bp: u8, bn: u8| {
        let s = commit(load(sums), _mm512_mask_blend_pd(bp, p.0, p.1));
        let t = _mm512_add_pd(_mm512_mask_blend_pd(bn, c.0, c.1), s);
        store(sums, t);
        step(k, j, lanes, t);
    };
    // Whole chunks run with constant shifts: their eight steps unroll.
    let (full, tail) = sums.as_chunks_mut::<64>();
    let n_full = full.len();
    for (k, chunk) in full.iter_mut().enumerate() {
        let (wp, wn) = (previous[k], next.words[k]);
        for (j, s) in chunk.as_chunks_mut::<8>().0.iter_mut().enumerate() {
            octet(k, j, 0xff, s, (wp >> (8 * j)) as u8, (wn >> (8 * j)) as u8);
        }
    }
    if tail.is_empty() {
        return;
    }
    let (wp, wn) = (previous[n_full], next.words[n_full]);
    let byte = |word: u64, j: usize| (word >> (8 * j)) as u8;
    let (octets, rest) = tail.as_chunks_mut::<8>();
    let n_octets = octets.len();
    for (j, s) in octets.iter_mut().enumerate() {
        octet(n_full, j, 0xff, s, byte(wp, j), byte(wn, j));
    }
    if !rest.is_empty() {
        let (j, mut padded) = (n_octets, [f64::NAN; 8]);
        padded[..rest.len()].copy_from_slice(rest);
        let lanes = (1u8 << rest.len()) - 1;
        octet(n_full, j, lanes, &mut padded, byte(wp, j), byte(wn, j));
        rest.copy_from_slice(&padded[..rest.len()]);
    }
}

/// [`walk`] backing `back_out`'s column out first (`(s + v) − v`, as the
/// reference leaves a rejected column), or nothing.
#[inline]
#[target_feature(enable = "avx512f")]
fn walk_after(
    sums: &mut [f64],
    back_out: Option<Column<'_>>,
    next: Column<'_>,
    step: impl FnMut(usize, usize, __mmask8, __m512d),
) {
    match back_out {
        None => walk(sums, (next.words, (0.0, 0.0)), next, |s, _| s, step),
        Some(c) => walk(
            sums,
            (c.words, (c.major, c.minor)),
            next,
            |s, level| _mm512_sub_pd(s, level),
            step,
        ),
    }
}

/// The case side: backs `back_out` out, adds `next` and counts the new
/// sums `> threshold` (an ordered compare, so a NaN sum never counts).
#[target_feature(enable = "avx512f")]
pub(super) fn case_sweep(
    sums: &mut [f64],
    back_out: Option<Column<'_>>,
    next: Column<'_>,
    threshold: f64,
) -> usize {
    let threshold = _mm512_set1_pd(threshold);
    let one = _mm512_set1_epi64(1);
    let mut detected: __m512i = _mm512_setzero_si512();
    walk_after(sums, back_out, next, |_, _, lanes, t| {
        let over = _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(lanes, t, threshold);
        detected = _mm512_mask_add_epi64(detected, over, detected, one);
    });
    _mm512_reduce_add_epi64(detected) as usize
}

/// The null side: backs `back_out` out, adds `next`, counts the new sums
/// `< lo` and sets, per octet, the byte of the lanes the f64 compares leave
/// inside `[lo, hi]` (NaNs included) in `marks`. Returns the count: the
/// lanes counted not below, less the lanes there are.
#[target_feature(enable = "avx512f")]
pub(super) fn null_sweep(
    sums: &mut [f64],
    back_out: Option<Column<'_>>,
    next: Column<'_>,
    (lo, hi): (f64, f64),
    marks: &mut [u8],
) -> usize {
    let (lo, hi) = (_mm512_set1_pd(lo), _mm512_set1_pd(hi));
    let one = _mm512_set1_epi64(1);
    let mut not_below: __m512i = _mm512_setzero_si512();
    let marks = marks.as_chunks_mut::<8>().0;
    assert!(marks.len() >= sums.len().div_ceil(64));
    walk_after(sums, back_out, next, |k, j, lanes, t| {
        // `!(t < lo)` and then `!(t > hi)` under it: the in-band lanes in
        // two compares, with no mask arithmetic outside the mask registers.
        let not_under = _mm512_mask_cmp_pd_mask::<_CMP_NLT_UQ>(lanes, t, lo);
        marks[k][j] = _mm512_mask_cmp_pd_mask::<_CMP_NGT_UQ>(not_under, t, hi);
        not_below = _mm512_mask_add_epi64(not_below, not_under, not_below, one);
    });
    sums.len() - _mm512_reduce_add_epi64(not_below) as usize
}
