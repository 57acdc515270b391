//! AVX2 forms of the LR search's column sweeps: four individuals a step,
//! two steps an octet.
//!
//! A chunk's steps broadcast the column's bit word once, AND it with a
//! selector that holds bit `j` in lane `j` (`[1, 2, 4, 8]`, shifted on by
//! four bits per step), turn the lanes whose bit is set into an all-ones
//! mask with `cmpeq` and blend `major` and `minor` by that mask.
//!
//! A candidate's sweep is one pass per side, in the shape of the AVX-512
//! kernels (see there): a rejected previous column backed out, the
//! candidate's column added, the result stored. A count is a per-lane `i64`
//! counter less the all-ones compare mask; the in-band byte of an octet
//! takes two `movemask`s, AVX2's only way to read a lane mask.
//!
//! The parent module calls in here only after detecting AVX2 at run time;
//! its scalar loops are the fallback and the oracle.

use std::arch::x86_64::{
    __m256d, __m256i, _mm256_add_pd, _mm256_and_si256, _mm256_andnot_pd, _mm256_blendv_pd,
    _mm256_castpd_si256, _mm256_castsi256_pd, _mm256_cmp_pd, _mm256_cmpeq_epi64,
    _mm256_extract_epi64, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_set1_epi64x, _mm256_set1_pd,
    _mm256_setr_epi64x, _mm256_setzero_si256, _mm256_slli_epi64, _mm256_storeu_pd,
    _mm256_sub_epi64, _mm256_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ, _CMP_NGT_UQ,
};

use super::Column;

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

/// The sum of a counter's four lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn reduce(counter: __m256i) -> usize {
    (_mm256_extract_epi64::<0>(counter)
        + _mm256_extract_epi64::<1>(counter)
        + _mm256_extract_epi64::<2>(counter)
        + _mm256_extract_epi64::<3>(counter)) as usize
}

/// The walk every sweep shares, as the AVX-512 one: for octet `j` of
/// 64-sum chunk `k`, `commit(sums, previous levels) + next levels` is
/// stored and handed to `step(k, j, lanes, sums)`, two quads.
#[inline]
#[target_feature(enable = "avx2")]
fn walk(
    sums: &mut [f64],
    (previous, previous_levels): (&[u64], (f64, f64)),
    next: Column<'_>,
    commit: impl Fn(__m256d, __m256d) -> __m256d,
    mut step: impl FnMut(usize, usize, u8, [__m256d; 2]),
) {
    let chunks = sums.len().div_ceil(64);
    assert!(previous.len() >= chunks && next.words.len() >= chunks);
    let p = (
        _mm256_set1_pd(previous_levels.0),
        _mm256_set1_pd(previous_levels.1),
    );
    let c = (_mm256_set1_pd(next.major), _mm256_set1_pd(next.minor));
    // The four levels of the individuals whose bits `select` picks.
    let levels = |bits: __m256i, select: __m256i, (major, minor): (__m256d, __m256d)| {
        let is_minor = _mm256_cmpeq_epi64(_mm256_and_si256(bits, select), select);
        _mm256_blendv_pd(major, minor, _mm256_castsi256_pd(is_minor))
    };
    let mut octet = |k, j, lanes, sums: &mut [f64; 8], (bp, bn), select: __m256i| {
        let [low, high] = sums.as_chunks_mut::<4>().0 else {
            unreachable!("an octet is two quads")
        };
        let select_high = _mm256_slli_epi64::<4>(select);
        let s_low = commit(load(low), levels(bp, select, p));
        let s_high = commit(load(high), levels(bp, select_high, p));
        let t = [
            _mm256_add_pd(levels(bn, select, c), s_low),
            _mm256_add_pd(levels(bn, select_high, c), s_high),
        ];
        store(low, t[0]);
        store(high, t[1]);
        step(k, j, lanes, t);
    };
    let first = _mm256_setr_epi64x(1, 2, 4, 8);
    let bits = |k: usize| {
        (
            _mm256_set1_epi64x(previous[k] as i64),
            _mm256_set1_epi64x(next.words[k] as i64),
        )
    };
    // Whole chunks run with constant selectors: their eight octets unroll.
    let (full, tail) = sums.as_chunks_mut::<64>();
    let n_full = full.len();
    for (k, chunk) in full.iter_mut().enumerate() {
        let (b, mut select) = (bits(k), first);
        for (j, s) in chunk.as_chunks_mut::<8>().0.iter_mut().enumerate() {
            octet(k, j, 0xff, s, b, select);
            select = _mm256_slli_epi64::<8>(select);
        }
    }
    if tail.is_empty() {
        return;
    }
    let (b, mut select) = (bits(n_full), first);
    let (octets, rest) = tail.as_chunks_mut::<8>();
    let n_octets = octets.len();
    for (j, s) in octets.iter_mut().enumerate() {
        octet(n_full, j, 0xff, s, b, select);
        select = _mm256_slli_epi64::<8>(select);
    }
    if !rest.is_empty() {
        let mut padded = [f64::NAN; 8];
        padded[..rest.len()].copy_from_slice(rest);
        let lanes = (1u8 << rest.len()) - 1;
        octet(n_full, n_octets, lanes, &mut padded, b, select);
        rest.copy_from_slice(&padded[..rest.len()]);
    }
}

/// [`walk`] backing `back_out`'s column out first, or nothing.
#[inline]
#[target_feature(enable = "avx2")]
fn walk_after(
    sums: &mut [f64],
    back_out: Option<Column<'_>>,
    next: Column<'_>,
    step: impl FnMut(usize, usize, u8, [__m256d; 2]),
) {
    match back_out {
        None => walk(sums, (next.words, (0.0, 0.0)), next, |s, _| s, step),
        Some(c) => walk(
            sums,
            (c.words, (c.major, c.minor)),
            next,
            |s, level| _mm256_sub_pd(s, level),
            step,
        ),
    }
}

/// The case side: backs `back_out` out, adds `next` and counts the new
/// sums `> threshold` (an ordered compare, so a NaN sum never counts).
#[target_feature(enable = "avx2")]
pub(super) fn case_sweep(
    sums: &mut [f64],
    back_out: Option<Column<'_>>,
    next: Column<'_>,
    threshold: f64,
) -> usize {
    let threshold = _mm256_set1_pd(threshold);
    let mut detected = _mm256_setzero_si256();
    walk_after(sums, back_out, next, |_, _, _, t| {
        for t in t {
            let over = _mm256_cmp_pd::<_CMP_GT_OQ>(t, threshold);
            detected = _mm256_sub_epi64(detected, _mm256_castpd_si256(over));
        }
    });
    reduce(detected)
}

/// The null side: backs `back_out` out, adds `next`, counts the new sums
/// `< lo` and sets, per octet, the byte of the lanes the f64 compares leave
/// inside `[lo, hi]` (NaNs included) in `marks`. Returns the count.
#[target_feature(enable = "avx2")]
pub(super) fn null_sweep(
    sums: &mut [f64],
    back_out: Option<Column<'_>>,
    next: Column<'_>,
    (lo, hi): (f64, f64),
    marks: &mut [u8],
) -> usize {
    let (lo, hi) = (_mm256_set1_pd(lo), _mm256_set1_pd(hi));
    let mut below = _mm256_setzero_si256();
    let marks = marks.as_chunks_mut::<8>().0;
    assert!(marks.len() >= sums.len().div_ceil(64));
    walk_after(sums, back_out, next, |k, j, lanes, t| {
        let mut mark = 0;
        for (half, t) in t.into_iter().enumerate() {
            let under = _mm256_cmp_pd::<_CMP_LT_OQ>(t, lo);
            let not_over = _mm256_cmp_pd::<_CMP_NGT_UQ>(t, hi);
            below = _mm256_sub_epi64(below, _mm256_castpd_si256(under));
            mark |= _mm256_movemask_pd(_mm256_andnot_pd(under, not_over)) << (4 * half);
        }
        marks[k][j] = mark as u8 & lanes;
    });
    reduce(below)
}
