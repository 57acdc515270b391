//! The 64×64 bit transpose in eight AVX-512 registers.
//!
//! Register `k` holds rows `8k … 8k + 7`, row `8k + l` in 64-bit lane `l`.
//! The block swap of the parent module's `transpose64_scalar` pairs row
//! `r` with row `r + j` in six rounds, `j` = 32, 16, …, 1. For `j` ≥ 8 the
//! two rows sit in the same lane of registers `k` and `k + j/8`, so a round
//! is the scalar step on whole registers, eight row pairs at once. For
//! `j` ≤ 4 they sit in lanes `l` and `l + j` of one register: a `vpermq`
//! brings each row's partner into its lane, the lanes whose row comes
//! first compute the swapped bits `t`, and one masked shift and a second
//! `vpermq` hand `t << j` to the first row and `t` to the second. Every
//! round moves exactly the bits the scalar round moves.
//!
//! The parent module calls in here only after detecting AVX-512F at run
//! time; the scalar block swap is the fallback and the oracle the tests
//! compare this kernel with.

use std::arch::x86_64::{
    __m512i, __mmask8, _mm512_and_si512, _mm512_loadu_si512, _mm512_mask_slli_epi64,
    _mm512_permutexvar_epi64, _mm512_set1_epi64, _mm512_setr_epi64, _mm512_slli_epi64,
    _mm512_srli_epi64, _mm512_storeu_si512, _mm512_xor_si512,
};

/// One round between registers: swaps the bits of `mask` shifted up by
/// `J` in each lane of `first` with the bits of `mask` in the same lane of
/// `second`.
#[inline]
#[target_feature(enable = "avx512f")]
fn swap_registers<const J: u32>(first: &mut __m512i, second: &mut __m512i, mask: u64) {
    let t = _mm512_and_si512(
        _mm512_xor_si512(_mm512_srli_epi64::<J>(*first), *second),
        _mm512_set1_epi64(mask as i64),
    );
    *first = _mm512_xor_si512(*first, _mm512_slli_epi64::<J>(t));
    *second = _mm512_xor_si512(*second, t);
}

/// One round within a register: the same swap between lane `l` and lane
/// `l + J`, for each lane `l` in `first_lanes` (those with bit `J` clear).
#[inline]
#[target_feature(enable = "avx512f")]
fn swap_lanes<const J: u32>(v: __m512i, first_lanes: __mmask8, mask: u64) -> __m512i {
    let j = i64::from(J);
    // Lane `l` ↔ lane `l ^ J`.
    let partner = _mm512_setr_epi64(j, 1 ^ j, 2 ^ j, 3 ^ j, 4 ^ j, 5 ^ j, 6 ^ j, 7 ^ j);
    let swapped = _mm512_permutexvar_epi64(partner, v);
    // Meaningful in the first lanes only: `((row >> J) ^ partner) & mask`.
    let t = _mm512_and_si512(
        _mm512_xor_si512(_mm512_srli_epi64::<J>(v), swapped),
        _mm512_set1_epi64(mask as i64),
    );
    // First lanes take `t << J`, second lanes their partner's `t`.
    let delta = _mm512_mask_slli_epi64::<J>(_mm512_permutexvar_epi64(partner, t), first_lanes, t);
    _mm512_xor_si512(v, delta)
}

/// Transposes a 64×64 bit matrix in place: the parent module's
/// `transpose64` contract.
#[target_feature(enable = "avx512f")]
pub(super) fn transpose64(a: &mut [u64; 64]) {
    let mut x: [__m512i; 8] = std::array::from_fn(|k| {
        // SAFETY: `a[8k..8k + 8]` is 64 readable bytes, an unaligned load.
        unsafe { _mm512_loadu_si512(a[8 * k..].as_ptr().cast()) }
    });
    let [x0, x1, x2, x3, x4, x5, x6, x7] = &mut x;
    for (first, second) in [(x0, x4), (x1, x5), (x2, x6), (x3, x7)] {
        swap_registers::<32>(first, second, 0x0000_0000_ffff_ffff);
    }
    let [x0, x1, x2, x3, x4, x5, x6, x7] = &mut x;
    for (first, second) in [(x0, x2), (x1, x3), (x4, x6), (x5, x7)] {
        swap_registers::<16>(first, second, 0x0000_ffff_0000_ffff);
    }
    let [x0, x1, x2, x3, x4, x5, x6, x7] = &mut x;
    for (first, second) in [(x0, x1), (x2, x3), (x4, x5), (x6, x7)] {
        swap_registers::<8>(first, second, 0x00ff_00ff_00ff_00ff);
    }
    for (k, v) in x.iter().enumerate() {
        let v = swap_lanes::<4>(*v, 0x0f, 0x0f0f_0f0f_0f0f_0f0f);
        let v = swap_lanes::<2>(v, 0x33, 0x3333_3333_3333_3333);
        let v = swap_lanes::<1>(v, 0x55, 0x5555_5555_5555_5555);
        // SAFETY: `a[8k..8k + 8]` is 64 writable bytes, an unaligned store.
        unsafe { _mm512_storeu_si512(a[8 * k..].as_mut_ptr().cast(), v) }
    }
}
