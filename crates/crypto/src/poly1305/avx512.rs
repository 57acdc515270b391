//! Eight Poly1305 accumulators side by side in AVX-512 IFMA registers.
//!
//! A run of `8k` blocks `m_1 … m_8k` after the state `h` contributes
//! `h · r^8k + Σ_j m_j · r^(8k − j + 1)`. Lane `i` of the kernel takes
//! blocks `i + 1, i + 9, …`: every group of eight but the last multiplies
//! each lane by `r⁸` (Horner's rule with stride eight), and the last
//! multiplies lane `i` by `r^(8 − i)`, after which the lanes add up to what
//! `8k` steps of the scalar `h ← (h + m) · r` leave, modulo `2^130 − 5`.
//! The incoming state rides in lane 0 of the first group.
//!
//! The radix is 2^44 (limbs of 44, 44 and 42 bits), so a limb product fits
//! the 52-bit multiplier of `vpmadd52luq`/`vpmadd52huq`:
//! the low instruction adds bits 0–51 of a product, the high one bits
//! 52–103. The high halves therefore land 8 bits above the next limb (10
//! above `2^130` for the top limb, which folds back times 5), and the carry
//! chain adds them there, shifted. Every operand stays below 2^52: the
//! accumulator's limbs below 2^45 after a message limb is added, the powers'
//! limbs below 2^44 and `20 · r` below 2^49.
//!
//! The scalar state is radix 2^64; [`absorb`] splits it into the kernel's
//! limbs on entry and joins the folded lanes back on return. The powers of
//! `r` are made once per call in radix 2^44 too, by the scalar `mul_44`
//! (the "donna-64" schedule: nine 64 × 64 → 128-bit products).
//!
//! The parent module calls in here only after detecting AVX-512F and
//! AVX-512 IFMA at run time; the scalar block step is the fallback and the
//! oracle the tests compare this kernel with.

use super::{State, GROUP_LEN};
use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_or_si512, _mm512_permutex2var_epi64, _mm512_reduce_add_epi64,
    _mm512_set1_epi64, _mm512_setr_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
    _mm512_srli_epi64,
};

pub(super) const MASK44: u64 = (1 << 44) - 1;
pub(super) const MASK42: u64 = (1 << 42) - 1;

/// A field element's three limbs, one lane per block.
type Limbs = [__m512i; 3];

/// Splits a radix-2^64 element (`h2` at most 4) into 44/44/43-bit limbs.
pub(super) fn split_44(h: State) -> [u64; 3] {
    let [h0, h1, h2] = h;
    [
        h0 & MASK44,
        ((h0 >> 44) | (h1 << 20)) & MASK44,
        (h1 >> 24) | (h2 << 40),
    ]
}

/// Joins radix-2^44 limbs (each below 2^45) into a radix-2^64 element
/// below 2^131, `h2` at most 4 as the block step expects.
fn join_44(h: [u64; 3]) -> State {
    let [h0, h1, h2] = h.map(u128::from);
    let low = h0 + (h1 << 44);
    let high = (low >> 64) + (h2 << 24);
    [low as u64, high as u64, (high >> 64) as u64]
}

/// `a · b mod 2^130 − 5` in radix 2^44, partially reduced, where `sb` is
/// `[20 · b1, 20 · b2]`: a limb product past 2^130 folds back multiplied
/// by 5, and the 44-bit limb boundary shifts it by 4.
pub(super) fn mul_44(a: [u64; 3], b: [u64; 3], sb: [u64; 2]) -> [u64; 3] {
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let [s1, s2] = sb.map(u128::from);

    let d0 = a0 * b0 + a1 * s2 + a2 * s1;
    let d1 = a0 * b1 + a1 * b0 + a2 * s2;
    let d2 = a0 * b2 + a1 * b1 + a2 * b0;

    let d1 = d1 + (d0 >> 44);
    let d2 = d2 + (d1 >> 44);
    let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
    [h0 & MASK44, h1, d2 as u64 & MASK42]
}

/// Carries `h` fully: every limb within its width, `h < 2^130`.
pub(super) fn carry_44(h: [u64; 3]) -> [u64; 3] {
    let [mut h0, mut h1, mut h2] = h;
    for _ in 0..2 {
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
    }
    [h0, h1, h2]
}

/// `r, r², …, r⁸` of the clamped `r`, each fully carried in radix 2^44:
/// the kernel's multipliers.
pub(super) fn powers(r: [u64; 2]) -> [[u64; 3]; 8] {
    // Three products deep rather than seven.
    let times = |a: [u64; 3], b: [u64; 3]| carry_44(mul_44(a, b, [20 * b[1], 20 * b[2]]));
    let r = split_44([r[0], r[1], 0]);
    let r2 = times(r, r);
    let r3 = times(r2, r);
    let r4 = times(r2, r2);
    [
        r,
        r2,
        r3,
        r4,
        times(r4, r),
        times(r4, r2),
        times(r4, r3),
        times(r4, r4),
    ]
}

/// `r` in every lane as the multiplier wants it: its limbs and
/// `[20 · r1, 20 · r2]`.
struct Multiplier {
    r: Limbs,
    s: [__m512i; 2],
}

impl Multiplier {
    /// Lane `i` holds `lanes[i]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(lanes: [[u64; 3]; 8]) -> Self {
        let limb = |k: usize, scale: u64| {
            let v = lanes.map(|p| (p[k] * scale) as i64);
            _mm512_setr_epi64(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
        };
        Self {
            r: [limb(0, 1), limb(1, 1), limb(2, 1)],
            s: [limb(1, 20), limb(2, 20)],
        }
    }
}

/// Splits eight consecutive blocks into limbs, block `i` in lane `i`, with
/// the `2^128` pad bit set.
#[inline]
#[target_feature(enable = "avx512f")]
fn load(group: &[u8; GROUP_LEN]) -> Limbs {
    // SAFETY: `group` is 128 readable bytes, two unaligned 64-byte loads.
    let (first, second) = unsafe {
        (
            _mm512_loadu_si512(group.as_ptr().cast()),
            _mm512_loadu_si512(group[64..].as_ptr().cast()),
        )
    };
    // Block `i`'s low quadword is quadword `2i` of the pair, its high one
    // `2i + 1`.
    let t0 = _mm512_permutex2var_epi64(first, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), second);
    let t1 = _mm512_permutex2var_epi64(first, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), second);
    let mask44 = _mm512_set1_epi64(MASK44 as i64);
    [
        _mm512_and_si512(t0, mask44),
        _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64::<44>(t0), _mm512_slli_epi64::<20>(t1)),
            mask44,
        ),
        _mm512_or_si512(_mm512_srli_epi64::<24>(t1), _mm512_set1_epi64(1 << 40)),
    ]
}

/// `h + m` per lane and limb.
#[inline]
#[target_feature(enable = "avx512f")]
fn add(h: Limbs, m: Limbs) -> Limbs {
    [
        _mm512_add_epi64(h[0], m[0]),
        _mm512_add_epi64(h[1], m[1]),
        _mm512_add_epi64(h[2], m[2]),
    ]
}

/// `h · r mod 2^130 − 5` per lane, partially reduced: limbs below 2^44,
/// 2^44 + 2^10 and 2^42.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul(h: Limbs, m: &Multiplier) -> Limbs {
    let [r0, r1, r2] = m.r;
    let [s1, s2] = m.s;
    let z = _mm512_setzero_si512();
    // d_k = Σ lo52(products) + 2^52 · Σ hi52(products).
    let lo = |a: __m512i, b: __m512i, c: __m512i| {
        _mm512_madd52lo_epu64(
            _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(z, h[0], a), h[1], b),
            h[2],
            c,
        )
    };
    let hi = |a: __m512i, b: __m512i, c: __m512i| {
        _mm512_madd52hi_epu64(
            _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(z, h[0], a), h[1], b),
            h[2],
            c,
        )
    };
    let (d0, d0_hi) = (lo(r0, s2, s1), hi(r0, s2, s1));
    let (d1, d1_hi) = (lo(r1, r0, s2), hi(r1, r0, s2));
    let (d2, d2_hi) = (lo(r2, r1, r0), hi(r2, r1, r0));

    let mask44 = _mm512_set1_epi64(MASK44 as i64);
    // 2^52 is 2^8 above a limb boundary; above 2^88 it is 2^10 above 2^130.
    let c = _mm512_add_epi64(_mm512_srli_epi64::<44>(d0), _mm512_slli_epi64::<8>(d0_hi));
    let h0 = _mm512_and_si512(d0, mask44);
    let d1 = _mm512_add_epi64(d1, c);
    let c = _mm512_add_epi64(_mm512_srli_epi64::<44>(d1), _mm512_slli_epi64::<8>(d1_hi));
    let h1 = _mm512_and_si512(d1, mask44);
    let d2 = _mm512_add_epi64(d2, c);
    let c = _mm512_add_epi64(_mm512_srli_epi64::<42>(d2), _mm512_slli_epi64::<10>(d2_hi));
    let h2 = _mm512_and_si512(d2, _mm512_set1_epi64(MASK42 as i64));
    // 2^130 ≡ 5.
    let h0 = _mm512_add_epi64(h0, _mm512_add_epi64(c, _mm512_slli_epi64::<2>(c)));
    [
        _mm512_and_si512(h0, mask44),
        _mm512_add_epi64(h1, _mm512_srli_epi64::<44>(h0)),
        h2,
    ]
}

/// Absorbs `groups` (each eight whole message blocks) into the scalar state
/// `h` under the clamped `r`. Returns the new state within the bounds the
/// scalar block step leaves: below 2^131, `h2` at most 4.
#[target_feature(enable = "avx512f,avx512ifma")]
pub(super) fn absorb(h: State, r: [u64; 2], groups: &[[u8; GROUP_LEN]]) -> State {
    let Some((last, init)) = groups.split_last() else {
        return h;
    };
    // Limbs below 2^44, 2^44 and 2^43: with a message limb added, every
    // operand stays below 2^45.
    let h = split_44(h);
    let powers = powers(r);
    let r8 = Multiplier::new([powers[7]; 8]);
    let tail = Multiplier::new(std::array::from_fn(|i| powers[7 - i]));
    let lane0 = |x: u64| _mm512_setr_epi64(x as i64, 0, 0, 0, 0, 0, 0, 0);
    let mut acc = [lane0(h[0]), lane0(h[1]), lane0(h[2])];
    for group in init {
        acc = mul(add(acc, load(group)), &r8);
    }
    acc = mul(add(acc, load(last)), &tail);

    // Eight lanes of limbs below 2^45 sum below 2^48: carry back into the
    // scalar bounds.
    let [mut h0, mut h1, mut h2] = acc.map(|limb| _mm512_reduce_add_epi64(limb) as u64);
    h1 += h0 >> 44;
    h0 &= MASK44;
    h2 += h1 >> 44;
    h1 &= MASK44;
    h0 += (h2 >> 42) * 5;
    h2 &= MASK42;
    h1 += h0 >> 44;
    h0 &= MASK44;
    join_44([h0, h1, h2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_radix_conversions_round_trip() {
        for h in [
            [0, 0, 0],
            [u64::MAX, u64::MAX, 4],
            [1 << 63, 5, 3],
            [7, u64::MAX, 0],
        ] {
            assert_eq!(join_44(split_44(h)), h);
        }
        // Unnormalised limbs join to the number their carried limbs lay
        // out bit by bit.
        let limbs = [MASK44 + (1 << 44), MASK44 + 1, MASK42 + (1 << 42)];
        let [mut l0, mut l1, mut l2] = limbs.map(u128::from);
        l1 += l0 >> 44;
        l0 &= u128::from(MASK44);
        l2 += l1 >> 44;
        l1 &= u128::from(MASK44);
        let low = l0 | (l1 << 44) | (l2 << 88);
        let want = [low as u64, (low >> 64) as u64, (l2 >> 40) as u64];
        assert_eq!(join_44(limbs), want);
    }
}
