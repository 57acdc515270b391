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
//! The radix is the scalar code's, 2^44 (limbs of 44, 44 and 42 bits), so a
//! limb product fits the 52-bit multiplier of `vpmadd52luq`/`vpmadd52huq`:
//! the low instruction adds bits 0–51 of a product, the high one bits
//! 52–103. The high halves therefore land 8 bits above the next limb (10
//! above `2^130` for the top limb, which folds back times 5), and the carry
//! chain adds them there, shifted. Every operand stays below 2^52: the
//! accumulator's limbs below 2^45 after a message limb is added, the powers'
//! limbs below 2^44 and `20 · r` below 2^49.
//!
//! The parent module calls in here only after detecting AVX-512F and
//! AVX-512 IFMA at run time; the scalar block step is the fallback and the
//! oracle the tests compare this kernel with.

use super::{GROUP_LEN, MASK42, MASK44};
use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_or_si512, _mm512_permutex2var_epi64, _mm512_reduce_add_epi64,
    _mm512_set1_epi64, _mm512_setr_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
    _mm512_srli_epi64,
};

/// A field element's three limbs, one lane per block.
type Limbs = [__m512i; 3];

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
/// `h`, given `powers[k] = r^(k + 1)` with every limb within its width.
/// Returns the new state within the bounds the scalar block step leaves:
/// limbs below 2^44, 2^44 + 2 and 2^42.
#[target_feature(enable = "avx512f,avx512ifma")]
pub(super) fn absorb(h: [u64; 3], powers: &[[u64; 3]; 8], groups: &[[u8; GROUP_LEN]]) -> [u64; 3] {
    let Some((last, init)) = groups.split_last() else {
        return h;
    };
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
    [h0, h1, h2]
}
