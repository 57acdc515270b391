//! Sixteen ChaCha20 blocks side by side in AVX-512 registers.
//!
//! The layout is the SSE2 kernel's, four times as wide: register `i`
//! carries state word `i` of the sixteen blocks, one 32-bit lane each,
//! words 0–11 alike in every lane and words 12–15 (counter and nonce) each
//! lane's own. AVX-512F rotates lanes natively (`vprold`), so a quarter
//! round is eight instructions on sixteen blocks. After the rounds the
//! 16 × 16 word matrix is transposed in two steps: the SSE2 kernel's 4 × 4
//! word transpose inside every 128-bit quarter of a register, which leaves
//! quarter `k` of output `j` of word group `g` holding words `4g..4g + 4`
//! of block `4k + j`, then a 4 × 4 transpose of those quarters with
//! `vshufi32x4`. Each block is then one register, stored as little-endian
//! bytes: what the scalar `block` writes.
//!
//! The parent module calls in here only after detecting AVX-512F at run
//! time. The SSE2 kernel stays as the fallback, and the scalar `block` as
//! the oracle the tests compare both with.

use super::{PASS_LEN, SIGMA};
use std::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_rol_epi32, _mm512_set1_epi32,
    _mm512_shuffle_i32x4, _mm512_storeu_si512, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
    _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_xor_si512,
};

#[inline]
#[target_feature(enable = "avx512f")]
fn quarter_round(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = _mm512_add_epi32(x[a], x[b]);
    x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
    x[c] = _mm512_add_epi32(x[c], x[d]);
    x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
    x[a] = _mm512_add_epi32(x[a], x[b]);
    x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
    x[c] = _mm512_add_epi32(x[c], x[d]);
    x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
}

#[inline]
#[target_feature(enable = "avx512f")]
fn load(src: &[u32; 16]) -> __m512i {
    // SAFETY: `src` is 64 readable bytes and `loadu` needs no alignment.
    unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn store(dst: &mut [u8; 64], v: __m512i) {
    // SAFETY: `dst` is 64 writable bytes and `storeu` needs no alignment.
    unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
}

/// The sixteen blocks under the key `words` whose state words 12–15 are
/// `lanes`' (row `i` holds word `12 + i` of each block), end to end in
/// `out`.
#[target_feature(enable = "avx512f")]
pub(super) fn blocks16(words: &[u32; 8], lanes: &[[u32; 16]; 4], out: &mut [u8; PASS_LEN]) {
    let mut x: [__m512i; 16] = std::array::from_fn(|i| match i {
        0..4 => _mm512_set1_epi32(SIGMA[i] as i32),
        4..12 => _mm512_set1_epi32(words[i - 4] as i32),
        _ => load(&lanes[i - 12]),
    });
    let initial = x;
    for _ in 0..10 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    // Per word group `g`, the 4 × 4 transpose inside each 128-bit quarter:
    // quarter `k` of `groups[g][j]` is words `4g..4g + 4` of block `4k + j`.
    let groups: [[__m512i; 4]; 4] = std::array::from_fn(|g| {
        let w: [__m512i; 4] =
            std::array::from_fn(|j| _mm512_add_epi32(x[4 * g + j], initial[4 * g + j]));
        let lo01 = _mm512_unpacklo_epi32(w[0], w[1]);
        let lo23 = _mm512_unpacklo_epi32(w[2], w[3]);
        let hi01 = _mm512_unpackhi_epi32(w[0], w[1]);
        let hi23 = _mm512_unpackhi_epi32(w[2], w[3]);
        [
            _mm512_unpacklo_epi64(lo01, lo23),
            _mm512_unpackhi_epi64(lo01, lo23),
            _mm512_unpacklo_epi64(hi01, hi23),
            _mm512_unpackhi_epi64(hi01, hi23),
        ]
    });
    let (blocks, _) = out.as_chunks_mut::<64>();
    for j in 0..4 {
        // The quarters of block `4k + j` are quarter `k` of `groups[0..4][j]`.
        // `0x88` picks quarters 0 and 2 of each operand, `0xdd` 1 and 3.
        let [g0, g1, g2, g3] = [groups[0][j], groups[1][j], groups[2][j], groups[3][j]];
        let even01 = _mm512_shuffle_i32x4::<0x88>(g0, g1);
        let odd01 = _mm512_shuffle_i32x4::<0xdd>(g0, g1);
        let even23 = _mm512_shuffle_i32x4::<0x88>(g2, g3);
        let odd23 = _mm512_shuffle_i32x4::<0xdd>(g2, g3);
        store(&mut blocks[j], _mm512_shuffle_i32x4::<0x88>(even01, even23));
        store(
            &mut blocks[4 + j],
            _mm512_shuffle_i32x4::<0x88>(odd01, odd23),
        );
        store(
            &mut blocks[8 + j],
            _mm512_shuffle_i32x4::<0xdd>(even01, even23),
        );
        store(
            &mut blocks[12 + j],
            _mm512_shuffle_i32x4::<0xdd>(odd01, odd23),
        );
    }
}
