//! Four ChaCha20 blocks side by side in SSE2 registers.
//!
//! The state is held word-major: register `i` carries state word `i` of
//! the four blocks, one 32-bit lane each. Words 0–11 (the constants and
//! the key) are the same in every lane; words 12–15 (the counter and the
//! nonce) are each lane's own, so one pass can serve four consecutive
//! blocks of one message or the first blocks of two messages. A quarter
//! round is then the scalar one applied to four blocks by the
//! same instructions. SSE2 has no lane rotate: 16-bit rotations swap the
//! halves of each lane with two 16-bit shuffles, the others OR a left
//! shift with a right one. After the rounds each group of four words is
//! transposed back to block-major order and stored as little-endian bytes,
//! exactly what the scalar `block` writes. SSE2 is part of the x86-64
//! baseline: callers need no run-time detection to enter these
//! `#[target_feature(enable = "sse2")]` functions.

use super::{BLOCKS4_LEN, SIGMA};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_or_si128, _mm_set1_epi32, _mm_shufflehi_epi16,
    _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32,
    _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
};

/// Every lane rotated left by 16 bits: its two 16-bit halves swapped.
#[inline]
#[target_feature(enable = "sse2")]
fn rotl16(x: __m128i) -> __m128i {
    _mm_shufflehi_epi16::<0b1011_0001>(_mm_shufflelo_epi16::<0b1011_0001>(x))
}

/// Every lane rotated left by `L` bits, `R = 32 - L`.
#[inline]
#[target_feature(enable = "sse2")]
fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
    _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
}

#[inline]
#[target_feature(enable = "sse2")]
fn quarter_round(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = _mm_add_epi32(x[a], x[b]);
    x[d] = rotl16(_mm_xor_si128(x[d], x[a]));
    x[c] = _mm_add_epi32(x[c], x[d]);
    x[b] = rotl::<12, 20>(_mm_xor_si128(x[b], x[c]));
    x[a] = _mm_add_epi32(x[a], x[b]);
    x[d] = rotl::<8, 24>(_mm_xor_si128(x[d], x[a]));
    x[c] = _mm_add_epi32(x[c], x[d]);
    x[b] = rotl::<7, 25>(_mm_xor_si128(x[b], x[c]));
}

#[inline]
#[target_feature(enable = "sse2")]
fn load(src: &[u32; 4]) -> __m128i {
    // SAFETY: `src` is 16 readable bytes and `loadu` needs no alignment.
    unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "sse2")]
fn store(dst: &mut [u8; 16], v: __m128i) {
    // SAFETY: `dst` is 16 writable bytes and `storeu` needs no alignment.
    unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
}

/// The four blocks under the key `words` whose state words 12–15 are
/// `lanes`' (row `i` holds word `12 + i` of each block), end to end in
/// `out`.
#[target_feature(enable = "sse2")]
pub(super) fn blocks4(words: &[u32; 8], lanes: &[[u32; 4]; 4], out: &mut [u8; BLOCKS4_LEN]) {
    let mut x: [__m128i; 16] = std::array::from_fn(|i| match i {
        0..4 => _mm_set1_epi32(SIGMA[i] as i32),
        4..12 => _mm_set1_epi32(words[i - 4] as i32),
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
    // Row `4 * block + group` of `rows` is bytes `16 * group..` of `block`.
    let (rows, _) = out.as_chunks_mut::<16>();
    for group in 0..4 {
        let w: [__m128i; 4] =
            std::array::from_fn(|j| _mm_add_epi32(x[4 * group + j], initial[4 * group + j]));
        // Transpose: lane `b` of `w[j]` is word `4 * group + j` of block `b`.
        let lo01 = _mm_unpacklo_epi32(w[0], w[1]);
        let lo23 = _mm_unpacklo_epi32(w[2], w[3]);
        let hi01 = _mm_unpackhi_epi32(w[0], w[1]);
        let hi23 = _mm_unpackhi_epi32(w[2], w[3]);
        let blocks = [
            _mm_unpacklo_epi64(lo01, lo23),
            _mm_unpackhi_epi64(lo01, lo23),
            _mm_unpacklo_epi64(hi01, hi23),
            _mm_unpackhi_epi64(hi01, hi23),
        ];
        for (block, v) in blocks.into_iter().enumerate() {
            store(&mut rows[4 * block + group], v);
        }
    }
}
