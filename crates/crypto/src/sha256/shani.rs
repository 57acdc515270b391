//! The SHA-256 compression function in the x86 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` runs two rounds on the working variables held as two
//! registers, `ABEF` and `CDGH` (lane 3 first), taking the two rounds'
//! `W + K` from the low half of its third operand. The message schedule is
//! `sha256msg1` (the σ0 term of four words), an `alignr` that supplies the
//! `W[t − 7]` terms, and `sha256msg2` (the σ1 term); each four-word group
//! `W[4i..4i + 4]` lives in register `i mod 4`. The words load big-endian,
//! as FIPS 180-4 reads them, by a byte shuffle.
//!
//! The parent module calls in here only after detecting SHA, SSSE3 and
//! SSE4.1 at run time; the scalar `compress` is the fallback and the oracle
//! the tests compare this kernel with.

use super::{BLOCK_LEN, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Runs the compression function over each of `blocks` in turn.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    // Reverses the bytes of each 32-bit word.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `state` is 32 readable bytes, two unaligned 16-byte loads.
    let (abcd, efgh) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state[4..].as_ptr().cast()),
        )
    };
    let cdab = _mm_shuffle_epi32::<0xb1>(abcd);
    let efgh = _mm_shuffle_epi32::<0x1b>(efgh);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w: [__m128i; 4] = std::array::from_fn(|i| {
            // SAFETY: bytes `16i..16i + 16` of the 64-byte block, an
            // unaligned load.
            let raw = unsafe { _mm_loadu_si128(block[16 * i..].as_ptr().cast()) };
            _mm_shuffle_epi8(raw, be_words)
        });
        for i in 0..16 {
            // SAFETY: `K` holds 64 words, and `4i + 4 ≤ 64`.
            let k = unsafe { _mm_loadu_si128(K[4 * i..].as_ptr().cast()) };
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (3..15).contains(&i) {
                // Finish group i + 1 (its σ0 part is in place): add the
                // W[t − 7] words, then `msg2` adds the σ1 terms.
                let next = (i + 1) % 4;
                let tail = _mm_alignr_epi8::<4>(w[i % 4], w[(i + 3) % 4]);
                w[next] = _mm_sha256msg2_epu32(_mm_add_epi32(w[next], tail), w[i % 4]);
            }
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            if (1..13).contains(&i) {
                // Start group i + 3 in the register of group i − 1: W[t − 16]
                // plus the σ0 terms.
                let prev = (i + 3) % 4;
                w[prev] = _mm_sha256msg1_epu32(w[prev], w[i % 4]);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let abcd = _mm_blend_epi16::<0xf0>(feba, dchg);
    let efgh = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is 32 writable bytes, two unaligned 16-byte stores.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
        _mm_storeu_si128(state[4..].as_mut_ptr().cast(), efgh);
    }
}
