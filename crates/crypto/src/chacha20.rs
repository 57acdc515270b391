//! The ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//!
//! Provides the keystream generator behind both the AEAD construction in
//! [`crate::aead`] and the deterministic random generator in [`crate::rng`].
//!
//! [`block`] is the RFC's block function, one 64-byte block per call, in
//! plain scalar code: the oracle every test vector checks. The keystream
//! itself is made four blocks at a time by [`blocks4`], which on x86-64
//! runs the four blocks' rounds side by side in SSE2 registers (one lane
//! per block; SSE2 is part of the x86-64 baseline, so nothing is detected)
//! and elsewhere calls [`block`] four times. Both produce the same bytes.
//! The AEAD and the generator expand their key into state words once, in
//! their constructors, and draw every block from those.

#[cfg(target_arch = "x86_64")]
mod sse2;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (IETF variant).
pub const NONCE_LEN: usize = 12;
/// Keystream block size in bytes.
pub const BLOCK_LEN: usize = 64;
/// Bytes [`blocks4`] produces per call: four blocks.
pub const BLOCKS4_LEN: usize = 4 * BLOCK_LEN;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Little-endian 32-bit words of `bytes`.
fn words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    std::array::from_fn(|i| {
        u32::from_le_bytes([
            bytes[4 * i],
            bytes[4 * i + 1],
            bytes[4 * i + 2],
            bytes[4 * i + 3],
        ])
    })
}

/// A ChaCha20 key expanded into its eight state words.
#[derive(Clone)]
pub(crate) struct Key {
    words: [u32; 8],
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Key").finish_non_exhaustive()
    }
}

impl Key {
    /// Expands a 32-byte key.
    pub(crate) fn new(key: &[u8; KEY_LEN]) -> Self {
        Self { words: words(key) }
    }

    /// The initial state for (`counter`, `nonce`) under this key.
    fn state(&self, counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.words);
        state[12] = counter;
        state[13..].copy_from_slice(&words::<3>(nonce));
        state
    }

    /// The blocks at `counter`, `counter + 1`, `counter + 2` and
    /// `counter + 3` (each wrapping), end to end: [`blocks4`] under this
    /// key.
    pub(crate) fn blocks4(&self, counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCKS4_LEN] {
        let state = self.state(counter, nonce);
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: SSE2 is part of the x86-64 baseline, so every x86-64
            // CPU runs the `sse2` target feature.
            unsafe { sse2::blocks4(&state) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let mut out = [0u8; BLOCKS4_LEN];
            for (lane, bytes) in out.chunks_exact_mut(BLOCK_LEN).enumerate() {
                let mut state = state;
                state[12] = counter.wrapping_add(lane as u32);
                bytes.copy_from_slice(&block_of(state));
            }
            out
        }
    }

    /// [`xor_in_place`] under this key: panics where it does.
    pub(crate) fn xor_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        initial_counter: u32,
        data: &mut [u8],
    ) {
        let blocks_needed = data.len().div_ceil(BLOCK_LEN) as u64;
        assert!(
            u64::from(initial_counter) + blocks_needed <= u64::from(u32::MAX) + 1,
            "ChaCha20 counter overflow: keystream would repeat"
        );
        for (i, chunk) in data.chunks_mut(BLOCKS4_LEN).enumerate() {
            let counter = initial_counter.wrapping_add((i as u32).wrapping_mul(4));
            xor(chunk, &self.blocks4(counter, nonce));
        }
    }
}

/// `data[i] ^= keystream[i]` over `data`'s length.
pub(crate) fn xor(data: &mut [u8], keystream: &[u8]) {
    for (b, k) in data.iter_mut().zip(keystream) {
        *b ^= k;
    }
}

/// Runs the 20 rounds over `state` and adds the input back in.
fn block_of(mut state: [u32; 16]) -> [u8; BLOCK_LEN] {
    let initial = state;
    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Computes one 64-byte ChaCha20 block for (`key`, `counter`, `nonce`).
#[must_use]
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    block_of(Key::new(key).state(counter, nonce))
}

/// Computes four consecutive ChaCha20 blocks for (`key`, `nonce`), at
/// counters `counter` through `counter + 3` (wrapping): the bytes of four
/// [`block`] calls, end to end.
#[must_use]
pub fn blocks4(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCKS4_LEN] {
    Key::new(key).blocks4(counter, nonce)
}

/// Encrypts or decrypts `data` in place (XOR with the keystream starting at
/// block `initial_counter`).
///
/// # Panics
///
/// Panics if the keystream counter would wrap (more than ~256 GiB under one
/// (key, nonce) pair), which would reuse keystream.
pub fn xor_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    Key::new(key).xor_in_place(nonce, initial_counter, data);
}

/// Encrypts `data`, returning a fresh buffer.
#[must_use]
pub fn encrypt(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &[u8],
) -> Vec<u8> {
    let mut out = data.to_vec();
    xor_in_place(key, nonce, initial_counter, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn test_key() -> [u8; KEY_LEN] {
        let mut k = [0u8; KEY_LEN];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block() {
        let key = test_key();
        let nonce = [0u8, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        assert_eq!(
            hex(&out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key = test_key();
        let nonce = [0u8, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&key, &nonce, 1, plaintext);
        assert_eq!(
            hex(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    // RFC 8439 Appendix A.1 test vector #1: all-zero key/nonce, counter 0.
    #[test]
    fn rfc8439_a1_vector_1() {
        let out = block(&[0u8; KEY_LEN], 0, &[0u8; NONCE_LEN]);
        assert_eq!(
            hex(&out),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
             da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
        );
    }

    // RFC 8439 Appendix A.1 test vector #2: counter 1.
    #[test]
    fn rfc8439_a1_vector_2() {
        let out = block(&[0u8; KEY_LEN], 1, &[0u8; NONCE_LEN]);
        assert_eq!(
            hex(&out),
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
             29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"
        );
    }

    // RFC 8439 Appendix A.1 test vector #5: all-zero key, counter 0, the
    // 96-bit nonce ending in 02.
    #[test]
    fn rfc8439_a1_vector_5() {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[11] = 2;
        let out = block(&[0u8; KEY_LEN], 0, &nonce);
        assert_eq!(
            hex(&out),
            "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7\
             8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d"
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let nonce = [7u8; NONCE_LEN];
        let msg: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let ct = encrypt(&key, &nonce, 0, &msg);
        assert_ne!(ct, msg);
        let pt = encrypt(&key, &nonce, 0, &ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let key = test_key();
        let a = encrypt(&key, &[1u8; NONCE_LEN], 0, &[0u8; 64]);
        let b = encrypt(&key, &[2u8; NONCE_LEN], 0, &[0u8; 64]);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_continuity() {
        // Encrypting 128 bytes at counter 0 equals two 64-byte encryptions at
        // counters 0 and 1.
        let key = test_key();
        let nonce = [3u8; NONCE_LEN];
        let msg = [0x5au8; 128];
        let whole = encrypt(&key, &nonce, 0, &msg);
        let first = encrypt(&key, &nonce, 0, &msg[..64]);
        let second = encrypt(&key, &nonce, 1, &msg[64..]);
        assert_eq!(&whole[..64], &first[..]);
        assert_eq!(&whole[64..], &second[..]);
    }

    /// The four blocks of `blocks4`, each computed alone by the scalar
    /// block function.
    fn four_blocks(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> Vec<u8> {
        (0..4)
            .flat_map(|lane| block(key, counter.wrapping_add(lane), nonce))
            .collect()
    }

    #[test]
    fn blocks4_lanes_wrap_like_four_blocks() {
        let key = test_key();
        let nonce = [0u8, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        for counter in [0, 1, u32::MAX - 3, u32::MAX - 2, u32::MAX - 1, u32::MAX] {
            assert_eq!(
                blocks4(&key, counter, &nonce).to_vec(),
                four_blocks(&key, counter, &nonce),
                "counter {counter}"
            );
        }
        // Lane 1 at counter 0 is the RFC 8439 §2.3.2 block.
        assert_eq!(
            hex(&blocks4(&key, 0, &nonce)[BLOCK_LEN..2 * BLOCK_LEN]),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn blocks4_equals_four_scalar_blocks(
            key in proptest::prelude::any::<[u8; KEY_LEN]>(),
            nonce in proptest::prelude::any::<[u8; NONCE_LEN]>(),
            counter in proptest::prelude::any::<u32>(),
            near_the_top in 0u32..4,
        ) {
            for counter in [counter, u32::MAX - near_the_top] {
                proptest::prop_assert_eq!(
                    blocks4(&key, counter, &nonce).to_vec(),
                    four_blocks(&key, counter, &nonce)
                );
            }
        }
    }

    #[test]
    fn xor_in_place_is_block_by_block_across_pass_edges() {
        let key = test_key();
        let nonce = [5u8; NONCE_LEN];
        for len in [0usize, 1, 63, 64, 65, 191, 192, 193, 255, 256, 257, 600] {
            let mut data: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            let mut expected = data.clone();
            for (i, chunk) in expected.chunks_mut(BLOCK_LEN).enumerate() {
                let ks = block(&key, 7 + i as u32, &nonce);
                xor(chunk, &ks);
            }
            xor_in_place(&key, &nonce, 7, &mut data);
            assert_eq!(data, expected, "length {len}");
        }
    }

    #[test]
    fn the_last_block_before_the_counter_wraps_is_usable() {
        // 64 bytes at u32::MAX is the last block: allowed, although the
        // four-block pass also computes three wrapped lanes it never uses.
        let key = test_key();
        let nonce = [0u8; NONCE_LEN];
        let mut data = [0u8; 64];
        xor_in_place(&key, &nonce, u32::MAX, &mut data);
        assert_eq!(data, block(&key, u32::MAX, &nonce));
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn counter_overflow_detected() {
        let key = test_key();
        let nonce = [0u8; NONCE_LEN];
        let mut data = [0u8; 65];
        xor_in_place(&key, &nonce, u32::MAX, &mut data);
    }
}
