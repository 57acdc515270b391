//! The ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//!
//! Provides the keystream generator behind both the AEAD construction in
//! [`crate::aead`] and the deterministic random generator in [`crate::rng`].
//!
//! [`block`] is the RFC's block function, one 64-byte block per call, in
//! plain scalar code: the oracle every test vector checks. The keystream
//! itself is made a *pass* at a time: several blocks whose rounds run side
//! by side, one vector lane per block, each lane with its own counter and
//! nonce. Two kernels make passes on x86-64. The SSE2 one (`sse2.rs`)
//! computes four blocks; SSE2 is part of the x86-64 baseline, so it needs
//! no detection and is the fallback everywhere. The AVX-512 one
//! (`avx512.rs`) computes sixteen, with native lane rotates, where the CPU
//! reports AVX-512F at run time (std caches the probe). Other targets call
//! [`block`] once per lane. Every kernel produces the bytes [`block`]
//! does, lane by lane.
//!
//! [`xor_in_place`] runs whole passes on the widest kernel the CPU has and
//! ends with the narrowest pass that covers what is left. The AEAD draws a
//! message's first two blocks, its *head*, from passes that serve several
//! messages at once (see [`crate::aead::Head`]). [`blocks4`] stays on four
//! consecutive blocks. The generator draws sixteen consecutive blocks a
//! refill, one wide pass or four narrow ones, after a first refill of
//! four. The AEAD and the generator
//! expand their key into state words once, in their constructors, and draw
//! every block from those.

#[cfg(target_arch = "x86_64")]
mod avx512;
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
/// Lanes of the narrowest pass: the SSE2 kernel's, and the scalar
/// fallback's.
const NARROW_LANES: usize = 4;
/// Lanes of the widest pass: the AVX-512 kernel's.
pub(crate) const MAX_LANES: usize = 16;
/// Bytes of the widest pass.
pub(crate) const PASS_LEN: usize = MAX_LANES * BLOCK_LEN;

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

/// Whether this CPU runs the AVX-512 kernel. Std caches the probe, so
/// asking per pass costs a load and a branch.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// Lanes of the widest pass this CPU runs: sixteen with AVX-512, four
/// without.
#[must_use]
pub(crate) fn widest_pass() -> usize {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        return MAX_LANES;
    }
    NARROW_LANES
}

/// Where one lane of a pass starts: its block counter and its nonce.
#[derive(Clone, Copy, Default)]
pub(crate) struct Lane {
    counter: u32,
    nonce: [u32; 3],
}

impl Lane {
    /// The block at `counter` under `nonce`.
    #[inline]
    pub(crate) fn new(counter: u32, nonce: &[u8; NONCE_LEN]) -> Self {
        Self {
            counter,
            nonce: words(nonce),
        }
    }
}

/// `N` lanes under `nonce` at consecutive counters from `counter` on,
/// each wrapping.
fn consecutive<const N: usize>(counter: u32, nonce: [u32; 3]) -> [Lane; N] {
    std::array::from_fn(|i| Lane {
        counter: counter.wrapping_add(i as u32),
        nonce,
    })
}

/// State words 12–15 of each of `lanes`, word-major: row `i` holds word
/// `12 + i` (the counter, then the nonce's three words) of every lane.
/// Lanes past `lanes.len()` are zero: a kernel computes them and the pass
/// drops them.
#[cfg(target_arch = "x86_64")]
fn lane_words<const N: usize>(lanes: &[Lane]) -> [[u32; N]; 4] {
    let mut rows = [[0u32; N]; 4];
    for (i, lane) in lanes.iter().enumerate() {
        rows[0][i] = lane.counter;
        for (row, word) in rows[1..].iter_mut().zip(lane.nonce) {
            row[i] = word;
        }
    }
    rows
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

    /// The initial state of `lane` under this key.
    fn state(&self, lane: &Lane) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.words);
        state[12] = lane.counter;
        state[13..].copy_from_slice(&lane.nonce);
        state
    }

    /// One narrow pass: the blocks of `lanes` (at most four), end to end,
    /// then the zero-state lanes that pad the pass.
    fn narrow_pass(&self, lanes: &[Lane], out: &mut [u8; BLOCKS4_LEN]) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: SSE2 is part of the x86-64 baseline, so every x86-64
            // CPU runs the `sse2` target feature.
            unsafe { sse2::blocks4(&self.words, &lane_words(lanes), out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        for (lane, bytes) in lanes.iter().zip(out.chunks_exact_mut(BLOCK_LEN)) {
            bytes.copy_from_slice(&block_of(self.state(lane)));
        }
    }

    /// Computes the block at each of `lanes` in one pass, end to end, into
    /// `out[..64 * lanes.len()]`. The pass is the narrowest kernel that
    /// covers the lanes; the rest of `out` is left unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` outnumber the widest pass, [`widest_pass`].
    pub(crate) fn pass(&self, lanes: &[Lane], out: &mut [u8; PASS_LEN]) {
        #[cfg(target_arch = "x86_64")]
        if lanes.len() > NARROW_LANES && has_avx512() {
            // SAFETY: `has_avx512()` detected AVX-512F on this CPU.
            return unsafe { avx512::blocks16(&self.words, &lane_words(lanes), out) };
        }
        assert!(lanes.len() <= NARROW_LANES, "more lanes than one pass");
        let narrow = out.first_chunk_mut().expect("a pass holds four blocks");
        self.narrow_pass(lanes, narrow);
    }

    /// The blocks at `counter`, `counter + 1`, `counter + 2` and
    /// `counter + 3` (each wrapping), end to end: [`blocks4`] under this
    /// key.
    pub(crate) fn blocks4(&self, counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCKS4_LEN] {
        let lanes: [Lane; NARROW_LANES] = consecutive(counter, words(nonce));
        let mut out = [0u8; BLOCKS4_LEN];
        self.narrow_pass(&lanes, &mut out);
        out
    }

    /// The sixteen blocks at `counter` through `counter + 15` (each
    /// wrapping), end to end in `out`: one AVX-512 pass where the CPU has
    /// it, four narrow passes elsewhere.
    pub(crate) fn blocks16(&self, counter: u32, nonce: &[u8; NONCE_LEN], out: &mut [u8; PASS_LEN]) {
        let lanes: [Lane; MAX_LANES] = consecutive(counter, words(nonce));
        if widest_pass() == MAX_LANES {
            return self.pass(&lanes, out);
        }
        let (quarters, _) = out.as_chunks_mut::<BLOCKS4_LEN>();
        for (group, quarter) in lanes.chunks_exact(NARROW_LANES).zip(quarters) {
            self.narrow_pass(group, quarter);
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
        let nonce = words(nonce);
        let mut counter = initial_counter;
        let mut keystream = [0u8; PASS_LEN];
        for chunk in data.chunks_mut(widest_pass() * BLOCK_LEN) {
            let blocks = chunk.len().div_ceil(BLOCK_LEN);
            let lanes: [Lane; MAX_LANES] = consecutive(counter, nonce);
            self.pass(&lanes[..blocks], &mut keystream);
            xor(chunk, &keystream);
            counter = counter.wrapping_add(blocks as u32);
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
    block_of(Key::new(key).state(&Lane::new(counter, nonce)))
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

    #[test]
    fn blocks16_lanes_are_sixteen_blocks_in_counter_order() {
        let key = test_key();
        let nonce = [0u8, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        for counter in [0, 1, 77, u32::MAX - 15, u32::MAX - 6, u32::MAX] {
            let mut out = [0u8; PASS_LEN];
            Key::new(&key).blocks16(counter, &nonce, &mut out);
            let blocks: Vec<u8> = (0..16)
                .flat_map(|i| block(&key, counter.wrapping_add(i), &nonce))
                .collect();
            assert_eq!(out.to_vec(), blocks, "counter {counter}");
        }
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

    /// Lane `i` of a pass: a counter and a nonce drawn from `seed` and
    /// `i`, the counters at and around `u32::MAX` on every fourth lane.
    fn arbitrary_lanes<const N: usize>(seed: u64) -> [(u32, [u8; NONCE_LEN]); N] {
        let mut rng = crate::rng::ChaChaRng::from_seed_u64(seed);
        std::array::from_fn(|i| {
            let counter = if i % 4 == 1 {
                u32::MAX - (i as u32 / 4)
            } else {
                rng.next_u64() as u32
            };
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            (counter, nonce)
        })
    }

    /// The lanes' words as a kernel takes them, and the scalar block of
    /// each lane, end to end.
    #[cfg(target_arch = "x86_64")]
    fn kernel_case<const N: usize>(key: &[u8; KEY_LEN], seed: u64) -> ([[u32; N]; 4], Vec<u8>) {
        let lanes = arbitrary_lanes::<N>(seed);
        let words = lane_words(&lanes.map(|(counter, nonce)| Lane::new(counter, &nonce)));
        let blocks = lanes
            .iter()
            .flat_map(|(counter, nonce)| block(key, *counter, nonce))
            .collect();
        (words, blocks)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_sse2_kernel_equals_the_scalar_block_lane_by_lane() {
        for seed in 0..64 {
            let key: [u8; KEY_LEN] = std::array::from_fn(|i| (i as u64 * 31 + seed) as u8);
            let (words, expected) = kernel_case::<4>(&key, seed);
            let mut got = [0u8; BLOCKS4_LEN];
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { sse2::blocks4(&Key::new(&key).words, &words, &mut got) };
            for lane in 0..4 {
                let at = lane * BLOCK_LEN..(lane + 1) * BLOCK_LEN;
                assert_eq!(got[at.clone()], expected[at], "seed {seed}, lane {lane}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_avx512_kernel_equals_the_scalar_block_lane_by_lane() {
        if !has_avx512() {
            println!("skipped: this CPU has no AVX-512F, so only the SSE2 kernel runs here");
            return;
        }
        for seed in 0..64 {
            let key: [u8; KEY_LEN] = std::array::from_fn(|i| (i as u64 * 17 + seed) as u8);
            let (words, expected) = kernel_case::<MAX_LANES>(&key, seed);
            let mut got = [0u8; PASS_LEN];
            // SAFETY: `has_avx512()` detected AVX-512F on this CPU.
            unsafe { avx512::blocks16(&Key::new(&key).words, &words, &mut got) };
            for lane in 0..MAX_LANES {
                let at = lane * BLOCK_LEN..(lane + 1) * BLOCK_LEN;
                assert_eq!(got[at.clone()], expected[at], "seed {seed}, lane {lane}");
            }
        }
    }

    #[test]
    fn a_pass_of_any_width_equals_the_scalar_block_lane_by_lane() {
        // Through the dispatch: the narrow kernel up to four lanes, the
        // widest this CPU has past that.
        let key = test_key();
        let lanes = arbitrary_lanes::<MAX_LANES>(9);
        for n in 0..=widest_pass() {
            let pass: Vec<Lane> = lanes[..n]
                .iter()
                .map(|(counter, nonce)| Lane::new(*counter, nonce))
                .collect();
            let expected: Vec<u8> = lanes[..n]
                .iter()
                .flat_map(|(counter, nonce)| block(&key, *counter, nonce))
                .collect();
            let mut keystream = [0u8; PASS_LEN];
            Key::new(&key).pass(&pass, &mut keystream);
            assert_eq!(keystream[..expected.len()], expected, "{n} lanes");
        }
    }

    #[test]
    fn xor_in_place_is_block_by_block_across_pass_edges() {
        let key = test_key();
        let nonce = [5u8; NONCE_LEN];
        for len in [
            0usize, 1, 63, 64, 65, 191, 192, 193, 255, 256, 257, 600, 1023, 1024, 1025, 1280, 1281,
            2048, 2300,
        ] {
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
