//! SHA-256 (FIPS 180-4).
//!
//! Used for enclave measurements, attestation report data, certificates
//! and as the hash underlying HMAC/HKDF. Incremental [`Sha256`] hasher plus
//! a one-shot [`digest`] convenience.
//!
//! The compression function runs on the x86 SHA extensions (the private
//! `shani` module) where the CPU reports SHA, SSSE3 and SSE4.1 at run time
//! (std caches the probe), for every block, from the first: the kernel
//! needs no set-up, so there is no length below which the scalar rounds
//! are cheaper. The scalar rounds are the fallback on every other CPU and
//! the oracle the kernel is tested against.

#[cfg(target_arch = "x86_64")]
mod shani;

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use gendpr_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, true);
    }

    /// Consumes the hasher and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finish(true)
    }

    /// [`Self::update`], on the SHA-NI kernel where `shani` is set and the
    /// CPU runs it.
    fn absorb(&mut self, data: &[u8], shani: bool) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                compress(&mut self.state, &[block], shani);
                self.buffered = 0;
            }
        }
        let (blocks, rest) = input.as_chunks::<BLOCK_LEN>();
        compress(&mut self.state, blocks, shani);
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// [`Self::finalize`], its padding blocks compressed as
    /// [`Self::absorb`] would with `shani`.
    fn finish(mut self, shani: bool) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 bytes into a block, then the 64-bit
        // big-endian message length.
        let mut padding = [0u8; BLOCK_LEN + 8];
        padding[0] = 0x80;
        let zeros = (BLOCK_LEN + 55 - self.buffered) % BLOCK_LEN;
        padding[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.absorb(&padding[..9 + zeros], shani);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Whether this CPU runs the `shani` kernel. Std caches the probe, so
/// asking per call costs a load and a branch.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_shani() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Runs the compression function over each of `blocks` in turn: on the
/// SHA-NI kernel where `shani` is set and the CPU runs it, else in scalar
/// rounds.
fn compress(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]], shani: bool) {
    #[cfg(target_arch = "x86_64")]
    if shani && has_shani() {
        // SAFETY: `has_shani()` detected SHA, SSSE3 and SSE4.1 on this CPU
        // (SSE2 is part of the x86-64 baseline).
        return unsafe { shani::compress(state, blocks) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = shani;
    for block in blocks {
        compress_scalar(state, block);
    }
}

/// The FIPS 180-4 compression function in scalar rounds.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// let d = gendpr_crypto::sha256::digest(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
#[must_use]
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One compression width, called directly rather than through the
    /// dispatch, which on a CPU with SHA-NI never reaches the scalar
    /// rounds.
    #[derive(Debug, Clone, Copy)]
    enum Width {
        Scalar,
        #[cfg(target_arch = "x86_64")]
        ShaNi,
    }

    impl Width {
        /// Every width this CPU runs, the scalar oracle first. A vector
        /// width the CPU lacks is left out and named on stdout.
        fn detected() -> Vec<Width> {
            #[allow(unused_mut)]
            let mut widths = vec![Width::Scalar];
            #[cfg(target_arch = "x86_64")]
            if has_shani() {
                widths.push(Width::ShaNi);
            } else {
                println!("skipped: this CPU does not run the ShaNi kernel");
            }
            widths
        }

        /// The digest of `pieces`' bytes, fed one `update` each, every
        /// block compressed at this width.
        fn digest<'a>(self, pieces: impl IntoIterator<Item = &'a [u8]>) -> [u8; DIGEST_LEN] {
            let shani = match self {
                Width::Scalar => false,
                #[cfg(target_arch = "x86_64")]
                Width::ShaNi => true,
            };
            let mut h = Sha256::new();
            for piece in pieces {
                h.absorb(piece, shani);
            }
            h.finish(shani)
        }
    }

    /// `data`'s digest, through the dispatching [`digest`] and on every
    /// width, is `expected`.
    fn assert_digest(data: &[u8], expected: &str) {
        assert_eq!(hex(&digest(data)), expected, "dispatch");
        for width in Width::detected() {
            assert_eq!(hex(&width.digest([data])), expected, "{width:?}");
        }
    }

    // NIST / FIPS 180-4 example vectors.
    #[test]
    fn empty_message() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), digest(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn exact_block_boundary_lengths() {
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Compare against splitting at every possible point.
            let mut h2 = Sha256::new();
            h2.update(&data[..len / 2]);
            h2.update(&data[len / 2..]);
            assert_eq!(h.finalize(), h2.finalize(), "len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Messages of 0–1,000 bytes, whole and in random pieces of 1–150
        /// bytes (so a piece may complete a buffered block, cover several,
        /// or neither): every width and the dispatching `update` give the
        /// scalar rounds' digest.
        #[test]
        fn every_width_equals_the_scalar_digest(
            data in proptest::collection::vec(any::<u8>(), 0..1001),
            chunks in proptest::collection::vec(1usize..150, 1..8),
        ) {
            let expected = Width::Scalar.digest([&data[..]]);
            let mut pieces = Vec::new();
            let mut rest = &data[..];
            for &n in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, tail) = rest.split_at(n.min(rest.len()));
                pieces.push(piece);
                rest = tail;
            }
            for width in Width::detected() {
                prop_assert_eq!(width.digest([&data[..]]), expected, "{:?}, whole", width);
                prop_assert_eq!(width.digest(pieces.iter().copied()), expected, "{:?}, pieces", width);
            }
            let mut h = Sha256::new();
            for piece in &pieces {
                h.update(piece);
            }
            prop_assert_eq!(h.finalize(), expected);
        }
    }
}
