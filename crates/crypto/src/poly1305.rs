//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Implemented in radix 2^64: the accumulator is two 64-bit limbs and a
//! few bits above 2^128, and `r` two 64-bit limbs. The clamp clears the
//! low two bits of `r`'s upper limb, so a product past 2^128 folds back
//! through `r1 + r1 / 4` (`5 · r1 / 4`), and a 16-byte block costs four
//! 64 × 64 → 128-bit products and one 64 × 64 → 64: the step the
//! channels' short frames pay per block. The final reduction selects
//! between `h` and `h − p` with a mask, never a branch on the data.
//!
//! Bulk input runs eight blocks a step where the CPU reports AVX-512F and
//! AVX-512 IFMA at run time (std caches the probe): the private `avx512`
//! module keeps eight accumulators over the powers `r … r⁸` in radix 2^44,
//! whose limb products fit IFMA's 52-bit multiplier, converts the state
//! into that radix on entry and back on return, and folds the lanes into
//! the one state at the end of each [`Poly1305::update`] call. A call
//! takes that path from `VECTOR_MIN_LEN` (384) bytes on, since the powers
//! cost seven products to make; shorter input, the blocks past the last
//! whole group of eight and every other CPU take the scalar block step,
//! which is also the oracle the kernel is tested against. Both compute the
//! same polynomial modulo `2^130 − 5`, so the tag does not depend on the
//! path.

#[cfg(target_arch = "x86_64")]
mod avx512;

/// Key length in bytes (16-byte `r` part plus 16-byte `s` part).
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// Bytes the vector kernel takes a step: eight blocks.
#[cfg(target_arch = "x86_64")]
const GROUP_LEN: usize = 8 * BLOCK_LEN;
/// The shortest input a [`Poly1305::update`] call hands the vector kernel
/// (where the CPU has one). Below it the powers of `r` cost about what
/// the kernel saves: a 256-byte tag took ≈ 184 ns on the vector path
/// against ≈ 149 ns scalar, a 384-byte one ≈ 199 against ≈ 209 ns, a
/// 512-byte one ≈ 200 against ≈ 270 ns (2-vCPU AVX-512 IFMA host).
const VECTOR_MIN_LEN: usize = 384;

fn le64(b: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&b[..8]);
    u64::from_le_bytes(word)
}

/// The two little-endian words of a block shorter than 16 bytes, zero
/// padded — gathered a byte at a time, since a copy of a variable length
/// this short costs more as a `memcpy` call than the block step.
#[inline]
fn partial_words(bytes: &[u8]) -> [u64; 2] {
    let mut words = [0u64; 2];
    for (i, &byte) in bytes.iter().enumerate().take(BLOCK_LEN - 1) {
        words[i / 8] |= u64::from(byte) << (8 * (i % 8));
    }
    words
}

/// A field element modulo `2^130 − 5`, partially reduced: `h0 + 2^64 · h1
/// + 2^128 · h2`, with `h2` at most 4 between block steps.
type State = [u64; 3];

/// Whether this CPU runs the `avx512` kernel. Std caches the probe, so
/// asking per call costs a load and a branch.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_ifma() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// Incremental Poly1305 state.
///
/// A Poly1305 key must never be reused across messages; the AEAD in
/// [`crate::aead`] derives a fresh one per nonce.
#[derive(Clone)]
pub struct Poly1305 {
    /// The clamped `r`, low limb first.
    r: [u64; 2],
    /// `r1 + r1 / 4`: `r1 · 2^128` folded back modulo `2^130 − 5`.
    s1: u64,
    pad: [u64; 2],
    h: State,
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `r` and `pad` are the one-time key, and the accumulator is a
        // function of it.
        f.debug_struct("Poly1305").finish_non_exhaustive()
    }
}

impl Poly1305 {
    /// Initializes the authenticator with a 32-byte one-time key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r per the RFC.
        let r0 = le64(&key[0..8]) & 0x0fff_fffc_0fff_ffff;
        let r1 = le64(&key[8..16]) & 0x0fff_fffc_0fff_fffc;
        Self {
            r: [r0, r1],
            s1: r1 + (r1 >> 2),
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            h: [0; 3],
            buffer: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// `h ← (h + block + hibit · 2^128) · r mod 2^130 − 5`, partially
    /// reduced.
    #[inline]
    fn process_block(&mut self, block: &[u8; BLOCK_LEN], hibit: u64) {
        self.process_words([le64(&block[0..8]), le64(&block[8..16])], hibit);
    }

    /// [`Self::process_block`] of the block whose little-endian words are
    /// `m`.
    #[inline]
    fn process_words(&mut self, m: [u64; 2], hibit: u64) {
        let [r0, r1] = self.r.map(u128::from);
        let s1 = u128::from(self.s1);
        let [h0, h1, h2] = self.h;
        // h + m: h2 ≤ 4 plus the pad bit and a carry, at most 6.
        let (h0, c) = h0.overflowing_add(m[0]);
        let (h1, c1) = h1.carrying_add(m[1], c);
        let h2 = h2 + hibit + u64::from(c1);
        let (h0, h1) = (u128::from(h0), u128::from(h1));

        // r0, r1 < 2^60 and s1 < 2^61, so each sum stays below 2^126.
        let d0 = h0 * r0 + h1 * s1;
        let d1 = h0 * r1 + h1 * r0 + u128::from(h2) * s1 + (d0 >> 64);
        // h2 · r0 < 2^63: the part at 2^128, plus what d1 carries there.
        let d2 = h2 * self.r[0] + (d1 >> 64) as u64;

        // Fold everything at and above 2^130 back in, times 5.
        let fold = (d2 & !3) + (d2 >> 2);
        let (h0, c) = (d0 as u64).overflowing_add(fold);
        let (h1, c) = (d1 as u64).carrying_add(0, c);
        self.h = [h0, h1, (d2 & 3) + u64::from(c)];
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.update_from(data, VECTOR_MIN_LEN);
    }

    /// Absorbs `data`, then zeros up to the next block boundary: RFC 8439
    /// §2.8's `pad16`, without a second call to feed the padding. With no
    /// block partly buffered (the AEAD's case) the last partial block goes
    /// straight to the block step.
    pub fn update_padded(&mut self, data: &[u8]) {
        if self.buffered > 0 {
            self.update(data);
            if self.buffered > 0 {
                self.buffer[self.buffered..].fill(0);
                let block = self.buffer;
                self.process_block(&block, 1);
                self.buffered = 0;
            }
            return;
        }
        let rest = data.len() % BLOCK_LEN;
        let (whole, rest) = data.split_at(data.len() - rest);
        self.update_from(whole, VECTOR_MIN_LEN);
        if !rest.is_empty() {
            self.process_words(partial_words(rest), 1);
        }
    }

    /// [`Self::update`], handing the whole groups of eight blocks to the
    /// vector kernel, where the CPU runs it, when at least `vector_from`
    /// bytes remain once the buffered block is complete.
    #[inline(always)]
    fn update_from(&mut self, mut data: &[u8], vector_from: usize) {
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.process_block(&block, 1);
                self.buffered = 0;
            }
        }
        #[cfg(target_arch = "x86_64")]
        if data.len() >= vector_from.max(GROUP_LEN) && has_ifma() {
            let (groups, rest) = data.as_chunks::<GROUP_LEN>();
            // SAFETY: `has_ifma()` detected AVX-512F and AVX-512 IFMA on
            // this CPU.
            self.h = unsafe { avx512::absorb(self.h, self.r, groups) };
            data = rest;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = vector_from;
        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        for block in blocks {
            self.process_block(block, 1);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Consumes the state and returns the 16-byte tag.
    #[must_use]
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // The message's last bytes, then a 1 byte, then zeros.
            let mut m = partial_words(&self.buffer[..self.buffered]);
            m[self.buffered / 8] |= 1 << (8 * (self.buffered % 8));
            self.process_words(m, 0);
        }
        // h2 ≤ 4, and h2 = 4 only with h1 : h0 below the last fold, so
        // h < 2p and one conditional subtraction reduces it fully.
        let [h0, h1, h2] = self.h;

        // g = h + 5 − 2^130 = h − p; take it when it did not borrow, that
        // is when h + 5 reaches 2^130.
        let (g0, c) = h0.overflowing_add(5);
        let (g1, c) = h1.carrying_add(0, c);
        let g2 = h2 + u64::from(c);
        let take_g = 0u64.wrapping_sub(g2 >> 2); // all ones when h ≥ p
        let h0 = (h0 & !take_g) | (g0 & take_g);
        let h1 = (h1 & !take_g) | (g1 & take_g);

        // tag = (h + s) mod 2^128.
        let (lo, c) = h0.overflowing_add(self.pad[0]);
        let (hi, _) = h1.carrying_add(self.pad[1], c);

        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }

    /// One-shot tag computation.
    #[must_use]
    pub fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Self::new(key);
        p.update(data);
        p.finalize()
    }
}

/// The radix-2^26 implementation ("donna" 32-bit schedule) this module
/// once replaced, kept as the oracle the radix-2^64 tags are checked
/// against.
#[cfg(test)]
mod radix26 {
    use super::{BLOCK_LEN, KEY_LEN, TAG_LEN};

    const MASK26: u64 = 0x3ff_ffff;

    fn le32(b: &[u8]) -> u64 {
        u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(super) struct Poly1305 {
        r: [u64; 5],
        s: [u64; 4],
        h: [u64; 5],
        buffer: [u8; BLOCK_LEN],
        buffered: usize,
    }

    impl Poly1305 {
        pub(super) fn new(key: &[u8; KEY_LEN]) -> Self {
            let r0 = le32(&key[0..4]) & 0x3ff_ffff;
            let r1 = (le32(&key[3..7]) >> 2) & 0x3ff_ff03;
            let r2 = (le32(&key[6..10]) >> 4) & 0x3ff_c0ff;
            let r3 = (le32(&key[9..13]) >> 6) & 0x3f0_3fff;
            let r4 = (le32(&key[12..16]) >> 8) & 0x00f_ffff;
            let s = [
                le32(&key[16..20]),
                le32(&key[20..24]),
                le32(&key[24..28]),
                le32(&key[28..32]),
            ];
            Self {
                r: [r0, r1, r2, r3, r4],
                s,
                h: [0; 5],
                buffer: [0; BLOCK_LEN],
                buffered: 0,
            }
        }

        fn process_block(&mut self, block: &[u8; BLOCK_LEN], hibit: u64) {
            let [r0, r1, r2, r3, r4] = self.r;
            let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);

            self.h[0] += le32(&block[0..4]) & MASK26;
            self.h[1] += (le32(&block[3..7]) >> 2) & MASK26;
            self.h[2] += (le32(&block[6..10]) >> 4) & MASK26;
            self.h[3] += (le32(&block[9..13]) >> 6) & MASK26;
            self.h[4] += (le32(&block[12..16]) >> 8) | hibit;

            let [h0, h1, h2, h3, h4] = self.h;
            let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
            let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
            let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
            let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
            let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

            let mut c = d0 >> 26;
            self.h[0] = d0 & MASK26;
            let d1 = d1 + c;
            c = d1 >> 26;
            self.h[1] = d1 & MASK26;
            let d2 = d2 + c;
            c = d2 >> 26;
            self.h[2] = d2 & MASK26;
            let d3 = d3 + c;
            c = d3 >> 26;
            self.h[3] = d3 & MASK26;
            let d4 = d4 + c;
            c = d4 >> 26;
            self.h[4] = d4 & MASK26;
            self.h[0] += c * 5;
            c = self.h[0] >> 26;
            self.h[0] &= MASK26;
            self.h[1] += c;
        }

        pub(super) fn update(&mut self, mut data: &[u8]) {
            if self.buffered > 0 {
                let take = (BLOCK_LEN - self.buffered).min(data.len());
                self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
                self.buffered += take;
                data = &data[take..];
                if self.buffered == BLOCK_LEN {
                    let block = self.buffer;
                    self.process_block(&block, 1 << 24);
                    self.buffered = 0;
                }
            }
            while data.len() >= BLOCK_LEN {
                let mut block = [0u8; BLOCK_LEN];
                block.copy_from_slice(&data[..BLOCK_LEN]);
                self.process_block(&block, 1 << 24);
                data = &data[BLOCK_LEN..];
            }
            if !data.is_empty() {
                self.buffer[..data.len()].copy_from_slice(data);
                self.buffered = data.len();
            }
        }

        pub(super) fn finalize(mut self) -> [u8; TAG_LEN] {
            if self.buffered > 0 {
                let mut block = [0u8; BLOCK_LEN];
                block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
                block[self.buffered] = 1;
                self.process_block(&block, 0);
            }
            let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.h;
            let mut c = h1 >> 26;
            h1 &= MASK26;
            h2 += c;
            c = h2 >> 26;
            h2 &= MASK26;
            h3 += c;
            c = h3 >> 26;
            h3 &= MASK26;
            h4 += c;
            c = h4 >> 26;
            h4 &= MASK26;
            h0 += c * 5;
            c = h0 >> 26;
            h0 &= MASK26;
            h1 += c;

            let mut g0 = h0.wrapping_add(5);
            c = g0 >> 26;
            g0 &= MASK26;
            let mut g1 = h1.wrapping_add(c);
            c = g1 >> 26;
            g1 &= MASK26;
            let mut g2 = h2.wrapping_add(c);
            c = g2 >> 26;
            g2 &= MASK26;
            let mut g3 = h3.wrapping_add(c);
            c = g3 >> 26;
            g3 &= MASK26;
            let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

            let take_g = ((g4 >> 63) ^ 1) & 1;
            let mask = take_g.wrapping_neg();
            h0 = (g0 & mask) | (h0 & !mask);
            h1 = (g1 & mask) | (h1 & !mask);
            h2 = (g2 & mask) | (h2 & !mask);
            h3 = (g3 & mask) | (h3 & !mask);
            h4 = ((g4 & MASK26) & mask) | (h4 & !mask);

            let f0 = (h0 | (h1 << 26)) & 0xffff_ffff;
            let f1 = ((h1 >> 6) | (h2 << 20)) & 0xffff_ffff;
            let f2 = ((h2 >> 12) | (h3 << 14)) & 0xffff_ffff;
            let f3 = ((h3 >> 18) | (h4 << 8)) & 0xffff_ffff;

            let mut acc = f0 + self.s[0];
            let w0 = acc as u32;
            acc = (acc >> 32) + f1 + self.s[1];
            let w1 = acc as u32;
            acc = (acc >> 32) + f2 + self.s[2];
            let w2 = acc as u32;
            acc = (acc >> 32) + f3 + self.s[3];
            let w3 = acc as u32;

            let mut tag = [0u8; TAG_LEN];
            tag[0..4].copy_from_slice(&w0.to_le_bytes());
            tag[4..8].copy_from_slice(&w1.to_le_bytes());
            tag[8..12].copy_from_slice(&w2.to_le_bytes());
            tag[12..16].copy_from_slice(&w3.to_le_bytes());
            tag
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn debug_does_not_leak_the_one_time_key() {
        let key: [u8; KEY_LEN] = std::array::from_fn(|i| i as u8 + 1);
        let mut mac = Poly1305::new(&key);
        mac.update(b"message");
        let shown = format!("{mac:?}");
        assert_eq!(shown, "Poly1305 { .. }");
        for limb in mac.r.iter().chain(&mac.pad) {
            assert!(!shown.contains(&limb.to_string()), "{shown}");
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn oracle(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = radix26::Poly1305::new(key);
        p.update(data);
        p.finalize()
    }

    const IETF_TEXT: &[u8] = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";

    /// `(r ‖ s, message, tag)` in hex (the message is hex unless it is
    /// raw text): RFC 8439 §2.5.2 and the Poly1305 vectors of appendix A.3.
    fn rfc_vectors() -> Vec<([u8; KEY_LEN], Vec<u8>, &'static str)> {
        let key = |hex_key: &str| {
            let mut key = [0u8; KEY_LEN];
            key.copy_from_slice(&unhex(hex_key));
            key
        };
        let zeros = "00000000000000000000000000000000";
        let r1 = format!("01{}", &zeros[2..]);
        let r2 = format!("02{}", &zeros[2..]);
        let r104 = "01000000000000000400000000000000";
        vec![
            // §2.5.2.
            (
                key("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"),
                b"Cryptographic Forum Research Group".to_vec(),
                "a8061dc1305136c6c22b8baf0c0127a9",
            ),
            // A.3 #1: zero key, zero message.
            (key(&zeros.repeat(2)), vec![0; 64], zeros),
            // #2: r = 0, so the tag is s.
            (
                key(&format!("{zeros}36e5f6b5c5e06070f0efca96227a863e")),
                IETF_TEXT.to_vec(),
                "36e5f6b5c5e06070f0efca96227a863e",
            ),
            // #3: s = 0.
            (
                key(&format!("36e5f6b5c5e06070f0efca96227a863e{zeros}")),
                IETF_TEXT.to_vec(),
                "f3477e7cd95417af89a6b8794c310cf0",
            ),
            // #4.
            (
                key("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0"),
                b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe."
                    .to_vec(),
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            // #5: h reaches p exactly.
            (
                key(&format!("{r2}{zeros}")),
                unhex("ffffffffffffffffffffffffffffffff"),
                "03000000000000000000000000000000",
            ),
            // #6: the s addition carries out of 128 bits.
            (
                key(&format!("{r2}ffffffffffffffffffffffffffffffff")),
                unhex("02000000000000000000000000000000"),
                "03000000000000000000000000000000",
            ),
            // #7: carry propagation in the full reduction.
            (
                key(&format!("{r1}{zeros}")),
                unhex(
                    "ffffffffffffffffffffffffffffffff\
                     f0ffffffffffffffffffffffffffffff\
                     11000000000000000000000000000000",
                ),
                "05000000000000000000000000000000",
            ),
            // #8: h − p ends at zero.
            (
                key(&format!("{r1}{zeros}")),
                unhex(
                    "ffffffffffffffffffffffffffffffff\
                     fbfefefefefefefefefefefefefefefe\
                     01010101010101010101010101010101",
                ),
                zeros,
            ),
            // #9: h = 2^130 − 6 stays unreduced.
            (
                key(&format!("{r2}{zeros}")),
                unhex("fdffffffffffffffffffffffffffffff"),
                "faffffffffffffffffffffffffffffff",
            ),
            // #10 and #11: the 2^64 limb boundary.
            (
                key(&format!("{r104}{zeros}")),
                unhex(
                    "e33594d7505e43b90000000000000000\
                     3394d7505e4379cd0100000000000000\
                     00000000000000000000000000000000\
                     01000000000000000000000000000000",
                ),
                "14000000000000005500000000000000",
            ),
            (
                key(&format!("{r104}{zeros}")),
                unhex(
                    "e33594d7505e43b90000000000000000\
                     3394d7505e4379cd0100000000000000\
                     00000000000000000000000000000000",
                ),
                "13000000000000000000000000000000",
            ),
        ]
    }

    /// One dispatch width, called directly rather than through
    /// [`Poly1305::update`]'s threshold.
    #[derive(Debug, Clone, Copy)]
    enum Width {
        Scalar,
        #[cfg(target_arch = "x86_64")]
        Avx512Ifma,
    }

    impl Width {
        /// Every width this CPU runs, the scalar one first. A vector width
        /// the CPU lacks is left out and named on stdout.
        fn detected() -> Vec<Width> {
            #[allow(unused_mut)]
            let mut widths = vec![Width::Scalar];
            #[cfg(target_arch = "x86_64")]
            if has_ifma() {
                widths.push(Width::Avx512Ifma);
            } else {
                println!("skipped: this CPU does not run the Avx512Ifma kernel");
            }
            widths
        }

        /// The tag of `pieces`' bytes fed one `update` each, every whole
        /// group of eight blocks of a piece to this width's kernel.
        fn mac<'a>(
            self,
            key: &[u8; KEY_LEN],
            pieces: impl IntoIterator<Item = &'a [u8]>,
        ) -> [u8; TAG_LEN] {
            let vector_from = match self {
                Width::Scalar => usize::MAX,
                #[cfg(target_arch = "x86_64")]
                Width::Avx512Ifma => GROUP_LEN,
            };
            let mut p = Poly1305::new(key);
            for piece in pieces {
                p.update_from(piece, vector_from);
            }
            p.finalize()
        }
    }

    #[test]
    fn rfc8439_vectors() {
        for (i, (key, msg, tag)) in rfc_vectors().into_iter().enumerate() {
            assert_eq!(hex(&Poly1305::mac(&key, &msg)), tag, "vector {i}");
            assert_eq!(hex(&oracle(&key, &msg)), tag, "oracle, vector {i}");
            for width in Width::detected() {
                assert_eq!(
                    hex(&width.mac(&key, [&msg[..]])),
                    tag,
                    "{width:?}, vector {i}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_powers_are_r_to_the_one_through_eight() {
        use avx512::{carry_44, mul_44, powers, split_44, MASK42, MASK44};
        let key: [u8; KEY_LEN] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) | 0x0f);
        let p = Poly1305::new(&key);
        let r = split_44([p.r[0], p.r[1], 0]);
        let mut power = r;
        for (k, got) in powers(p.r).iter().enumerate() {
            assert_eq!(*got, carry_44(power), "r^{}", k + 1);
            assert!(got[0] <= MASK44 && got[1] <= MASK44 && got[2] <= MASK42);
            power = mul_44(power, r, [20 * r[1], 20 * r[2]]);
        }
    }

    #[test]
    fn a_padded_update_absorbs_the_zeros_of_pad16() {
        let key: [u8; KEY_LEN] = std::array::from_fn(|i| (i as u8).wrapping_mul(29) ^ 0x5a);
        let data: Vec<u8> = (0..70u8).collect();
        for len in 0..data.len() {
            let mut padded = Poly1305::new(&key);
            padded.update_padded(&data[..len]);
            padded.update_padded(&data[len..]);
            let mut plain = Poly1305::new(&key);
            for piece in [&data[..len], &data[len..]] {
                plain.update(piece);
                plain.update(&[0; BLOCK_LEN][..(BLOCK_LEN - piece.len() % BLOCK_LEN) % BLOCK_LEN]);
            }
            assert_eq!(padded.finalize(), plain.finalize(), "split at {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i * 7 + 1) as u8;
        }
        let msg: Vec<u8> = (0..255u8).collect();
        for chunk in [1usize, 5, 15, 16, 17, 100] {
            let mut p = Poly1305::new(&key);
            for piece in msg.chunks(chunk) {
                p.update(piece);
            }
            assert_eq!(p.finalize(), Poly1305::mac(&key, &msg), "chunk {chunk}");
        }
    }

    /// Splits `data` into pieces whose lengths cycle through `chunks`.
    fn pieces<'a>(data: &'a [u8], chunks: &[usize]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        let mut rest = data;
        for &n in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(n.min(rest.len()));
            out.push(piece);
            rest = tail;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random keys (half of them with every `r` and `s` bit the clamp
        /// leaves set), messages of 0–300 bytes, a share of them `0xff`
        /// so the accumulator runs near its limbs' bounds, fed whole and
        /// in random chunks: the tag is the radix-2^26 oracle's, bit for
        /// bit.
        #[test]
        fn tags_equal_the_radix26_oracle(
            key in any::<[u8; KEY_LEN]>(),
            saturated_key in any::<bool>(),
            data in proptest::collection::vec(any::<u8>(), 0..301),
            ff_share in 0u8..4,
            chunks in proptest::collection::vec(1usize..40, 1..20),
        ) {
            let key = if saturated_key { [0xff; KEY_LEN] } else { key };
            let data = saturate(&data, ff_share);
            let tag = oracle(&key, &data);
            prop_assert_eq!(Poly1305::mac(&key, &data), tag);
            let mut p = Poly1305::new(&key);
            for piece in pieces(&data, &chunks) {
                p.update(piece);
            }
            prop_assert_eq!(p.finalize(), tag);
        }

        /// Messages of 0–4,100 bytes under arbitrary (or saturated) keys,
        /// fed in pieces of 1–700 bytes, so one message mixes pieces below
        /// and above both the kernel's group and `VECTOR_MIN_LEN` and a
        /// piece can start with a partly buffered block: every width, and
        /// the dispatching `update`, give the scalar oracle's tag.
        #[test]
        fn every_width_equals_the_scalar_tag(
            key in any::<[u8; KEY_LEN]>(),
            saturated_key in any::<bool>(),
            data in proptest::collection::vec(any::<u8>(), 0..4101),
            ff_share in 0u8..4,
            chunks in proptest::collection::vec(1usize..700, 1..8),
        ) {
            let key = if saturated_key { [0xff; KEY_LEN] } else { key };
            let data = saturate(&data, ff_share);
            let tag = oracle(&key, &data);
            let split = pieces(&data, &chunks);
            for width in Width::detected() {
                prop_assert_eq!(width.mac(&key, [&data[..]]), tag, "{:?}, whole", width);
                prop_assert_eq!(width.mac(&key, split.iter().copied()), tag, "{:?}, pieces", width);
            }
            let mut p = Poly1305::new(&key);
            for piece in &split {
                p.update(piece);
            }
            prop_assert_eq!(p.finalize(), tag);
        }
    }

    /// `data` with about `ff_share` quarters of its bytes set to `0xff`.
    fn saturate(data: &[u8], ff_share: u8) -> Vec<u8> {
        data.iter()
            .enumerate()
            .map(|(i, &b)| {
                if (b ^ i as u8) % 4 < ff_share {
                    0xff
                } else {
                    b
                }
            })
            .collect()
    }
}
