//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Implemented in radix 2^44: the accumulator and `r` are three limbs of
//! 44, 44 and 42 bits, so a 16-byte block costs nine 64 × 64 → 128-bit
//! products (the "donna-64" schedule). The final reduction selects
//! between `h` and `h − p` with a mask, never a branch on the data.

/// Key length in bytes (16-byte `r` part plus 16-byte `s` part).
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

fn le64(b: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&b[..8]);
    u64::from_le_bytes(word)
}

/// Splits a little-endian 128-bit number into its 44/44/40-bit limbs.
fn limbs(bytes: &[u8]) -> [u64; 3] {
    let (t0, t1) = (le64(&bytes[0..8]), le64(&bytes[8..16]));
    [t0 & MASK44, ((t0 >> 44) | (t1 << 20)) & MASK44, t1 >> 24]
}

/// Incremental Poly1305 state.
///
/// A Poly1305 key must never be reused across messages; the AEAD in
/// [`crate::aead`] derives a fresh one per nonce.
#[derive(Clone)]
pub struct Poly1305 {
    r: [u64; 3],
    /// `20 · r1` and `20 · r2`: a limb product past 2^130 folds back
    /// multiplied by 5, and the 44-bit limb boundary shifts it by 4.
    s: [u64; 2],
    pad: [u64; 3],
    h: [u64; 3],
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
        let [r0, r1, r2] = limbs(&key[0..16]);
        let r = [
            r0 & 0xffc_0fff_ffff,
            r1 & 0xfff_ffc0_ffff,
            r2 & 0x00f_ffff_fc0f,
        ];
        Self {
            r,
            s: [r[1] * 20, r[2] * 20],
            pad: limbs(&key[16..32]),
            h: [0; 3],
            buffer: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// `h ← (h + block + hibit · 2^128) · r mod 2^130 − 5`, partially
    /// reduced.
    fn process_block(&mut self, block: &[u8; BLOCK_LEN], hibit: u64) {
        let [r0, r1, r2] = self.r.map(u128::from);
        let [s1, s2] = self.s.map(u128::from);
        let [m0, m1, m2] = limbs(block);
        let h0 = u128::from(self.h[0] + m0);
        let h1 = u128::from(self.h[1] + m1);
        let h2 = u128::from(self.h[2] + (m2 | hibit));

        let d0 = h0 * r0 + h1 * s2 + h2 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0;

        let d1 = d1 + (d0 >> 44);
        let d2 = d2 + (d1 >> 44);
        let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
        let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
        self.h = [h0 & MASK44, h1, d2 as u64 & MASK42];
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.process_block(&block, 1 << 40);
                self.buffered = 0;
            }
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            let mut full = [0u8; BLOCK_LEN];
            full.copy_from_slice(block);
            self.process_block(&full, 1 << 40);
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Consumes the state and returns the 16-byte tag.
    #[must_use]
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            let mut block = [0u8; BLOCK_LEN];
            block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
            block[self.buffered] = 1;
            self.process_block(&block, 0);
        }
        // Carry h fully: every limb within its width, h < 2^130.
        let [mut h0, mut h1, mut h2] = self.h;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }

        // g = h − p = h + 5 − 2^130; take it when it did not borrow.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let take_g = (g2 >> 63).wrapping_sub(1); // all ones when g2 ≥ 0
        h0 = (h0 & !take_g) | (g0 & MASK44 & take_g);
        h1 = (h1 & !take_g) | (g1 & MASK44 & take_g);
        h2 = (h2 & !take_g) | (g2 & MASK42 & take_g);

        // tag = (h + s) mod 2^128.
        let [p0, p1, p2] = self.pad;
        h0 += p0;
        h1 += p1 + (h0 >> 44);
        h2 += p2 + (h1 >> 44);
        let lo = (h0 & MASK44) | (h1 << 44);
        let hi = ((h1 & MASK44) >> 20) | (h2 << 24);

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
/// replaced, kept as the oracle the radix-2^44 tags are checked against.
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

    #[test]
    fn rfc8439_vectors() {
        for (i, (key, msg, tag)) in rfc_vectors().into_iter().enumerate() {
            assert_eq!(hex(&Poly1305::mac(&key, &msg)), tag, "vector {i}");
            assert_eq!(hex(&oracle(&key, &msg)), tag, "oracle, vector {i}");
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
            let data: Vec<u8> = data
                .iter()
                .enumerate()
                .map(|(i, &b)| if (b ^ i as u8) % 4 < ff_share { 0xff } else { b })
                .collect();
            let tag = oracle(&key, &data);
            prop_assert_eq!(Poly1305::mac(&key, &data), tag);
            let mut p = Poly1305::new(&key);
            let mut rest = &data[..];
            for &n in chunks.iter().cycle().take(data.len() + 1) {
                let (piece, tail) = rest.split_at(n.min(rest.len()));
                p.update(piece);
                rest = tail;
            }
            p.update(rest);
            prop_assert_eq!(p.finalize(), tag);
        }
    }
}
