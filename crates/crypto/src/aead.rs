//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! This is the cipher every GenDPR message travels under: allele-count
//! vectors, LD moments and LR matrices are sealed with a session key bound
//! to the attested enclave pair, with the protocol phase as associated data.
//!
//! [`ChaCha20Poly1305::seal_in_place`] and
//! [`ChaCha20Poly1305::open_in_place`] work inside the caller's buffer, so a
//! message built after a reserved frame header is sealed, sent and opened
//! without its bytes ever being copied; [`ChaCha20Poly1305::seal`] and
//! [`ChaCha20Poly1305::open`] return fresh buffers with identical bytes.
//!
//! The key is expanded into ChaCha20 state words once, in
//! [`ChaCha20Poly1305::new`]. Every message is sealed and opened from its
//! [`Head`]: keystream blocks 0 and 1 under its nonce, which hold its
//! Poly1305 key and encrypt its first 64 bytes. Bytes past 64 are
//! encrypted from block 2 on, in whole passes of the widest ChaCha20
//! kernel. [`ChaCha20Poly1305::fill_heads`] computes the heads of several
//! nonces in one pass, [`heads_per_pass`] of them: eight with AVX-512, two
//! elsewhere. A sender that knows its next nonces (a channel's sequence
//! numbers, say) thus pays a fraction of a pass per short message instead
//! of a whole one ([`ChaCha20Poly1305::seal_in_place_with`],
//! [`ChaCha20Poly1305::open_in_place_with`]). The nonce-taking methods
//! fill the heads of their one nonce, in the narrowest pass, and go
//! through the same two.

use crate::chacha20::{self, Lane, BLOCK_LEN, MAX_LANES, NONCE_LEN, PASS_LEN};
use crate::constant_time::ct_eq;
use crate::poly1305::{Poly1305, TAG_LEN};
use crate::CryptoError;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Total ciphertext expansion: the appended Poly1305 tag.
pub const OVERHEAD: usize = TAG_LEN;
/// Bytes of keystream a [`Head`] holds: blocks 0 and 1.
const HEAD_LEN: usize = 2 * BLOCK_LEN;
/// The most heads one pass computes.
const MAX_HEADS: usize = MAX_LANES / 2;

/// Heads [`ChaCha20Poly1305::fill_heads`] computes in one pass: half the
/// lanes of the widest ChaCha20 kernel this CPU runs (eight with AVX-512,
/// two without), as each head takes two blocks.
#[must_use]
#[inline]
pub fn heads_per_pass() -> usize {
    chacha20::widest_pass() / 2
}

/// The heads of up to [`heads_per_pass`] messages, computed in one
/// ChaCha20 pass by [`ChaCha20Poly1305::fill_heads`] and held as that
/// pass's keystream. Starts empty.
///
/// Heads are key material: [`Debug`] prints none of them.
pub struct Heads {
    nonces: [[u8; NONCE_LEN]; MAX_HEADS],
    /// Head `i` is `keystream[128 * i..128 * (i + 1)]`.
    keystream: [u8; PASS_LEN],
    len: usize,
}

impl Default for Heads {
    fn default() -> Self {
        Self {
            nonces: [[0; NONCE_LEN]; MAX_HEADS],
            keystream: [0; PASS_LEN],
            len: 0,
        }
    }
}

impl std::fmt::Debug for Heads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print keystream.
        f.debug_struct("Heads")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl Heads {
    /// Heads held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no head is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Head `i`, in the order of the nonces that filled these heads.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<Head<'_>> {
        (i < self.len).then(|| Head {
            nonce: &self.nonces[i],
            blocks: self.keystream[i * HEAD_LEN..][..HEAD_LEN]
                .try_into()
                .expect("a head is two blocks"),
        })
    }

    /// Drops every head held.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

/// The keystream one message starts with: blocks 0 and 1 under its nonce,
/// for the cipher that computed it. Block 0's first 32 bytes are the
/// message's Poly1305 key and block 1 encrypts its first 64 bytes.
///
/// A head is key material: [`Debug`] prints none of it. Sealing two
/// messages from one head reuses the nonce, as sealing them under one
/// nonce would.
#[derive(Clone, Copy)]
pub struct Head<'a> {
    nonce: &'a [u8; NONCE_LEN],
    blocks: &'a [u8; HEAD_LEN],
}

impl std::fmt::Debug for Head<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print keystream.
        f.debug_struct("Head").finish_non_exhaustive()
    }
}

impl Head<'_> {
    /// The one-time Poly1305 key: the first 32 bytes of block 0.
    fn poly_key(&self) -> &[u8; 32] {
        self.blocks.first_chunk().expect("block 0 holds 32 bytes")
    }
}

/// A ChaCha20-Poly1305 AEAD cipher keyed once and used for many messages
/// (with distinct nonces).
///
/// # Example
///
/// ```
/// use gendpr_crypto::aead::ChaCha20Poly1305;
///
/// let cipher = ChaCha20Poly1305::new(&[1u8; 32]);
/// let ct = cipher.seal(&[0u8; 12], b"secret", b"header");
/// assert_eq!(cipher.open(&[0u8; 12], &ct, b"header").unwrap(), b"secret");
/// assert!(cipher.open(&[0u8; 12], &ct, b"tampered").is_err());
/// ```
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: chacha20::Key,
}

impl std::fmt::Debug for ChaCha20Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("ChaCha20Poly1305").finish_non_exhaustive()
    }
}

impl ChaCha20Poly1305 {
    /// Creates a cipher from a 32-byte key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        Self {
            key: chacha20::Key::new(key),
        }
    }

    /// Makes `heads` hold the heads of the first [`heads_per_pass`] of
    /// `nonces` (fewer if it runs out first), in order, computed in one
    /// pass: the narrowest that covers them.
    pub fn fill_heads(&self, heads: &mut Heads, nonces: impl IntoIterator<Item = [u8; NONCE_LEN]>) {
        let mut lanes = [Lane::default(); MAX_LANES];
        heads.len = 0;
        for ((slot, pair), nonce) in heads.nonces[..heads_per_pass()]
            .iter_mut()
            .zip(lanes.chunks_exact_mut(2))
            .zip(nonces)
        {
            // Lanes `2i` and `2i + 1` are blocks 0 and 1 under nonce `i`.
            pair[0] = Lane::new(0, &nonce);
            pair[1] = Lane::new(1, &nonce);
            *slot = nonce;
            heads.len += 1;
        }
        self.key.pass(&lanes[..2 * heads.len], &mut heads.keystream);
    }

    /// Runs `f` on the head of `nonce`, computed in the narrowest pass.
    fn with_head<R>(&self, nonce: &[u8; NONCE_LEN], f: impl FnOnce(Head<'_>) -> R) -> R {
        let mut heads = Heads::default();
        self.fill_heads(&mut heads, [*nonce]);
        f(heads.get(0).expect("one nonce, one head"))
    }

    /// XORs `data` with the message's keystream from block 1 on: `head`'s
    /// block 1, then whole passes from block 2.
    fn apply_keystream(&self, head: Head<'_>, data: &mut [u8]) {
        let (first, rest) = data.split_at_mut(data.len().min(BLOCK_LEN));
        chacha20::xor(first, &head.blocks[BLOCK_LEN..]);
        if !rest.is_empty() {
            self.key.xor_in_place(head.nonce, 2, rest);
        }
    }

    fn compute_tag(poly_key: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(poly_key);
        mac.update_padded(aad);
        mac.update_padded(ciphertext);
        // Both lengths as one block, not two half-block updates.
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        mac.update(&lengths);
        mac.finalize()
    }

    /// Encrypts `plaintext` with `aad` as associated data, returning
    /// `ciphertext || tag`.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(nonce, &mut out, 0, aad);
        out
    }

    /// Seals `buf[at..]` where it lies: encrypts it and appends the tag, so
    /// `buf[at..]` ends up holding exactly what [`Self::seal`] returns for
    /// it. `buf[..at]` (a frame header, say) is left untouched; reserve
    /// [`OVERHEAD`] spare capacity to keep the tag from reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `at > buf.len()`.
    pub fn seal_in_place(&self, nonce: &[u8; NONCE_LEN], buf: &mut Vec<u8>, at: usize, aad: &[u8]) {
        self.with_head(nonce, |head| self.seal_in_place_with(head, buf, at, aad));
    }

    /// [`Self::seal_in_place`] under `head`'s nonce, from `head`, which
    /// this cipher computed.
    ///
    /// # Panics
    ///
    /// As [`Self::seal_in_place`].
    pub fn seal_in_place_with(&self, head: Head<'_>, buf: &mut Vec<u8>, at: usize, aad: &[u8]) {
        self.apply_keystream(head, &mut buf[at..]);
        let tag = Self::compute_tag(head.poly_key(), aad, &buf[at..]);
        buf.extend_from_slice(&tag);
    }

    /// Decrypts and verifies `sealed` (as produced by [`Self::seal`]).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError`] if the input is shorter than a tag or the tag
    /// does not verify (wrong key, nonce, AAD or modified ciphertext).
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        sealed: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = sealed.to_vec();
        let len = self.open_in_place(nonce, &mut out, aad)?.len();
        out.truncate(len);
        Ok(out)
    }

    /// Opens `sealed` (`ciphertext || tag`) where it lies: checks the tag,
    /// then decrypts the ciphertext in place and returns it, now the
    /// plaintext. On failure nothing is decrypted.
    ///
    /// # Errors
    ///
    /// As [`Self::open`].
    pub fn open_in_place<'a>(
        &self,
        nonce: &[u8; NONCE_LEN],
        sealed: &'a mut [u8],
        aad: &[u8],
    ) -> Result<&'a mut [u8], CryptoError> {
        self.with_head(nonce, |head| self.open_in_place_with(head, sealed, aad))
    }

    /// [`Self::open_in_place`] under `head`'s nonce, from `head`, which
    /// this cipher computed.
    ///
    /// # Errors
    ///
    /// As [`Self::open`].
    pub fn open_in_place_with<'a>(
        &self,
        head: Head<'_>,
        sealed: &'a mut [u8],
        aad: &[u8],
    ) -> Result<&'a mut [u8], CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError);
        }
        let (ciphertext, tag) = sealed.split_at_mut(sealed.len() - TAG_LEN);
        let expected = Self::compute_tag(head.poly_key(), aad, ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError);
        }
        self.apply_keystream(head, ciphertext);
        Ok(ciphertext)
    }
}

/// The zero bytes that pad `len` bytes to a 16-byte boundary.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let nonce: [u8; 12] = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";
        let cipher = ChaCha20Poly1305::new(&key);
        let sealed = cipher.seal(&nonce, plaintext, &aad);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(
            hex(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
        let opened = cipher.open(&nonce, &sealed, &aad).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tamper_detection_every_byte() {
        let cipher = ChaCha20Poly1305::new(&[9u8; 32]);
        let nonce = [1u8; 12];
        let sealed = cipher.seal(&nonce, b"counts: [1, 2, 3]", b"phase1");
        for i in 0..sealed.len() {
            let mut corrupted = sealed.clone();
            corrupted[i] ^= 0x01;
            assert!(
                cipher.open(&nonce, &corrupted, b"phase1").is_err(),
                "bit flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn wrong_nonce_key_or_aad_fails() {
        let cipher = ChaCha20Poly1305::new(&[9u8; 32]);
        let sealed = cipher.seal(&[1u8; 12], b"data", b"aad");
        assert!(cipher.open(&[2u8; 12], &sealed, b"aad").is_err());
        assert!(cipher.open(&[1u8; 12], &sealed, b"dad").is_err());
        let other = ChaCha20Poly1305::new(&[8u8; 32]);
        assert!(other.open(&[1u8; 12], &sealed, b"aad").is_err());
    }

    #[test]
    fn empty_plaintext_and_aad() {
        let cipher = ChaCha20Poly1305::new(&[3u8; 32]);
        let sealed = cipher.seal(&[0u8; 12], b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(cipher.open(&[0u8; 12], &sealed, b"").unwrap(), b"");
    }

    #[test]
    fn truncated_input_rejected() {
        let cipher = ChaCha20Poly1305::new(&[3u8; 32]);
        assert_eq!(cipher.open(&[0u8; 12], &[0u8; 15], b""), Err(CryptoError));
    }

    #[test]
    fn overhead_is_exactly_tag_len() {
        let cipher = ChaCha20Poly1305::new(&[3u8; 32]);
        for len in [0usize, 1, 15, 16, 17, 1000] {
            let sealed = cipher.seal(&[0u8; 12], &vec![0u8; len], b"");
            assert_eq!(sealed.len(), len + OVERHEAD);
        }
    }

    #[test]
    fn in_place_equals_copying_for_every_length_up_to_300() {
        let cipher = ChaCha20Poly1305::new(&[5u8; 32]);
        let nonce = [6u8; 12];
        for len in 0..=300usize {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let sealed = cipher.seal(&nonce, &plaintext, b"frame");
            let mut buf = vec![0xa5; 25];
            buf.extend_from_slice(&plaintext);
            cipher.seal_in_place(&nonce, &mut buf, 25, b"frame");
            assert_eq!(&buf[25..], &sealed[..], "length {len}");
            assert!(buf[..25].iter().all(|&b| b == 0xa5), "header kept");
            let opened = cipher.open_in_place(&nonce, &mut buf[25..], b"frame");
            assert_eq!(opened.unwrap(), &plaintext[..], "length {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn in_place_matches_seal_and_open_and_rejects_every_bit_flip(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            plaintext in proptest::collection::vec(any::<u8>(), 0..301),
            aad in proptest::collection::vec(any::<u8>(), 0..40),
            head in 0usize..32,
        ) {
            let cipher = ChaCha20Poly1305::new(&key);
            let sealed = cipher.seal(&nonce, &plaintext, &aad);
            let mut buf = vec![0xa5; head];
            buf.extend_from_slice(&plaintext);
            cipher.seal_in_place(&nonce, &mut buf, head, &aad);
            prop_assert_eq!(&buf[head..], &sealed[..]);
            let opened = cipher.open_in_place(&nonce, &mut buf[head..], &aad).unwrap();
            prop_assert_eq!(&*opened, &plaintext[..]);
            prop_assert_eq!(cipher.open(&nonce, &sealed, &aad).unwrap(), plaintext);
            for bit in 0..sealed.len() * 8 {
                let mut tampered = sealed.clone();
                tampered[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(cipher.open(&nonce, &tampered, &aad).is_err());
                let mut in_place = tampered.clone();
                prop_assert!(cipher.open_in_place(&nonce, &mut in_place, &aad).is_err());
                // A rejected message is left as it arrived.
                prop_assert_eq!(in_place, tampered);
            }
        }
    }

    /// RFC 8439 §2.8 spelled out with the scalar block function: the
    /// Poly1305 key from block 0, the message XORed block by block from
    /// block 1, the tag over the padded AAD and ciphertext and both lengths.
    fn oracle_seal(key: &[u8; 32], nonce: &[u8; 12], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let poly_key: [u8; 32] = chacha20::block(key, 0, nonce)[..32].try_into().unwrap();
        let mut out = plaintext.to_vec();
        for (i, chunk) in out.chunks_mut(BLOCK_LEN).enumerate() {
            let ks = chacha20::block(key, 1 + i as u32, nonce);
            for (b, k) in chunk.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
        let mut mac = Poly1305::new(&poly_key);
        mac.update(aad);
        mac.update(&vec![0u8; (16 - aad.len() % 16) % 16]);
        mac.update(&out);
        mac.update(&vec![0u8; (16 - out.len() % 16) % 16]);
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(out.len() as u64).to_le_bytes());
        out.extend_from_slice(&mac.finalize());
        out
    }

    #[test]
    fn seal_and_open_equal_the_block_by_block_oracle_up_to_1100_bytes() {
        // Every length from 0 to 1,100 bytes crosses the head's 64 bytes,
        // the four-block passes and (with AVX-512) the sixteen-block ones.
        let key: [u8; 32] = std::array::from_fn(|i| (i * 29 + 3) as u8);
        let cipher = ChaCha20Poly1305::new(&key);
        let nonce = [0x42u8; 12];
        let message: Vec<u8> = (0..1_100usize).map(|i| (i * 7 + i / 256) as u8).collect();
        for len in 0..=message.len() {
            let aad = &message[..len % 23];
            let sealed = cipher.seal(&nonce, &message[..len], aad);
            assert_eq!(
                sealed,
                oracle_seal(&key, &nonce, &message[..len], aad),
                "length {len}"
            );
            assert_eq!(
                cipher.open(&nonce, &sealed, aad).unwrap(),
                &message[..len],
                "length {len}"
            );
        }
    }

    #[test]
    fn every_head_of_a_pass_seals_and_opens_as_the_oracle_does() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 11 + 5) as u8);
        let cipher = ChaCha20Poly1305::new(&key);
        let mut heads = Heads::default();
        assert!(heads.is_empty() && heads.get(0).is_none());
        for count in 0..=heads_per_pass() + 1 {
            let nonces: Vec<[u8; 12]> = (0..count)
                .map(|i| std::array::from_fn(|j| (i * 7 + j + count) as u8))
                .collect();
            cipher.fill_heads(&mut heads, nonces.iter().copied());
            // A pass holds at most `heads_per_pass` heads; the rest wait.
            assert_eq!(heads.len(), count.min(heads_per_pass()));
            assert!(heads.get(heads.len()).is_none());
            for (i, nonce) in nonces.iter().take(heads.len()).enumerate() {
                let head = heads.get(i).unwrap();
                for len in [0, 1, 17, 57, 64, 65, 200, 1_100] {
                    let plaintext: Vec<u8> = (0..len).map(|b| (b + i) as u8).collect();
                    let mut buf = plaintext.clone();
                    cipher.seal_in_place_with(head, &mut buf, 0, b"aad");
                    assert_eq!(
                        buf,
                        oracle_seal(&key, nonce, &plaintext, b"aad"),
                        "head {i}"
                    );
                    let opened = cipher.open_in_place_with(head, &mut buf, b"aad").unwrap();
                    assert_eq!(opened, &plaintext[..]);
                }
            }
        }
        heads.clear();
        assert!(heads.is_empty());
    }

    #[test]
    fn debug_does_not_leak_heads() {
        let cipher = ChaCha20Poly1305::new(&[0xaau8; 32]);
        let mut heads = Heads::default();
        cipher.fill_heads(&mut heads, [[0u8; 12]]);
        assert_eq!(format!("{heads:?}"), "Heads { len: 1, .. }");
        assert_eq!(format!("{:?}", heads.get(0).unwrap()), "Head { .. }");
    }

    #[test]
    fn debug_does_not_leak_key() {
        let cipher = ChaCha20Poly1305::new(&[0xaau8; 32]);
        let s = format!("{cipher:?}");
        assert!(!s.contains("aa"), "Debug output must not contain key bytes");
    }
}
