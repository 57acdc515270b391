//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used for attestation quotes (the simulated attestation service signs
//! enclave reports with an HMAC root key) and for signing VCF-like genome
//! files whose authenticity enclaves verify before use.

use crate::constant_time::ct_eq;
use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA-256 computation.
///
/// # Example
///
/// ```
/// use gendpr_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"The quick brown fox jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert!(HmacSha256::verify(b"key", b"The quick brown fox jumps over the lazy dog", &tag));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer_key: [u8; BLOCK_LEN],
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Both halves are key material: the outer key is the key XOR opad,
        // the inner state has absorbed the key XOR ipad.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..DIGEST_LEN].copy_from_slice(&crate::sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = block_key[i] ^ 0x36;
            opad[i] = block_key[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        Self {
            inner,
            outer_key: opad,
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Returns the 32-byte authentication tag.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.outer_key);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot tag computation.
    #[must_use]
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` against `data` under `key` in constant time.
    #[must_use]
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        ct_eq(&Self::mac(key, data), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let key: Vec<u8> = (1..=32).collect();
        let mut mac = HmacSha256::new(&key);
        mac.update(b"message");
        let shown = format!("{mac:?}");
        assert_eq!(shown, "HmacSha256 { .. }");
        for bytes in mac.outer_key.windows(4) {
            let list = format!("{bytes:?}");
            assert!(!shown.contains(&list[1..list.len() - 1]), "{shown}");
        }
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2_short_key() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_binary() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_rejects_wrong_tag() {
        let mut tag = HmacSha256::mac(b"k", b"m");
        assert!(HmacSha256::verify(b"k", b"m", &tag));
        tag[0] ^= 1;
        assert!(!HmacSha256::verify(b"k", b"m", &tag));
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..31]));
        assert!(!HmacSha256::verify(b"other", b"m", &tag));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"part one ");
        mac.update(b"part two");
        assert_eq!(
            mac.finalize(),
            HmacSha256::mac(b"key", b"part one part two")
        );
    }
}
