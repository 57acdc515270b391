//! Sealed storage.
//!
//! GenDPR uses "a TEE data-sealing mechanism … to store data persistently
//! outside the TEE. Sealed data can only be encrypted/decrypted by the
//! enclave using its private key" (paper §4). The sealing key here is
//! derived from the platform's unique root and the enclave measurement
//! (SGX's `MRENCLAVE` policy): the same enclave build on the same machine
//! can unseal, anything else cannot.

use crate::error::TeeError;
use crate::measurement::Measurement;
use gendpr_crypto::aead::ChaCha20Poly1305;
use gendpr_crypto::hkdf;

/// A sealed blob: nonce plus AEAD ciphertext, safe to store anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedData {
    nonce: [u8; 12],
    ciphertext: Vec<u8>,
}

impl SealedData {
    /// Total size on disk/wire.
    #[must_use]
    pub fn len(&self) -> usize {
        12 + self.ciphertext.len()
    }

    /// Whether the blob carries no ciphertext (never true for valid seals,
    /// which carry at least the tag).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }

    /// Serializes to bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::UnsealFailed`] if too short to carry a nonce.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TeeError> {
        if bytes.len() < 12 {
            return Err(TeeError::UnsealFailed);
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&bytes[..12]);
        Ok(Self {
            nonce,
            ciphertext: bytes[12..].to_vec(),
        })
    }
}

pub(crate) fn sealing_cipher(
    sealing_root: &[u8; 32],
    measurement: &Measurement,
) -> ChaCha20Poly1305 {
    let mut key = [0u8; 32];
    hkdf::derive(
        measurement.as_bytes(),
        sealing_root,
        b"gendpr/sealing/v1",
        &mut key,
    );
    ChaCha20Poly1305::new(&key)
}

pub(crate) fn seal(
    sealing_root: &[u8; 32],
    measurement: &Measurement,
    seal_counter: u64,
    plaintext: &[u8],
    label: &[u8],
) -> SealedData {
    let cipher = sealing_cipher(sealing_root, measurement);
    // Nonce from the platform's monotonic counter, which every enclave on
    // it shares: never reused under one key.
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&seal_counter.to_le_bytes());
    SealedData {
        nonce,
        ciphertext: cipher.seal(&nonce, plaintext, label),
    }
}

pub(crate) fn unseal(
    sealing_root: &[u8; 32],
    measurement: &Measurement,
    sealed: &SealedData,
    label: &[u8],
) -> Result<Vec<u8>, TeeError> {
    let cipher = sealing_cipher(sealing_root, measurement);
    cipher
        .open(&sealed.nonce, &sealed.ciphertext, label)
        .map_err(|_| TeeError::UnsealFailed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT_A: [u8; 32] = [1u8; 32];
    const ROOT_B: [u8; 32] = [2u8; 32];

    fn m(code: &str) -> Measurement {
        Measurement::compute(code, b"")
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let sealed = seal(&ROOT_A, &m("e"), 0, b"lr-matrix shard", b"phase3");
        let opened = unseal(&ROOT_A, &m("e"), &sealed, b"phase3").unwrap();
        assert_eq!(opened, b"lr-matrix shard");
    }

    #[test]
    fn other_platform_cannot_unseal() {
        let sealed = seal(&ROOT_A, &m("e"), 0, b"secret", b"");
        assert_eq!(
            unseal(&ROOT_B, &m("e"), &sealed, b""),
            Err(TeeError::UnsealFailed)
        );
    }

    #[test]
    fn other_enclave_cannot_unseal() {
        let sealed = seal(&ROOT_A, &m("good"), 0, b"secret", b"");
        assert_eq!(
            unseal(&ROOT_A, &m("evil"), &sealed, b""),
            Err(TeeError::UnsealFailed)
        );
    }

    #[test]
    fn label_mismatch_fails() {
        let sealed = seal(&ROOT_A, &m("e"), 0, b"secret", b"phase1");
        assert_eq!(
            unseal(&ROOT_A, &m("e"), &sealed, b"phase2"),
            Err(TeeError::UnsealFailed)
        );
    }

    #[test]
    fn counter_gives_distinct_nonces() {
        let a = seal(&ROOT_A, &m("e"), 0, b"same", b"");
        let b = seal(&ROOT_A, &m("e"), 1, b"same", b"");
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn bytes_roundtrip_and_tamper() {
        let sealed = seal(&ROOT_A, &m("e"), 7, b"data", b"");
        let parsed = SealedData::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(parsed, sealed);
        assert!(!parsed.is_empty());
        let mut raw = sealed.to_bytes();
        raw[14] ^= 0xff;
        let tampered = SealedData::from_bytes(&raw).unwrap();
        assert_eq!(
            unseal(&ROOT_A, &m("e"), &tampered, b""),
            Err(TeeError::UnsealFailed)
        );
        assert_eq!(
            SealedData::from_bytes(&[0u8; 5]),
            Err(TeeError::UnsealFailed)
        );
    }
}
