//! From-scratch cryptographic primitives for the GenDPR reproduction.
//!
//! The GenDPR middleware (Middleware '22) encrypts every piece of
//! intermediate data exchanged between federation members and binds those
//! exchanges to attested enclaves. This crate provides the primitives the
//! rest of the workspace builds on:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104),
//! * [`hkdf`] — HKDF (RFC 5869),
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439),
//! * [`poly1305`] — the Poly1305 one-time authenticator (RFC 8439),
//! * [`aead`] — ChaCha20-Poly1305 AEAD (RFC 8439),
//! * [`x25519`] — X25519 Diffie-Hellman (RFC 7748),
//! * [`rng`] — a deterministic ChaCha20-based random generator,
//! * [`constant_time`] — timing-safe comparison helpers.
//!
//! Everything is implemented from the specifications and validated
//! against the RFC/NIST test vectors in each module's tests, in safe Rust
//! apart from four private kernel modules, each detected at run time
//! where it needs more than the x86-64 baseline: the ChaCha20 kernels
//! behind [`chacha20`]'s passes, four blocks a pass in SSE2 (the
//! baseline) and sixteen in AVX-512; [`poly1305`]'s eight accumulators in
//! AVX-512 IFMA; and [`sha256`]'s compression function on the SHA
//! extensions. Their unaligned loads and stores and the calls into them
//! are the crate's only `unsafe` blocks (each carries a `SAFETY:` comment;
//! the lint below refuses one without). The scalar code of each module is
//! its kernels' fallback and oracle.
//! Every message of the AEAD is sealed and opened from its *head*, its
//! first two keystream blocks ([`aead::Heads`]), which one pass computes
//! for several nonces at once.
//! The paper uses AES-256; this workspace substitutes ChaCha20-Poly1305
//! (see `DESIGN.md` §4 for the justification).
//!
//! # Example
//!
//! ```
//! use gendpr_crypto::aead::ChaCha20Poly1305;
//!
//! let key = [7u8; 32];
//! let cipher = ChaCha20Poly1305::new(&key);
//! let nonce = [0u8; 12];
//! let sealed = cipher.seal(&nonce, b"allele counts", b"phase-1");
//! let opened = cipher.open(&nonce, &sealed, b"phase-1").expect("tag must verify");
//! assert_eq!(opened, b"allele counts");
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aead;
pub mod chacha20;
pub mod constant_time;
pub mod hkdf;
pub mod hmac;
pub mod poly1305;
pub mod rng;
pub mod sha256;
pub mod x25519;

pub use aead::ChaCha20Poly1305;
pub use rng::ChaChaRng;
pub use sha256::Sha256;

use std::error::Error;
use std::fmt;

/// Error returned when an authenticated operation fails.
///
/// Deliberately carries no detail: distinguishing "bad tag" from "truncated
/// input" would hand an oracle to an attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoError;

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("authentication failure")
    }
}

impl Error for CryptoError {}
