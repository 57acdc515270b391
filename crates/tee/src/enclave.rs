//! The enclave abstraction.
//!
//! An [`Enclave`] hosts trusted state `S` behind an entry-point boundary.
//! Untrusted code never touches `S` directly: it calls [`Enclave::enter`]
//! (an "ecall"), which runs a closure inside the enclave with access to
//! the state and the EPC account. The enclave can quote itself, seal data
//! to its identity, and open attested channels (see [`crate::session`]).

use crate::attestation::Quote;
use crate::error::TeeError;
use crate::measurement::Measurement;
use crate::memory::EpcAccount;
use crate::platform::Platform;
use crate::sealing::{self, SealedData};
use std::sync::atomic::Ordering;

/// A running enclave hosting trusted state `S`.
#[derive(Debug)]
pub struct Enclave<S> {
    platform: Platform,
    measurement: Measurement,
    state: S,
    epc: EpcAccount,
    ecalls: u64,
}

impl<S> Enclave<S> {
    pub(crate) fn launch(platform: Platform, measurement: Measurement, state: S) -> Self {
        Self {
            platform,
            measurement,
            state,
            epc: EpcAccount::default(),
            ecalls: 0,
        }
    }

    /// The enclave's identity.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Number of entries so far (ecall count).
    #[must_use]
    pub fn ecalls(&self) -> u64 {
        self.ecalls
    }

    /// Read access to the EPC meter.
    #[must_use]
    pub fn epc(&self) -> &EpcAccount {
        &self.epc
    }

    /// Enters the enclave: runs `body` with the trusted state and the EPC
    /// account.
    pub fn enter<R>(&mut self, body: impl FnOnce(&mut S, &mut EpcAccount) -> R) -> R {
        self.ecalls += 1;
        body(&mut self.state, &mut self.epc)
    }

    /// Produces an attestation quote binding `report_data` to this
    /// enclave's measurement.
    #[must_use]
    pub fn quote(&self, report_data: [u8; 32]) -> Quote {
        self.platform.quote(self.measurement, report_data)
    }

    /// Seals `plaintext` under this enclave's identity on this platform.
    /// `label` is authenticated context (e.g. which protocol phase the data
    /// belongs to). The nonce comes from the platform's counter, which
    /// every enclave on it shares: other instances of this build seal
    /// under the same key.
    pub fn seal(&self, plaintext: &[u8], label: &[u8]) -> SealedData {
        let counter = self
            .platform
            .inner
            .seal_counter
            .fetch_add(1, Ordering::Relaxed);
        sealing::seal(
            &self.platform.inner.sealing_root,
            &self.measurement,
            counter,
            plaintext,
            label,
        )
    }

    /// Unseals data previously sealed by this enclave (same build, same
    /// platform).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::UnsealFailed`] if the blob was sealed by a
    /// different enclave/platform, under a different label, or tampered
    /// with.
    pub fn unseal(&self, sealed: &SealedData, label: &[u8]) -> Result<Vec<u8>, TeeError> {
        sealing::unseal(
            &self.platform.inner.sealing_root,
            &self.measurement,
            sealed,
            label,
        )
    }

    /// The platform hosting this enclave.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::AttestationService;
    use gendpr_crypto::rng::ChaChaRng;

    fn enclave() -> Enclave<Vec<u32>> {
        let mut rng = ChaChaRng::from_seed_u64(3);
        let svc = AttestationService::new(&mut rng);
        let platform = Platform::new("gdo", &svc, &mut rng);
        platform.launch_enclave("gendpr/test", Vec::new())
    }

    #[test]
    fn enter_mutates_trusted_state_and_counts_ecalls() {
        let mut e = enclave();
        e.enter(|state, epc| {
            state.push(1);
            epc.alloc(4);
        });
        let sum: u32 = e.enter(|state, _| state.iter().sum());
        assert_eq!(sum, 1);
        assert_eq!(e.ecalls(), 2);
        assert_eq!(e.epc().in_use(), 4);
    }

    #[test]
    fn quotes_carry_the_enclave_measurement() {
        let e = enclave();
        let q = e.quote([5u8; 32]);
        assert_eq!(q.measurement, e.measurement());
        assert!(e.platform().service().verify(&q).is_ok());
    }

    #[test]
    fn seal_roundtrips_within_the_enclave() {
        let e = enclave();
        let sealed = e.seal(b"intermediate", b"phase2");
        assert_eq!(e.unseal(&sealed, b"phase2").unwrap(), b"intermediate");
        assert!(e.unseal(&sealed, b"phase3").is_err());
    }

    #[test]
    fn different_enclave_builds_cannot_share_seals() {
        let mut rng = ChaChaRng::from_seed_u64(4);
        let svc = AttestationService::new(&mut rng);
        let platform = Platform::new("gdo", &svc, &mut rng);
        let a = platform.launch_enclave("gendpr/a", ());
        let b = platform.launch_enclave("gendpr/b", ());
        let sealed = a.seal(b"x", b"");
        assert_eq!(b.unseal(&sealed, b""), Err(TeeError::UnsealFailed));
    }

    #[test]
    fn config_changes_measurement() {
        let mut rng = ChaChaRng::from_seed_u64(5);
        let svc = AttestationService::new(&mut rng);
        let platform = Platform::new("gdo", &svc, &mut rng);
        let a = platform.launch_enclave_with_config("gendpr", b"maf=0.05", ());
        let b = platform.launch_enclave_with_config("gendpr", b"maf=0.01", ());
        assert_ne!(a.measurement(), b.measurement());
    }

    #[test]
    fn two_instances_of_one_build_never_share_a_sealing_nonce() {
        let mut rng = ChaChaRng::from_seed_u64(6);
        let svc = AttestationService::new(&mut rng);
        let platform = Platform::new("gdo", &svc, &mut rng);
        let a = platform.launch_enclave("gendpr/lane", ());
        let b = platform.launch_enclave("gendpr/lane", ());
        let from_a = a.seal(&[b'A'; 32], b"");
        let from_b = b.seal(&[b'B'; 32], b"");
        // The nonce is the blob's first 12 bytes: a shared one would make
        // the two ciphertexts XOR to the two plaintexts' XOR.
        assert_ne!(from_a.to_bytes()[..12], from_b.to_bytes()[..12]);
        // Same build, same platform: each instance unseals the other's.
        assert_eq!(b.unseal(&from_a, b"").unwrap(), [b'A'; 32]);
        assert_eq!(a.unseal(&from_b, b"").unwrap(), [b'B'; 32]);
    }

    #[test]
    fn sequential_seals_use_fresh_nonces() {
        let e = enclave();
        let s1 = e.seal(b"same payload", b"");
        let s2 = e.seal(b"same payload", b"");
        assert_ne!(s1.to_bytes(), s2.to_bytes());
    }
}
