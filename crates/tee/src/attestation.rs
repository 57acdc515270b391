//! Remote attestation: quotes and the attestation service.
//!
//! In real SGX, the quoting enclave signs a report over `(MRENCLAVE,
//! report_data)` and Intel's attestation service (EPID/DCAP) vouches for
//! the platform. Here a single [`AttestationService`] plays both roles: it
//! holds a root MAC key that only genuine "platforms" receive a quoting
//! capability for. Verifiers check quotes through the same service — the
//! trust anchor of the whole federation.

use crate::error::TeeError;
use crate::measurement::Measurement;
use gendpr_crypto::hmac::HmacSha256;
use gendpr_crypto::rng::ChaChaRng;
use std::sync::Arc;

/// A signed statement that an enclave with a given measurement produced
/// `report_data` on a genuine platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The attested enclave's measurement.
    pub measurement: Measurement,
    /// 32 bytes chosen by the enclave — GenDPR binds the hash of its
    /// ephemeral handshake key here.
    pub report_data: [u8; 32],
    mac: [u8; 32],
}

impl Quote {
    /// Serializes the quote for transport (measurement ‖ report ‖ mac).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..32].copy_from_slice(self.measurement.as_bytes());
        out[32..64].copy_from_slice(&self.report_data);
        out[64..].copy_from_slice(&self.mac);
        out
    }

    /// Parses a quote from transport bytes.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 96]) -> Self {
        let mut m = [0u8; 32];
        m.copy_from_slice(&bytes[..32]);
        let mut r = [0u8; 32];
        r.copy_from_slice(&bytes[32..64]);
        let mut mac = [0u8; 32];
        mac.copy_from_slice(&bytes[64..]);
        Self {
            measurement: Measurement::from_bytes(m),
            report_data: r,
            mac,
        }
    }
}

struct ServiceInner {
    root_key: [u8; 32],
}

/// The federation's attestation authority.
///
/// Cloning is cheap (shared root); all platforms of one federation must be
/// created from the same service instance, exactly as all real SGX
/// platforms chain to the same Intel root.
#[derive(Clone)]
pub struct AttestationService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for AttestationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the root key: it forges quotes.
        f.debug_struct("AttestationService").finish_non_exhaustive()
    }
}

impl AttestationService {
    /// Creates a fresh attestation authority with a random root key.
    #[must_use]
    pub fn new(rng: &mut ChaChaRng) -> Self {
        Self {
            inner: Arc::new(ServiceInner {
                root_key: rng.gen_key(),
            }),
        }
    }

    fn mac(&self, measurement: &Measurement, report_data: &[u8; 32]) -> [u8; 32] {
        let mut mac = HmacSha256::new(&self.inner.root_key);
        mac.update(b"gendpr/quote/v1\0");
        mac.update(measurement.as_bytes());
        mac.update(report_data);
        mac.finalize()
    }

    /// Issues a quote — only reachable through a [`crate::platform::Platform`]
    /// in this simulation, standing in for the hardware-rooted quoting
    /// enclave.
    #[must_use]
    pub(crate) fn issue(&self, measurement: Measurement, report_data: [u8; 32]) -> Quote {
        let mac = self.mac(&measurement, &report_data);
        Quote {
            measurement,
            report_data,
            mac,
        }
    }

    /// Verifies a quote's authenticity.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::QuoteInvalid`] if the MAC does not verify.
    pub fn verify(&self, quote: &Quote) -> Result<(), TeeError> {
        let expected = self.mac(&quote.measurement, &quote.report_data);
        if gendpr_crypto::constant_time::ct_eq(&expected, &quote.mac) {
            Ok(())
        } else {
            Err(TeeError::QuoteInvalid)
        }
    }

    /// Verifies a quote *and* that it attests the expected enclave build.
    ///
    /// # Errors
    ///
    /// [`TeeError::QuoteInvalid`] for a forged quote,
    /// [`TeeError::MeasurementMismatch`] for a genuine quote of the wrong
    /// enclave.
    pub fn verify_expected(&self, quote: &Quote, expected: &Measurement) -> Result<(), TeeError> {
        self.verify(quote)?;
        if &quote.measurement == expected {
            Ok(())
        } else {
            Err(TeeError::MeasurementMismatch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> AttestationService {
        AttestationService::new(&mut ChaChaRng::from_seed_u64(1))
    }

    #[test]
    fn debug_does_not_leak_the_root_key() {
        let svc = service();
        let shown = format!("{svc:?}");
        assert_eq!(shown, "AttestationService { .. }");
        for bytes in svc.inner.root_key.windows(4) {
            let list = format!("{bytes:?}");
            assert!(!shown.contains(&list[1..list.len() - 1]), "{shown}");
        }
    }

    #[test]
    fn issued_quotes_verify() {
        let svc = service();
        let m = Measurement::compute("gendpr", b"");
        let q = svc.issue(m, [7u8; 32]);
        assert!(svc.verify(&q).is_ok());
        assert!(svc.verify_expected(&q, &m).is_ok());
    }

    #[test]
    fn tampered_quotes_rejected() {
        let svc = service();
        let m = Measurement::compute("gendpr", b"");
        let q = svc.issue(m, [7u8; 32]);
        let mut bad = q.clone();
        bad.report_data[0] ^= 1;
        assert_eq!(svc.verify(&bad), Err(TeeError::QuoteInvalid));
        let mut bad2 = q.to_bytes();
        bad2[95] ^= 1;
        assert_eq!(
            svc.verify(&Quote::from_bytes(&bad2)),
            Err(TeeError::QuoteInvalid)
        );
    }

    #[test]
    fn foreign_service_quotes_rejected() {
        let svc_a = service();
        let svc_b = AttestationService::new(&mut ChaChaRng::from_seed_u64(2));
        let q = svc_b.issue(Measurement::compute("gendpr", b""), [0u8; 32]);
        assert_eq!(svc_a.verify(&q), Err(TeeError::QuoteInvalid));
    }

    #[test]
    fn wrong_measurement_detected() {
        let svc = service();
        let good = Measurement::compute("gendpr/leader", b"");
        let evil = Measurement::compute("gendpr/evil", b"");
        let q = svc.issue(evil, [0u8; 32]);
        assert_eq!(
            svc.verify_expected(&q, &good),
            Err(TeeError::MeasurementMismatch)
        );
    }

    #[test]
    fn quote_wire_roundtrip() {
        let svc = service();
        let q = svc.issue(Measurement::compute("x", b"y"), [3u8; 32]);
        assert_eq!(Quote::from_bytes(&q.to_bytes()), q);
    }

    #[test]
    fn clones_share_the_root() {
        let svc = service();
        let clone = svc.clone();
        let q = svc.issue(Measurement::compute("x", b""), [0u8; 32]);
        assert!(clone.verify(&q).is_ok());
    }
}
