//! A TEE-enabled machine at one federation member's premises.
//!
//! Each GDO "maintains a database with genomes and a TEE-enabled server"
//! (paper §4). The [`Platform`] models that server: it holds the
//! platform-unique sealing root (SGX's fuse key analogue) and the quoting
//! capability tied to the federation's [`AttestationService`].

use crate::attestation::{AttestationService, Quote};
use crate::enclave::Enclave;
use crate::measurement::Measurement;
use gendpr_crypto::rng::ChaChaRng;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

#[derive(Debug)]
pub(crate) struct PlatformInner {
    pub(crate) name: String,
    pub(crate) sealing_root: [u8; 32],
    pub(crate) service: AttestationService,
    /// The next sealing nonce. Every enclave of one build on this platform
    /// seals under the same key, so the counter is the platform's, shared
    /// by all of them: two instances never seal under one nonce.
    pub(crate) seal_counter: AtomicU64,
}

/// One member's TEE-enabled server.
#[derive(Debug, Clone)]
pub struct Platform {
    pub(crate) inner: Arc<PlatformInner>,
}

impl Platform {
    /// Provisions a platform registered with the federation's attestation
    /// service. The RNG seeds the platform-unique sealing root.
    #[must_use]
    pub fn new(name: &str, service: &AttestationService, rng: &mut ChaChaRng) -> Self {
        Self {
            inner: Arc::new(PlatformInner {
                name: name.to_string(),
                sealing_root: rng.gen_key(),
                service: service.clone(),
                seal_counter: AtomicU64::new(0),
            }),
        }
    }

    /// The platform's human-readable name (for logs and metrics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Launches an enclave hosting trusted state `state`; the measurement
    /// is computed over `code_identity` (an empty configuration).
    #[must_use]
    pub fn launch_enclave<S>(&self, code_identity: &str, state: S) -> Enclave<S> {
        self.launch_enclave_with_config(code_identity, b"", state)
    }

    /// Launches an enclave with explicit configuration bytes folded into
    /// the measurement.
    #[must_use]
    pub fn launch_enclave_with_config<S>(
        &self,
        code_identity: &str,
        config: &[u8],
        state: S,
    ) -> Enclave<S> {
        Enclave::launch(
            self.clone(),
            Measurement::compute(code_identity, config),
            state,
        )
    }

    /// Issues a quote for an enclave running on this platform — the
    /// quoting-enclave path.
    #[must_use]
    pub(crate) fn quote(&self, measurement: Measurement, report_data: [u8; 32]) -> Quote {
        self.inner.service.issue(measurement, report_data)
    }

    /// The attestation service this platform chains to.
    #[must_use]
    pub fn service(&self) -> &AttestationService {
        &self.inner.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_quotes_verify_against_its_service() {
        let mut rng = ChaChaRng::from_seed_u64(1);
        let svc = AttestationService::new(&mut rng);
        let platform = Platform::new("gdo-0", &svc, &mut rng);
        assert_eq!(platform.name(), "gdo-0");
        let m = Measurement::compute("code", b"");
        let q = platform.quote(m, [9u8; 32]);
        assert!(svc.verify_expected(&q, &m).is_ok());
    }

    #[test]
    fn distinct_platforms_have_distinct_sealing_roots() {
        let mut rng = ChaChaRng::from_seed_u64(2);
        let svc = AttestationService::new(&mut rng);
        let a = Platform::new("a", &svc, &mut rng);
        let b = Platform::new("b", &svc, &mut rng);
        assert_ne!(a.inner.sealing_root, b.inner.sealing_root);
    }
}
