//! Enclave-signed assessment certificates.
//!
//! Regulation is the paper's motivation: a federation must be able to
//! *demonstrate* that a release went through the privacy assessment. This
//! module lets the leader enclave issue a verifiable certificate binding
//! together (a) the study parameters, (b) a digest of the aggregate
//! inputs the decision was computed from, and (c) the selected `L_safe` —
//! all attested by the leader's enclave quote, whose `report_data` is the
//! certificate digest. Anyone trusting the federation's attestation
//! service can later check that a published release matches an assessment
//! performed by genuine GenDPR code with the claimed parameters.

use crate::config::GwasParams;
use gendpr_crypto::sha256::Sha256;
use gendpr_genomics::snp::SnpId;
use gendpr_tee::attestation::{AttestationService, Quote};
use gendpr_tee::enclave::Enclave;
use gendpr_tee::measurement::Measurement;
use gendpr_tee::TeeError;

/// A verifiable record of one completed assessment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssessmentCertificate {
    /// Digest of the study configuration (parameters, federation size,
    /// panel width).
    pub study_digest: [u8; 32],
    /// Digest of the aggregate inputs (pooled case counts, population
    /// sizes, reference counts) the decision was computed from.
    pub inputs_digest: [u8; 32],
    /// Digest of the selected safe set.
    pub safe_digest: [u8; 32],
    /// Number of SNPs certified safe.
    pub safe_count: u64,
    /// Member combinations evaluated (collusion tolerance).
    pub evaluations: u64,
    /// The run's epoch. Always 1: a federation never re-forms, and the
    /// field stays so certificate and ledger bytes stay what they were.
    pub epoch: u64,
    /// The members whose inputs the decision covers, in member-id order:
    /// always `0..G`, kept like `epoch`.
    pub roster: Vec<u32>,
    /// Digest of the service job context (job id, requested panel, and
    /// the previously released SNPs the LR phase was seeded with). All
    /// zeros for a standalone one-shot assessment.
    pub context_digest: [u8; 32],
    /// Leader enclave quote over the certificate digest.
    pub quote: Quote,
}

fn digest_study(params: &GwasParams, gdo_count: usize, panel_len: usize) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"gendpr/certificate/study/v1\0");
    h.update(&params.maf_cutoff.to_le_bytes());
    h.update(&params.ld_cutoff.to_le_bytes());
    h.update(&params.lr.false_positive_rate.to_le_bytes());
    h.update(&params.lr.power_threshold.to_le_bytes());
    h.update(&(gdo_count as u64).to_le_bytes());
    h.update(&(panel_len as u64).to_le_bytes());
    h.finalize()
}

fn digest_inputs(case_counts: &[u64], n_case: u64, ref_counts: &[u64], n_ref: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"gendpr/certificate/inputs/v1\0");
    h.update(&(case_counts.len() as u64).to_le_bytes());
    for &c in case_counts {
        h.update(&c.to_le_bytes());
    }
    h.update(&n_case.to_le_bytes());
    h.update(&(ref_counts.len() as u64).to_le_bytes());
    for &c in ref_counts {
        h.update(&c.to_le_bytes());
    }
    h.update(&n_ref.to_le_bytes());
    h.finalize()
}

fn digest_safe(safe: &[SnpId]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"gendpr/certificate/safe/v1\0");
    h.update(&(safe.len() as u64).to_le_bytes());
    for s in safe {
        h.update(&s.0.to_le_bytes());
    }
    h.finalize()
}

fn digest_roster(epoch: u64, roster: &[u32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"gendpr/certificate/roster/v1\0");
    h.update(&epoch.to_le_bytes());
    h.update(&(roster.len() as u64).to_le_bytes());
    for &m in roster {
        h.update(&m.to_le_bytes());
    }
    h.finalize()
}

fn digest_context(context: Option<JobContext<'_>>) -> [u8; 32] {
    let Some(ctx) = context else {
        return [0u8; 32];
    };
    let mut h = Sha256::new();
    h.update(b"gendpr/certificate/context/v1\0");
    h.update(&ctx.job_id.to_le_bytes());
    h.update(&(ctx.panel.len() as u64).to_le_bytes());
    for s in ctx.panel {
        h.update(&s.0.to_le_bytes());
    }
    h.update(&(ctx.forced.len() as u64).to_le_bytes());
    for s in ctx.forced {
        h.update(&s.0.to_le_bytes());
    }
    h.finalize()
}

#[allow(clippy::too_many_arguments)] // one hash input per certificate field
fn certificate_digest(
    study: &[u8; 32],
    inputs: &[u8; 32],
    safe: &[u8; 32],
    safe_count: u64,
    evaluations: u64,
    epoch: u64,
    roster: &[u32],
    context: &[u8; 32],
) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"gendpr/certificate/v3\0");
    h.update(study);
    h.update(inputs);
    h.update(safe);
    h.update(&safe_count.to_le_bytes());
    h.update(&evaluations.to_le_bytes());
    h.update(&digest_roster(epoch, roster));
    h.update(context);
    h.finalize()
}

/// The service job a certificate was issued for: which study panel was
/// requested and which previously released SNPs seeded the LR phase.
/// Binding this into the quote makes each ledger entry auditable — a
/// verifier can confirm the release was charged against the *cumulative*
/// history, not assessed in isolation.
#[derive(Debug, Clone, Copy)]
pub struct JobContext<'a> {
    /// Service-assigned job id.
    pub job_id: u64,
    /// Requested study panel.
    pub panel: &'a [SnpId],
    /// Previously released SNPs forced into the LR seed.
    pub forced: &'a [SnpId],
}

/// All the facts a certificate binds, supplied at issue and verify time.
#[derive(Debug, Clone, Copy)]
pub struct AssessmentFacts<'a> {
    /// Study parameters.
    pub params: &'a GwasParams,
    /// Federation size.
    pub gdo_count: usize,
    /// Panel width (`L_des`).
    pub panel_len: usize,
    /// Pooled case minor-allele counts over `L_des`.
    pub case_counts: &'a [u64],
    /// Total case individuals.
    pub n_case: u64,
    /// Reference minor-allele counts over `L_des`.
    pub ref_counts: &'a [u64],
    /// Reference individuals.
    pub n_ref: u64,
    /// The certified safe set.
    pub safe: &'a [SnpId],
    /// Member combinations evaluated.
    pub evaluations: u64,
    /// The run's epoch (always 1).
    pub epoch: u64,
    /// The members the decision covers (member ids, ascending).
    pub roster: &'a [u32],
    /// Service job context, if issued by the long-running assessment
    /// service; `None` for a standalone one-shot run.
    pub context: Option<JobContext<'a>>,
}

impl AssessmentCertificate {
    /// Issues a certificate from inside the leader enclave.
    #[must_use]
    pub fn issue<S>(leader: &Enclave<S>, facts: &AssessmentFacts<'_>) -> Self {
        let study_digest = digest_study(facts.params, facts.gdo_count, facts.panel_len);
        let inputs_digest = digest_inputs(
            facts.case_counts,
            facts.n_case,
            facts.ref_counts,
            facts.n_ref,
        );
        let safe_digest = digest_safe(facts.safe);
        let context_digest = digest_context(facts.context);
        let report = certificate_digest(
            &study_digest,
            &inputs_digest,
            &safe_digest,
            facts.safe.len() as u64,
            facts.evaluations,
            facts.epoch,
            facts.roster,
            &context_digest,
        );
        Self {
            study_digest,
            inputs_digest,
            safe_digest,
            safe_count: facts.safe.len() as u64,
            evaluations: facts.evaluations,
            epoch: facts.epoch,
            roster: facts.roster.to_vec(),
            context_digest,
            quote: leader.quote(report),
        }
    }

    /// Verifies the certificate against the federation's attestation
    /// service, the expected GenDPR enclave build, and the claimed facts.
    ///
    /// # Errors
    ///
    /// [`TeeError::QuoteInvalid`] / [`TeeError::MeasurementMismatch`] for
    /// attestation failures; [`TeeError::HandshakeBindingInvalid`] when
    /// the quote does not bind this certificate's digests;
    /// [`TeeError::ChannelMessageRejected`] when the supplied facts do not
    /// hash to the certified digests.
    pub fn verify(
        &self,
        service: &AttestationService,
        expected: &Measurement,
        facts: &AssessmentFacts<'_>,
    ) -> Result<(), TeeError> {
        service.verify_expected(&self.quote, expected)?;
        let report = certificate_digest(
            &self.study_digest,
            &self.inputs_digest,
            &self.safe_digest,
            self.safe_count,
            self.evaluations,
            self.epoch,
            &self.roster,
            &self.context_digest,
        );
        if self.quote.report_data != report {
            return Err(TeeError::HandshakeBindingInvalid);
        }
        let facts_ok = self.study_digest
            == digest_study(facts.params, facts.gdo_count, facts.panel_len)
            && self.inputs_digest
                == digest_inputs(
                    facts.case_counts,
                    facts.n_case,
                    facts.ref_counts,
                    facts.n_ref,
                )
            && self.safe_digest == digest_safe(facts.safe)
            && self.safe_count == facts.safe.len() as u64
            && self.evaluations == facts.evaluations
            && self.epoch == facts.epoch
            && self.roster == facts.roster
            && self.context_digest == digest_context(facts.context);
        if facts_ok {
            Ok(())
        } else {
            Err(TeeError::ChannelMessageRejected)
        }
    }

    /// Short hex fingerprint for logs and audit trails.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let report = certificate_digest(
            &self.study_digest,
            &self.inputs_digest,
            &self.safe_digest,
            self.safe_count,
            self.evaluations,
            self.epoch,
            &self.roster,
            &self.context_digest,
        );
        report[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_crypto::rng::ChaChaRng;
    use gendpr_tee::platform::Platform;

    fn setup() -> (AttestationService, Enclave<()>) {
        let mut rng = ChaChaRng::from_seed_u64(5);
        let service = AttestationService::new(&mut rng);
        let platform = Platform::new("leader", &service, &mut rng);
        let enclave = platform.launch_enclave("gendpr/member/v1", ());
        (service, enclave)
    }

    fn facts<'a>(
        params: &'a GwasParams,
        case_counts: &'a [u64],
        ref_counts: &'a [u64],
        safe: &'a [SnpId],
    ) -> AssessmentFacts<'a> {
        AssessmentFacts {
            params,
            gdo_count: 3,
            panel_len: case_counts.len(),
            case_counts,
            n_case: 100,
            ref_counts,
            n_ref: 90,
            safe,
            evaluations: 1,
            epoch: 1,
            roster: &[0, 1, 2],
            context: None,
        }
    }

    #[test]
    fn issue_and_verify_roundtrip() {
        let (service, enclave) = setup();
        let params = GwasParams::secure_genome_defaults();
        let cc = vec![10u64, 20, 30];
        let rc = vec![8u64, 19, 33];
        let safe = vec![SnpId(0), SnpId(2)];
        let f = facts(&params, &cc, &rc, &safe);
        let cert = AssessmentCertificate::issue(&enclave, &f);
        assert!(cert.verify(&service, &enclave.measurement(), &f).is_ok());
        assert_eq!(cert.safe_count, 2);
        assert_eq!(cert.fingerprint().len(), 16);
    }

    #[test]
    fn tampered_facts_fail_verification() {
        let (service, enclave) = setup();
        let params = GwasParams::secure_genome_defaults();
        let cc = vec![10u64, 20, 30];
        let rc = vec![8u64, 19, 33];
        let safe = vec![SnpId(0), SnpId(2)];
        let f = facts(&params, &cc, &rc, &safe);
        let cert = AssessmentCertificate::issue(&enclave, &f);

        // Different safe set claimed.
        let other_safe = vec![SnpId(0), SnpId(1)];
        let f2 = facts(&params, &cc, &rc, &other_safe);
        assert_eq!(
            cert.verify(&service, &enclave.measurement(), &f2),
            Err(TeeError::ChannelMessageRejected)
        );

        // Different parameters claimed.
        let mut loose = params;
        loose.maf_cutoff = 0.01;
        let f3 = facts(&loose, &cc, &rc, &safe);
        assert_eq!(
            cert.verify(&service, &enclave.measurement(), &f3),
            Err(TeeError::ChannelMessageRejected)
        );

        // Different inputs claimed.
        let cc2 = vec![11u64, 20, 30];
        let f4 = facts(&params, &cc2, &rc, &safe);
        assert_eq!(
            cert.verify(&service, &enclave.measurement(), &f4),
            Err(TeeError::ChannelMessageRejected)
        );

        // Different epoch or roster claimed.
        let mut f5 = facts(&params, &cc, &rc, &safe);
        f5.epoch = 2;
        assert_eq!(
            cert.verify(&service, &enclave.measurement(), &f5),
            Err(TeeError::ChannelMessageRejected)
        );
        let mut f6 = facts(&params, &cc, &rc, &safe);
        f6.roster = &[0, 2];
        assert_eq!(
            cert.verify(&service, &enclave.measurement(), &f6),
            Err(TeeError::ChannelMessageRejected)
        );
    }

    #[test]
    fn degraded_roster_is_bound_into_the_quote() {
        let (service, enclave) = setup();
        let params = GwasParams::secure_genome_defaults();
        let cc = vec![10u64, 20, 30];
        let rc = vec![8u64, 19, 33];
        let safe = vec![SnpId(0)];
        let mut f = facts(&params, &cc, &rc, &safe);
        f.epoch = 2;
        f.roster = &[0, 2];
        let cert = AssessmentCertificate::issue(&enclave, &f);
        assert_eq!(cert.epoch, 2);
        assert_eq!(cert.roster, vec![0, 2]);
        assert!(cert.verify(&service, &enclave.measurement(), &f).is_ok());

        // Rewriting the roster after issuance breaks the quote binding.
        let mut forged = cert;
        forged.roster = vec![0, 1, 2];
        assert_eq!(
            forged.verify(&service, &enclave.measurement(), &f),
            Err(TeeError::HandshakeBindingInvalid)
        );
    }

    #[test]
    fn job_context_is_bound_into_the_quote() {
        let (service, enclave) = setup();
        let params = GwasParams::secure_genome_defaults();
        let cc = vec![10u64, 20, 30];
        let rc = vec![8u64, 19, 33];
        let safe = vec![SnpId(2)];
        let panel = vec![SnpId(1), SnpId(2)];
        let forced = vec![SnpId(0)];
        let mut f = facts(&params, &cc, &rc, &safe);
        f.context = Some(JobContext {
            job_id: 2,
            panel: &panel,
            forced: &forced,
        });
        let cert = AssessmentCertificate::issue(&enclave, &f);
        assert_ne!(cert.context_digest, [0u8; 32]);
        assert!(cert.verify(&service, &enclave.measurement(), &f).is_ok());

        // Claiming a different seed set (or no context at all) fails.
        let mut f2 = f;
        f2.context = Some(JobContext {
            job_id: 2,
            panel: &panel,
            forced: &[],
        });
        assert_eq!(
            cert.verify(&service, &enclave.measurement(), &f2),
            Err(TeeError::ChannelMessageRejected)
        );
        let mut f3 = f;
        f3.context = None;
        assert_eq!(
            cert.verify(&service, &enclave.measurement(), &f3),
            Err(TeeError::ChannelMessageRejected)
        );

        // A standalone certificate carries the all-zero context digest.
        let plain = AssessmentCertificate::issue(&enclave, &facts(&params, &cc, &rc, &safe));
        assert_eq!(plain.context_digest, [0u8; 32]);
    }

    #[test]
    fn forged_or_foreign_quotes_fail() {
        let (service, enclave) = setup();
        let params = GwasParams::secure_genome_defaults();
        let cc = vec![1u64];
        let rc = vec![1u64];
        let safe = vec![SnpId(0)];
        let f = facts(&params, &cc, &rc, &safe);
        let mut cert = AssessmentCertificate::issue(&enclave, &f);

        // Mutated digest breaks the quote binding.
        cert.safe_count += 1;
        assert!(matches!(
            cert.verify(&service, &enclave.measurement(), &f),
            Err(TeeError::HandshakeBindingInvalid | TeeError::ChannelMessageRejected)
        ));

        // A different enclave build cannot pass for the expected one.
        let cert2 = AssessmentCertificate::issue(&enclave, &f);
        let other = Measurement::compute("gendpr/evil", b"");
        assert_eq!(
            cert2.verify(&service, &other, &f),
            Err(TeeError::MeasurementMismatch)
        );
    }
}
