//! The correctness audit every run performs on the program's outputs:
//! certificates verify against facts recomputed from the raw inputs,
//! the survivor sets nest, served ledgers are ordered and charged
//! against a committed prefix, and — for the default seed — the outputs
//! hash to the fingerprint committed in `expected.json`.

use crate::inputs::GDOS;
use crate::json::Json;
use gendpr_core::certificate::{AssessmentCertificate, AssessmentFacts, JobContext};
use gendpr_core::collusion::evaluation_subsets;
use gendpr_core::config::{FederationConfig, GwasParams};
use gendpr_core::runtime::{expected_measurement, RuntimeReport};
use gendpr_crypto::rng::ChaChaRng;
use gendpr_crypto::sha256::Sha256;
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::snp::SnpId;
use gendpr_service::LedgerRecord;
use gendpr_tee::attestation::AttestationService;
use gendpr_tee::measurement::Measurement;
use std::path::Path;

/// The seed whose outputs `expected.json` pins.
pub const DEFAULT_SEED: u64 = 1;

/// Plays the auditor of the paper's §5: rebuilds the certified facts
/// from the cohort and checks the enclave's signature over them.
pub struct Auditor {
    service: AttestationService,
    measurement: Measurement,
    params: GwasParams,
    evaluations: u64,
    roster: Vec<u32>,
    panel_len: usize,
    case_counts: Vec<u64>,
    n_case: u64,
    ref_counts: Vec<u64>,
    n_ref: u64,
}

impl Auditor {
    #[must_use]
    pub fn new(config: &FederationConfig, params: &GwasParams, cohort: &Cohort) -> Self {
        // The attestation root is derived from the federation seed with
        // the fork label the runtime uses.
        let mut master = ChaChaRng::from_seed_u64(config.seed);
        Self {
            service: AttestationService::new(&mut master.fork("attestation-service")),
            measurement: expected_measurement(params),
            params: *params,
            evaluations: evaluation_subsets(config.gdo_count, config.collusion).len() as u64,
            roster: (0..GDOS as u32).collect(),
            panel_len: cohort.panel().len(),
            case_counts: cohort.case().column_counts(),
            n_case: cohort.case().individuals() as u64,
            ref_counts: cohort.reference().column_counts(),
            n_ref: cohort.reference().individuals() as u64,
        }
    }

    fn verify(
        &self,
        certificate: &AssessmentCertificate,
        safe: &[SnpId],
        context: Option<JobContext<'_>>,
    ) -> Result<(), String> {
        let facts = AssessmentFacts {
            params: &self.params,
            gdo_count: GDOS,
            panel_len: self.panel_len,
            case_counts: &self.case_counts,
            n_case: self.n_case,
            ref_counts: &self.ref_counts,
            n_ref: self.n_ref,
            safe,
            evaluations: self.evaluations,
            epoch: 1,
            roster: &self.roster,
            context,
        };
        certificate
            .verify(&self.service, &self.measurement, &facts)
            .map_err(|e| format!("certificate does not verify: {e}"))
    }

    /// A one-shot assessment: the certificate verifies and
    /// `safe ⊆ l″ ⊆ l′ ⊆ panel`.
    ///
    /// # Errors
    ///
    /// The first check that failed, in words.
    pub fn check_assessment(&self, report: &RuntimeReport) -> Result<(), String> {
        self.verify(&report.certificate, &report.safe_snps, None)?;
        if !is_subset(&report.safe_snps, &report.l_double_prime) {
            return Err("safe set is not a subset of l″".into());
        }
        if !is_subset(&report.l_double_prime, &report.l_prime) {
            return Err("l″ is not a subset of l′".into());
        }
        if report.l_prime.iter().any(|s| s.index() >= self.panel_len) {
            return Err("l′ names a SNP outside the panel".into());
        }
        Ok(())
    }

    /// A served job's record: it carries a certificate that verifies
    /// against the job's own context, and releases only SNPs of its
    /// panel that were not already public.
    ///
    /// # Errors
    ///
    /// The first check that failed, in words.
    pub fn check_record(&self, record: &LedgerRecord) -> Result<(), String> {
        let wire = record
            .certificate
            .as_ref()
            .ok_or_else(|| format!("job {} has no certificate", record.job_id))?;
        let ids = |v: &[u32]| v.iter().copied().map(SnpId).collect::<Vec<_>>();
        let (panel, forced, released) = (
            ids(&record.panel),
            ids(&record.forced),
            ids(&record.released),
        );
        self.verify(
            &wire.to_certificate(),
            &released,
            Some(JobContext {
                job_id: record.job_id,
                panel: &panel,
                forced: &forced,
            }),
        )
        .map_err(|e| format!("job {}: {e}", record.job_id))?;
        if !released.iter().all(|s| panel.contains(s)) {
            return Err(format!("job {} released outside its panel", record.job_id));
        }
        if released.iter().any(|s| forced.contains(s)) {
            return Err(format!("job {} re-released a public SNP", record.job_id));
        }
        Ok(())
    }
}

/// Both slices are sorted ascending (panel order).
fn is_subset(inner: &[SnpId], outer: &[SnpId]) -> bool {
    inner.iter().all(|s| outer.binary_search(s).is_ok())
}

/// Structural audit of a served ledger: job ids strictly increase, and
/// every record was charged against the released union of a committed
/// prefix of the records before it (the scheduler snapshots the ledger
/// at dispatch, so with two lanes the prefix may end a job or two
/// early — it may never be anything else).
///
/// # Errors
///
/// The first record that breaks an invariant.
pub fn audit_ledger(records: &[LedgerRecord]) -> Result<(), String> {
    let mut prefixes: Vec<Vec<u32>> = vec![Vec::new()];
    for (i, record) in records.iter().enumerate() {
        if i > 0 && record.job_id <= records[i - 1].job_id {
            return Err(format!(
                "job ids not strictly increasing: {} then {}",
                records[i - 1].job_id,
                record.job_id
            ));
        }
        if !prefixes.contains(&record.forced) {
            return Err(format!(
                "job {} was seeded with something other than a committed prefix",
                record.job_id
            ));
        }
        let mut next = prefixes.last().expect("starts non-empty").clone();
        next.extend_from_slice(&record.released);
        next.sort_unstable();
        next.dedup();
        // Once the study is fully released the union stops changing;
        // keeping one copy keeps the audit linear in practice.
        if prefixes.last() != Some(&next) {
            prefixes.push(next);
        }
    }
    Ok(())
}

/// SHA-256 over everything a run's outputs are made of, as lowercase
/// hex: lists are length-prefixed so boundaries cannot shift.
#[derive(Default)]
pub struct Fingerprint(Sha256);

impl Fingerprint {
    pub fn ids(&mut self, ids: impl ExactSizeIterator<Item = u32>) {
        self.number(ids.len() as u64);
        for id in ids {
            self.0.update(&id.to_le_bytes());
        }
    }

    pub fn number(&mut self, n: u64) {
        self.0.update(&n.to_le_bytes());
    }

    #[must_use]
    pub fn hex(self) -> String {
        self.0
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// Fingerprint of a one-shot assessment: l′, l″, the safe set and the
/// traffic it took.
#[must_use]
pub fn assessment_fingerprint(report: &RuntimeReport) -> String {
    let mut fp = Fingerprint::default();
    for set in [&report.l_prime, &report.l_double_prime, &report.safe_snps] {
        fp.ids(set.iter().map(|s| s.0));
    }
    fp.number(report.traffic.messages);
    fp.number(report.traffic.wire_bytes);
    fp.hex()
}

/// Messages and wire bytes summed over a record's member links.
#[must_use]
pub fn record_traffic(record: &LedgerRecord) -> (u64, u64) {
    record
        .traffic
        .iter()
        .fold((0, 0), |(m, b), l| (m + l.messages, b + l.wire_bytes))
}

/// Fingerprint of the canonical served sequence: per record its panel,
/// seed set and release, and — where the fabric delivers without delay,
/// so failure-detector probes never fire and the count repeats exactly —
/// its traffic.
#[must_use]
pub fn ledger_fingerprint(records: &[LedgerRecord], with_traffic: bool) -> String {
    let mut fp = Fingerprint::default();
    fp.number(records.len() as u64);
    for record in records {
        fp.number(record.job_id);
        for set in [&record.panel, &record.forced, &record.released] {
            fp.ids(set.iter().copied());
        }
        if with_traffic {
            let (messages, wire_bytes) = record_traffic(record);
            fp.number(messages);
            fp.number(wire_bytes);
        }
    }
    fp.hex()
}

/// Reads the fingerprint `expected.json` pins for `workload`.
///
/// # Errors
///
/// The file is missing or malformed, or has no entry for the workload.
pub fn expected_fingerprint(path: &Path, workload: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)?
        .get(workload)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{} has no fingerprint for {workload}", path.display()))
}

/// Records `fingerprint` for `workload` in `expected.json`, keeping the
/// other workloads' entries.
///
/// # Errors
///
/// The I/O error of writing the file.
pub fn write_expected(path: &Path, workload: &str, fingerprint: &str) -> Result<(), String> {
    let mut fields: Vec<(String, Json)> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .map(|doc| doc.fields().to_vec())
        .unwrap_or_default();
    fields.retain(|(k, _)| k != workload);
    fields.push((workload.to_string(), Json::str(fingerprint)));
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(path, Json::Obj(fields).render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_service::JobKind;

    fn record(job_id: u64, forced: &[u32], released: &[u32]) -> LedgerRecord {
        LedgerRecord {
            job_id,
            kind: JobKind::Federated,
            panel: (0..16).collect(),
            forced: forced.to_vec(),
            released: released.to_vec(),
            final_power: 0.0,
            final_threshold: 0.0,
            case_freqs: vec![],
            ref_freqs: vec![],
            epoch: 1,
            roster: vec![0, 1, 2],
            traffic: vec![],
            certificate: None,
        }
    }

    #[test]
    fn ledger_audit_accepts_committed_prefixes_only() {
        let good = [
            record(1, &[], &[3, 5]),
            // Dispatched before job 1 committed: seeded with the empty prefix.
            record(2, &[], &[7]),
            record(3, &[3, 5, 7], &[]),
        ];
        assert!(audit_ledger(&good).is_ok());

        let unordered = [record(2, &[], &[3]), record(1, &[3], &[])];
        assert!(audit_ledger(&unordered).unwrap_err().contains("increasing"));

        // Seeded with job 2's release but not job 1's: not a prefix.
        let skipped = [
            record(1, &[], &[3]),
            record(2, &[3], &[7]),
            record(3, &[7], &[]),
        ];
        assert!(audit_ledger(&skipped).unwrap_err().contains("prefix"));
    }

    #[test]
    fn fingerprint_separates_list_boundaries() {
        let hash = |a: &[u32], b: &[u32]| {
            let mut fp = Fingerprint::default();
            fp.ids(a.iter().copied());
            fp.ids(b.iter().copied());
            fp.hex()
        };
        assert_ne!(hash(&[1, 2], &[3]), hash(&[1], &[2, 3]));
        assert_eq!(hash(&[1, 2], &[3]), hash(&[1, 2], &[3]));
        assert_eq!(hash(&[], &[]).len(), 64);
    }
}
