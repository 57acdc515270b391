//! The persistent release ledger: an append-only, checksummed on-disk
//! log of every certified release.
//!
//! Releases are irreversible — once a SNP's statistics are public they
//! cannot be retracted — so the service must remember every release it
//! ever certified, across restarts, and charge the union against each
//! new job's LR power budget. The ledger is that memory.
//!
//! # On disk
//!
//! One checksummed frame per [`LedgerRecord`], optionally mirrored across
//! replica files under a majority-fsync quorum
//! ([`ReleaseLedger::open_replicated`]). The frame format, the torn-tail
//! recovery and the mirror heal / retire / quorum rules are the crate's
//! shared durable log (`log.rs`, also under the track claim log) and are
//! described there; this module owns the record's fields and the views
//! folded from them: the job-id index, the released union, the per-link
//! traffic totals and the next job id.

use crate::error::ServiceError;
use crate::log::{FrameLog, KillPoints, LogNames, Store};
use crate::telemetry;
use gendpr_core::certificate::AssessmentCertificate;
use gendpr_core::serving::{JobOutcome, JobSpec, LinkUsage};
use gendpr_fednet::wire::{Decode, Encode, Reader, WireError};
use gendpr_fednet::wire_struct;
use gendpr_genomics::snp::SnpId;
use gendpr_obs::{event, Level};
use gendpr_tee::attestation::Quote;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::File;
use std::path::{Path, PathBuf};

/// How a ledger record was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Federated assessment by the attested member session.
    Federated,
    /// Local dynamic batch assessment, uncertified. No daemon writes it
    /// any more; it is decoded so ledgers written by older daemons still
    /// open, audit and seed later jobs.
    Dynamic,
}

impl Encode for JobKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Federated => 0u8.encode(buf),
            Self::Dynamic => 1u8.encode(buf),
        }
    }
}

impl Decode for JobKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Self::Federated),
            1 => Ok(Self::Dynamic),
            _ => Err(WireError::InvalidValue("job kind")),
        }
    }
}

/// Traffic of one directed member link during one job (the on-wire /
/// on-disk shape of [`LinkUsage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkRecord {
    /// Sending member.
    pub from: u32,
    /// Receiving member.
    pub to: u32,
    /// Messages the job put on the link.
    pub messages: u64,
    /// Application payload bytes before encryption/framing.
    pub plaintext_bytes: u64,
    /// Bytes actually put on the wire.
    pub wire_bytes: u64,
}
wire_struct!(LinkRecord {
    from,
    to,
    messages,
    plaintext_bytes,
    wire_bytes
});

impl From<LinkUsage> for LinkRecord {
    fn from(link: LinkUsage) -> Self {
        Self {
            from: link.from,
            to: link.to,
            messages: link.stats.messages,
            plaintext_bytes: link.stats.plaintext_bytes,
            wire_bytes: link.stats.wire_bytes,
        }
    }
}

/// An [`AssessmentCertificate`] flattened for the wire codec (the quote
/// travels as its canonical 96-byte serialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCertificate {
    /// See [`AssessmentCertificate::study_digest`].
    pub study_digest: [u8; 32],
    /// See [`AssessmentCertificate::inputs_digest`].
    pub inputs_digest: [u8; 32],
    /// See [`AssessmentCertificate::safe_digest`].
    pub safe_digest: [u8; 32],
    /// See [`AssessmentCertificate::safe_count`].
    pub safe_count: u64,
    /// See [`AssessmentCertificate::evaluations`].
    pub evaluations: u64,
    /// See [`AssessmentCertificate::epoch`].
    pub epoch: u64,
    /// See [`AssessmentCertificate::roster`].
    pub roster: Vec<u32>,
    /// See [`AssessmentCertificate::context_digest`].
    pub context_digest: [u8; 32],
    /// [`Quote::to_bytes`] of the leader enclave quote.
    pub quote: [u8; 96],
}
wire_struct!(WireCertificate {
    study_digest,
    inputs_digest,
    safe_digest,
    safe_count,
    evaluations,
    epoch,
    roster,
    context_digest,
    quote
});

impl From<&AssessmentCertificate> for WireCertificate {
    fn from(cert: &AssessmentCertificate) -> Self {
        Self {
            study_digest: cert.study_digest,
            inputs_digest: cert.inputs_digest,
            safe_digest: cert.safe_digest,
            safe_count: cert.safe_count,
            evaluations: cert.evaluations,
            epoch: cert.epoch,
            roster: cert.roster.clone(),
            context_digest: cert.context_digest,
            quote: cert.quote.to_bytes(),
        }
    }
}

impl WireCertificate {
    /// Reconstructs the verifiable certificate.
    #[must_use]
    pub fn to_certificate(&self) -> AssessmentCertificate {
        AssessmentCertificate {
            study_digest: self.study_digest,
            inputs_digest: self.inputs_digest,
            safe_digest: self.safe_digest,
            safe_count: self.safe_count,
            evaluations: self.evaluations,
            epoch: self.epoch,
            roster: self.roster.clone(),
            context_digest: self.context_digest,
            quote: Quote::from_bytes(&self.quote),
        }
    }
}

/// One certified release: everything a later job (or an auditor) needs —
/// the SNP ids, the published statistics, the certificate and the session
/// facts it was produced under.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Service-assigned job id (strictly increasing across the ledger).
    pub job_id: u64,
    /// How the record was produced.
    pub kind: JobKind,
    /// The requested study panel (SNP ids).
    pub panel: Vec<u32>,
    /// SNPs already public when the job ran — what its LR phase was
    /// seeded with.
    pub forced: Vec<u32>,
    /// Newly released SNP ids (disjoint from `forced`).
    pub released: Vec<u32>,
    /// Adversary power over forced ∪ released after the job.
    pub final_power: f64,
    /// Federated jobs: the LR detection threshold τ (the null quantile)
    /// the power was measured at. Dynamic jobs (ledgers written by older
    /// daemons): the power bound.
    pub final_threshold: f64,
    /// Case minor-allele frequencies of the released SNPs — the
    /// statistics the study may now publish.
    pub case_freqs: Vec<f64>,
    /// Reference frequencies of the released SNPs.
    pub ref_freqs: Vec<f64>,
    /// Session epoch the job completed in (batch count for dynamic jobs).
    pub epoch: u64,
    /// Member roster that produced the release (empty for dynamic jobs).
    pub roster: Vec<u32>,
    /// Per-link member traffic the job generated (empty for dynamic
    /// jobs, which run locally).
    pub traffic: Vec<LinkRecord>,
    /// Enclave-signed certificate (absent for dynamic jobs).
    pub certificate: Option<WireCertificate>,
}
wire_struct!(LedgerRecord {
    job_id,
    kind,
    panel,
    forced,
    released,
    final_power,
    final_threshold,
    case_freqs,
    ref_freqs,
    epoch,
    roster,
    traffic,
    certificate
});

impl LedgerRecord {
    /// Builds the record of a completed federated job.
    #[must_use]
    pub fn from_outcome(spec: &JobSpec, outcome: &JobOutcome) -> Self {
        Self {
            job_id: outcome.job_id,
            kind: JobKind::Federated,
            panel: spec.panel.iter().map(|s| s.0).collect(),
            forced: spec.forced.iter().map(|s| s.0).collect(),
            released: outcome.released.iter().map(|s| s.0).collect(),
            final_power: outcome.final_power,
            final_threshold: outcome.final_threshold,
            case_freqs: outcome.case_freqs.clone(),
            ref_freqs: outcome.ref_freqs.clone(),
            epoch: outcome.epoch,
            roster: outcome.roster.clone(),
            traffic: outcome.traffic.iter().copied().map(Into::into).collect(),
            certificate: Some((&outcome.certificate).into()),
        }
    }
}

/// The names the release ledger reports the shared log mechanics under.
const LEDGER_LOG: LogNames = LogNames {
    log: "ledger",
    target: "ledger",
    healed: "ledger_replica_healed",
    winner_trimmed: None,
    tail_dropped: "ledger_tail_dropped_on_refresh",
    tail_healed: "ledger_mirror_tail_healed",
    retired: "ledger_replica_retired",
    kill: Some(KillPoints {
        tear: "ledger_tear",
        append: "ledger_append",
        commit: "ledger_commit",
    }),
};

/// The append-only on-disk log of certified releases. The store is a
/// crate-private seam (see `log.rs`); outside the crate it is always a
/// real file.
#[derive(Debug)]
pub struct ReleaseLedger<S = File> {
    log: FrameLog<LedgerRecord, S>,
    records: Vec<LedgerRecord>,
    // The views below are derived from `records` alone and maintained by
    // `push`, the one path loaded, appended and refreshed records take —
    // no reader rescans the log and no other module keeps a copy.
    /// Position in `records` of each job id (the first, should an id
    /// ever repeat).
    index: HashMap<u64, usize>,
    /// Every SNP ever released.
    released: BTreeSet<SnpId>,
    /// Per-link traffic totals, keyed by `(from, to)`.
    link_totals: BTreeMap<(u32, u32), LinkRecord>,
    /// One past the highest job id ever recorded.
    next_id: u64,
    /// Bytes discarded from the primary's torn tail by
    /// [`ReleaseLedger::open`].
    recovered: u64,
}

impl ReleaseLedger {
    /// Opens (creating if absent) the ledger at `path`, loads every
    /// intact record and truncates any torn tail left by a crash
    /// mid-append.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ServiceError> {
        Self::open_replicated(path, &[])
    }

    /// Opens the ledger mirrored across `primary` plus `replicas`
    /// (creating any that are absent): the file with the longest intact
    /// record prefix wins — the earliest on ties, so a set of identical
    /// files loads exactly like [`ReleaseLedger::open`] — every other
    /// file is healed to it, and subsequent appends go to all of them
    /// under a majority-fsync quorum.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures: at open every file
    /// must be readable and healable.
    pub fn open_replicated(
        primary: impl AsRef<Path>,
        replicas: &[PathBuf],
    ) -> Result<Self, ServiceError> {
        Self::open_in(primary.as_ref(), replicas)
    }
}

impl<S: Store> ReleaseLedger<S> {
    /// [`ReleaseLedger::open_replicated`] over any store.
    pub(crate) fn open_in(primary: &Path, replicas: &[PathBuf]) -> Result<Self, ServiceError> {
        let (log, records, heal) = FrameLog::open(primary, replicas, &LEDGER_LOG)?;
        // The primary's own torn tail is accounted the way `open`
        // always did — recovery must be loud, it is exactly what the
        // soak harness audits for.
        if heal.primary_torn_bytes > 0 {
            telemetry::ledger_truncated_frames().add(heal.primary_torn_frames);
            event(
                Level::Warn,
                "ledger",
                "ledger_truncated",
                &[
                    ("path", log.path().display().to_string().as_str().into()),
                    ("bytes", heal.primary_torn_bytes.into()),
                    ("frames", heal.primary_torn_frames.into()),
                    ("records_kept", heal.primary_kept.into()),
                ],
            );
        }
        telemetry::ledger_fsyncs().add(heal.rewritten);
        telemetry::ledger_replica_heals().add(heal.healed);
        let mut ledger = Self {
            log,
            records: Vec::with_capacity(records.len()),
            index: HashMap::with_capacity(records.len()),
            released: BTreeSet::new(),
            link_totals: BTreeMap::new(),
            next_id: 1,
            recovered: heal.primary_torn_bytes,
        };
        for record in records {
            ledger.push(record);
        }
        telemetry::ledger_records().set(ledger.records.len() as i64);
        Ok(ledger)
    }

    /// Extends the in-memory view by one durable record, folding it into
    /// every derived view.
    fn push(&mut self, record: LedgerRecord) {
        self.next_id = self.next_id.max(record.job_id.saturating_add(1));
        self.index
            .entry(record.job_id)
            .or_insert(self.records.len());
        self.released
            .extend(record.released.iter().copied().map(SnpId));
        for link in &record.traffic {
            let total = self
                .link_totals
                .entry((link.from, link.to))
                .or_insert(LinkRecord {
                    from: link.from,
                    to: link.to,
                    ..LinkRecord::default()
                });
            // Counters come off disk: a total saturates, never wraps.
            total.messages = total.messages.saturating_add(link.messages);
            total.plaintext_bytes = total.plaintext_bytes.saturating_add(link.plaintext_bytes);
            total.wire_bytes = total.wire_bytes.saturating_add(link.wire_bytes);
        }
        self.records.push(record);
    }

    /// Appends one record durably: fsynced on the primary and, with
    /// replicas, acknowledged by a majority of the whole set before this
    /// returns. A replica whose write fails is retired until the next
    /// open heals it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the primary write fails or the quorum
    /// is lost; the in-memory view is only extended after the quorum
    /// holds. (A quorum-lost append may still have reached some files —
    /// exactly like a crash after fsync, the record can resurface at
    /// the next open.)
    pub fn append(&mut self, record: LedgerRecord) -> Result<(), ServiceError> {
        let live = self.log.live_mirrors();
        let appended = self.log.append(&record);
        // Counted whether or not the quorum held.
        telemetry::ledger_replica_write_failures().add((live - self.log.live_mirrors()) as u64);
        appended?;
        telemetry::ledger_appends().inc();
        telemetry::ledger_fsyncs().inc();
        self.push(record);
        telemetry::ledger_records().set(self.records.len() as i64);
        Ok(())
    }

    /// Picks up the records *other* processes appended since this handle
    /// last loaded or appended, and returns how many. Replica track
    /// daemons share one ledger this way: every view-then-append cycle
    /// runs under the fleet's cross-process lock, so a refresh under that
    /// lock sees exactly the committed prefix.
    ///
    /// Never call this without that lock held: a torn tail (a track
    /// killed mid-append) is truncated and lagging replicas are rewritten,
    /// which is only safe while no live process can be mid-write.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub fn refresh(&mut self) -> Result<usize, ServiceError> {
        let (records, report) = self.log.refresh()?;
        if report.dropped_bytes > 0 {
            // Crash leavings from a dead track, dropped the same way
            // open would have.
            telemetry::ledger_truncated_frames().inc();
        }
        telemetry::ledger_replica_heals().add(report.healed);
        telemetry::ledger_replica_write_failures().add(report.retired);
        let fresh = records.len();
        for record in records {
            self.push(record);
        }
        if fresh > 0 {
            telemetry::ledger_records().set(self.records.len() as i64);
        }
        Ok(fresh)
    }
}

impl<S> ReleaseLedger<S> {
    /// Every record, in append order.
    #[must_use]
    pub fn records(&self) -> &[LedgerRecord] {
        &self.records
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no release has been certified yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes of torn tail discarded when the ledger was opened.
    #[must_use]
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered
    }

    /// The ledger file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Paths of the mirror files (empty without replication).
    #[must_use]
    pub fn replica_paths(&self) -> Vec<&Path> {
        self.log.mirror_paths()
    }

    /// Mirrors still receiving appends (a failed write retires one
    /// until the next open heals it).
    #[must_use]
    pub fn live_replicas(&self) -> usize {
        self.log.live_mirrors()
    }

    /// The next job id: one past the highest ever recorded, starting at 1
    /// — stable across restarts, which keeps re-run jobs (and therefore
    /// their certificate context digests) identical.
    #[must_use]
    pub fn next_job_id(&self) -> u64 {
        self.next_id
    }

    /// Sorted union of every SNP ever released — the forced seed for the
    /// next job's LR phase.
    #[must_use]
    pub fn released_union(&self) -> Vec<SnpId> {
        self.released.iter().copied().collect()
    }

    /// Number of distinct SNPs ever released.
    #[must_use]
    pub fn released_len(&self) -> usize {
        self.released.len()
    }

    /// The committed record of `job_id`, if any.
    #[must_use]
    pub fn record(&self, job_id: u64) -> Option<&LedgerRecord> {
        self.index.get(&job_id).map(|&at| &self.records[at])
    }

    /// Whether `job_id` has a committed record.
    #[must_use]
    pub fn contains(&self, job_id: u64) -> bool {
        self.index.contains_key(&job_id)
    }

    /// Traffic of every directed member link summed over all records,
    /// in `(from, to)` order.
    #[must_use]
    pub fn link_totals(&self) -> Vec<LinkRecord> {
        self.link_totals.values().copied().collect()
    }
}

/// Audits a committed ledger against the scheduler's ordering rule: job
/// ids strictly increase, every record's `forced` seed is the released
/// union of a committed prefix no later than the record itself (a
/// certificate charges a committed prefix, never a partial or reordered
/// view), and no release overlaps its own seed.
///
/// # Errors
///
/// The first violation, rendered.
pub fn audit_records(records: &[LedgerRecord]) -> Result<(), String> {
    for pair in records.windows(2) {
        if pair[1].job_id <= pair[0].job_id {
            return Err(format!(
                "job ids not strictly increasing: {} then {}",
                pair[0].job_id, pair[1].job_id
            ));
        }
    }
    let mut prefixes: Vec<Vec<u32>> = vec![Vec::new()];
    for (i, record) in records.iter().enumerate() {
        if !prefixes.contains(&record.forced) {
            return Err(format!(
                "job {} was seeded with {:?}, not the released union of a committed prefix",
                record.job_id, record.forced
            ));
        }
        if record
            .released
            .iter()
            .any(|s| record.forced.binary_search(s).is_ok())
        {
            return Err(format!("job {} re-released a seeded SNP", record.job_id));
        }
        let mut next = prefixes[i].clone();
        next.extend_from_slice(&record.released);
        next.sort_unstable();
        next.dedup();
        prefixes.push(next);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(job_id: u64) -> LedgerRecord {
        LedgerRecord {
            job_id,
            kind: JobKind::Federated,
            panel: (0..40).collect(),
            forced: vec![1, 5],
            released: vec![2, 7, 11 + job_id as u32],
            final_power: 0.42,
            final_threshold: 0.9,
            case_freqs: vec![0.25, 0.5, 0.125],
            ref_freqs: vec![0.2, 0.45, 0.1],
            epoch: 1,
            roster: vec![0, 1, 2],
            traffic: vec![LinkRecord {
                from: 0,
                to: 1,
                messages: 9,
                plaintext_bytes: 1000,
                wire_bytes: 1200,
            }],
            certificate: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gendpr-ledger-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ledger.bin")
    }

    #[test]
    fn next_job_id_cache_tracks_appends_and_reopen() {
        let path = tmp("next-id");
        let _ = std::fs::remove_file(&path);
        {
            let mut ledger = ReleaseLedger::open(&path).unwrap();
            assert_eq!(ledger.next_job_id(), 1);
            ledger.append(sample(1)).unwrap();
            assert_eq!(ledger.next_job_id(), 2);
            // Out-of-order ids (e.g. replayed from another daemon) still
            // advance the cache to max + 1, never backwards.
            ledger.append(sample(7)).unwrap();
            assert_eq!(ledger.next_job_id(), 8);
            ledger.append(sample(3)).unwrap();
            assert_eq!(ledger.next_job_id(), 8);
        }
        let ledger = ReleaseLedger::open(&path).unwrap();
        assert_eq!(ledger.next_job_id(), 8);
    }

    #[test]
    fn appends_survive_reopen() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut ledger = ReleaseLedger::open(&path).unwrap();
            assert!(ledger.is_empty());
            assert_eq!(ledger.next_job_id(), 1);
            ledger.append(sample(1)).unwrap();
            ledger.append(sample(2)).unwrap();
        }
        let ledger = ReleaseLedger::open(&path).unwrap();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.recovered_bytes(), 0);
        assert_eq!(ledger.records()[0], sample(1));
        assert_eq!(ledger.next_job_id(), 3);
        assert_eq!(
            ledger.released_union(),
            vec![SnpId(2), SnpId(7), SnpId(12), SnpId(13)]
        );
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut ledger = ReleaseLedger::open(&path).unwrap();
            ledger.append(sample(1)).unwrap();
            ledger.append(sample(2)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let mut ledger = ReleaseLedger::open(&path).unwrap();
        assert_eq!(ledger.len(), 1, "intact prefix loads");
        assert!(ledger.recovered_bytes() > 0);
        // The ledger is usable again: a fresh append replaces the tail.
        ledger.append(sample(2)).unwrap();
        drop(ledger);
        assert_eq!(ReleaseLedger::open(&path).unwrap().len(), 2);
    }

    #[test]
    fn replicated_appends_mirror_byte_identically() {
        let primary = tmp("repl-primary");
        let mirrors = vec![tmp("repl-a"), tmp("repl-b")];
        for p in std::iter::once(&primary).chain(&mirrors) {
            let _ = std::fs::remove_file(p);
        }
        {
            let mut ledger = ReleaseLedger::open_replicated(&primary, &mirrors).unwrap();
            assert_eq!(ledger.live_replicas(), 2);
            ledger.append(sample(1)).unwrap();
            ledger.append(sample(2)).unwrap();
        }
        let truth = std::fs::read(&primary).unwrap();
        assert!(!truth.is_empty());
        for mirror in &mirrors {
            assert_eq!(std::fs::read(mirror).unwrap(), truth);
        }
    }

    #[test]
    fn open_heals_every_copy_to_the_longest_intact_prefix() {
        let primary = tmp("heal-primary");
        let mirrors = vec![tmp("heal-a"), tmp("heal-b")];
        for p in std::iter::once(&primary).chain(&mirrors) {
            let _ = std::fs::remove_file(p);
        }
        {
            let mut ledger = ReleaseLedger::open_replicated(&primary, &mirrors).unwrap();
            ledger.append(sample(1)).unwrap();
            ledger.append(sample(2)).unwrap();
            ledger.append(sample(3)).unwrap();
        }
        let truth = std::fs::read(&primary).unwrap();
        // Crash aftermath: the primary torn mid-frame, one mirror a
        // record behind, one intact. The intact mirror must win and
        // every copy come back byte-identical to it.
        std::fs::write(&primary, &truth[..truth.len() - 9]).unwrap();
        std::fs::write(&mirrors[0], &truth[..truth.len() / 3]).unwrap();
        let ledger = ReleaseLedger::open_replicated(&primary, &mirrors).unwrap();
        assert_eq!(ledger.len(), 3, "the intact mirror's full history wins");
        assert_eq!(ledger.records()[2], sample(3));
        drop(ledger);
        for p in std::iter::once(&primary).chain(&mirrors) {
            assert_eq!(std::fs::read(p).unwrap(), truth);
        }
    }

    #[test]
    fn corrupt_tail_checksum_is_dropped() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut ledger = ReleaseLedger::open(&path).unwrap();
            ledger.append(sample(1)).unwrap();
            ledger.append(sample(2)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a checksum byte of the final record
        std::fs::write(&path, &bytes).unwrap();
        let ledger = ReleaseLedger::open(&path).unwrap();
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn refresh_heals_a_mirrors_torn_tail() {
        let primary = tmp("refresh-tear-primary");
        let mirrors = vec![tmp("refresh-tear-mirror")];
        for p in std::iter::once(&primary).chain(&mirrors) {
            let _ = std::fs::remove_file(p);
        }
        let mut ledger = ReleaseLedger::open_replicated(&primary, &mirrors).unwrap();
        ledger.append(sample(1)).unwrap();
        // Crash aftermath on the *mirror*: a partial frame another track
        // was killed mid-write of. The survivor's handle is O_APPEND, so
        // without the refresh-time heal its next append would land after
        // the garbage and the mirror's suffix would be unreadable while
        // still acking the fsync quorum.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&mirrors[0])
                .unwrap();
            f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        }
        assert_eq!(ledger.refresh().unwrap(), 0);
        ledger.append(sample(2)).unwrap();
        drop(ledger);
        let truth = std::fs::read(&primary).unwrap();
        assert_eq!(std::fs::read(&mirrors[0]).unwrap(), truth);
        // The mirror alone now replays the full history.
        let standalone = ReleaseLedger::open(&mirrors[0]).unwrap();
        assert_eq!(standalone.len(), 2);
        assert_eq!(standalone.records()[1], sample(2));
    }

    #[test]
    fn refresh_heals_a_mirror_missing_the_primaries_last_frame() {
        let primary = tmp("refresh-skip-primary");
        let mirrors = vec![tmp("refresh-skip-mirror")];
        for p in std::iter::once(&primary).chain(&mirrors) {
            let _ = std::fs::remove_file(p);
        }
        let mut ledger = ReleaseLedger::open_replicated(&primary, &mirrors).unwrap();
        ledger.append(sample(1)).unwrap();
        // Another track commits a frame that reaches (and is fsynced on)
        // the primary but not this mirror before the track dies. Without
        // the heal the next append would give the mirror a valid-looking
        // history that silently skips record 2.
        ReleaseLedger::open(&primary)
            .unwrap()
            .append(sample(2))
            .unwrap();
        assert_eq!(ledger.refresh().unwrap(), 1);
        assert_eq!(ledger.records()[1], sample(2));
        ledger.append(sample(3)).unwrap();
        drop(ledger);
        let truth = std::fs::read(&primary).unwrap();
        assert_eq!(std::fs::read(&mirrors[0]).unwrap(), truth);
        let standalone = ReleaseLedger::open(&mirrors[0]).unwrap();
        assert_eq!(standalone.len(), 3);
        assert_eq!(standalone.records()[1], sample(2));
    }
}
