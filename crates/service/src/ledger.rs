//! The persistent release ledger: an append-only, checksummed on-disk
//! log of every certified release.
//!
//! Releases are irreversible — once a SNP's statistics are public they
//! cannot be retracted — so the service must remember every release it
//! ever certified, across restarts, and charge the union against each
//! new job's LR power budget. The ledger is that memory.
//!
//! # On-disk format
//!
//! A flat sequence of self-delimiting frames, one per record:
//!
//! ```text
//! [u32 LE body length][wire-encoded LedgerRecord][32-byte SHA-256 of body]
//! ```
//!
//! The trailing digest makes torn writes detectable: a crash mid-append
//! leaves a final frame whose length header, body or checksum is
//! incomplete (or whose checksum mismatches), and [`ReleaseLedger::open`]
//! truncates the file back to the last intact record. The intact prefix
//! always loads — appends never rewrite earlier bytes.
//!
//! # Mirrored durability
//!
//! [`ReleaseLedger::open_replicated`] keeps the same log on several
//! files: every append writes the frame to each of them and succeeds
//! once a majority of the set acknowledged its fsync. A replica whose
//! write fails is retired for the rest of the process (so it can only
//! ever hold a strict *prefix* of the truth, never a divergent
//! history); at the next open the longest intact prefix across the set
//! wins and every other file — lagging, torn, or flipped — is healed
//! by rewriting it to the winner's bytes.

use crate::error::ServiceError;
use gendpr_core::certificate::AssessmentCertificate;
use gendpr_core::serving::{JobOutcome, JobSpec, LinkUsage};
use gendpr_crypto::sha256;
use gendpr_fednet::tcp::MAX_FRAME_BYTES;
use gendpr_fednet::wire::{self, Decode, Encode, Reader, WireError};
use gendpr_fednet::wire_struct;
use gendpr_genomics::snp::SnpId;
use gendpr_obs::{event, Level};
use gendpr_tee::attestation::Quote;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// SHA-256 digest length, the per-record checksum trailer.
pub(crate) const CHECKSUM_LEN: usize = 32;

/// Builds one self-delimiting ledger frame around `body`:
/// `[u32 LE len][body][sha256(body)]`. Shared with the track claim log,
/// which uses the same torn-write-detectable format.
///
/// # Panics
///
/// Panics when `body` exceeds the transport frame cap — a record that
/// large could never have crossed the wire in the first place.
#[must_use]
pub(crate) fn seal_frame(body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME_BYTES, "ledger frame over cap");
    let mut frame = Vec::with_capacity(4 + body.len() + CHECKSUM_LEN);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&sha256::digest(body));
    frame
}

/// Extracts the checksummed body of the frame starting at `start`, or
/// `None` for a torn/corrupt frame. On success also returns the frame's
/// end offset.
pub(crate) fn intact_frame(bytes: &[u8], start: usize) -> Option<(&[u8], usize)> {
    let end = next_frame(bytes, start)?;
    let body = &bytes[start + 4..end - CHECKSUM_LEN];
    let claimed = &bytes[end - CHECKSUM_LEN..end];
    (sha256::digest(body).as_slice() == claimed).then_some((body, end))
}

/// How a ledger record was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Federated assessment by the attested member session.
    Federated,
    /// Local dynamic batch assessment via
    /// [`gendpr_core::dynamic::DynamicAssessor`].
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
    /// the power was measured at. Dynamic jobs: the power bound.
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

/// The append-only on-disk log of certified releases.
#[derive(Debug)]
pub struct ReleaseLedger {
    file: File,
    path: PathBuf,
    /// Mirror files; retired (set to `None`) on the first failed write.
    replicas: Vec<Replica>,
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
    /// Bytes discarded from a torn tail by [`ReleaseLedger::open`].
    recovered: u64,
    /// Byte length of the intact frame prefix this process has loaded —
    /// where [`ReleaseLedger::refresh`] resumes scanning for frames
    /// appended by other track processes.
    offset: u64,
}

/// One mirror of a replicated log (the release ledger's replicas, the
/// claim log's mirrors).
#[derive(Debug)]
pub(crate) struct Replica {
    /// `None` once a write failed: a retired mirror stops receiving
    /// frames (its file stays a strict prefix of the truth) and is
    /// healed at the next open.
    pub(crate) file: Option<File>,
    pub(crate) path: PathBuf,
}

/// The names a mirrored log reports its mirror mechanics under — all
/// the release ledger and the claim log differ in below.
pub(crate) struct MirrorEvents {
    /// The log's name in a quorum-lost error.
    pub(crate) log: &'static str,
    /// Event target.
    pub(crate) target: &'static str,
    /// A losing copy was rewritten to the winning prefix at open.
    pub(crate) healed: &'static str,
    /// The winning copy's own torn tail was dropped at open; `None` when
    /// the log reports that itself (the ledger's `ledger_truncated`).
    pub(crate) winner_trimmed: Option<&'static str>,
    /// A mirror's tail was rewritten from the primary at refresh.
    pub(crate) tail_healed: &'static str,
    /// A mirror was retired after a failed write or heal.
    pub(crate) retired: &'static str,
}

const LEDGER_EVENTS: MirrorEvents = MirrorEvents {
    log: "ledger",
    target: "ledger",
    healed: "ledger_replica_healed",
    winner_trimmed: None,
    tail_healed: "ledger_mirror_tail_healed",
    retired: "ledger_replica_retired",
};

/// One copy of a mirrored log as found on disk at open.
pub(crate) struct LogCopy {
    pub(crate) file: File,
    pub(crate) path: PathBuf,
    pub(crate) bytes: Vec<u8>,
    /// Length of the intact frame prefix, set by the owning log's scan.
    pub(crate) good: usize,
}

/// Opens (creating if absent) one copy and reads it whole.
pub(crate) fn read_copy(path: &Path) -> Result<LogCopy, ServiceError> {
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(LogCopy {
        file,
        path: path.to_path_buf(),
        bytes,
        good: 0,
    })
}

/// What [`heal_copies`] found and did.
pub(crate) struct OpenHeal {
    /// Index of the copy whose intact prefix won.
    pub(crate) winner: usize,
    /// Copies rewritten (one fsync each), the winner's own trim included.
    pub(crate) rewritten: u64,
    /// The losing copies among them.
    pub(crate) healed: u64,
}

/// The open-time heal: the copy with the longest intact prefix wins (the
/// earliest on ties, the primary first) and every copy whose content is
/// not exactly that prefix is rewritten to it. (A crash mid-heal leaves
/// that file with some prefix of the winner's bytes — the next open
/// still finds the full prefix on the quorum that acknowledged it.)
pub(crate) fn heal_copies(
    copies: &mut [LogCopy],
    events: &MirrorEvents,
) -> Result<OpenHeal, ServiceError> {
    let winner = (0..copies.len())
        .max_by_key(|&i| (copies[i].good, std::cmp::Reverse(i)))
        .expect("at least the primary");
    let truth = copies[winner].bytes[..copies[winner].good].to_vec();
    let mut heal = OpenHeal {
        winner,
        rewritten: 0,
        healed: 0,
    };
    for (i, copy) in copies.iter_mut().enumerate() {
        if copy.bytes == truth {
            copy.file.seek(SeekFrom::End(0))?;
            continue;
        }
        copy.file.set_len(0)?;
        copy.file.write_all(&truth)?;
        copy.file.sync_data()?;
        heal.rewritten += 1;
        let name = if i == winner {
            events.winner_trimmed
        } else {
            heal.healed += 1;
            Some(events.healed)
        };
        if let Some(name) = name {
            event(
                Level::Warn,
                events.target,
                name,
                &[
                    ("path", copy.path.display().to_string().as_str().into()),
                    ("had_bytes", (copy.bytes.len() as u64).into()),
                    ("now_bytes", (truth.len() as u64).into()),
                ],
            );
        }
    }
    Ok(heal)
}

/// Splits the healed copies into the primary and its live mirrors.
pub(crate) fn primary_and_mirrors(copies: Vec<LogCopy>) -> (File, PathBuf, Vec<Replica>) {
    let mut copies = copies.into_iter();
    let first = copies.next().expect("at least the primary");
    let mirrors = copies
        .map(|copy| Replica {
            file: Some(copy.file),
            path: copy.path,
        })
        .collect();
    (first.file, first.path, mirrors)
}

/// Retires `mirror` after a failed write or heal: one missing frame must
/// never be followed by later ones, or the mirror would hold a valid-
/// looking history that skips a record.
fn retire(mirror: &mut Replica, error: &std::io::Error, events: &MirrorEvents) {
    mirror.file = None;
    event(
        Level::Warn,
        events.target,
        events.retired,
        &[
            ("path", mirror.path.display().to_string().as_str().into()),
            ("error", error.to_string().as_str().into()),
        ],
    );
}

/// Verifies, under the fleet lock a refresh runs under, that every live
/// mirror ends exactly where the primary's intact prefix (`offset`)
/// does, and heals any that does not by rewriting it from the primary.
/// A track killed mid-append can leave a mirror with a torn tail — or
/// missing the primary's fsynced last frame entirely — and because every
/// handle appends with `O_APPEND`, a surviving track would otherwise
/// write the next frame after the damage: the mirror ends up unreadable
/// past the tear (or worse, a valid-looking history that silently skips
/// a record) while its fsync still counts toward the append quorum. A
/// mirror that cannot be healed is retired instead of acked, exactly
/// like a failed append.
///
/// Appends are serialized fleet-wide and write identical bytes to every
/// copy, so "same length as the primary's intact prefix" implies "same
/// bytes" under the process-kill failure model; the check per refresh is
/// one `stat` per mirror.
///
/// Returns `(healed, retired)` mirror counts.
pub(crate) fn heal_mirror_tails(
    primary: &mut File,
    offset: u64,
    mirrors: &mut [Replica],
    events: &MirrorEvents,
) -> Result<(u64, u64), ServiceError> {
    let mut truth: Option<Vec<u8>> = None;
    let (mut healed, mut retired) = (0, 0);
    for mirror in mirrors {
        let Some(file) = mirror.file.as_mut() else {
            continue;
        };
        if file.metadata().map(|m| m.len()).ok() == Some(offset) {
            continue;
        }
        // A primary read failure is the primary's problem, not the
        // mirror's: surface it instead of retiring the mirror.
        if truth.is_none() {
            primary.seek(SeekFrom::Start(0))?;
            let mut bytes = vec![0u8; offset as usize];
            primary.read_exact(&mut bytes)?;
            truth = Some(bytes);
        }
        let bytes = truth.as_ref().expect("primary prefix loaded");
        let rewritten = file
            .set_len(0)
            .and_then(|()| file.write_all(bytes))
            .and_then(|()| file.sync_data());
        match rewritten {
            Ok(()) => {
                healed += 1;
                event(
                    Level::Warn,
                    events.target,
                    events.tail_healed,
                    &[
                        ("path", mirror.path.display().to_string().as_str().into()),
                        ("now_bytes", offset.into()),
                    ],
                );
            }
            Err(e) => {
                retired += 1;
                retire(mirror, &e, events);
            }
        }
    }
    Ok((healed, retired))
}

/// Writes, flushes and fsyncs `frame` on every live mirror, retiring any
/// whose write fails. Returns `(acks, retired)`.
pub(crate) fn mirror_frame(
    mirrors: &mut [Replica],
    frame: &[u8],
    events: &MirrorEvents,
) -> (usize, u64) {
    let (mut acks, mut retired) = (0, 0);
    for mirror in mirrors {
        let Some(file) = mirror.file.as_mut() else {
            continue;
        };
        let written = file
            .write_all(frame)
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_data());
        match written {
            Ok(()) => acks += 1,
            Err(e) => {
                retired += 1;
                retire(mirror, &e, events);
            }
        }
    }
    (acks, retired)
}

/// The majority rule: the primary's fsync plus `mirror_acks` must reach
/// a majority of the whole set of `1 + mirrors` copies.
pub(crate) fn require_quorum(
    mirror_acks: usize,
    mirrors: usize,
    events: &MirrorEvents,
) -> Result<(), ServiceError> {
    let (acks, quorum) = (1 + mirror_acks, mirrors.div_ceil(2) + 1);
    if acks < quorum {
        return Err(std::io::Error::other(format!(
            "{} quorum lost: {acks} of {} copies acknowledged (need {quorum})",
            events.log,
            1 + mirrors
        ))
        .into());
    }
    Ok(())
}

/// The intact, decodable record prefix of one ledger copy.
fn scan_records(bytes: &[u8]) -> (Vec<LedgerRecord>, usize) {
    let mut records = Vec::new();
    let mut good = 0usize;
    while let Some((body, end)) = intact_frame(bytes, good) {
        match wire::from_bytes::<LedgerRecord>(body) {
            Ok(record) => {
                records.push(record);
                good = end;
            }
            Err(_) => break,
        }
    }
    (records, good)
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
    /// frame prefix wins, every other file is healed by rewriting it to
    /// the winner's bytes, and subsequent appends go to all of them
    /// under a majority-fsync quorum.
    ///
    /// On ties the earliest file wins (the primary first), so a set of
    /// identical files loads exactly like [`ReleaseLedger::open`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures — at open, every
    /// file must be readable and healable; only at append time may a
    /// minority of the set fail.
    pub fn open_replicated(
        primary: impl AsRef<Path>,
        replicas: &[PathBuf],
    ) -> Result<Self, ServiceError> {
        let mut copies = Vec::with_capacity(1 + replicas.len());
        let mut decoded = Vec::with_capacity(1 + replicas.len());
        for path in std::iter::once(primary.as_ref()).chain(replicas.iter().map(PathBuf::as_path)) {
            let mut copy = read_copy(path)?;
            let (records, good) = scan_records(&copy.bytes);
            copy.good = good;
            copies.push(copy);
            decoded.push(records);
        }

        // The primary's own torn tail is accounted the way `open`
        // always did — recovery must be loud, it is exactly what the
        // soak harness audits for.
        let recovered = (copies[0].bytes.len() - copies[0].good) as u64;
        if recovered > 0 {
            let bytes = &copies[0].bytes;
            let mut truncated_frames = 0u64;
            let mut scan = copies[0].good;
            while let Some(end) = next_frame(bytes, scan) {
                truncated_frames += 1;
                scan = end;
            }
            if scan < bytes.len() {
                truncated_frames += 1;
            }
            crate::telemetry::ledger_truncated_frames().add(truncated_frames);
            event(
                Level::Warn,
                "ledger",
                "ledger_truncated",
                &[
                    ("path", copies[0].path.display().to_string().as_str().into()),
                    ("bytes", recovered.into()),
                    ("frames", truncated_frames.into()),
                    ("records_kept", decoded[0].len().into()),
                ],
            );
        }

        let heal = heal_copies(&mut copies, &LEDGER_EVENTS)?;
        crate::telemetry::ledger_fsyncs().add(heal.rewritten);
        crate::telemetry::ledger_replica_heals().add(heal.healed);
        let records = decoded.swap_remove(heal.winner);
        let offset = copies[heal.winner].good as u64;
        let (file, path, replicas) = primary_and_mirrors(copies);
        let mut ledger = Self {
            file,
            path,
            replicas,
            records: Vec::with_capacity(records.len()),
            index: HashMap::with_capacity(records.len()),
            released: BTreeSet::new(),
            link_totals: BTreeMap::new(),
            next_id: 1,
            recovered,
            offset,
        };
        for record in records {
            ledger.push(record);
        }
        crate::telemetry::ledger_records().set(ledger.records.len() as i64);
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

    /// Appends one record durably (flushed and fsynced before returning).
    /// With replicas the frame goes to every live mirror and the append
    /// succeeds once a majority of the whole set (primary included)
    /// acknowledged its fsync; a replica whose write fails is retired
    /// until the next open heals it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the primary write fails or the quorum
    /// is lost; the in-memory view is only extended after the quorum
    /// holds. (A quorum-lost append may still have reached some files —
    /// exactly like a crash after fsync, the record can resurface at
    /// the next open.)
    pub fn append(&mut self, record: LedgerRecord) -> Result<(), ServiceError> {
        let body = wire::to_bytes(&record);
        let frame = seal_frame(&body);
        // Soak-harness kill points cover the three crash windows
        // recovery must handle: mid-write (a genuinely torn frame on
        // disk), post-write pre-fsync (the primary ahead of every
        // replica), and right after durability (a committed frame whose
        // response was never delivered).
        let split = frame.len() / 2;
        self.file.write_all(&frame[..split])?;
        gendpr_fednet::killpoint::hit("ledger_tear");
        self.file.write_all(&frame[split..])?;
        self.file.flush()?;
        gendpr_fednet::killpoint::hit("ledger_append");
        self.file.sync_data()?;
        let (acks, retired) = mirror_frame(&mut self.replicas, &frame, &LEDGER_EVENTS);
        crate::telemetry::ledger_replica_write_failures().add(retired);
        gendpr_fednet::killpoint::hit("ledger_commit");
        require_quorum(acks, self.replicas.len(), &LEDGER_EVENTS)?;
        crate::telemetry::ledger_appends().inc();
        crate::telemetry::ledger_fsyncs().inc();
        self.offset += frame.len() as u64;
        self.push(record);
        crate::telemetry::ledger_records().set(self.records.len() as i64);
        Ok(())
    }

    /// Re-scans the primary file for frames appended by *other*
    /// processes since this handle last loaded or appended, extending
    /// the in-memory view in place. Replica track daemons share one
    /// ledger this way: every view-then-append cycle runs under the
    /// fleet's cross-process claim lock, so a refresh under that lock
    /// sees exactly the committed prefix.
    ///
    /// A torn tail (a track killed mid-append) is truncated back to the
    /// last intact frame so the next append starts on a frame boundary —
    /// safe because the caller holds the exclusive fleet lock, meaning
    /// no live process can be mid-write. Never call this without that
    /// lock held.
    ///
    /// Returns the number of new records picked up.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub fn refresh(&mut self) -> Result<usize, ServiceError> {
        self.file.seek(SeekFrom::Start(self.offset))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        let (records, good) = scan_records(&bytes);
        let fresh = records.len();
        for record in records {
            self.push(record);
        }
        self.offset += good as u64;
        if good < bytes.len() {
            // Crash leavings from a dead track. The claim lock is held,
            // so nothing live is writing: drop the tail the same way
            // open would have.
            crate::telemetry::ledger_truncated_frames().inc();
            event(
                Level::Warn,
                "ledger",
                "ledger_tail_dropped_on_refresh",
                &[
                    ("path", self.path.display().to_string().as_str().into()),
                    ("bytes", ((bytes.len() - good) as u64).into()),
                ],
            );
            self.file.set_len(self.offset)?;
            self.file.sync_data()?;
        }
        let (healed, retired) = heal_mirror_tails(
            &mut self.file,
            self.offset,
            &mut self.replicas,
            &LEDGER_EVENTS,
        )?;
        crate::telemetry::ledger_replica_heals().add(healed);
        crate::telemetry::ledger_replica_write_failures().add(retired);
        if fresh > 0 {
            crate::telemetry::ledger_records().set(self.records.len() as i64);
        }
        Ok(fresh)
    }

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
        &self.path
    }

    /// Paths of the mirror files (empty without replication).
    #[must_use]
    pub fn replica_paths(&self) -> Vec<&Path> {
        self.replicas.iter().map(|r| r.path.as_path()).collect()
    }

    /// Mirrors still receiving appends (a failed write retires one
    /// until the next open heals it).
    #[must_use]
    pub fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.file.is_some()).count()
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

/// Returns the end offset of the frame starting at `start`, or `None`
/// when the remaining bytes cannot hold one (torn tail).
fn next_frame(bytes: &[u8], start: usize) -> Option<usize> {
    let header = bytes.get(start..start + 4)?;
    let len = u32::from_le_bytes(header.try_into().expect("four bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return None;
    }
    let end = start + 4 + len + CHECKSUM_LEN;
    (end <= bytes.len()).then_some(end)
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
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&primary)
                .unwrap();
            f.write_all(&seal_frame(&wire::to_bytes(&sample(2))))
                .unwrap();
        }
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
