//! The shared claim log: the append-only file through which replica
//! track daemons coordinate job ownership and commit order.
//!
//! The log reuses the release ledger's torn-write-detectable framing
//! (`[u32 LE len][wire body][32-byte SHA-256]`) and its mirrored-append
//! quorum rule, but records *claims*, not releases:
//!
//! * A [`ClaimFrame`] stakes a track's ownership of one job: the
//!   globally allocated job id, the full job spec (so a survivor can
//!   re-run it if the claimant dies), the claimant's lease, and the
//!   ledger prefix the execution is charged against.
//! * A [`DoneFrame`] marks a job terminally failed — the claim position
//!   resolves without a ledger record ever appearing.
//!
//! Log *position* is commit order: a claim may only commit its record
//! once every earlier claim has resolved (committed, failed, or been
//! superseded by a reclaim of the same job). Because job ids are
//! allocated at claim-append time under the fleet's exclusive lock,
//! claim order equals job-id order and the release ledger stays
//! strictly monotone even across track crashes.
//!
//! Leases are measured on each observer's local clock from the moment
//! it first saw the claim (there is no shared clock between tracks), so
//! a lease can only ever expire *late*, never early — the safe
//! direction for at-most-once execution.

use crate::error::ServiceError;
use crate::ledger::{
    heal_copies, heal_mirror_tails, intact_frame, mirror_frame, primary_and_mirrors, read_copy,
    require_quorum, seal_frame, MirrorEvents, Replica,
};
use gendpr_fednet::wire::{self, Decode, Encode, Reader, WireError};
use gendpr_fednet::wire_struct;
use gendpr_obs::{event, Level};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One track's stake on one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimFrame {
    /// The globally allocated job id (also the commit-order position
    /// key: ids are handed out in claim order under the fleet lock).
    pub job_id: u64,
    /// The claiming track.
    pub track: u32,
    /// Which execution this is: 1 for the original claim, incremented
    /// by every reclaim of the same job.
    pub attempt: u32,
    /// Lease duration in milliseconds, measured by each observer from
    /// its own first sighting of the frame.
    pub lease_ms: u64,
    /// Ledger record count at claim time — the committed prefix the
    /// execution's forced seed is the released-union of.
    pub prefix: u64,
    /// Dynamic batch count (0 = federated), carried so survivors can
    /// re-run the job.
    pub batches: u32,
    /// Sorted, deduplicated SNP panel, carried for the same reason.
    pub panel: Vec<u32>,
    /// The released-union of the first `prefix` ledger records, frozen
    /// at claim time: the forced seed a (re-)execution must use.
    pub forced: Vec<u32>,
}
wire_struct!(ClaimFrame {
    job_id,
    track,
    attempt,
    lease_ms,
    prefix,
    batches,
    panel,
    forced
});

/// A terminal-failure marker: the job will never produce a ledger
/// record, so its claim position is resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneFrame {
    /// The job that died.
    pub job_id: u64,
    /// The track that pronounced it dead.
    pub track: u32,
    /// The final error, rendered.
    pub error: String,
}
wire_struct!(DoneFrame {
    job_id,
    track,
    error
});

/// One frame of the claim log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimEntry {
    /// A track staked (or re-staked) a job.
    Claim(ClaimFrame),
    /// A job was pronounced terminally failed.
    Done(DoneFrame),
}

impl Encode for ClaimEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Claim(c) => {
                0u8.encode(buf);
                c.encode(buf);
            }
            Self::Done(d) => {
                1u8.encode(buf);
                d.encode(buf);
            }
        }
    }
}

impl Decode for ClaimEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Self::Claim(ClaimFrame::decode(r)?)),
            1 => Ok(Self::Done(DoneFrame::decode(r)?)),
            _ => Err(WireError::InvalidValue("claim entry tag")),
        }
    }
}

/// A claim-log frame as this process sees it, stamped with the local
/// instant it was first observed — the lease clock.
#[derive(Debug)]
pub struct SeenEntry {
    /// The decoded frame.
    pub entry: ClaimEntry,
    /// When *this* process first saw the frame (refreshes only ever
    /// append, so the stamp is stable).
    pub first_seen: Instant,
}

/// The claim log's names for the mirror mechanics it shares with the
/// release ledger.
const CLAIM_EVENTS: MirrorEvents = MirrorEvents {
    log: "claim log",
    target: "tracks",
    healed: "claim_log_healed",
    winner_trimmed: Some("claim_log_healed"),
    tail_healed: "claim_mirror_tail_healed",
    retired: "claim_mirror_retired",
};

/// The claim log: the primary file, its mirrors, and every frame this
/// process has observed.
#[derive(Debug)]
pub struct ClaimLog {
    file: File,
    path: PathBuf,
    mirrors: Vec<Replica>,
    entries: Vec<SeenEntry>,
    /// One past the highest job id in any claim of `entries` (0 when
    /// there is none), maintained by `push`.
    next_id: u64,
    /// Byte length of the intact prefix scanned so far.
    offset: u64,
}

/// Scans `bytes` from `start`, returning decoded entries and the intact
/// prefix end.
fn scan(bytes: &[u8], start: usize) -> (Vec<ClaimEntry>, usize) {
    let mut entries = Vec::new();
    let mut good = start;
    while let Some((body, end)) = intact_frame(bytes, good) {
        match wire::from_bytes::<ClaimEntry>(body) {
            Ok(entry) => {
                entries.push(entry);
                good = end;
            }
            Err(_) => break,
        }
    }
    (entries, good)
}

impl ClaimLog {
    /// Opens (creating if absent) the claim log at `primary` mirrored
    /// across `mirrors`, healing every copy to the longest intact
    /// prefix exactly like the release ledger does. Must be called with
    /// the fleet's exclusive lock held, so a heal cannot clobber a live
    /// track's append.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub fn open(primary: &Path, mirrors: &[PathBuf]) -> Result<Self, ServiceError> {
        let mut copies = Vec::with_capacity(1 + mirrors.len());
        for path in std::iter::once(primary).chain(mirrors.iter().map(PathBuf::as_path)) {
            let mut copy = read_copy(path)?;
            copy.good = scan(&copy.bytes, 0).1;
            copies.push(copy);
        }
        let winner = heal_copies(&mut copies, &CLAIM_EVENTS)?.winner;
        let good = copies[winner].good;
        let (entries, scanned) = scan(&copies[winner].bytes[..good], 0);
        debug_assert_eq!(scanned, good);
        let (file, path, mirrors) = primary_and_mirrors(copies);
        let mut log = Self {
            file,
            path,
            mirrors,
            entries: Vec::with_capacity(entries.len()),
            next_id: 0,
            offset: good as u64,
        };
        let now = Instant::now();
        for entry in entries {
            log.push(entry, now);
        }
        Ok(log)
    }

    /// Records one observed frame, stamped with the lease clock.
    fn push(&mut self, entry: ClaimEntry, first_seen: Instant) {
        if let ClaimEntry::Claim(claim) = &entry {
            self.next_id = self.next_id.max(claim.job_id.saturating_add(1));
        }
        self.entries.push(SeenEntry { entry, first_seen });
    }

    /// Re-scans the primary for frames appended by other tracks,
    /// stamping newly seen claims with the local lease clock. Torn
    /// leavings of a track killed mid-append are truncated (the caller
    /// holds the fleet lock, so nothing live is writing).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub fn refresh(&mut self) -> Result<usize, ServiceError> {
        self.file.seek(SeekFrom::Start(self.offset))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        let (fresh, good) = scan(&bytes, 0);
        let count = fresh.len();
        let now = Instant::now();
        for entry in fresh {
            self.push(entry, now);
        }
        self.offset += good as u64;
        if good < bytes.len() {
            event(
                Level::Warn,
                "tracks",
                "claim_log_tail_dropped",
                &[
                    ("path", self.path.display().to_string().as_str().into()),
                    ("bytes", ((bytes.len() - good) as u64).into()),
                ],
            );
            self.file.set_len(self.offset)?;
            self.file.sync_data()?;
        }
        heal_mirror_tails(
            &mut self.file,
            self.offset,
            &mut self.mirrors,
            &CLAIM_EVENTS,
        )?;
        Ok(count)
    }

    /// Appends one frame durably under the same majority-quorum rule as
    /// the release ledger: the primary's fsync is mandatory, and with
    /// mirrors a majority of the whole set must acknowledge. Must be
    /// called with the fleet lock held and after [`ClaimLog::refresh`],
    /// so the frame lands on a frame boundary.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the primary write fails or the quorum
    /// is lost.
    pub fn append(&mut self, entry: ClaimEntry) -> Result<(), ServiceError> {
        let frame = seal_frame(&wire::to_bytes(&entry));
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.file.sync_data()?;
        let (acks, _) = mirror_frame(&mut self.mirrors, &frame, &CLAIM_EVENTS);
        require_quorum(acks, self.mirrors.len(), &CLAIM_EVENTS)?;
        self.offset += frame.len() as u64;
        self.push(entry, Instant::now());
        Ok(())
    }

    /// Every frame observed so far, in log order.
    #[must_use]
    pub fn entries(&self) -> &[SeenEntry] {
        &self.entries
    }

    /// One past the highest job id ever claimed (0 when no claim yet).
    #[must_use]
    pub fn next_job_id(&self) -> u64 {
        self.next_id
    }

    /// Whether `claim` (the entry at `index`) has expired on this
    /// process's lease clock.
    #[must_use]
    pub fn lease_expired(&self, index: usize, claim: &ClaimFrame) -> bool {
        self.entries[index].first_seen.elapsed() > Duration::from_millis(claim.lease_ms)
    }

    /// The claim-log file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}
