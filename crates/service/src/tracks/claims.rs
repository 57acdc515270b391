//! The shared claim log: the append-only file through which replica
//! track daemons coordinate job ownership and commit order.
//!
//! It is the crate's shared durable log (`log.rs`: checksummed frames,
//! mirrored appends under a majority quorum, heals at open and refresh —
//! the same mechanics as under the release ledger), but records
//! *claims*, not releases:
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
//! direction for at-most-once execution. The clock is an argument: every
//! fold step is stamped with the caller's `now` and a lease is evaluated
//! at the caller's `now`, which is what lets the tracks' simulator run
//! leases on virtual time.
//!
//! [`ClaimLog`] folds every frame it observes into the fleet's
//! resolution state — the controlling claim per job, the `Done` markers
//! and the set of unresolved ids — so the commit gate asks for the head
//! instead of re-deriving it from the whole log.

use crate::error::ServiceError;
use crate::ledger::ReleaseLedger;
use crate::log::{FrameLog, LogNames, Store};
use gendpr_fednet::wire::{Decode, Encode, Reader, WireError};
use gendpr_fednet::wire_struct;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
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
    /// Always written as 0. Decoded because a daemon from before dynamic
    /// jobs left the service staked them with a batch count; a survivor
    /// resolves such a claim as failed and never re-runs it.
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

/// The names the claim log reports the shared log mechanics under.
const CLAIM_LOG: LogNames = LogNames {
    log: "claim log",
    target: "tracks",
    healed: "claim_log_healed",
    winner_trimmed: Some("claim_log_healed"),
    tail_dropped: "claim_log_tail_dropped",
    tail_healed: "claim_mirror_tail_healed",
    retired: "claim_mirror_retired",
};

/// The claim log: the durable frames plus everything this process has
/// folded out of them. Like the ledger, generic over the crate-private
/// store and a real file outside the crate.
#[derive(Debug)]
pub struct ClaimLog<S = File> {
    log: FrameLog<ClaimEntry, S>,
    entries: Vec<SeenEntry>,
    // The views below are derived from `entries` alone and maintained by
    // `push`, the one path loaded, appended and refreshed frames take.
    /// One past the highest job id in any claim (0 when there is none).
    next_id: u64,
    /// Terminally failed jobs → the track that pronounced them dead.
    done: HashMap<u64, u32>,
    /// Claimed ids with no `Done` marker that the ledger was not yet seen
    /// to contain → the position in `entries` of the job's controlling
    /// (latest) claim, which owns the job and carries the lease. The
    /// job's *id* fixes its commit position: ids are allocated in claim
    /// order, so id order is claim order even across reclaims. Commits
    /// land in that order too, so the ids the ledger has since taken are
    /// a prefix of this map, dropped by `prune` as it meets them.
    unresolved: BTreeMap<u64, usize>,
}

impl ClaimLog {
    /// Opens (creating if absent) the claim log at `primary` mirrored
    /// across `mirrors`, every copy healed to the longest intact prefix,
    /// and stamps the frames it loaded with the present instant. Must be
    /// called with the fleet's exclusive lock held, so a heal cannot
    /// clobber a live track's append.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub fn open(primary: &Path, mirrors: &[PathBuf]) -> Result<Self, ServiceError> {
        Self::open_at(primary, mirrors, Instant::now())
    }
}

impl<S: Store> ClaimLog<S> {
    /// [`ClaimLog::open`] over any store, stamping the loaded frames `now`.
    pub(crate) fn open_at(
        primary: &Path,
        mirrors: &[PathBuf],
        now: Instant,
    ) -> Result<Self, ServiceError> {
        let (log, entries, _) = FrameLog::open(primary, mirrors, &CLAIM_LOG)?;
        let mut log = Self {
            log,
            entries: Vec::with_capacity(entries.len()),
            next_id: 0,
            done: HashMap::new(),
            unresolved: BTreeMap::new(),
        };
        for entry in entries {
            log.push(entry, now);
        }
        Ok(log)
    }

    /// Records one observed frame, stamped with the lease clock, folding
    /// it into every derived view.
    fn push(&mut self, entry: ClaimEntry, first_seen: Instant) {
        match &entry {
            ClaimEntry::Claim(claim) => {
                self.next_id = self.next_id.max(claim.job_id.saturating_add(1));
                if !self.done.contains_key(&claim.job_id) {
                    self.unresolved.insert(claim.job_id, self.entries.len());
                }
            }
            ClaimEntry::Done(done) => {
                self.done.insert(done.job_id, done.track);
                self.unresolved.remove(&done.job_id);
            }
        }
        self.entries.push(SeenEntry { entry, first_seen });
    }

    /// Re-scans the primary for frames appended by other tracks,
    /// stamping them `now` on the lease clock. Torn leavings of a track
    /// killed mid-append are truncated (the caller holds the fleet lock,
    /// so nothing live is writing).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub fn refresh(&mut self, now: Instant) -> Result<usize, ServiceError> {
        let (fresh, _) = self.log.refresh()?;
        let count = fresh.len();
        for entry in fresh {
            self.push(entry, now);
        }
        Ok(count)
    }

    /// Appends one frame durably (the primary's fsync plus a majority of
    /// the whole mirror set), stamped `now`. Must be called with the fleet
    /// lock held and after [`ClaimLog::refresh`], so the frame lands on a
    /// frame boundary.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the primary write fails or the quorum
    /// is lost.
    pub fn append(&mut self, entry: ClaimEntry, now: Instant) -> Result<(), ServiceError> {
        self.log.append(&entry)?;
        self.push(entry, now);
        Ok(())
    }
}

impl<S> ClaimLog<S> {
    /// Drops the ids at the front of `unresolved` that `ledger` now
    /// contains. The ledger only grows, so a drop is final and each claim
    /// is examined O(1) times over the log's life.
    fn prune<L>(&mut self, ledger: &ReleaseLedger<L>) {
        while let Some((&id, _)) = self.unresolved.first_key_value() {
            if !ledger.contains(id) {
                break;
            }
            self.unresolved.pop_first();
        }
    }

    /// The head of the fleet: the lowest-id job with a claim that is
    /// neither marked done nor committed to `ledger` — the frame of its
    /// controlling claim, and whether that claim's lease has expired at
    /// `now` on this process's clock.
    pub(crate) fn head<L>(
        &mut self,
        ledger: &ReleaseLedger<L>,
        now: Instant,
    ) -> Option<(&ClaimFrame, bool)> {
        self.prune(ledger);
        let (_, &index) = self.unresolved.first_key_value()?;
        let seen = &self.entries[index];
        let ClaimEntry::Claim(claim) = &seen.entry else {
            unreachable!("unresolved maps to claim frames only");
        };
        let age = now.saturating_duration_since(seen.first_seen);
        Some((claim, age > Duration::from_millis(claim.lease_ms)))
    }

    /// Claimed jobs still unresolved against `ledger`.
    pub(crate) fn open_claims<L>(&mut self, ledger: &ReleaseLedger<L>) -> u64 {
        self.prune(ledger);
        self.unresolved.len() as u64
    }

    /// The track whose `Done` marker pronounced `job_id` dead, if any.
    pub(crate) fn done_by(&self, job_id: u64) -> Option<u32> {
        self.done.get(&job_id).copied()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{JobKind, LedgerRecord};

    /// What the commit gate used to derive per poll by walking the whole
    /// log: `(controlling claim index of the lowest unresolved id, count)`.
    fn recomputed(log: &ClaimLog, ledger: &ReleaseLedger) -> (Option<usize>, u64) {
        let mut latest = BTreeMap::new();
        let mut done = Vec::new();
        for (i, seen) in log.entries().iter().enumerate() {
            match &seen.entry {
                ClaimEntry::Claim(c) => drop(latest.insert(c.job_id, i)),
                ClaimEntry::Done(d) => done.push(d.job_id),
            }
        }
        latest.retain(|id, _| !ledger.contains(*id) && !done.contains(id));
        (latest.values().next().copied(), latest.len() as u64)
    }

    fn folded(log: &mut ClaimLog, ledger: &ReleaseLedger) -> (Option<usize>, u64) {
        let head = log
            .head(ledger, Instant::now())
            .map(|(claim, _)| claim.job_id);
        let head = head.map(|id| {
            let controlling =
                |seen: &SeenEntry| matches!(&seen.entry, ClaimEntry::Claim(c) if c.job_id == id);
            log.entries()
                .iter()
                .rposition(controlling)
                .expect("observed")
        });
        (head, log.open_claims(ledger))
    }

    #[test]
    fn the_folded_head_equals_a_recomputation_at_every_step() {
        let dir = std::env::temp_dir().join(format!("gendpr-claims-fold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut ledger = ReleaseLedger::open(dir.join("ledger.bin")).unwrap();
        let mut log = ClaimLog::open(&dir.join("claims"), &[]).unwrap();
        let claim = |job_id, attempt| {
            ClaimEntry::Claim(ClaimFrame {
                job_id,
                track: attempt,
                attempt,
                lease_ms: 1_000,
                prefix: 0,
                batches: 0,
                panel: vec![1, 2],
                forced: vec![],
            })
        };
        let done = |job_id| {
            ClaimEntry::Done(DoneFrame {
                job_id,
                track: 9,
                error: "dead".into(),
            })
        };
        let commit = |ledger: &mut ReleaseLedger, job_id| {
            ledger
                .append(LedgerRecord {
                    job_id,
                    kind: JobKind::Federated,
                    panel: vec![1, 2],
                    forced: vec![],
                    released: vec![],
                    final_power: 0.0,
                    final_threshold: 0.0,
                    case_freqs: vec![],
                    ref_freqs: vec![],
                    epoch: 1,
                    roster: vec![],
                    traffic: vec![],
                    certificate: None,
                })
                .unwrap();
        };
        assert_eq!(folded(&mut log, &ledger), (None, 0));
        // Claims, a reclaim that moves job 2's controlling claim, a Done
        // marker, commits in id order, and a late reclaim of a resolved
        // job — the fold must agree with the walk after each.
        for step in 0..9 {
            match step {
                0 => log.append(claim(1, 1), Instant::now()).unwrap(),
                1 => log.append(claim(2, 1), Instant::now()).unwrap(),
                2 => log.append(claim(3, 1), Instant::now()).unwrap(),
                3 => log.append(claim(2, 2), Instant::now()).unwrap(),
                4 => log.append(done(1), Instant::now()).unwrap(),
                5 => commit(&mut ledger, 2),
                6 => log.append(claim(1, 2), Instant::now()).unwrap(),
                7 => log.append(claim(2, 3), Instant::now()).unwrap(),
                _ => commit(&mut ledger, 3),
            }
            assert_eq!(
                folded(&mut log, &ledger),
                recomputed(&log, &ledger),
                "step {step}"
            );
        }
        assert_eq!(folded(&mut log, &ledger), (None, 0));
        // A reopened log folds the same frames to the same state.
        let mut reopened = ClaimLog::open(&dir.join("claims"), &[]).unwrap();
        assert_eq!(folded(&mut reopened, &ledger), (None, 0));
        assert_eq!(reopened.next_job_id(), 4);
    }
}
