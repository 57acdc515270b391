//! The track coordinator: one daemon process's handle on the fleet's
//! shared claim log, release ledger, and cross-process lock.
//!
//! # Locking
//!
//! Every claim-log or shared-ledger access runs under the *fleet lock*:
//! a process-local mutex (serializing this daemon's own threads) nested
//! inside an advisory exclusive file lock on `<claims>.lock`
//! (serializing the fleet's processes — the file lock alone cannot do
//! both, because two threads of one process share the open file
//! description and would both "hold" it). It is taken in one place,
//! `TrackCoordinator::synced`, which also refreshes the claim log and
//! syncs the scheduler's ledger from disk before handing out the guard.
//! The scheduler's core mutex is only ever taken while the fleet lock is
//! held (or on its own), never the other way around, so the lock order
//! `fleet → core` is global and deadlock-free.
//!
//! # The commit gate
//!
//! [`TrackCoordinator::commit_step`] is one poll of the cross-process
//! commit protocol — what is left of commit ordering once the local
//! scheduler has done its part: a worker only gets here at its job's
//! local turn ([`Scheduler::await_turn`]), so the caller is always the
//! process's lowest live id and at most one worker per process polls the
//! shared files. The *head* of the fleet is the lowest-id job that
//! has a claim but is neither committed (its record is in the ledger)
//! nor dead (a `Done` marker exists); the claim log maintains the
//! unresolved set as it reads frames (`ClaimLog::head`), so a poll asks
//! for the head instead of walking the log. Because ids are allocated in
//! claim order under the fleet lock, committing heads in id order *is*
//! committing in claim order, which keeps the shared ledger strictly
//! monotone — the invariant every certificate's cumulative-prefix
//! charge rests on. Each poll resolves to exactly one of:
//!
//! * the head is the caller's job and its latest claim belongs to this
//!   track → append the record under the same lock that established
//!   headship (commit-in-claim-order, at-most-once);
//! * the caller's job was resolved by someone else → surrender the
//!   local result and adopt the fleet's resolution;
//! * the head's lease (measured from this process's first sighting)
//!   expired → append a reclaim and hand the claim's embedded job spec
//!   back to the caller to re-run. The head may be another track's claim
//!   or this track's own: an own-track claim *below* the caller's id has
//!   no live local job behind it by construction (the caller is the
//!   lowest live id), so it is a leftover of a previous incarnation
//!   killed between claim and commit, or an abandoned reclaim, and
//!   nobody here will ever commit it;
//! * otherwise → park and poll again.

use super::claims::{ClaimEntry, ClaimFrame, ClaimLog, DoneFrame};
use crate::error::ServiceError;
use crate::ledger::{LedgerRecord, ReleaseLedger};
use crate::sched::Scheduler;
use crate::telemetry;
use gendpr_obs::{event, Level};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Static facts of one track's membership in a fleet.
#[derive(Debug, Clone, Copy)]
pub struct TrackConfig {
    /// This track's id (stable across restarts; appears in claims).
    pub track: u32,
    /// Lease granted with every claim this track appends. Survivors
    /// measure it from their own first sighting of the claim, so it
    /// expires late, never early.
    pub lease: Duration,
}

impl Default for TrackConfig {
    fn default() -> Self {
        Self {
            track: 0,
            lease: Duration::from_millis(10_000),
        }
    }
}

/// What one poll of the commit gate decided.
pub enum TrackStep {
    /// The caller's record was appended durably in claim order.
    Committed,
    /// Another track committed the caller's job first (a reclaim that
    /// beat a slow original). Adopt the fleet's record; the local one
    /// must not be appended.
    AdoptRecord(Box<LedgerRecord>),
    /// Another track marked the caller's job terminally failed; the
    /// local result is discarded.
    Superseded {
        /// The track whose `Done` marker resolved the job.
        track: u32,
    },
    /// The fleet head was a dead track's expired claim; this track
    /// reclaimed it. Re-run the embedded spec, feed the result back
    /// through the gate, then continue with the original job.
    RunReclaimed(ClaimFrame),
    /// Parked behind an earlier live claim; poll again after a sleep.
    Wait,
}

/// The per-process half of the fleet lock; the file lock nests inside.
struct Fleet {
    lock_file: File,
    log: ClaimLog,
}

/// RAII fleet lock: local mutex + exclusive advisory file lock. The
/// file lock is released (best effort) on drop.
pub(crate) struct FleetGuard<'a> {
    inner: MutexGuard<'a, Fleet>,
}

impl FleetGuard<'_> {
    /// The claim log, writable for exactly as long as the lock is held.
    pub(crate) fn log(&mut self) -> &mut ClaimLog {
        &mut self.inner.log
    }
}

impl Drop for FleetGuard<'_> {
    fn drop(&mut self) {
        let _ = self.inner.lock_file.unlock();
    }
}

/// One track's handle on the fleet's coordination state.
pub struct TrackCoordinator {
    config: TrackConfig,
    fleet: Mutex<Fleet>,
}

/// Derives the claim-log path for a ledger file: `<ledger>.claims`.
fn claims_path(ledger: &Path) -> PathBuf {
    let mut name = ledger.as_os_str().to_os_string();
    name.push(".claims");
    PathBuf::from(name)
}

impl TrackCoordinator {
    /// Opens the fleet's claim log (mirrored next to every ledger
    /// replica) and the shared release ledger, both under one exclusive
    /// fleet lock so a heal cannot clobber a live track's append.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub fn open(
        config: TrackConfig,
        ledger_path: &Path,
        ledger_replicas: &[PathBuf],
    ) -> Result<(Self, ReleaseLedger), ServiceError> {
        let primary = claims_path(ledger_path);
        let mirrors: Vec<PathBuf> = ledger_replicas.iter().map(|p| claims_path(p)).collect();
        let mut lock_name = primary.as_os_str().to_os_string();
        lock_name.push(".lock");
        let lock_file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(PathBuf::from(lock_name))?;
        lock_file.lock()?;
        let opened = (|| {
            let log = ClaimLog::open(&primary, &mirrors)?;
            let ledger = ReleaseLedger::open_replicated(ledger_path, ledger_replicas)?;
            Ok::<_, ServiceError>((log, ledger))
        })();
        let _ = lock_file.unlock();
        let (log, ledger) = opened?;
        event(
            Level::Info,
            "tracks",
            "track_joined",
            &[
                ("track", u64::from(config.track).into()),
                ("claims", log.entries().len().into()),
                ("lease_ms", (config.lease.as_millis() as u64).into()),
            ],
        );
        Ok((
            Self {
                config,
                fleet: Mutex::new(Fleet { lock_file, log }),
            },
            ledger,
        ))
    }

    /// This track's id.
    #[must_use]
    pub fn track(&self) -> u32 {
        self.config.track
    }

    /// The lease every claim of this track carries, in milliseconds.
    #[must_use]
    pub fn lease_ms(&self) -> u64 {
        self.config.lease.as_millis() as u64
    }

    /// Takes the fleet lock (local mutex, then the exclusive file lock)
    /// and brings this process's view of both shared files up to date:
    /// the claim log is refreshed, then the scheduler's ledger. Every
    /// access to the shared files starts here; the caller works under the
    /// returned guard.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when a shared file cannot be locked or read.
    pub(crate) fn synced(&self, sched: &Scheduler) -> Result<FleetGuard<'_>, ServiceError> {
        let inner = self.fleet.lock().unwrap_or_else(PoisonError::into_inner);
        inner.lock_file.lock()?;
        let mut fleet = FleetGuard { inner };
        fleet.log().refresh()?;
        sched.with_core_mut(|core| core.sync_from_disk())?;
        Ok(fleet)
    }

    /// One poll of the cross-process commit gate for `job_id`, whose
    /// locally computed `record` is ready. See the module docs for the
    /// outcomes. `can_execute` says whether the caller has a healthy
    /// lane to run a reclaimed job on: when it does not, an expired
    /// foreign head is left unclaimed (parking instead) so a healthy
    /// track stakes the reclaim — a claim staked here could never be
    /// honoured. Taking this track's *own* job back needs no lane and
    /// is always allowed.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the shared files cannot be read or an
    /// append lost its quorum.
    pub fn commit_step(
        &self,
        sched: &Scheduler,
        job_id: u64,
        record: &LedgerRecord,
        can_execute: bool,
    ) -> Result<TrackStep, ServiceError> {
        let mut fleet = self.synced(sched)?;
        let (existing, head) = sched.with_core(|core| {
            let head = fleet.log().head(&core.ledger);
            (
                core.ledger.record(job_id).cloned(),
                head.map(|(index, claim)| (index, claim.clone())),
            )
        });

        // Our job may already be resolved — by a reclaiming track's
        // commit, or by a Done marker. The fleet's resolution wins.
        if let Some(existing) = existing {
            if existing != *record {
                telemetry::track_superseded_commits().inc();
            }
            return Ok(TrackStep::AdoptRecord(Box::new(existing)));
        }
        if let Some(track) = fleet.log().done_by(job_id) {
            telemetry::track_superseded_commits().inc();
            return Ok(TrackStep::Superseded { track });
        }

        let Some((index, head)) = head else {
            // No unresolved claim at all: ours resolved concurrently —
            // picked up above on the next poll.
            return Ok(TrackStep::Wait);
        };
        if head.job_id == job_id && head.track == self.config.track {
            // Headship established under the lock we still hold: append.
            sched.with_core_mut(|core| core.append(record))?;
            return Ok(TrackStep::Committed);
        }
        if !fleet.log().lease_expired(index, &head) {
            // An earlier claim still within its lease — another track's,
            // or our own job's claim taken over by a live reclaimer,
            // which parks us until the reclaimer resolves it. (This
            // track's own earlier jobs never show up here: they resolved
            // before the local gate let the caller through.)
            telemetry::track_commit_waits().inc();
            return Ok(TrackStep::Wait);
        }
        if !can_execute && head.job_id != job_id {
            // The caller's lane is down: staking a reclaim it cannot run
            // would only reset the lease clock. Park and leave the
            // expired head for a track that can actually execute it.
            telemetry::track_commit_waits().inc();
            return Ok(TrackStep::Wait);
        }

        // The head is a dead track's expired claim: take it over. The
        // reclaim re-snapshots the prefix — records committed since the
        // original claim are part of the cumulative release the re-run
        // must charge, exactly as a crash-free daemon would have.
        telemetry::track_lease_expiries().inc();
        let (prefix, forced) = sched.with_core(|core| {
            (
                core.ledger.len() as u64,
                core.ledger
                    .released_union()
                    .iter()
                    .map(|s| s.0)
                    .collect::<Vec<u32>>(),
            )
        });
        let reclaim = ClaimFrame {
            job_id: head.job_id,
            track: self.config.track,
            attempt: head.attempt + 1,
            lease_ms: self.lease_ms(),
            prefix,
            batches: head.batches,
            panel: head.panel,
            forced,
        };
        fleet.log().append(ClaimEntry::Claim(reclaim.clone()))?;
        telemetry::track_reclaims().inc();
        event(
            Level::Warn,
            "tracks",
            "claim_reclaimed",
            &[
                ("job_id", reclaim.job_id.into()),
                ("from_track", u64::from(head.track).into()),
                ("by_track", u64::from(self.config.track).into()),
                ("attempt", u64::from(reclaim.attempt).into()),
            ],
        );
        Ok(TrackStep::RunReclaimed(reclaim))
    }

    /// Marks `job_id` terminally failed in the claim log, resolving its
    /// position without a ledger record. Idempotent: a job already
    /// resolved (committed or marked done by anyone) is left alone.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the marker cannot be made durable.
    pub fn resolve_failed(
        &self,
        sched: &Scheduler,
        job_id: u64,
        error: &str,
    ) -> Result<(), ServiceError> {
        let mut fleet = self.synced(sched)?;
        if fleet.log().done_by(job_id).is_some()
            || sched.with_core(|core| core.ledger.contains(job_id))
        {
            return Ok(());
        }
        fleet.log().append(ClaimEntry::Done(DoneFrame {
            job_id,
            track: self.config.track,
            error: error.to_string(),
        }))?;
        telemetry::track_done_markers().inc();
        event(
            Level::Warn,
            "tracks",
            "job_marked_done",
            &[
                ("job_id", job_id.into()),
                ("track", u64::from(self.config.track).into()),
                ("error", error.into()),
            ],
        );
        Ok(())
    }

    /// Unresolved claims currently visible to this process (no file
    /// refresh — a cheap, possibly slightly stale figure for status).
    #[must_use]
    pub fn open_claims(&self, sched: &Scheduler) -> u64 {
        let mut fleet = self.fleet.lock().unwrap_or_else(PoisonError::into_inner);
        sched.with_core(|core| fleet.log.open_claims(&core.ledger))
    }
}
