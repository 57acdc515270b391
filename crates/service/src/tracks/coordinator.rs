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
//! `TrackCoordinator::commit_step` is one visit of the cross-process
//! commit gate — what is left of commit ordering once the local
//! scheduler has done its part: a worker only gets here at its job's
//! local turn ([`Scheduler::await_turn`]), so the caller is always the
//! process's lowest live id (or the dead track's job it reclaimed on
//! that id's behalf) and at most one worker per process polls the shared
//! files. A visit is sync → decide → write: `TrackCoordinator::synced`
//! takes the lock and refreshes both files, `gate::Gate::observe` reduces
//! the poll to a view, `gate::decide` picks the action, and
//! `gate::Gate::apply` performs its one write. The policy — append,
//! adopt, supersede, reclaim, leave to lease, mark `Done`, wait — lives
//! in `gate.rs` alone; this module owns only the lock and the files.
//!
//! The *head* of the fleet is the lowest-id job that has a claim but is
//! neither committed nor dead (`ClaimLog::head`). Because ids are
//! allocated in claim order under the fleet lock, committing heads in id
//! order *is* committing in claim order, which keeps the shared ledger
//! strictly monotone — the invariant every certificate's
//! cumulative-prefix charge rests on.

use super::claims::ClaimLog;
use super::gate::{decide, Gate, Visit, Visited};
use crate::error::ServiceError;
use crate::ledger::ReleaseLedger;
use crate::log::Store;
use crate::sched::Scheduler;
use gendpr_obs::{event, Level};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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
        let _ = Store::unlock(&self.inner.lock_file);
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
        let lock_file = <File as Store>::open(&PathBuf::from(lock_name))?;
        Store::lock(&lock_file)?;
        let opened = (|| {
            let log = ClaimLog::open(&primary, &mirrors)?;
            let ledger = ReleaseLedger::open_replicated(ledger_path, ledger_replicas)?;
            Ok::<_, ServiceError>((log, ledger))
        })();
        let _ = Store::unlock(&lock_file);
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
        Store::lock(&inner.lock_file)?;
        let mut fleet = FleetGuard { inner };
        fleet.log().refresh(Instant::now())?;
        sched.with_core_mut(|core| core.sync_from_disk())?;
        Ok(fleet)
    }

    /// This track's side of one visit to the shared logs, under the
    /// caller's fleet lock.
    pub(crate) fn gate<'a>(
        &self,
        log: &'a mut ClaimLog,
        ledger: &'a mut ReleaseLedger,
        max_retries: u32,
    ) -> Gate<'a, File> {
        Gate {
            log,
            ledger,
            config: self.config,
            max_retries,
            now: Instant::now(),
        }
    }

    /// One visit of the cross-process commit gate (see the module docs):
    /// sync, [`decide`], and the decided action's one write.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the shared files cannot be read or a
    /// write lost its quorum.
    pub(crate) fn commit_step(
        &self,
        sched: &Scheduler,
        visit: &Visit<'_>,
    ) -> Result<Visited, ServiceError> {
        let mut fleet = self.synced(sched)?;
        sched.with_core_mut(|core| {
            let mut gate = self.gate(fleet.log(), &mut core.ledger, sched.limits().max_retries);
            let view = gate.observe(visit);
            gate.apply(decide(&view), &view, visit)
        })
    }

    /// Unresolved claims currently visible to this process (no file
    /// refresh — a cheap, possibly slightly stale figure for status).
    #[must_use]
    pub fn open_claims(&self, sched: &Scheduler) -> u64 {
        let mut fleet = self.fleet.lock().unwrap_or_else(PoisonError::into_inner);
        sched.with_core(|core| fleet.log.open_claims(&core.ledger))
    }
}
