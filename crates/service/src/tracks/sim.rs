//! A seeded fault simulator for the fleet's commit gate.
//!
//! One to three tracks, each with up to two jobs in flight, run over
//! in-memory logs (an in-memory [`Store`]) and a virtual lease clock, with
//! no threads and no sleeps. What they run is the production code: the
//! claim log and its fold, the release ledger, the shared frame log with
//! its heals and quorum, admission's claim stake and the gate's
//! observe → decide → apply. What is modelled here is only what sits
//! around it — the worker executor's reaction to a visit, the local
//! scheduler's retries, and jobs that compute a deterministic record.
//!
//! Every step may inject one fault: a track crash (a later step restarts
//! it under the same id), a torn primary or mirror write, a failed
//! fsync, a lost mirror, a lease-clock jump, or a transient failure of a
//! job run. After every step the checker asserts at-most-once append,
//! strictly increasing ledger ids, every mirror a prefix of its primary,
//! [`audit_records`] on the ledger, and `Done` markers only after a
//! deterministic failure or a spent retry budget; after the fault phase
//! every claim must resolve within bounded virtual time.
//!
//! A schedule is a pure function of its seed, so a failure names the
//! seed that reproduces it.

use super::claims::{ClaimEntry, ClaimFrame, ClaimLog};
use super::coordinator::TrackConfig;
use super::gate::{decide, Gate, GateAction, GateView, Visit, Visited};
use crate::error::ServiceError;
use crate::ledger::{audit_records, JobKind, LedgerRecord, ReleaseLedger};
use crate::log::{scan, Store};
use gendpr_fednet::wire::Decode;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The policy under test: production's [`decide`], or a test-local variant.
type Policy = fn(&GateView) -> GateAction;

/// A panel entry that makes a job fail deterministically.
const POISON: u32 = 9_999;

/// Steps in a schedule's fault phase.
const FAULT_STEPS: usize = 40;

/// Rounds the quiescent phase may take before a claim counts as stuck.
const SETTLE_ROUNDS: usize = 120;

/// The lease every claim carries.
const LEASE: Duration = Duration::from_millis(1_000);

#[derive(Default)]
struct Disk {
    files: HashMap<PathBuf, Vec<u8>>,
    locked: HashSet<PathBuf>,
    /// The next write to this file stops halfway and fails.
    torn: Option<PathBuf>,
    /// The next sync of this file fails.
    unsynced: Option<PathBuf>,
}

thread_local! {
    static DISK: RefCell<Disk> = RefCell::default();
}

fn disk<R>(f: impl FnOnce(&mut Disk) -> R) -> R {
    DISK.with(|d| f(&mut d.borrow_mut()))
}

/// A handle on one in-memory file.
#[derive(Debug)]
struct Mem {
    path: PathBuf,
}

impl Store for Mem {
    fn open(path: &Path) -> io::Result<Self> {
        disk(|d| {
            d.files.entry(path.to_path_buf()).or_default();
        });
        Ok(Self {
            path: path.to_path_buf(),
        })
    }

    fn read_from(&mut self, offset: u64) -> io::Result<Vec<u8>> {
        Ok(disk(|d| {
            let bytes = &d.files[&self.path];
            bytes[(offset as usize).min(bytes.len())..].to_vec()
        }))
    }

    fn size(&self) -> io::Result<u64> {
        Ok(disk(|d| d.files[&self.path].len() as u64))
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        disk(|d| d.files.get_mut(&self.path).unwrap().resize(len as usize, 0));
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        disk(|d| {
            let torn = d.torn.as_ref() == Some(&self.path);
            let file = d.files.get_mut(&self.path).unwrap();
            if torn {
                d.torn = None;
                file.extend_from_slice(&bytes[..bytes.len() / 2]);
                return Err(io::Error::other("torn write"));
            }
            file.extend_from_slice(bytes);
            Ok(())
        })
    }

    fn sync(&mut self) -> io::Result<()> {
        disk(|d| {
            if d.unsynced.as_ref() == Some(&self.path) {
                d.unsynced = None;
                return Err(io::Error::other("fsync failed"));
            }
            Ok(())
        })
    }

    fn lock(&self) -> io::Result<()> {
        let fresh = disk(|d| d.locked.insert(self.path.clone()));
        assert!(fresh, "the fleet lock was taken twice");
        Ok(())
    }

    fn unlock(&self) -> io::Result<()> {
        disk(|d| d.locked.remove(&self.path));
        Ok(())
    }
}

/// The shared files of a fleet with `mirrors` mirrors per log.
struct Files {
    ledger: PathBuf,
    ledger_mirrors: Vec<PathBuf>,
    claims: PathBuf,
    claims_mirrors: Vec<PathBuf>,
    lock: PathBuf,
}

impl Files {
    fn new(mirrors: usize) -> Self {
        let path = |name: String| PathBuf::from(name);
        Self {
            ledger: path("ledger".into()),
            ledger_mirrors: (0..mirrors).map(|m| path(format!("ledger.{m}"))).collect(),
            claims: path("claims".into()),
            claims_mirrors: (0..mirrors).map(|m| path(format!("claims.{m}"))).collect(),
            lock: path("claims.lock".into()),
        }
    }

    /// Every copy of both logs.
    fn copies(&self) -> Vec<PathBuf> {
        let mut all = vec![self.ledger.clone(), self.claims.clone()];
        all.extend(self.ledger_mirrors.iter().cloned());
        all.extend(self.claims_mirrors.iter().cloned());
        all
    }
}

/// One admitted job of a track.
struct Job {
    claim: ClaimFrame,
    runs: u32,
    result: Option<Result<LedgerRecord, ServiceError>>,
}

/// A running track process.
struct Live {
    lock: Mem,
    log: ClaimLog<Mem>,
    ledger: ReleaseLedger<Mem>,
    /// Admitted and unresolved, by id: the lowest is at its turn.
    jobs: BTreeMap<u64, Job>,
    /// The dead track's claim the executor is carrying, with its run.
    carrying: Option<(ClaimFrame, Option<Result<LedgerRecord, ServiceError>>)>,
    /// The next run on this track fails transiently.
    transient: bool,
}

/// What a track can do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Act {
    /// Admit a job over the panel `from..to` (a panel holding
    /// [`POISON`] fails every run deterministically).
    Admit { from: u32, to: u32 },
    /// Run the carried claim, else the job `nth` among the unrun ones.
    Run { nth: usize },
    /// Visit the gate with the carried claim, else the job at its turn.
    Visit,
}

/// A fault injected before a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Fault {
    Crash(usize),
    Torn(PathBuf),
    Unsynced(PathBuf),
    LoseMirror(PathBuf),
    ClockJump,
    Transient(usize),
}

pub(super) struct Sim {
    files: Files,
    tracks: Vec<Option<Live>>,
    policy: Policy,
    max_retries: u32,
    base: Instant,
    clock: Duration,
    /// Per job: whether the failed run last taken to the gate allowed a
    /// `Done` marker (deterministic, or the retry budget spent).
    done_allowed: HashMap<u64, bool>,
    /// The ledger primary's intact prefix as checked so far.
    ledger: Checked<LedgerRecord>,
    /// The claim-log primary's intact prefix as checked so far.
    claims: Checked<ClaimEntry>,
}

/// A primary's intact prefix the checker has decoded: it only ever
/// grows, so each check decodes only the frames appended since the last.
struct Checked<E> {
    bytes: Vec<u8>,
    entries: Vec<E>,
}

impl<E: Decode> Checked<E> {
    fn new() -> Self {
        Self {
            bytes: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Decodes what `primary` gained; the number of new entries.
    fn advance(&mut self, primary: &[u8]) -> Result<usize, String> {
        if !primary.starts_with(&self.bytes) {
            return Err("a primary lost frames it had made durable".into());
        }
        let (fresh, good) = scan::<E>(&primary[self.bytes.len()..]);
        self.bytes
            .extend_from_slice(&primary[self.bytes.len()..self.bytes.len() + good]);
        let count = fresh.len();
        self.entries.extend(fresh);
        Ok(count)
    }
}

/// The deterministic job: releases the panel's SNPs with `s % 20 < 9`
/// that its seed does not already hold.
fn run_job(claim: &ClaimFrame, transient: bool) -> Result<LedgerRecord, ServiceError> {
    if claim.panel.contains(&POISON) {
        return Err(gendpr_core::error::ProtocolError::InvalidConfig("poison job").into());
    }
    if transient {
        return Err(ServiceError::JobPanicked("injected lane crash".into()));
    }
    let released = claim
        .panel
        .iter()
        .copied()
        .filter(|s| s % 20 < 9 && claim.forced.binary_search(s).is_err())
        .collect();
    Ok(LedgerRecord {
        job_id: claim.job_id,
        kind: JobKind::Federated,
        panel: claim.panel.clone(),
        forced: claim.forced.clone(),
        released,
        final_power: 0.0,
        final_threshold: 0.0,
        case_freqs: Vec::new(),
        ref_freqs: Vec::new(),
        epoch: 1,
        roster: Vec::new(),
        traffic: Vec::new(),
        certificate: None,
    })
}

impl Sim {
    /// A fleet of `tracks` tracks (all started) over fresh in-memory files.
    pub(super) fn new(tracks: usize, mirrors: usize, max_retries: u32, policy: Policy) -> Self {
        DISK.with(|d| *d.borrow_mut() = Disk::default());
        let mut sim = Self {
            files: Files::new(mirrors),
            tracks: (0..tracks).map(|_| None).collect(),
            policy,
            max_retries,
            base: Instant::now(),
            clock: Duration::ZERO,
            done_allowed: HashMap::new(),
            ledger: Checked::new(),
            claims: Checked::new(),
        };
        for t in 0..tracks {
            sim.restart(t);
        }
        sim
    }

    fn now(&self) -> Instant {
        self.base + self.clock
    }

    pub(super) fn tick(&mut self, by: Duration) {
        self.clock += by;
    }

    pub(super) fn alive(&self, t: usize) -> bool {
        self.tracks[t].is_some()
    }

    /// Starts track `t` under its old id, as `TrackCoordinator::open`
    /// does: both logs opened (and healed) under the fleet lock.
    pub(super) fn restart(&mut self, t: usize) {
        let now = self.now();
        let files = &self.files;
        let Ok(lock) = Mem::open(&files.lock) else {
            return;
        };
        lock.lock().unwrap();
        let opened = ClaimLog::open_at(&files.claims, &files.claims_mirrors, now).and_then(|log| {
            Ok((
                log,
                ReleaseLedger::open_in(&files.ledger, &files.ledger_mirrors)?,
            ))
        });
        lock.unlock().unwrap();
        if let Ok((log, ledger)) = opened {
            self.tracks[t] = Some(Live {
                lock,
                log,
                ledger,
                jobs: BTreeMap::new(),
                carrying: None,
                transient: false,
            });
        }
    }

    pub(super) fn inject(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(t) => self.tracks[t] = None,
            Fault::Torn(path) => disk(|d| d.torn = Some(path)),
            Fault::Unsynced(path) => disk(|d| d.unsynced = Some(path)),
            Fault::LoseMirror(path) => disk(|d| d.files.get_mut(&path).unwrap().clear()),
            Fault::ClockJump => self.clock += 2 * LEASE,
            Fault::Transient(t) => {
                if let Some(live) = self.tracks[t].as_mut() {
                    live.transient = true;
                }
            }
        }
    }

    /// The acts track `t` can take now.
    pub(super) fn acts(&self, t: usize) -> Vec<Act> {
        let Some(live) = &self.tracks[t] else {
            return Vec::new();
        };
        let mut acts = Vec::new();
        if live.jobs.len() < 2 && live.carrying.is_none() {
            acts.push(Act::Admit { from: 0, to: 60 });
        }
        let unrun = live.jobs.values().filter(|j| j.result.is_none()).count();
        match &live.carrying {
            Some((_, None)) => acts.push(Act::Run { nth: 0 }),
            Some((_, Some(_))) => acts.push(Act::Visit),
            None => {
                if unrun > 0 {
                    acts.push(Act::Run { nth: 0 });
                }
                if live
                    .jobs
                    .values()
                    .next()
                    .is_some_and(|j| j.result.is_some())
                {
                    acts.push(Act::Visit);
                }
            }
        }
        acts
    }

    /// Takes the fleet lock for track `t`, refreshes both logs, runs `f`
    /// on a gate over them and releases the lock. An error from the
    /// shared files stops the track. At the gate its daemon shuts down.
    /// At admission the daemon answers the submitter and keeps serving:
    /// its next refresh re-opens a mirror the failed append retired,
    /// rewrites it from the primary and re-admits it. The simulator
    /// still models that failure as a restart, which heals the copies
    /// the same way (at open).
    fn locked<R>(
        &mut self,
        t: usize,
        f: impl FnOnce(&mut Gate<'_, Mem>) -> Result<R, ServiceError>,
    ) -> Option<R> {
        let now = self.now();
        let max_retries = self.max_retries;
        let live = self.tracks[t].as_mut()?;
        live.lock.lock().unwrap();
        let result = live.log.refresh(now).and_then(|_| {
            live.ledger.refresh()?;
            f(&mut Gate {
                log: &mut live.log,
                ledger: &mut live.ledger,
                config: TrackConfig {
                    track: t as u32,
                    lease: LEASE,
                },
                max_retries,
                now,
            })
        });
        live.lock.unlock().unwrap();
        if result.is_err() {
            self.tracks[t] = None;
        }
        result.ok()
    }

    /// Performs `act` on track `t`.
    pub(super) fn act(&mut self, t: usize, act: Act) {
        match act {
            Act::Admit { from, to } => {
                let panel = (from..to).collect();
                let staked = self.locked(t, |gate| {
                    let job_id = gate.ledger.next_job_id().max(gate.log.next_job_id());
                    gate.stake(job_id, 1, panel)
                });
                if let (Some(claim), Some(live)) = (staked, self.tracks[t].as_mut()) {
                    let job = Job {
                        claim,
                        runs: 0,
                        result: None,
                    };
                    live.jobs.insert(job.claim.job_id, job);
                }
            }
            Act::Run { nth } => {
                let Some(live) = self.tracks[t].as_mut() else {
                    return;
                };
                let transient = std::mem::take(&mut live.transient);
                if let Some((claim, result @ None)) = &mut live.carrying {
                    *result = Some(run_job(claim, transient));
                } else if let Some(job) = live
                    .jobs
                    .values_mut()
                    .filter(|j| j.result.is_none())
                    .nth(nth)
                {
                    job.runs += 1;
                    job.result = Some(run_job(&job.claim, transient));
                }
            }
            Act::Visit => self.visit(t),
        }
    }

    /// One executor step: the carried claim's visit, or the visit of the
    /// job at its turn (after the local scheduler's retry, if it has one).
    fn visit(&mut self, t: usize) {
        let max_retries = self.max_retries;
        let Some(live) = self.tracks[t].as_mut() else {
            return;
        };
        let (job_id, result, reclaimed, allowed) = match &mut live.carrying {
            Some((claim, slot)) => {
                let Some(result) = slot.take() else {
                    return;
                };
                let spent = claim.attempt > max_retries;
                let allowed = result.as_ref().err().map(|e| !e.retryable() || spent);
                (claim.job_id, result, Some(claim.attempt), allowed)
            }
            None => {
                let Some((&job_id, job)) = live.jobs.iter_mut().next() else {
                    return;
                };
                let Some(result) = job.result.take() else {
                    return;
                };
                if let Err(error) = &result {
                    if error.retryable() && job.runs <= max_retries {
                        return; // re-queued locally with its claim-time seed
                    }
                }
                let allowed = result
                    .as_ref()
                    .err()
                    .map(|e| !e.retryable() || job.runs > max_retries);
                (job_id, result, None, allowed)
            }
        };
        if let Some(allowed) = allowed {
            self.done_allowed.insert(job_id, allowed);
        }
        let policy = self.policy;
        let visited = self.locked(t, |gate| {
            let visit = Visit {
                job_id,
                result: &result,
                reclaimed,
            };
            let view = gate.observe(&visit);
            gate.apply(policy(&view), &view, &visit)
        });
        let Some(live) = self.tracks[t].as_mut() else {
            return;
        };
        let failed_own = reclaimed.is_none() && result.is_err();
        match visited {
            Some(Visited::Resolved(_)) if reclaimed.is_some() => live.carrying = None,
            Some(Visited::Resolved(_)) => drop(live.jobs.remove(&job_id)),
            _ if failed_own => drop(live.jobs.remove(&job_id)),
            visited => {
                // Still in hand: parked, or the head is to be run first.
                match &mut live.carrying {
                    Some((_, slot)) => *slot = Some(result),
                    None => live.jobs.get_mut(&job_id).unwrap().result = Some(result),
                }
                if let Some(Visited::Run(claim)) = visited {
                    if claim.job_id != job_id {
                        live.carrying = Some((claim, None));
                    }
                }
            }
        }
    }

    /// Asserts the safety invariants over the files as they are now.
    pub(super) fn check(&mut self) -> Result<(), String> {
        let read = |path: &PathBuf| disk(|d| d.files.get(path).cloned().unwrap_or_default());
        let files = &self.files;
        for (primary, mirrors) in [
            (&files.ledger, &files.ledger_mirrors),
            (&files.claims, &files.claims_mirrors),
        ] {
            let truth = read(primary);
            for mirror in mirrors {
                if !truth.starts_with(&read(mirror)) {
                    return Err(format!(
                        "{} is not a prefix of its primary",
                        mirror.display()
                    ));
                }
            }
        }
        if self.ledger.advance(&read(&files.ledger))? > 0 {
            let records = &self.ledger.entries;
            let mut ids = BTreeSet::new();
            if let Some(record) = records.iter().find(|r| !ids.insert(r.job_id)) {
                return Err(format!("job {} appended twice", record.job_id));
            }
            if let Some(pair) = records.windows(2).find(|p| p[1].job_id <= p[0].job_id) {
                return Err(format!(
                    "ledger ids not strictly increasing: {} then {}",
                    pair[0].job_id, pair[1].job_id
                ));
            }
            audit_records(records).map_err(|e| format!("audit: {e}"))?;
        }
        let fresh = self.claims.advance(&read(&files.claims))?;
        for entry in &self.claims.entries[self.claims.entries.len() - fresh..] {
            if let ClaimEntry::Done(done) = entry {
                if self.done_allowed.get(&done.job_id) != Some(&true) {
                    return Err(format!(
                        "job {} marked Done after a transient failure within its retry budget",
                        done.job_id
                    ));
                }
            }
        }
        Ok(())
    }

    /// The committed records, as of the last check.
    fn records(&self) -> &[LedgerRecord] {
        &self.ledger.entries
    }

    /// Claimed jobs neither committed nor marked done, as of the last check.
    fn unresolved(&self) -> BTreeSet<u64> {
        let mut open = BTreeSet::new();
        for entry in &self.claims.entries {
            match entry {
                ClaimEntry::Claim(c) => drop(open.insert(c.job_id)),
                ClaimEntry::Done(d) => drop(open.remove(&d.job_id)),
            }
        }
        for record in &self.ledger.entries {
            open.remove(&record.job_id);
        }
        open
    }

    /// The quiescent phase: no more faults, dead tracks restarted, and
    /// an idle track given a job while any claim is unresolved, so every
    /// gate keeps being visited (a fleet nobody submits to reclaims
    /// nothing). The lease clock moves every round; every claim and every
    /// local job must resolve within the bound.
    pub(super) fn settle(&mut self) -> Result<(), String> {
        for _ in 0..SETTLE_ROUNDS {
            let held: BTreeSet<u64> = self
                .tracks
                .iter()
                .flatten()
                .flat_map(|live| {
                    live.jobs
                        .keys()
                        .copied()
                        .chain(live.carrying.iter().map(|(c, _)| c.job_id))
                })
                .collect();
            let unresolved = self.unresolved();
            if held.is_empty() && unresolved.is_empty() {
                return Ok(());
            }
            let orphans = unresolved.iter().any(|id| !held.contains(id));
            for t in 0..self.tracks.len() {
                if !self.alive(t) {
                    self.restart(t);
                }
                let acts = self.acts(t);
                let act = match acts.as_slice() {
                    [Act::Admit { .. }] if orphans => {
                        let from = 40 * t as u32;
                        Act::Admit {
                            from,
                            to: from + 60,
                        }
                    }
                    _ if acts.contains(&Act::Run { nth: 0 }) => Act::Run { nth: 0 },
                    _ if acts.contains(&Act::Visit) => Act::Visit,
                    _ => continue,
                };
                self.act(t, act);
                self.check()?;
            }
            self.tick(LEASE / 4);
        }
        Err(format!(
            "progress: claims {:?} unresolved {} ms of virtual time after the last fault",
            self.unresolved(),
            (LEASE / 4 * SETTLE_ROUNDS as u32).as_millis()
        ))
    }
}

/// splitmix64: the schedule's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Runs the schedule of `seed` under `policy`.
///
/// # Errors
///
/// The first invariant violation, with the step it happened at.
pub(super) fn run(seed: u64, policy: Policy) -> Result<(), String> {
    let mut rng = Rng(seed);
    let tracks = 1 + rng.below(3);
    let mirrors = rng.below(3);
    let max_retries = rng.below(3) as u32;
    let mut sim = Sim::new(tracks, mirrors, max_retries, policy);
    for step in 0..FAULT_STEPS {
        let t = rng.below(tracks);
        if !sim.alive(t) {
            sim.restart(t);
        } else {
            if rng.below(4) == 0 {
                let copies = sim.files.copies();
                let fault = match rng.below(6) {
                    0 => Fault::Crash(t),
                    1 => Fault::Torn(copies[rng.below(copies.len())].clone()),
                    2 => Fault::Unsynced(copies[rng.below(copies.len())].clone()),
                    3 if copies.len() > 2 => {
                        Fault::LoseMirror(copies[2 + rng.below(copies.len() - 2)].clone())
                    }
                    4 => Fault::ClockJump,
                    _ => Fault::Transient(t),
                };
                sim.inject(fault);
            }
            let acts = sim.acts(t);
            if !acts.is_empty() {
                let act = match acts[rng.below(acts.len())] {
                    Act::Admit { .. } if rng.below(8) == 0 => Act::Admit {
                        from: POISON,
                        to: POISON + 1,
                    },
                    Act::Admit { .. } => {
                        let from = rng.below(140) as u32;
                        Act::Admit {
                            from,
                            to: from + 60,
                        }
                    }
                    Act::Run { .. } => Act::Run { nth: rng.below(2) },
                    Act::Visit => Act::Visit,
                };
                sim.act(t, act);
            }
        }
        disk(|d| (d.torn, d.unsynced) = (None, None));
        sim.tick(Duration::from_millis(rng.below(400) as u64));
        sim.check().map_err(|e| format!("step {step}: {e}"))?;
    }
    sim.settle()
        .map_err(|e| format!("after the fault phase: {e}"))
}

/// Runs `seeds` under `policy`; the first failure, with its seed.
pub(super) fn sweep(seeds: std::ops::Range<u64>, policy: Policy) -> Result<(), String> {
    for seed in seeds {
        run(seed, policy).map_err(|e| format!("seed {seed}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::gate::{Ran, Resolution};
    use super::*;

    /// The seeds every `cargo test` runs.
    const TIER1: std::ops::Range<u64> = 0..2_000;

    #[test]
    fn the_gate_holds_every_invariant_over_the_tier1_seeds() {
        sweep(TIER1, decide).unwrap();
    }

    #[test]
    #[ignore = "wide sweep: run in release, nightly"]
    fn the_gate_holds_every_invariant_over_a_wide_sweep() {
        sweep(TIER1.end..TIER1.end + 100_000, decide).unwrap();
    }

    /// The first tier-1 seed on which `policy` breaks an invariant.
    fn first_violation(policy: Policy) -> (u64, String) {
        let (seed, error) = TIER1
            .map(|seed| (seed, run(seed, policy)))
            .find_map(|(seed, r)| r.err().map(|e| (seed, e)))
            .expect("the simulator misses the seeded bug");
        println!("seed {seed}: {error}");
        (seed, error)
    }

    #[test]
    fn it_finds_the_wedge_of_an_own_track_head_that_parks_the_gate() {
        // The rule before the restart fix: an own-track head the caller
        // does not hold parks the gate, so a track restarted under its id
        // waits forever behind its previous incarnation's claim.
        fn own_head_parks(view: &GateView) -> GateAction {
            match view.head {
                Some(head)
                    if view.fleet == Resolution::Open
                        && view.ran == Ran::Record
                        && head.track == view.track
                        && head.job_id != view.job_id =>
                {
                    GateAction::Wait
                }
                _ => decide(view),
            }
        }
        let (_, error) = first_violation(own_head_parks);
        assert!(error.contains("progress"), "{error}");
    }

    #[test]
    fn it_finds_a_done_marker_after_a_transient_reclaim_failure() {
        fn every_failed_reclaim_is_done(view: &GateView) -> GateAction {
            if view.fleet == Resolution::Open
                && matches!(view.ran, Ran::Failed { .. })
                && view.reclaimed.is_some()
            {
                GateAction::MarkDone
            } else {
                decide(view)
            }
        }
        let (_, error) = first_violation(every_failed_reclaim_is_done);
        assert!(error.contains("Done"), "{error}");
    }

    #[test]
    fn a_torn_mirror_tail_then_another_tracks_append_keeps_every_mirror_a_prefix() {
        // Two tracks, two mirrors per log. Track 0's claim reaches the
        // primary and one mirror whole but tears on the other mirror —
        // the quorum (2 of 3) holds, the torn mirror is retired in track
        // 0. Track 1 then appends: its refresh must heal the mirror's tail
        // first, or its frame lands after the garbage.
        let mut sim = Sim::new(2, 2, 1, decide);
        sim.inject(Fault::Torn(PathBuf::from("claims.0")));
        sim.act(0, Act::Admit { from: 0, to: 60 });
        sim.check().unwrap();
        sim.act(1, Act::Admit { from: 60, to: 120 });
        sim.check().unwrap();
        let (entries, _) = scan::<ClaimEntry>(&disk(|d| d.files[Path::new("claims.0")].clone()));
        assert_eq!(entries.len(), 2, "the healed mirror replays both claims");
        sim.settle().unwrap();
    }

    /// Whether every record's seed is exactly the union of all earlier
    /// releases — ROADMAP item 1's rule, stricter than `audit_records`.
    fn exact_seeds(records: &[LedgerRecord]) -> Result<(), u64> {
        let mut union = BTreeSet::new();
        for record in records {
            if record.forced != union.iter().copied().collect::<Vec<u32>>() {
                return Err(record.job_id);
            }
            union.extend(record.released.iter().copied());
        }
        Ok(())
    }

    #[test]
    fn a_reclaimed_job_commits_ahead_of_a_job_claimed_against_the_empty_ledger() {
        // The stale seed, as a daemon pair reproduces it with a SIGKILL:
        // track 0 claims job 1 (SNPs 0–119) and dies before committing;
        // track 1 claims job 2 (60–179) against the still-empty ledger,
        // reclaims job 1 once its lease ran out, commits it, then commits
        // job 2 with the seed frozen in its claim.
        let mut sim = Sim::new(2, 1, 2, decide);
        sim.act(0, Act::Admit { from: 0, to: 120 });
        sim.inject(Fault::Crash(0));
        sim.act(1, Act::Admit { from: 60, to: 180 });
        sim.act(1, Act::Run { nth: 0 });
        sim.tick(2 * LEASE);
        for act in [Act::Visit, Act::Run { nth: 0 }, Act::Visit, Act::Visit] {
            sim.act(1, act);
            sim.check().unwrap();
        }
        let records = sim.records();
        let ids: Vec<u64> = records.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(records[0].released.len(), 54);
        assert!(
            records[1].forced.is_empty(),
            "job 2 kept its claim-time seed"
        );
        audit_records(records).unwrap();
        // ROADMAP item 1 turns this into `Ok(())`: job 2 re-seeded with
        // job 1's 54 SNPs before it commits.
        assert_eq!(exact_seeds(records), Err(2));
    }
}
