//! Replica federation tracks: multi-process horizontal serving over the
//! shared release ledger.
//!
//! A *track* is one full assessment daemon — its own attested
//! federation, worker lanes and client endpoint — that shares the
//! append-only release ledger with the other tracks of a *fleet*. The
//! tracks never talk to each other directly: all coordination flows
//! through two files next to the ledger,
//!
//! * `<ledger>.claims` — the [`claims::ClaimLog`], an append-only,
//!   checksummed, mirrored log of job claims and terminal-failure
//!   markers, and
//! * `<ledger>.claims.lock` — the fleet's advisory exclusive lock,
//!
//! with the protocol implemented by [`TrackCoordinator`]:
//!
//! 1. **Claim at admission.** Accepting a submit appends a
//!    quorum-acknowledged `Claim{job, track, lease}` frame under the
//!    fleet lock, allocating the globally next job id and freezing the
//!    claim-time ledger snapshot (the forced seed). First intact claim
//!    wins the job; the frame carries the full spec so any survivor can
//!    re-run it.
//! 2. **Commit in claim order.** A finished job's record may only be
//!    appended once every earlier claim has resolved — committed,
//!    marked failed, or superseded. Ids are allocated in claim order, so
//!    this is the scheduler's own rule (commit in id order, see
//!    [`crate::sched`]) continued across processes: a worker reaches the
//!    fleet gate only once its job is the lowest live id *in its
//!    process*, and the gate then waits out the other tracks' earlier
//!    claims. With one track nothing is left for it to wait for, so
//!    `--tracks 1` output is byte-identical to no tracks at all by
//!    construction; with N tracks it keeps the shared ledger strictly
//!    monotone, which is what makes each certificate's
//!    cumulative-release charge sound.
//! 3. **Lease expiry.** A track that dies between claim and commit
//!    stalls the gate until its lease (measured by each survivor from
//!    its own first sighting of the claim — no shared clock) runs out;
//!    the first survivor to notice appends a reclaim and re-runs the
//!    job from the spec embedded in the claim, committing at the *same*
//!    position. A track's own claims below the job at its gate get the
//!    same treatment — no live local job can back them — so a track
//!    restarted under its id reclaims its previous incarnation's
//!    leftovers instead of wedging behind them. A reclaimed run that
//!    fails transiently is left to lease expiry within the shared
//!    attempt budget; only a deterministic failure (or a spent budget)
//!    appends the terminal `Done` marker. Execution may be duplicated by
//!    a slow-but-alive claimant; the append never is.
//!
//! Which of these a gate visit does is decided in one pure function,
//! `gate::decide` (`gate.rs` has the table), and checked by a seeded
//! fault simulator over in-memory logs and a virtual lease clock
//! (`sim.rs`); [`coordinator`] owns the lock and the files.

pub mod claims;
pub mod coordinator;
pub(crate) mod gate;
#[cfg(test)]
mod sim;

pub use coordinator::{TrackConfig, TrackCoordinator};
