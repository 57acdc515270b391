//! The fleet's commit policy as one pure decision.
//!
//! A worker visits the fleet gate with one job: the process's lowest
//! live id with its finished run (see [`crate::sched`]), or a dead
//! track's claim it reclaimed and ran. Under the fleet lock, with both
//! shared files refreshed, [`Gate::observe`] reduces the poll to a
//! [`GateView`], [`decide`] — pure, and the only place the choice is
//! made — picks a [`GateAction`], and [`Gate::apply`] performs its one
//! write, if it has one. The rows are tried top to bottom:
//!
//! | the view | action | write |
//! |---|---|---|
//! | the fleet has a record for the job | adopt | — |
//! | the fleet has a `Done` marker for the job | supersede | — |
//! | failed reclaimed run, transient, attempt ≤ `max_retries` | leave to lease | — |
//! | any other failed run | mark `Done` | `Done` frame |
//! | head = this job under this track's latest claim | append | ledger record |
//! | head's lease expired, head = this job or the lane is free | reclaim | claim frame |
//! | otherwise (no head, a live lease, a busy lane) | wait | — |
//!
//! Leases are evaluated at the `now` the gate was built with, so the
//! policy reads no clock. `sim.rs` drives this module over in-memory
//! logs and virtual time with injected faults, and a table test checks
//! `decide` over every combination of the view's fields.

use super::claims::{ClaimEntry, ClaimFrame, ClaimLog, DoneFrame};
use super::coordinator::TrackConfig;
use crate::error::ServiceError;
use crate::ledger::{LedgerRecord, ReleaseLedger};
use crate::log::Store;
use crate::sched::dispatch::append_record;
use crate::telemetry;
use gendpr_obs::{event, Level};
use std::time::Instant;

/// What the visiting worker holds for the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ran {
    /// A record, ready to commit.
    Record,
    /// A failure, transient or not ([`ServiceError::retryable`]).
    Failed { retryable: bool },
}

/// The fleet head — the lowest unresolved claimed job — as one poll saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head {
    pub(crate) job_id: u64,
    /// The track of the job's controlling (latest) claim.
    pub(crate) track: u32,
    /// Whether that claim's lease had run out at the gate's `now`.
    pub(crate) expired: bool,
}

/// How the fleet has resolved the visited job so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolution {
    Open,
    Committed,
    Done,
}

/// Everything [`decide`] may look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GateView {
    pub(crate) job_id: u64,
    /// This track.
    pub(crate) track: u32,
    pub(crate) ran: Ran,
    pub(crate) head: Option<Head>,
    pub(crate) fleet: Resolution,
    /// Whether the lane may run a reclaim: it may while it visits for the
    /// process's own job, not while it carries a reclaimed one.
    pub(crate) lane_free: bool,
    /// The claim's attempt when the job is a reclaimed one; `None` for
    /// the process's own job, whose retries the local scheduler spent.
    pub(crate) reclaimed: Option<u32>,
    /// The fleet-wide attempt budget: at most `max_retries + 1` runs.
    pub(crate) max_retries: u32,
}

/// The one thing a gate visit does (see the table in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GateAction {
    Append,
    Adopt,
    Supersede,
    Reclaim,
    LeaveToLease,
    MarkDone,
    Wait,
}

/// The commit policy: the table in the module docs, row by row.
pub(crate) fn decide(view: &GateView) -> GateAction {
    match view.fleet {
        Resolution::Committed => return GateAction::Adopt,
        Resolution::Done => return GateAction::Supersede,
        Resolution::Open => {}
    }
    if let Ran::Failed { retryable } = view.ran {
        return match view.reclaimed {
            Some(attempt) if retryable && attempt <= view.max_retries => GateAction::LeaveToLease,
            _ => GateAction::MarkDone,
        };
    }
    match view.head {
        Some(head) if head.job_id == view.job_id && head.track == view.track => GateAction::Append,
        Some(head) if head.expired && (head.job_id == view.job_id || view.lane_free) => {
            GateAction::Reclaim
        }
        _ => GateAction::Wait,
    }
}

/// One job at the gate: its run's result and, when this track reclaimed
/// it, the claim's attempt.
pub(crate) struct Visit<'a> {
    pub(crate) job_id: u64,
    pub(crate) result: &'a Result<LedgerRecord, ServiceError>,
    pub(crate) reclaimed: Option<u32>,
}

/// What a visit left the worker with.
pub(crate) enum Visited {
    /// The job is resolved fleet-wide: its committed record (ours, or
    /// the fleet's), or why it will never have one here.
    Resolved(Box<Result<LedgerRecord, ServiceError>>),
    /// This track now holds the head's claim: run it, then visit with it.
    Run(ClaimFrame),
    Wait,
}

/// One track's access to both shared logs for one visit, under the
/// fleet lock and after both were refreshed.
pub(crate) struct Gate<'a, S> {
    pub(crate) log: &'a mut ClaimLog<S>,
    pub(crate) ledger: &'a mut ReleaseLedger<S>,
    pub(crate) config: TrackConfig,
    pub(crate) max_retries: u32,
    /// The lease clock's reading for this visit.
    pub(crate) now: Instant,
}

impl<S: Store> Gate<'_, S> {
    /// Reduces what this poll sees of `visit` to the view [`decide`] reads.
    pub(crate) fn observe(&mut self, visit: &Visit<'_>) -> GateView {
        let fleet = if self.ledger.contains(visit.job_id) {
            Resolution::Committed
        } else if self.log.done_by(visit.job_id).is_some() {
            Resolution::Done
        } else {
            Resolution::Open
        };
        let head = self.log.head(self.ledger, self.now);
        GateView {
            job_id: visit.job_id,
            track: self.config.track,
            ran: match visit.result {
                Ok(_) => Ran::Record,
                Err(error) => Ran::Failed {
                    retryable: error.retryable(),
                },
            },
            head: head.map(|(claim, expired)| Head {
                job_id: claim.job_id,
                track: claim.track,
                expired,
            }),
            fleet,
            lane_free: visit.reclaimed.is_none(),
            reclaimed: visit.reclaimed,
            max_retries: self.max_retries,
        }
    }

    /// Performs `action`, decided on `view` of `visit`: at most one write.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the write is not durable.
    pub(crate) fn apply(
        &mut self,
        action: GateAction,
        view: &GateView,
        visit: &Visit<'_>,
    ) -> Result<Visited, ServiceError> {
        let job_id = visit.job_id;
        let resolved = match (action, visit.result) {
            (GateAction::Append, Ok(record)) => {
                append_record(self.ledger, record)?;
                Ok(record.clone())
            }
            (GateAction::Adopt, local) => {
                let fleet = self.ledger.record(job_id).expect("observed").clone();
                if local.as_ref().is_ok_and(|record| *record != fleet) {
                    telemetry::track_superseded_commits().inc();
                }
                Ok(fleet)
            }
            (GateAction::Supersede, local) => {
                if local.is_ok() {
                    telemetry::track_superseded_commits().inc();
                }
                let track = self.log.done_by(job_id).expect("observed");
                Err(ServiceError::TrackSuperseded { job_id, track })
            }
            (GateAction::Reclaim, _) => return self.reclaim().map(Visited::Run),
            (GateAction::MarkDone, Err(error)) => {
                let error = error.to_string();
                self.mark_done(job_id, &error)?;
                Err(ServiceError::JobFailed(error))
            }
            (GateAction::LeaveToLease, Err(error)) => {
                let error = error.to_string();
                telemetry::track_reclaims_abandoned().inc();
                let fields = [
                    ("job_id", job_id.into()),
                    ("attempt", u64::from(view.reclaimed.unwrap_or(0)).into()),
                    ("error", error.as_str().into()),
                ];
                event(Level::Warn, "tracks", "reclaim_abandoned", &fields);
                Err(ServiceError::JobFailed(error))
            }
            (GateAction::Wait, _) => {
                if view.head.is_some() {
                    telemetry::track_commit_waits().inc();
                }
                return Ok(Visited::Wait);
            }
            (GateAction::Append, Err(_))
            | (GateAction::MarkDone | GateAction::LeaveToLease, Ok(_)) => {
                unreachable!("decide appends only a record and closes only a failure")
            }
        };
        Ok(Visited::Resolved(Box::new(resolved)))
    }

    /// Appends a claim on `job_id` for this track, charged against the
    /// ledger as it stands: its length and released union (the forced
    /// seed a run of the claim must use).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the claim is not durable.
    pub(crate) fn stake(
        &mut self,
        job_id: u64,
        attempt: u32,
        batches: u32,
        panel: Vec<u32>,
    ) -> Result<ClaimFrame, ServiceError> {
        let claim = ClaimFrame {
            job_id,
            track: self.config.track,
            attempt,
            lease_ms: self.config.lease.as_millis() as u64,
            prefix: self.ledger.len() as u64,
            batches,
            panel,
            forced: self.ledger.released_union().iter().map(|s| s.0).collect(),
        };
        self.log
            .append(ClaimEntry::Claim(claim.clone()), self.now)?;
        Ok(claim)
    }

    /// Takes the expired head over. The reclaim re-snapshots the prefix:
    /// records committed since the original claim are part of the
    /// cumulative release the re-run must charge.
    fn reclaim(&mut self) -> Result<ClaimFrame, ServiceError> {
        let (head, _) = self.log.head(self.ledger, self.now).expect("observed");
        let head = head.clone();
        telemetry::track_lease_expiries().inc();
        let claim = self.stake(head.job_id, head.attempt + 1, head.batches, head.panel)?;
        telemetry::track_reclaims().inc();
        let fields = [
            ("job_id", claim.job_id.into()),
            ("from_track", u64::from(head.track).into()),
            ("by_track", u64::from(claim.track).into()),
            ("attempt", u64::from(claim.attempt).into()),
        ];
        event(Level::Warn, "tracks", "claim_reclaimed", &fields);
        Ok(claim)
    }

    /// Resolves `job_id` without a record.
    fn mark_done(&mut self, job_id: u64, error: &str) -> Result<(), ServiceError> {
        let track = self.config.track;
        let done = DoneFrame {
            job_id,
            track,
            error: error.to_string(),
        };
        self.log.append(ClaimEntry::Done(done), self.now)?;
        telemetry::track_done_markers().inc();
        let fields = [
            ("job_id", job_id.into()),
            ("track", u64::from(track).into()),
            ("error", error.into()),
        ];
        event(Level::Warn, "tracks", "job_marked_done", &fields);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: u64 = 7;
    const TRACK: u32 = 1;
    const MAX_RETRIES: u32 = 2;

    /// Every combination of the view's discrete fields: the visited
    /// job's run, the head (none; this or another job; under this or
    /// another track; lease live or expired), the fleet's resolution,
    /// the lane, and a reclaim's attempt within or past the budget.
    fn every_view() -> Vec<GateView> {
        let rans = [
            Ran::Record,
            Ran::Failed { retryable: true },
            Ran::Failed { retryable: false },
        ];
        let mut heads = vec![None];
        for job_id in [JOB, JOB - 3] {
            for track in [TRACK, TRACK + 1] {
                for expired in [false, true] {
                    heads.push(Some(Head {
                        job_id,
                        track,
                        expired,
                    }));
                }
            }
        }
        let fleets = [Resolution::Open, Resolution::Committed, Resolution::Done];
        let reclaims = [None, Some(MAX_RETRIES), Some(MAX_RETRIES + 1)];
        let mut views = Vec::new();
        for ran in rans {
            for &head in &heads {
                for fleet in fleets {
                    for lane_free in [false, true] {
                        for reclaimed in reclaims {
                            views.push(GateView {
                                job_id: JOB,
                                track: TRACK,
                                ran,
                                head,
                                fleet,
                                lane_free,
                                reclaimed,
                                max_retries: MAX_RETRIES,
                            });
                        }
                    }
                }
            }
        }
        views
    }

    #[test]
    fn decide_keeps_every_rule_of_the_table_over_every_view() {
        let views = every_view();
        assert_eq!(views.len(), 3 * 9 * 3 * 2 * 3);
        for view in &views {
            let action = decide(view);
            let case = format!("{view:?} -> {action:?}");
            // A fleet record or `Done` marker always wins.
            match view.fleet {
                Resolution::Committed => assert_eq!(action, GateAction::Adopt, "{case}"),
                Resolution::Done => assert_eq!(action, GateAction::Supersede, "{case}"),
                Resolution::Open => {
                    assert!(
                        !matches!(action, GateAction::Adopt | GateAction::Supersede),
                        "{case}"
                    );
                }
            }
            let head = view.head;
            // Append only when the head is this job under this track's
            // latest claim — and always then, for an open job with a record.
            let ours = head.is_some_and(|h| h.job_id == JOB && h.track == TRACK);
            let appendable = ours && view.fleet == Resolution::Open && view.ran == Ran::Record;
            assert_eq!(action == GateAction::Append, appendable, "{case}");
            if action == GateAction::Reclaim {
                let head = head.expect("a reclaim needs a head");
                // Never reclaim a head whose lease is live.
                assert!(head.expired, "{case}");
                // Never stake a reclaim of another job from a busy lane.
                assert!(head.job_id == JOB || view.lane_free, "{case}");
                assert_eq!(view.ran, Ran::Record, "{case}");
            }
            // A failed run is closed only when it was deterministic, is
            // the process's own (its local retries are spent), or spent
            // the fleet budget; otherwise it goes back to its lease.
            let within_budget = matches!(
                (view.ran, view.reclaimed),
                (Ran::Failed { retryable: true }, Some(attempt)) if attempt <= MAX_RETRIES
            );
            if view.fleet == Resolution::Open {
                if let Ran::Failed { .. } = view.ran {
                    let expected = if within_budget {
                        GateAction::LeaveToLease
                    } else {
                        GateAction::MarkDone
                    };
                    assert_eq!(action, expected, "{case}");
                }
            }
            if matches!(action, GateAction::MarkDone | GateAction::LeaveToLease) {
                assert!(matches!(view.ran, Ran::Failed { .. }), "{case}");
            }
            // An open job with a record waits exactly when nothing else applies.
            if view.fleet == Resolution::Open && view.ran == Ran::Record && !ours {
                let reclaimable =
                    head.is_some_and(|h| h.expired && (h.job_id == JOB || view.lane_free));
                let expected = if reclaimable {
                    GateAction::Reclaim
                } else {
                    GateAction::Wait
                };
                assert_eq!(action, expected, "{case}");
            }
        }
    }
}
