//! Long-lived assessment sessions: the federation attests once and then
//! serves a *queue* of assessment jobs over the same secure channels.
//!
//! [`crate::runtime`] deploys the federation for exactly one assessment:
//! elect, attest, run the three phases, tear everything down. A GWAS
//! consortium, however, fields a *stream* of release requests — different
//! SNP panels, arriving over weeks — and re-attesting G enclaves per
//! request is pure overhead. Worse, assessing every request in isolation
//! is *unsound*: each release is irreversible, so the adversary's LR
//! power must be charged against the union of everything released so
//! far, not just the panel at hand (DyPS's irreversibility argument,
//! applied across studies).
//!
//! This module keeps the session open. A member joins exactly as a
//! one-shot member does — the runtime's deployment check, member setup
//! and `seat` step: one election, one round of mutual attestation and
//! counts collection — and then stays: a loop in which the leader
//! announces each job with a
//! [`JobStartBroadcast`] naming the requested panel *and* the already
//! released SNPs. Phase 3 runs the *seeded* subset search
//! ([`gendpr_stats::lr::select_safe_subset`]): prior releases are
//! forced into the cumulative LR sums before any new candidate is
//! admitted, so the certified bound covers the whole release history.
//! Between jobs every channel ratchets its keys
//! ([`gendpr_tee::session::SecureChannel::rekey`]), giving per-job forward
//! secrecy and a fresh nonce space however many jobs the federation serves.
//! What the leader and the followers run *inside* a job is the crate's
//! assessment engine, shared with the one-shot runtime.
//!
//! [`ServiceFederation`] is the in-process handle: it spawns one thread
//! per member over arbitrary transports, waits for the session to come
//! up, and turns [`JobSpec`]s into [`JobOutcome`]s one at a time. The
//! `gendpr serve` daemon builds its job queue and release ledger on top.

use crate::certificate::AssessmentCertificate;
use crate::config::{FederationConfig, GwasParams};
use crate::engine::{
    follower_serve, send_each, unexpected_from_leader, Assessment, LeaderSession, Terminator,
};
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use crate::messages::{JobStartBroadcast, ProtocolMessage, ShardStartBroadcast};
use crate::runtime::{
    await_protocol, build_member, in_memory_fabric, seat, spawn_members, MemberCtx, RuntimeOptions,
    Seat,
};
use gendpr_fednet::metrics::TrafficStats;
use gendpr_fednet::transport::{PeerId, Transport};
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One assessment job: which SNPs the requesting study wants to release,
/// and which SNPs earlier jobs already released (charged against the LR
/// power budget before any new candidate is admitted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Service-assigned id, echoed in every event and in the certificate.
    pub job_id: u64,
    /// The requested study panel (subset of the cohort's SNPs).
    pub panel: Vec<SnpId>,
    /// SNPs released by earlier jobs — the irreversible prefix.
    pub forced: Vec<SnpId>,
}

/// Phases 1–2 of one job restricted to a single SNP shard, expressed in
/// the shard lane's *local* 0-based ids (the lane's cohort is a
/// [`Cohort::column_range`] slice of the study, so its panel starts at 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardJobSpec {
    /// The global job this shard contributes to.
    pub job_id: u64,
    /// Which shard of the plan this is (0-based).
    pub shard: u32,
    /// The job panel intersected with the shard range, shifted to local ids.
    pub panel: Vec<SnpId>,
    /// The forced prefix intersected with the shard range, shifted likewise.
    pub forced: Vec<SnpId>,
}

/// One evaluation subset's LD scan over a shard: the survivors, plus every
/// pooled moment the scan exchanged. The merging leader replays its own
/// global scan against this log as a cache, falling back to live oracle
/// queries only for pairs the shard never saw (shard-boundary pairs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardScan {
    /// LD survivors within the shard, local ids.
    pub retained: Vec<SnpId>,
    /// `(a, b, pooled)` for every adjacent pair the scan evaluated.
    pub moments: Vec<(u32, u32, LdMoments)>,
}

/// What one shard lane computed for a job: MAF survivors and one LD scan
/// per evaluation subset, all in local ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPhases {
    /// MAF survivors of the shard's candidates (Phase 1), local ids.
    pub l_prime: Vec<SnpId>,
    /// One scan per evaluation subset, in subset order.
    pub scans: Vec<ShardScan>,
}

/// A shard's phases tagged with where its range starts in the global
/// panel, so the merge can translate local ids back (`global = local +
/// start`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutput {
    /// First global SNP id of the shard's range (64-aligned).
    pub start: u32,
    /// The lane's phases 1–2 output.
    pub phases: ShardPhases,
}

/// Traffic of one directed link during one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkUsage {
    /// Sending member.
    pub from: u32,
    /// Receiving member.
    pub to: u32,
    /// Messages and bytes this job put on the link.
    pub stats: TrafficStats,
}

/// What one completed job released, with the certificate covering it.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Echo of [`JobSpec::job_id`].
    pub job_id: u64,
    /// The session's leader (constant across jobs).
    pub leader: usize,
    /// MAF survivors of the requested candidates.
    pub l_prime: Vec<SnpId>,
    /// LD survivors.
    pub l_double_prime: Vec<SnpId>,
    /// Newly released SNPs (never includes the forced prefix).
    pub released: Vec<SnpId>,
    /// Adversary power over forced ∪ released (subset 0).
    pub final_power: f64,
    /// Detection threshold over the cumulative release (subset 0).
    pub final_threshold: f64,
    /// Case minor-allele frequencies of the released SNPs — the
    /// statistics the requesting study may now publish.
    pub case_freqs: Vec<f64>,
    /// Reference frequencies of the released SNPs.
    pub ref_freqs: Vec<f64>,
    /// Enclave-signed certificate; its context digest binds the job id,
    /// panel and forced prefix.
    pub certificate: AssessmentCertificate,
    /// The certificate's epoch (always 1).
    pub epoch: u64,
    /// The session roster.
    pub roster: Vec<u32>,
    /// Per-link traffic this job generated, sorted by `(from, to)`.
    pub traffic: Vec<LinkUsage>,
}

/// Commands the handle sends into the leader's session loop.
enum SessionCommand {
    /// Run a full job; `Some(shards)` merges pre-computed shard phases.
    Run(JobSpec, Option<Vec<ShardOutput>>),
    /// Run phases 1–2 only, scoped to one shard.
    RunShard(ShardJobSpec),
    Shutdown,
}

/// Events member threads report back to the handle.
enum SessionEvent {
    /// Session setup (election, attestation, counts) is complete.
    Ready { leader: usize },
    /// One job finished at this member.
    Finished {
        member: usize,
        job_id: u64,
        safe: Vec<SnpId>,
        traffic: Vec<LinkUsage>,
        detail: Option<Box<Assessment>>,
    },
    /// A shard-scoped job finished (leader only; followers stay silent so
    /// a shard run produces exactly one event).
    ShardFinished {
        job_id: u64,
        shard: u32,
        phases: Box<ShardPhases>,
    },
    /// The member left the session cleanly after `SessionEnd`.
    Closed,
    /// The member's session died.
    Failed { error: ProtocolError },
}

/// Snapshots this member's outbound per-link counters.
fn snapshot_links<T: Transport>(ctx: &MemberCtx<T>) -> Vec<(usize, TrafficStats)> {
    (0..ctx.g)
        .filter(|&peer| peer != ctx.id)
        .map(|peer| (peer, ctx.endpoint.link_stats(PeerId(peer as u32))))
        .collect()
}

/// Outbound per-link traffic since `before`.
fn link_delta<T: Transport>(
    ctx: &MemberCtx<T>,
    before: &[(usize, TrafficStats)],
) -> Vec<LinkUsage> {
    before
        .iter()
        .map(|&(peer, b)| {
            let a = ctx.endpoint.link_stats(PeerId(peer as u32));
            LinkUsage {
                from: ctx.id as u32,
                to: peer as u32,
                stats: TrafficStats {
                    messages: a.messages - b.messages,
                    plaintext_bytes: a.plaintext_bytes - b.plaintext_bytes,
                    wire_bytes: a.wire_bytes - b.wire_bytes,
                },
            }
        })
        .collect()
}

/// Runs one member of a long-lived service session: one seat, then jobs
/// until `SessionEnd` (followers) or a `Shutdown` command (the leader).
#[allow(clippy::too_many_arguments)]
fn join_session<T: Transport>(
    transport: T,
    member: usize,
    config: &FederationConfig,
    params: &GwasParams,
    options: RuntimeOptions,
    node: GdoNode,
    reference: &GenotypeMatrix,
    commands: &Receiver<SessionCommand>,
    events: &Sender<SessionEvent>,
) -> Result<(), ProtocolError> {
    // A dead member kills the session; the daemon rebuilds the lane (and
    // the ledger makes the restart seamless).
    let (mut ctx, node, counts) = build_member(transport, member, config, params, options, node)?;
    let node = Arc::new(node);
    match seat(&mut ctx, &node, &counts, reference, params)? {
        Seat::Leader(session) => leader_session(&mut ctx, session, commands, events),
        Seat::Follower { leader } => follower_session(ctx, &node, leader, events),
    }
}

/// The leader's side of a session: counts were collected once at the
/// seat — shards do not change between jobs, so neither do the MAF
/// outcomes or the χ² rankings — then commands run until `Shutdown`.
fn leader_session<T: Transport>(
    ctx: &mut MemberCtx<T>,
    mut session: LeaderSession<'_>,
    commands: &Receiver<SessionCommand>,
    events: &Sender<SessionEvent>,
) -> Result<(), ProtocolError> {
    let me = ctx.id;
    let _ = events.send(SessionEvent::Ready { leader: me });

    loop {
        let command = commands.recv();
        let before = snapshot_links(ctx);
        let finished =
            match command {
                Ok(SessionCommand::Run(spec, shards)) => {
                    run_leader_job(ctx, &mut session, &spec, shards.as_deref()).map(|detail| {
                        SessionEvent::Finished {
                            member: me,
                            job_id: spec.job_id,
                            safe: detail.released.clone(),
                            traffic: link_delta(ctx, &before),
                            detail: Some(Box::new(detail)),
                        }
                    })
                }
                Ok(SessionCommand::RunShard(spec)) => run_leader_shard(ctx, &mut session, &spec)
                    .map(|phases| SessionEvent::ShardFinished {
                        job_id: spec.job_id,
                        shard: spec.shard,
                        phases: Box::new(phases),
                    }),
                Ok(SessionCommand::Shutdown) | Err(_) => {
                    send_each(ctx, 0..ctx.g, &ProtocolMessage::SessionEnd);
                    let _ = events.send(SessionEvent::Closed);
                    return Ok(());
                }
            };
        match finished {
            Ok(event) => {
                // Ratchet every channel at the job boundary; the followers
                // do the same after `Phase3` / `ShardDone`, so the next
                // job starts under fresh keys on both ends.
                ctx.rekey_channels();
                let _ = events.send(event);
            }
            Err(e) => {
                session.abort(ctx, &e);
                return Err(e);
            }
        }
    }
}

fn follower_session<T: Transport>(
    mut ctx: MemberCtx<T>,
    node: &Arc<GdoNode>,
    leader: usize,
    events: &Sender<SessionEvent>,
) -> Result<(), ProtocolError> {
    let _ = events.send(SessionEvent::Ready { leader });
    loop {
        // Between jobs the leader is legitimately silent for as long as
        // the queue is empty, so an idle timeout is neither a failure nor
        // a suspicion: the member keeps waiting. A *mid-job* silence still
        // aborts with the usual timeout (inside `follower_serve`).
        let Some(msg) = await_protocol(&mut ctx, leader)? else {
            continue;
        };
        match msg {
            ProtocolMessage::JobStart(job) => {
                let before = snapshot_links(&ctx);
                let safe;
                (ctx, safe) = follower_serve(ctx, node, leader, Terminator::Phase3);
                let safe = safe?;
                ctx.rekey_channels();
                let traffic = link_delta(&ctx, &before);
                let _ = events.send(SessionEvent::Finished {
                    member: ctx.id,
                    job_id: job.job_id,
                    safe,
                    traffic,
                    detail: None,
                });
            }
            ProtocolMessage::ShardStart(_) => {
                let done;
                (ctx, done) = follower_serve(ctx, node, leader, Terminator::ShardDone);
                done?;
                // No Finished event: shard lanes report through the
                // leader's `ShardFinished` alone, but the channel still
                // ratchets so shard and full jobs share one key schedule.
                ctx.rekey_channels();
            }
            ProtocolMessage::SessionEnd => {
                let _ = events.send(SessionEvent::Closed);
                return Ok(());
            }
            msg => return Err(unexpected_from_leader(leader, &msg)),
        }
    }
}

/// A job's SNP lists, sorted and deduplicated. The handle already checked
/// them against the study panel (`ServiceFederation::command`).
fn job_sets(panel: &[SnpId], forced: &[SnpId]) -> (Vec<SnpId>, Vec<SnpId>) {
    let sorted = |snps: &[SnpId]| {
        let mut snps = snps.to_vec();
        snps.sort_unstable();
        snps.dedup();
        snps
    };
    (sorted(panel), sorted(forced))
}

/// Drives one job as the leader: announce it with `JobStart`, then the
/// engine's assessment with the forced prefix charged before any new
/// candidate and the certificate bound to the job context.
///
/// With `shards`, the job is a *merge*: phases 1–2 were already run by
/// shard lanes over column slices of the same cohort, whose integer
/// counts and moments are byte-identical to this session's. Phase 1 is
/// recomputed locally (it is a cheap intersection over session-cached
/// MAF outcomes) and asserted against the concatenated shard results;
/// the Phase 2 scan replays against the shards' moment logs, touching
/// the live oracle only for pairs that straddle a shard boundary. Phase
/// 3 — the seeded LR search, which is inherently global because the
/// power budget couples every column — runs unchanged.
fn run_leader_job<T: Transport>(
    ctx: &mut MemberCtx<T>,
    session: &mut LeaderSession<'_>,
    spec: &JobSpec,
    shards: Option<&[ShardOutput]>,
) -> Result<Assessment, ProtocolError> {
    let (panel, forced) = job_sets(&spec.panel, &spec.forced);
    gendpr_obs::event(
        gendpr_obs::Level::Info,
        "serving",
        "job_announced",
        &[
            ("job_id", spec.job_id.into()),
            ("panel", panel.len().into()),
            ("forced", forced.len().into()),
            ("subsets", session.core.evaluations().into()),
        ],
    );
    let announce = ProtocolMessage::JobStart(JobStartBroadcast {
        job_id: spec.job_id,
        panel: panel.iter().map(|s| s.0).collect(),
        forced: forced.iter().map(|s| s.0).collect(),
    });
    send_each(ctx, 0..ctx.g, &announce);

    let assessment = session.assess(ctx, &panel, &forced, Some(spec.job_id), shards)?;
    gendpr_obs::event(
        gendpr_obs::Level::Info,
        "serving",
        "job_phases_complete",
        &[
            ("job_id", spec.job_id.into()),
            ("released", assessment.released.len().into()),
        ],
    );
    Ok(assessment)
}

/// Drives phases 1–2 of one shard as the leader: announce with
/// `ShardStart`, the engine's MAF step, then its LD step with every
/// pooled moment logged, closed by `ShardDone`. No Phase 1/2/3 broadcasts
/// go out — followers only serve the moments oracle — and an *empty*
/// shard panel is legal: a shard whose range misses the job panel still
/// announces and completes, so every lane's channels ratchet in lockstep
/// however the panel lands.
fn run_leader_shard<T: Transport>(
    ctx: &mut MemberCtx<T>,
    session: &mut LeaderSession<'_>,
    spec: &ShardJobSpec,
) -> Result<ShardPhases, ProtocolError> {
    let (panel, forced) = job_sets(&spec.panel, &spec.forced);
    gendpr_obs::event(
        gendpr_obs::Level::Info,
        "serving",
        "shard_announced",
        &[
            ("job_id", spec.job_id.into()),
            ("shard", u64::from(spec.shard).into()),
            ("panel", panel.len().into()),
        ],
    );
    let announce = ProtocolMessage::ShardStart(ShardStartBroadcast {
        job_id: spec.job_id,
        shard: spec.shard,
    });
    send_each(ctx, 0..ctx.g, &announce);

    let phase_clock = Instant::now();
    let l_prime = session.core.maf_step(&panel, &forced);
    crate::telemetry::phase_seconds("maf").observe_duration(phase_clock.elapsed());

    let phase_clock = Instant::now();
    let (core, mut remote) = session.split(ctx);
    let scans = core.ld_step(&mut remote, &l_prime, None, true)?;
    crate::telemetry::phase_seconds("ld").observe_duration(phase_clock.elapsed());

    send_each(ctx, 0..ctx.g, &ProtocolMessage::ShardDone);
    Ok(ShardPhases { l_prime, scans })
}

/// Handle to a running service session: one thread per member, a command
/// queue into the leader and an event stream back.
///
/// Jobs are strictly sequential — [`submit`](Self::submit) blocks until
/// every member reports the job done — which is exactly the semantics the
/// release ledger needs: job *n*'s released SNPs are known (and durable)
/// before job *n + 1*'s forced set is computed.
pub struct ServiceFederation {
    g: usize,
    panel_len: usize,
    leader: usize,
    commands: Vec<Sender<SessionCommand>>,
    events: Receiver<SessionEvent>,
    handles: Vec<JoinHandle<()>>,
    timeout: Duration,
    failed: Option<ProtocolError>,
}

impl ServiceFederation {
    /// Starts a session over the in-memory
    /// [`Network`](gendpr_fednet::transport::Network).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::start_over`].
    pub fn start_in_memory(
        config: FederationConfig,
        params: GwasParams,
        cohort: impl AsRef<Cohort>,
        options: RuntimeOptions,
    ) -> Result<Self, ProtocolError> {
        let transports = in_memory_fabric(&config, None)?;
        Self::start_over(transports, config, params, cohort, options)
    }

    /// Starts a session over caller-supplied transports (one per member,
    /// in id order) and blocks until every member finished setup:
    /// election, mutual attestation, counts collection.
    ///
    /// # Errors
    ///
    /// Configuration errors, [`ProtocolError::EmptyStudy`], or whatever a
    /// member's session setup failed with.
    pub fn start_over<T: Transport + 'static>(
        transports: Vec<T>,
        config: FederationConfig,
        params: GwasParams,
        cohort: impl AsRef<Cohort>,
        options: RuntimeOptions,
    ) -> Result<Self, ProtocolError> {
        let cohort = cohort.as_ref();
        let (event_tx, events) = channel();
        let mut commands = Vec::new();
        let handles = spawn_members(transports, &config, &params, cohort, |id| {
            let (cmd_tx, cmd_rx) = channel();
            commands.push(cmd_tx);
            let events = event_tx.clone();
            move |transport, node, reference: Arc<GenotypeMatrix>| {
                if let Err(error) = join_session(
                    transport, id, &config, &params, options, node, &reference, &cmd_rx, &events,
                ) {
                    let _ = events.send(SessionEvent::Failed { error });
                }
            }
        })?;
        drop(event_tx);
        let mut session = Self {
            g: config.gdo_count,
            panel_len: cohort.panel().len(),
            leader: 0,
            commands,
            events,
            handles,
            timeout: options.timeout,
            failed: None,
        };
        for _ in 0..session.g {
            match session.recv_event()? {
                SessionEvent::Ready { leader } => session.leader = leader,
                _ => {
                    let e = ProtocolError::InvalidConfig("unexpected event during session setup");
                    return Err(session.poison(e));
                }
            }
        }
        Ok(session)
    }

    /// The session's elected leader.
    #[must_use]
    pub fn leader(&self) -> usize {
        self.leader
    }

    /// Federation size.
    #[must_use]
    pub fn gdo_count(&self) -> usize {
        self.g
    }

    /// The cohort's full panel width (job SNP ids must stay below it).
    #[must_use]
    pub fn panel_len(&self) -> usize {
        self.panel_len
    }

    /// Records `error` as the session's fatal error — every later call
    /// returns it — and hands it back.
    fn poison(&mut self, error: ProtocolError) -> ProtocolError {
        self.failed = Some(error.clone());
        error
    }

    /// The session's fatal error for a leader that stopped answering.
    fn wedged(&mut self) -> ProtocolError {
        self.poison(ProtocolError::MemberUnresponsive {
            member: self.leader,
            phase: "service-session",
        })
    }

    /// Hands a job or shard job to the leader: refused unread by a
    /// poisoned handle, and refused — the session staying usable — when
    /// a full job's panel is empty or either SNP list leaves the panel.
    fn command(&mut self, command: SessionCommand) -> Result<(), ProtocolError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let (panel, forced): (&[SnpId], &[SnpId]) = match &command {
            SessionCommand::Run(spec, _) if spec.panel.is_empty() => {
                return Err(ProtocolError::InvalidConfig("job panel is empty"));
            }
            SessionCommand::Run(spec, _) => (&spec.panel, &spec.forced),
            SessionCommand::RunShard(spec) => (&spec.panel, &spec.forced),
            SessionCommand::Shutdown => (&[], &[]),
        };
        if panel
            .iter()
            .chain(forced)
            .any(|s| s.index() >= self.panel_len)
        {
            return Err(ProtocolError::InvalidConfig(
                "job names a SNP outside the study panel",
            ));
        }
        match self.commands[self.leader].send(command) {
            Ok(()) => Ok(()),
            Err(_) => Err(self.wedged()),
        }
    }

    fn recv_event(&mut self) -> Result<SessionEvent, ProtocolError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        // Jobs run G assessments' worth of work; give the session several
        // protocol timeouts before declaring it wedged.
        match self.events.recv_timeout(self.timeout.saturating_mul(4)) {
            Ok(SessionEvent::Failed { error }) => {
                let error = self.root_cause(error);
                Err(self.poison(error))
            }
            Ok(event) => Ok(event),
            Err(_) => Err(self.wedged()),
        }
    }

    /// A follower that took the leader's `Abort` fails naming the leader,
    /// and it can report that before the leader reports the member it
    /// aborted over: the two threads race once the notice is sent. Given
    /// such a relayed failure, waits up to one protocol timeout for a
    /// failure that is not one and returns it, else the relayed one.
    fn root_cause(&self, error: ProtocolError) -> ProtocolError {
        let relayed = |e: &ProtocolError| {
            matches!(
                e,
                ProtocolError::MemberUnresponsive {
                    member,
                    phase: "aborted" | "aborted-by-leader",
                } if *member == self.leader
            )
        };
        if !relayed(&error) {
            return error;
        }
        let deadline = Instant::now() + self.timeout;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            match self.events.recv_timeout(left) {
                Ok(SessionEvent::Failed { error: cause }) if !relayed(&cause) => return cause,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        error
    }

    /// Runs one job to completion and returns what it released.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] for malformed specs (the session
    /// stays usable), or the session's fatal error if a member died — in
    /// which case the handle is poisoned and every later call returns the
    /// same error.
    ///
    /// # Panics
    ///
    /// Panics if honest members disagree on the released set (a protocol
    /// invariant violation, as in the one-shot runtime).
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobOutcome, ProtocolError> {
        self.submit_inner(spec, None)
    }

    /// Runs one job whose phases 1–2 were already computed by shard
    /// lanes (see [`Self::submit_shard`]): the leader asserts the merged
    /// Phase 1 against its own, replays the LD scans from the shards'
    /// moment logs, and runs the global seeded LR search as usual.
    ///
    /// `shards` must be ordered by [`ShardOutput::start`] and cover the
    /// job panel exactly, with one [`ShardScan`] per evaluation subset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::submit`], plus
    /// [`ProtocolError::InvalidConfig`] if the shard outputs do not
    /// reassemble to this session's own Phase 1 — that means a lane ran
    /// over a different study, so the session is torn down rather than
    /// left to certify a merge it cannot trust.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::submit`].
    pub fn submit_sharded(
        &mut self,
        spec: &JobSpec,
        shards: Vec<ShardOutput>,
    ) -> Result<JobOutcome, ProtocolError> {
        self.submit_inner(spec, Some(shards))
    }

    fn submit_inner(
        &mut self,
        spec: &JobSpec,
        shards: Option<Vec<ShardOutput>>,
    ) -> Result<JobOutcome, ProtocolError> {
        self.command(SessionCommand::Run(spec.clone(), shards))?;
        let mut finished = 0usize;
        let mut detail: Option<Box<Assessment>> = None;
        let mut traffic: Vec<LinkUsage> = Vec::new();
        let mut safe_sets: Vec<(usize, Vec<SnpId>)> = Vec::new();
        while finished < self.g {
            match self.recv_event()? {
                SessionEvent::Finished {
                    member,
                    job_id,
                    safe,
                    traffic: links,
                    detail: d,
                } => {
                    if job_id != spec.job_id {
                        continue;
                    }
                    finished += 1;
                    traffic.extend(links);
                    if let Some(d) = d {
                        detail = Some(d);
                    }
                    safe_sets.push((member, safe));
                }
                _ => {
                    let e = ProtocolError::InvalidConfig("unexpected event during job");
                    return Err(self.poison(e));
                }
            }
        }
        let detail = detail.ok_or(ProtocolError::InvalidConfig(
            "job finished without a leader",
        ))?;
        for (member, safe) in &safe_sets {
            assert_eq!(
                *safe, detail.released,
                "member {member} disagrees on the released set"
            );
        }
        traffic.sort_by_key(|l| (l.from, l.to));
        let certificate = detail
            .certificate
            .expect("the attested leader certifies every job");
        Ok(JobOutcome {
            job_id: spec.job_id,
            leader: self.leader,
            l_prime: detail.l_prime,
            l_double_prime: detail.l_double_prime,
            released: detail.released,
            final_power: detail.final_power,
            final_threshold: detail.final_threshold,
            case_freqs: detail.case_freqs,
            ref_freqs: detail.ref_freqs,
            epoch: certificate.epoch,
            roster: certificate.roster.clone(),
            certificate,
            traffic,
        })
    }

    /// Runs phases 1–2 of one shard to completion and returns the lane's
    /// output, in the lane's local SNP ids.
    ///
    /// Unlike [`Self::submit`], an empty panel is legal — a shard whose
    /// range misses the job panel still runs (trivially) so that every
    /// lane of a plan ratchets its channels in lockstep.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] for out-of-range SNP ids (the
    /// session stays usable), or the session's fatal error if a member
    /// died — poisoning the handle like any other job.
    pub fn submit_shard(&mut self, spec: &ShardJobSpec) -> Result<ShardPhases, ProtocolError> {
        self.command(SessionCommand::RunShard(spec.clone()))?;
        loop {
            match self.recv_event()? {
                SessionEvent::ShardFinished {
                    job_id,
                    shard,
                    phases,
                } => {
                    if job_id != spec.job_id || shard != spec.shard {
                        continue;
                    }
                    return Ok(*phases);
                }
                _ => {
                    let e = ProtocolError::InvalidConfig("unexpected event during shard job");
                    return Err(self.poison(e));
                }
            }
        }
    }

    /// Ends the session cleanly: the leader broadcasts `SessionEnd`,
    /// every member tears down its channels, and all threads are joined.
    ///
    /// # Errors
    ///
    /// The session's fatal error, if it died before (or during) shutdown.
    pub fn shutdown(mut self) -> Result<(), ProtocolError> {
        if self.failed.is_none() {
            let _ = self.commands[self.leader].send(SessionCommand::Shutdown);
            let mut closed = 0usize;
            while closed < self.g {
                match self.recv_event() {
                    Ok(SessionEvent::Closed) => closed += 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        for handle in std::mem::take(&mut self.handles) {
            let _ = handle.join();
        }
        match self.failed.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for ServiceFederation {
    fn drop(&mut self) {
        // Best-effort: ask the leader to end the session so member
        // threads do not linger. `shutdown` already drained and joined;
        // here the threads detach.
        let _ = self.commands[self.leader].send(SessionCommand::Shutdown);
    }
}
