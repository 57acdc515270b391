//! The attested assessment engine: the one place under the deployed
//! drivers where Algorithm 1 is written.
//!
//! [`crate::runtime`] (one assessment per deployment) and
//! [`crate::serving`] (a queue of jobs over one attestation) differ in how
//! a federation forms, re-forms and is torn down; what the elected leader
//! *computes* over its attested channels is the same procedure. It lives
//! here once:
//!
//! * [`LeaderSession::collect`] — session scope: receive every member's
//!   `Counts`, evaluate MAF per collusion subset, rank by association;
//! * [`LeaderSession::assess`] — job scope: MAF intersection over the
//!   job's candidates → `Phase1` → LD scan per subset → intersection →
//!   `Phase2` + seeded LR search per subset → intersection → certificate →
//!   `Phase3`. The one-shot runtime is the job "whole panel, nothing
//!   forced, no job context";
//! * [`LeaderSession::maf_step`] / [`LeaderSession::ld_step`] — the two
//!   steps a shard lane runs on their own;
//! * [`follower_serve`] — the member side of one job.
//!
//! Announcing a job, mapping an [`Interrupt`] to a view change or a fatal
//! error, rekeying and traffic accounting stay with the drivers.

use crate::certificate::{AssessmentCertificate, AssessmentFacts, JobContext};
use crate::collusion::{evaluation_subsets_of, intersect_selections};
use crate::config::GwasParams;
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use crate::memo::LrPrefixMemo;
use crate::messages::{
    CountsReport, MomentsReport, MomentsRequest, Phase1Broadcast, Phase2Broadcast, Phase3Broadcast,
    ProtocolMessage,
};
use crate::phases::ld::LdScan;
use crate::phases::lrtest::admission_order;
use crate::phases::maf::{run_maf, MafOutcome};
use crate::protocol::PhaseTimings;
use crate::runtime::{recv_protocol, send_protocol, Interrupt, MemberCtx};
use crate::serving::{ShardOutput, ShardScan};
use gendpr_fednet::transport::Transport;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::{
    select_safe_subset, BitLrMatrix, LrColumns, LrMatrix, LrPrefixSums, LrSelection, LrValues,
};
use gendpr_stats::ranking::SnpRank;
use gendpr_tee::session::SecureChannel;
use std::collections::HashMap;
use std::time::Instant;

/// The leader's attested channels, keyed by peer id.
pub(crate) type Channels = HashMap<usize, SecureChannel>;

/// Sends `msg` to every member of `peers` except this one, in order, as
/// one burst.
pub(crate) fn send_each<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut Channels,
    peers: &[usize],
    msg: &ProtocolMessage,
) -> Result<(), ProtocolError> {
    ctx.burst(|ctx| {
        for &peer in peers {
            if peer != ctx.id {
                let channel = channels.get_mut(&peer).expect("channel established");
                send_protocol(ctx, channel, peer, msg)?;
            }
        }
        Ok(())
    })
}

fn recv_from<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut Channels,
    peer: usize,
    phase: &'static str,
) -> Result<ProtocolMessage, Interrupt> {
    let channel = channels.get_mut(&peer).expect("channel established");
    recv_protocol(ctx, channel, peer, phase)
}

/// Opens a moments round: one `MomentsRequest` for `pairs` to every remote
/// member of `subset`, in subset order.
fn request_moments<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut Channels,
    subset: &[usize],
    pairs: &[(SnpId, SnpId)],
) -> Result<(), ProtocolError> {
    let request = ProtocolMessage::MomentsRequest(
        pairs
            .iter()
            .map(|&(a, b)| MomentsRequest { a: a.0, b: b.0 })
            .collect(),
    );
    send_each(ctx, channels, subset, &request)
}

/// Closes the round [`request_moments`] opened for the same `subset` and
/// `pairs`: the reference moments and the leader's own shard if it is in
/// the subset (computed while the members work), then the replies in
/// subset order. Rounds must be closed in the order they were opened: a
/// member answers its requests in arrival order, so its next reply belongs
/// to the oldest round still open with it.
fn collect_moments<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut Channels,
    node: &GdoNode,
    subset: &[usize],
    pairs: &[(SnpId, SnpId)],
    ref_moments: impl Fn(SnpId, SnpId) -> LdMoments,
    phase: &'static str,
) -> Result<Vec<LdMoments>, Interrupt> {
    let me = ctx.id;
    let mut pooled: Vec<LdMoments> = pairs
        .iter()
        .map(|&(a, b)| {
            let reference = ref_moments(a, b);
            if subset.contains(&me) {
                reference.merge(LdMoments::from(node.ld_moments(a, b)))
            } else {
                reference
            }
        })
        .collect();
    for &peer in subset {
        if peer == me {
            continue;
        }
        match recv_from(ctx, channels, peer, phase)? {
            ProtocolMessage::Moments(ms) if ms.len() == pairs.len() => {
                for (sum, m) in pooled.iter_mut().zip(ms) {
                    *sum = sum.merge(LdMoments::from(m));
                }
            }
            _ => return Err(ProtocolError::MalformedMessage { member: peer }.into()),
        }
    }
    Ok(pooled)
}

/// One live one-pair round per waiting scan, all in flight together: the
/// requests go out in subset order as one burst, then the rounds are
/// closed in the same order. Every `(subset, pair)` of `misses` costs
/// exactly the messages of a round run on its own; the leader waits once
/// for all of them.
fn exchange_misses<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut Channels,
    node: &GdoNode,
    subsets: &[Vec<usize>],
    misses: &[(usize, (SnpId, SnpId))],
    ref_moments: impl Fn(SnpId, SnpId) -> LdMoments,
) -> Result<Vec<LdMoments>, Interrupt> {
    ctx.burst(|ctx| {
        misses
            .iter()
            .try_for_each(|&(c, pair)| request_moments(ctx, channels, &subsets[c], &[pair]))
    })?;
    misses
        .iter()
        .map(|&(c, pair)| {
            let pooled = collect_moments(
                ctx,
                channels,
                node,
                &subsets[c],
                &[pair],
                &ref_moments,
                "ld-moments",
            )?;
            Ok(pooled[0])
        })
        .collect()
}

/// The transport format of the Phase 3 matrices: the paper's dense value
/// matrices, or one indicator bit per cell (`RuntimeOptions::compact_lr`)
/// which the leader holds SNP-major, the layout the search sweeps.
trait LrTransport: LrValues + Sized {
    /// The leader's own rows, from its local shard.
    fn own(node: &GdoNode, columns: &[SnpId], case_freqs: &[f64], ref_freqs: &[f64]) -> Self;
    /// A member's rows from its Phase 3 report; `None` unless the message
    /// is this format's report for combination `combo` and well-formed.
    fn from_message(
        msg: ProtocolMessage,
        combo: u32,
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Option<Self>;
    fn concat_rows(parts: &[Self]) -> Self;
    /// The null model: the reference panel's rows, from whichever layout
    /// of the panel the format is built from.
    fn null(
        reference: &GenotypeMatrix,
        reference_columnar: &ColumnarGenotypes,
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Self;
    fn heap_bytes(&self) -> u64;
}

impl LrTransport for LrMatrix {
    fn own(node: &GdoNode, columns: &[SnpId], case_freqs: &[f64], ref_freqs: &[f64]) -> Self {
        node.lr_report(columns, case_freqs, ref_freqs)
            .into_matrix()
            .expect("well-formed local matrix")
    }
    fn from_message(msg: ProtocolMessage, combo: u32, _: &[f64], _: &[f64]) -> Option<Self> {
        match msg {
            ProtocolMessage::Lr(c, report) if c == combo => report.into_matrix().ok(),
            _ => None,
        }
    }
    fn concat_rows(parts: &[Self]) -> Self {
        LrMatrix::concat_rows(parts)
    }
    fn null(
        reference: &GenotypeMatrix,
        _: &ColumnarGenotypes,
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Self {
        LrMatrix::from_genotypes(reference, columns, case_freqs, ref_freqs)
    }
    fn heap_bytes(&self) -> u64 {
        LrMatrix::heap_bytes(self) as u64
    }
}

impl LrTransport for LrColumns {
    fn own(node: &GdoNode, columns: &[SnpId], case_freqs: &[f64], ref_freqs: &[f64]) -> Self {
        LrColumns::from_columnar(node.columnar(), columns, case_freqs, ref_freqs)
    }
    /// The report's row-major words are checked against its declared
    /// dimensions, then block-transposed once. They are the message's
    /// buffer and gone on return; beside the parts already held they stay
    /// below what the stitch holds a moment later, so the enclave account
    /// meters the transposed part only.
    fn from_message(
        msg: ProtocolMessage,
        combo: u32,
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Option<Self> {
        match msg {
            ProtocolMessage::LrCompact(c, report) if c == combo => BitLrMatrix::from_raw_bits(
                report.individuals as usize,
                report.snps as usize,
                report.bits,
                case_freqs,
                ref_freqs,
            )
            .ok()
            .map(|m| LrColumns::from_bit_matrix(&m)),
            _ => None,
        }
    }
    fn concat_rows(parts: &[Self]) -> Self {
        LrColumns::concat_rows(parts)
    }
    fn null(
        _: &GenotypeMatrix,
        reference_columnar: &ColumnarGenotypes,
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Self {
        LrColumns::from_columnar(reference_columnar, columns, case_freqs, ref_freqs)
    }
    fn heap_bytes(&self) -> u64 {
        LrColumns::heap_bytes(self) as u64
    }
}

/// What one assessment decided.
pub(crate) struct Assessment {
    /// MAF survivors of the job's candidates.
    pub(crate) l_prime: Vec<SnpId>,
    /// LD survivors.
    pub(crate) l_double_prime: Vec<SnpId>,
    /// Newly released SNPs (never includes the forced prefix).
    pub(crate) released: Vec<SnpId>,
    /// Adversary power over forced ∪ released (subset 0).
    pub(crate) final_power: f64,
    /// Detection threshold over the cumulative release (subset 0).
    pub(crate) final_threshold: f64,
    /// Pooled case minor-allele frequencies of the released SNPs — the
    /// statistics the study may now publish.
    pub(crate) case_freqs: Vec<f64>,
    /// Reference frequencies of the released SNPs.
    pub(crate) ref_freqs: Vec<f64>,
    pub(crate) certificate: AssessmentCertificate,
    /// Leader wall time per task, the session's one-off `collect` share
    /// included: `aggregation` is the wait for the members' counts,
    /// `indexing` everything else up to the `Phase1` broadcast.
    pub(crate) timings: PhaseTimings,
}

/// The leader's state for one attested session: its channels plus
/// everything computed once from the members' counts. Shards do not change
/// while a session lives, so neither do the MAF outcomes or the χ²
/// rankings; every job restricts them to its own panel.
pub(crate) struct LeaderSession<'a> {
    node: &'a GdoNode,
    // Row-major, as the drivers hold it: read only by the dense
    // transport's null matrix.
    reference: &'a GenotypeMatrix,
    // SNP-major view of the reference, built once per session: reference
    // LD moments are popcount(AND) over two of its columns, the compact
    // null matrix a word-for-word copy of them.
    reference_columnar: ColumnarGenotypes,
    params: &'a GwasParams,
    pub(crate) channels: Channels,
    subsets: Vec<Vec<usize>>,
    maf_outcomes: Vec<MafOutcome>,
    rankings: Vec<Vec<SnpRank>>,
    ref_counts: Vec<u64>,
    // Forced-prefix sums per (combination, forced sequence): the inputs
    // behind them (shards, frequencies, reference) are fixed for the
    // lifetime of this state, so later jobs against the same ledger prefix
    // skip the re-accumulation entirely.
    lr_memo: LrPrefixMemo,
    collect_timings: PhaseTimings,
    aborted: bool,
}

impl<'a> LeaderSession<'a> {
    /// Receives every roster member's `Counts` over `channels` and runs
    /// the per-subset MAF evaluation and association ranking.
    pub(crate) fn collect<T: Transport>(
        ctx: &mut MemberCtx<T>,
        mut channels: Channels,
        node: &'a GdoNode,
        reference: &'a GenotypeMatrix,
        params: &'a GwasParams,
        own_counts: &CountsReport,
    ) -> Result<Self, Interrupt> {
        let me = ctx.id;
        let roster = ctx.roster.clone();

        let t = Instant::now();
        let panel_len = own_counts.counts.len();
        let mut reports: Vec<Option<CountsReport>> = vec![None; ctx.g];
        reports[me] = Some(own_counts.clone());
        for &peer in &roster {
            if peer == me {
                continue;
            }
            match recv_from(ctx, &mut channels, peer, "counts")? {
                ProtocolMessage::Counts(c) if c.counts.len() == panel_len => {
                    reports[peer] = Some(c);
                }
                _ => return Err(ProtocolError::MalformedMessage { member: peer }.into()),
            }
        }
        let aggregation = t.elapsed();
        crate::telemetry::phase_seconds("aggregation").observe_duration(aggregation);

        let t = Instant::now();
        let (reference_columnar, ref_counts) = ctx.enclave.enter(|(), epc| {
            let columnar = ColumnarGenotypes::from_matrix(reference);
            epc.alloc(columnar.heap_bytes() as u64 + 8 * reference.snps() as u64);
            let counts = columnar.column_counts();
            (columnar, counts)
        });
        let n_ref = reference.individuals() as u64;
        let subsets = evaluation_subsets_of(&roster, ctx.collusion);
        let maf_outcomes: Vec<MafOutcome> = subsets
            .iter()
            .map(|subset| {
                let subset_reports: Vec<CountsReport> = subset
                    .iter()
                    .map(|&i| reports[i].clone().expect("subset member reported"))
                    .collect();
                run_maf(
                    &subset_reports,
                    ref_counts.clone(),
                    n_ref,
                    params.maf_cutoff,
                )
            })
            .collect();
        let rankings: Vec<Vec<SnpRank>> = maf_outcomes.iter().map(MafOutcome::ranks).collect();
        let indexing = t.elapsed();
        crate::telemetry::phase_seconds("maf").observe_duration(indexing);

        Ok(Self {
            node,
            reference,
            reference_columnar,
            params,
            channels,
            subsets,
            maf_outcomes,
            rankings,
            ref_counts,
            lr_memo: LrPrefixMemo::new(),
            collect_timings: PhaseTimings {
                aggregation,
                indexing,
                ..PhaseTimings::default()
            },
            aborted: false,
        })
    }

    /// Width of the study panel the members reported counts over.
    pub(crate) fn panel_len(&self) -> usize {
        self.ref_counts.len()
    }

    /// How many collusion subsets every job evaluates.
    pub(crate) fn evaluations(&self) -> usize {
        self.subsets.len()
    }

    /// Tells every peer the run is over (at most once per session): a
    /// precise `QuorumLost` where that is the cause, an `Abort` otherwise.
    pub(crate) fn abort<T: Transport>(&mut self, ctx: &mut MemberCtx<T>, err: &ProtocolError) {
        if std::mem::replace(&mut self.aborted, true) {
            return;
        }
        let msg = match err {
            ProtocolError::QuorumLost {
                epoch,
                survivors,
                required,
            } => ProtocolMessage::QuorumLost {
                epoch: *epoch,
                survivors: *survivors as u32,
                required: *required as u32,
            },
            _ => ProtocolMessage::Abort(err.to_string()),
        };
        for (&peer, channel) in &mut self.channels {
            let _ = send_protocol(ctx, channel, peer, &msg);
        }
    }

    /// Phase 1 of one job: the session's per-subset MAF survivors among
    /// the job's *new* candidates (forced SNPs are already public and skip
    /// the funnel), intersected. `panel` and `forced` are sorted.
    pub(crate) fn maf_step(&self, panel: &[SnpId], forced: &[SnpId]) -> Vec<SnpId> {
        let per_subset: Vec<Vec<SnpId>> = self
            .maf_outcomes
            .iter()
            .map(|o| {
                o.retained
                    .iter()
                    .copied()
                    .filter(|s| panel.binary_search(s).is_ok() && forced.binary_search(s).is_err())
                    .collect()
            })
            .collect();
        intersect_selections(&per_subset)
    }

    /// Phase 2 of one job: one LD scan over `l_prime` per collusion
    /// subset. Each pair's pooled moments come from the first of
    ///
    /// 1. the subset's table, filled before any scan starts: from the shard
    ///    lanes' moment logs when the job is a merge (`shards`) — pooled
    ///    moments are integer sums over the same genotype bits, so a hit is
    ///    exactly what a live exchange would pool; misses are shard-boundary
    ///    pairs and replay divergence after one — or else, iff
    ///    `prefetch_ld` is on, with every adjacent pair of `l_prime`,
    ///    fetched in one batched round per subset (the scan compares
    ///    (survivor, next) and the survivor is usually `next − 1`, so most
    ///    lookups hit it; a merge never re-fetches what its shard lanes
    ///    already pooled);
    /// 2. a live one-pair round.
    ///
    /// The scans are independent, so their live rounds share the leader's
    /// wait: every scan runs through its table up to its next miss, the
    /// misses go out together ([`exchange_misses`]), every scan is fed, and
    /// so on until no scan is waiting. Each subset sends exactly the
    /// requests a scan run on its own would send, in the same order.
    ///
    /// With `log_moments` every scan also returns the `(a, b, pooled)` it
    /// evaluated, in its own order — what a shard lane hands to the merging
    /// leader.
    pub(crate) fn ld_step<T: Transport>(
        &mut self,
        ctx: &mut MemberCtx<T>,
        l_prime: &[SnpId],
        shards: Option<&[ShardOutput]>,
        log_moments: bool,
    ) -> Result<Vec<ShardScan>, Interrupt> {
        let prefetch = ctx.prefetch_ld && shards.is_none() && l_prime.len() >= 2;
        let adjacent: Vec<(SnpId, SnpId)> = if prefetch {
            l_prime.windows(2).map(|w| (w[0], w[1])).collect()
        } else {
            Vec::new()
        };
        let (reference, ref_counts) = (&self.reference_columnar, &self.ref_counts);
        let n_ref = reference.individuals() as u64;
        let ref_moments = |a: SnpId, b: SnpId| {
            LdMoments::from_counts(
                ref_counts[a.index()],
                ref_counts[b.index()],
                reference.pair_count(a, b),
                n_ref,
            )
        };

        let mut tables: Vec<HashMap<(u32, u32), LdMoments>> =
            Vec::with_capacity(self.subsets.len());
        for (c, subset) in self.subsets.iter().enumerate() {
            tables.push(if let Some(shards) = shards {
                shards
                    .iter()
                    .flat_map(|s| {
                        let moments = &s.phases.scans[c].moments;
                        moments
                            .iter()
                            .map(|&(a, b, m)| ((a + s.start, b + s.start), m))
                    })
                    .collect()
            } else if prefetch {
                request_moments(ctx, &mut self.channels, subset, &adjacent)?;
                let pooled = collect_moments(
                    ctx,
                    &mut self.channels,
                    self.node,
                    subset,
                    &adjacent,
                    ref_moments,
                    "ld-prefetch",
                )?;
                adjacent
                    .iter()
                    .zip(pooled)
                    .map(|(&(a, b), m)| ((a.0, b.0), m))
                    .collect()
            } else {
                HashMap::new()
            });
        }

        let mut scans = vec![LdScan::new(l_prime); self.subsets.len()];
        let mut logs = vec![Vec::new(); self.subsets.len()];
        let (rankings, ld_cutoff) = (&self.rankings, self.params.ld_cutoff);
        let mut feed = |c: usize, scan: &mut LdScan, (a, b): (SnpId, SnpId), pooled| {
            if log_moments {
                logs[c].push((a.0, b.0, pooled));
            }
            scan.feed(pooled, |s| rankings[c][s.index()].p_value, ld_cutoff);
        };
        loop {
            let mut misses: Vec<(usize, (SnpId, SnpId))> = Vec::new();
            for (c, scan) in scans.iter_mut().enumerate() {
                while let Some((a, b)) = scan.pending() {
                    let Some(&hit) = tables[c].get(&(a.0, b.0)) else {
                        if shards.is_some() {
                            crate::telemetry::shard_oracle_pairs().add(1);
                        }
                        misses.push((c, (a, b)));
                        break;
                    };
                    if shards.is_some() {
                        crate::telemetry::shard_cache_pairs().add(1);
                    }
                    feed(c, scan, (a, b), hit);
                }
            }
            if misses.is_empty() {
                break;
            }
            let pooled = match exchange_misses(
                ctx,
                &mut self.channels,
                self.node,
                &self.subsets,
                &misses,
                ref_moments,
            ) {
                Ok(pooled) => pooled,
                Err(intr) => {
                    if let Interrupt::Fatal(e) = &intr {
                        self.abort(ctx, e);
                    }
                    return Err(intr);
                }
            };
            for (&(c, pair), pooled) in misses.iter().zip(pooled) {
                feed(c, &mut scans[c], pair, pooled);
            }
        }
        Ok(scans
            .into_iter()
            .zip(logs)
            .map(|(scan, moments)| ShardScan {
                retained: scan.into_retained(),
                moments,
            })
            .collect())
    }

    /// Phase 3 for one subset: broadcasts the subset's frequency vectors
    /// over `columns` (`Phase2`), collects the subset's LR matrices in
    /// format `M` and runs the seeded search. `columns` are forced ∪
    /// candidates; the first `forced_len` seed the cumulative sums and are
    /// never up for admission.
    fn lr_step<M: LrTransport, T: Transport>(
        &mut self,
        ctx: &mut MemberCtx<T>,
        combo: usize,
        columns: &[SnpId],
        forced_len: usize,
    ) -> Result<LrSelection, Interrupt> {
        let outcome = &self.maf_outcomes[combo];
        let case_freqs: Vec<f64> = columns.iter().map(|&s| outcome.case_frequency(s)).collect();
        let ref_freqs: Vec<f64> = columns.iter().map(|&s| outcome.ref_frequency(s)).collect();
        let broadcast = ProtocolMessage::Phase2(
            combo as u32,
            Phase2Broadcast {
                retained: columns.iter().map(|s| s.0).collect(),
                case_freqs: case_freqs.clone(),
                ref_freqs: ref_freqs.clone(),
            },
        );
        send_each(ctx, &mut self.channels, &self.subsets[combo], &broadcast)?;
        let candidates = &columns[forced_len..];
        let ranks: Vec<SnpRank> = candidates
            .iter()
            .map(|&s| self.rankings[combo][s.index()])
            .collect();
        let order = admission_order(candidates, ranks, forced_len);
        let forced_cols: Vec<usize> = (0..forced_len).collect();

        let me = ctx.id;
        let subset = &self.subsets[combo];
        let mut parts: Vec<M> = Vec::with_capacity(subset.len());
        if subset.contains(&me) {
            parts.push(ctx.enclave.enter(|(), epc| {
                let m = M::own(self.node, columns, &case_freqs, &ref_freqs);
                epc.alloc(m.heap_bytes());
                m
            }));
        }
        for &peer in subset {
            if peer == me {
                continue;
            }
            let report = recv_from(ctx, &mut self.channels, peer, "lr-matrices")?;
            let m = M::from_message(report, combo as u32, &case_freqs, &ref_freqs)
                .filter(|m| m.snps() == columns.len())
                .ok_or(ProtocolError::MalformedMessage { member: peer })?;
            ctx.enclave.enter(|(), epc| epc.alloc(m.heap_bytes()));
            parts.push(m);
        }
        Ok(ctx.enclave.enter(|(), epc| {
            // The parts are only needed until they are stitched.
            let case_matrix = M::concat_rows(&parts);
            epc.alloc(case_matrix.heap_bytes());
            epc.free(parts.iter().map(LrTransport::heap_bytes).sum());
            drop(parts);
            let null_matrix = M::null(
                self.reference,
                &self.reference_columnar,
                columns,
                &case_freqs,
                &ref_freqs,
            );
            epc.alloc(null_matrix.heap_bytes());
            // When both matrices expose a two-valued column view, the
            // forced columns' cumulative sums come from the memo —
            // accumulated once per (combination, forced sequence). Either
            // matrix declining the view (a third value per column, e.g.
            // from a degenerate frequency pair) leaves the search to its
            // scalar fallback; both routes select byte-identically.
            let lr = &self.params.lr;
            let selection = match (case_matrix.to_columns(), null_matrix.to_columns()) {
                (Some(case_cols), Some(null_cols)) => {
                    let forced = &columns[..forced_len];
                    let prefix = self.lr_memo.get_or_compute(combo as u32, forced, || {
                        LrPrefixSums::accumulate(&case_cols, &null_cols, &forced_cols, lr)
                    });
                    select_safe_subset(
                        &case_cols,
                        &null_cols,
                        &forced_cols,
                        &order,
                        lr,
                        Some(&prefix),
                    )
                }
                _ => select_safe_subset(&case_matrix, &null_matrix, &forced_cols, &order, lr, None),
            };
            epc.free(case_matrix.heap_bytes() + null_matrix.heap_bytes());
            selection
        }))
    }

    /// Runs Algorithm 1 for one job over `panel` (sorted, in range) with
    /// the `forced` SNPs (sorted) — earlier releases — charged against the
    /// LR power budget before any new candidate is admitted. A `job_id`
    /// binds the certificate to the job context; `shards` makes the job a
    /// *merge* of phases 1–2 already run by shard lanes over column slices
    /// of the same cohort.
    pub(crate) fn assess<T: Transport>(
        &mut self,
        ctx: &mut MemberCtx<T>,
        panel: &[SnpId],
        forced: &[SnpId],
        job_id: Option<u64>,
        shards: Option<&[ShardOutput]>,
    ) -> Result<Assessment, Interrupt> {
        let roster = ctx.roster.clone();
        let mut timings = self.collect_timings;
        crate::telemetry::subsets_evaluated().add(self.subsets.len() as u64);

        // ---- Phase 1 ----
        let t = Instant::now();
        let l_prime = self.maf_step(panel, forced);
        // Shard ranges partition the panel in order, and MAF is per-SNP
        // over counts that are bit-identical between a column slice and
        // the full cohort, so the concatenated shard survivors must equal
        // this session's own Phase 1. Anything else means a lane ran over
        // a different study and the merge would certify garbage.
        if let Some(shards) = shards {
            let merged = shards
                .iter()
                .flat_map(|s| s.phases.l_prime.iter().map(|l| SnpId(l.0 + s.start)));
            if shards
                .iter()
                .any(|s| s.phases.scans.len() != self.subsets.len())
                || !merged.eq(l_prime.iter().copied())
            {
                return Err(ProtocolError::InvalidConfig(
                    "shard merge diverged from the primary lane's MAF phase",
                )
                .into());
            }
        }
        let phase1 = ProtocolMessage::Phase1(Phase1Broadcast {
            retained: l_prime.iter().map(|s| s.0).collect(),
        });
        send_each(ctx, &mut self.channels, &roster, &phase1)?;
        timings.indexing += t.elapsed();
        crate::telemetry::phase_seconds("maf").observe_duration(t.elapsed());

        // ---- Phase 2 ----
        let t = Instant::now();
        let scans = self.ld_step(ctx, &l_prime, shards, false)?;
        let ld_selections: Vec<Vec<SnpId>> = scans.into_iter().map(|s| s.retained).collect();
        let l_double_prime = intersect_selections(&ld_selections);
        timings.ld += t.elapsed();
        crate::telemetry::phase_seconds("ld").observe_duration(t.elapsed());

        // ---- Phase 3 ----
        let t = Instant::now();
        let columns: Vec<SnpId> = forced
            .iter()
            .chain(l_double_prime.iter())
            .copied()
            .collect();
        let mut lr_selections = Vec::with_capacity(self.subsets.len());
        let mut final_power = 0.0f64;
        let mut final_threshold = f64::INFINITY;
        for c in 0..self.subsets.len() {
            let selection = if ctx.compact_lr {
                self.lr_step::<LrColumns, T>(ctx, c, &columns, forced.len())?
            } else {
                self.lr_step::<LrMatrix, T>(ctx, c, &columns, forced.len())?
            };
            let mut safe: Vec<SnpId> = selection.kept_columns.iter().map(|&j| columns[j]).collect();
            safe.sort_unstable();
            if c == 0 {
                final_power = selection.final_power;
                final_threshold = selection.final_threshold;
            }
            lr_selections.push(safe);
        }
        let released = intersect_selections(&lr_selections);
        timings.lr += t.elapsed();
        crate::telemetry::phase_seconds("lr").observe_duration(t.elapsed());

        // ---- Audit certificate (issued inside the leader enclave) ----
        let full = &self.maf_outcomes[0];
        let roster_u32: Vec<u32> = roster.iter().map(|&m| m as u32).collect();
        let certificate = AssessmentCertificate::issue(
            &ctx.enclave,
            &AssessmentFacts {
                params: self.params,
                gdo_count: ctx.g,
                panel_len: self.panel_len(),
                case_counts: &full.case_counts,
                n_case: full.n_case,
                ref_counts: &full.ref_counts,
                n_ref: full.n_ref,
                safe: &released,
                evaluations: self.subsets.len() as u64,
                epoch: ctx.epoch,
                roster: &roster_u32,
                context: job_id.map(|job_id| JobContext {
                    job_id,
                    panel,
                    forced,
                }),
            },
        );

        // ---- Final broadcast ----
        let phase3 = ProtocolMessage::Phase3(Phase3Broadcast {
            safe: released.iter().map(|s| s.0).collect(),
        });
        send_each(ctx, &mut self.channels, &roster, &phase3)?;

        Ok(Assessment {
            case_freqs: released.iter().map(|&s| full.case_frequency(s)).collect(),
            ref_freqs: released.iter().map(|&s| full.ref_frequency(s)).collect(),
            l_prime,
            l_double_prime,
            released,
            final_power,
            final_threshold,
            certificate,
            timings,
        })
    }
}

/// Which broadcast closes the job a follower is serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Terminator {
    /// A full assessment: ends with the safe set.
    Phase3,
    /// Phases 1–2 of one shard: the follower only serves the moments
    /// oracle (the LR search runs once, globally, on the merged state).
    ShardDone,
}

/// Serves one job as a follower: answers the leader's moments queries and
/// (in a full assessment) LR-matrix requests over the attested channel
/// until the terminator arrives, and returns the safe set it carried
/// (empty for a shard job). One-shot runs and service jobs share it, so a
/// service job follows byte-for-byte the message schedule of a standalone
/// run.
///
/// Each wake answers every request already queued from the leader (see
/// [`MemberCtx::ready`]) in one burst, closed before the next blocking
/// receive: the replies, their order and their bytes are those of
/// answering one request at a time, at one hand-off per wake.
pub(crate) fn follower_serve<T: Transport>(
    ctx: &mut MemberCtx<T>,
    node: &GdoNode,
    channel: &mut SecureChannel,
    leader: usize,
    terminator: Terminator,
) -> Result<Vec<SnpId>, Interrupt> {
    let phase = match terminator {
        Terminator::Phase3 => "awaiting-leader",
        Terminator::ShardDone => "shard-serve",
    };
    loop {
        let first = recv_protocol(ctx, channel, leader, phase)?;
        let done = ctx.burst(|ctx| -> Result<_, Interrupt> {
            let mut msg = first;
            loop {
                if let Some(safe) = answer(ctx, node, channel, leader, terminator, msg)? {
                    return Ok(Some(safe));
                }
                if !ctx.ready(leader)? {
                    return Ok(None);
                }
                msg = recv_protocol(ctx, channel, leader, phase)?;
            }
        })?;
        if let Some(safe) = done {
            return Ok(safe);
        }
    }
}

/// Answers one message of the job [`follower_serve`] is serving; the safe
/// set once the terminator arrives.
fn answer<T: Transport>(
    ctx: &mut MemberCtx<T>,
    node: &GdoNode,
    channel: &mut SecureChannel,
    leader: usize,
    terminator: Terminator,
    msg: ProtocolMessage,
) -> Result<Option<Vec<SnpId>>, Interrupt> {
    let full = terminator == Terminator::Phase3;
    // Ids and vector lengths are the leader's input: a wrong one is a
    // malformed message, not an index past this member's panel.
    let past_panel = |id: u32| id as usize >= node.columnar().snps();
    let malformed = || Interrupt::from(ProtocolError::MalformedMessage { member: leader });
    match msg {
        ProtocolMessage::Phase1(_) if full => {
            // Informational: L' arrives before the moments queries.
        }
        ProtocolMessage::MomentsRequest(pairs) => {
            if pairs.iter().any(|p| past_panel(p.a) || past_panel(p.b)) {
                return Err(malformed());
            }
            let reports: Vec<MomentsReport> = pairs
                .iter()
                .map(|p| node.ld_moments(SnpId(p.a), SnpId(p.b)))
                .collect();
            send_protocol(ctx, channel, leader, &ProtocolMessage::Moments(reports))?;
        }
        ProtocolMessage::Phase2(combo, broadcast) if full => {
            let n = broadcast.retained.len();
            let one_freq_each = broadcast.case_freqs.len() == n && broadcast.ref_freqs.len() == n;
            if !one_freq_each || broadcast.retained.iter().any(|&s| past_panel(s)) {
                return Err(malformed());
            }
            let snps: Vec<SnpId> = broadcast.retained.iter().map(|&s| SnpId(s)).collect();
            let compact = ctx.compact_lr;
            let (report, bytes) = ctx.enclave.enter(|(), epc| {
                let (report, cells) = if compact {
                    let r = node.lr_report_compact(&snps);
                    let cells = r.bits.len();
                    (ProtocolMessage::LrCompact(combo, r), cells)
                } else {
                    let r = node.lr_report(&snps, &broadcast.case_freqs, &broadcast.ref_freqs);
                    let cells = r.values.len();
                    (ProtocolMessage::Lr(combo, r), cells)
                };
                let bytes = 8 * cells as u64;
                epc.alloc(bytes);
                (report, bytes)
            });
            send_protocol(ctx, channel, leader, &report)?;
            ctx.enclave.enter(|(), epc| epc.free(bytes));
        }
        ProtocolMessage::Phase3(broadcast) if full => {
            return Ok(Some(broadcast.safe.into_iter().map(SnpId).collect()));
        }
        ProtocolMessage::ShardDone if !full => return Ok(Some(Vec::new())),
        msg => return Err(unexpected_from_leader(leader, &msg).into()),
    }
    Ok(None)
}

/// The error a follower reports for a message that is not part of what it
/// is serving: the leader's own `QuorumLost` / `Abort` notice, or a
/// malformed exchange.
pub(crate) fn unexpected_from_leader(leader: usize, msg: &ProtocolMessage) -> ProtocolError {
    match msg {
        ProtocolMessage::QuorumLost {
            epoch,
            survivors,
            required,
        } => ProtocolError::QuorumLost {
            epoch: *epoch,
            survivors: *survivors as usize,
            required: *required as usize,
        },
        ProtocolMessage::Abort(reason) => ProtocolError::MemberUnresponsive {
            member: leader,
            phase: if reason.is_empty() {
                "aborted"
            } else {
                "aborted-by-leader"
            },
        },
        _ => ProtocolError::MalformedMessage { member: leader },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FederationConfig;
    use crate::runtime::{build_member, establish_channel, RuntimeOptions};
    use gendpr_fednet::transport::{Network, PeerId};

    /// Member 1 of 2 serves a job over an 8-SNP shard while a hand-rolled
    /// leader sends `msgs`; returns how the follower's loop ended.
    fn follower_after(msgs: &[ProtocolMessage], compact_lr: bool) -> Result<Vec<SnpId>, Interrupt> {
        let config = FederationConfig::new(2);
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions {
            compact_lr,
            ..RuntimeOptions::default()
        };
        let network = Network::new();
        let shard = || GenotypeMatrix::zeroed(5, 8);
        let (mut leader, ..) = build_member(
            network.register(PeerId(0)),
            0,
            &config,
            &params,
            options,
            shard(),
        )
        .unwrap();
        let endpoint = network.register(PeerId(1));
        let follower = std::thread::spawn(move || {
            let (mut ctx, node, _) = build_member(endpoint, 1, &config, &params, options, shard())?;
            let mut channel = establish_channel(&mut ctx, 0)?;
            follower_serve(&mut ctx, &node, &mut channel, 0, Terminator::Phase3)
        });
        let mut channel = establish_channel(&mut leader, 1).unwrap();
        for msg in msgs {
            send_protocol(&mut leader, &mut channel, 1, msg).unwrap();
        }
        follower.join().expect("the follower must not panic")
    }

    #[test]
    fn requests_queued_while_a_follower_slept_cost_one_wake_to_answer() {
        // The leader queues k moments requests before member 1 starts
        // serving; its k replies must reach the leader in order as one
        // burst, however the threads are scheduled.
        let config = FederationConfig::new(2);
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions::default();
        let network = Network::new();
        let shard = || GenotypeMatrix::zeroed(5, 8);
        let (mut leader, ..) = build_member(
            network.register(PeerId(0)),
            0,
            &config,
            &params,
            options,
            shard(),
        )
        .unwrap();
        let endpoint = network.register(PeerId(1));
        let (go, gate) = std::sync::mpsc::channel::<()>();
        let follower = std::thread::spawn(move || {
            let (mut ctx, node, _) = build_member(endpoint, 1, &config, &params, options, shard())?;
            let mut channel = establish_channel(&mut ctx, 0)?;
            gate.recv().expect("the leader queues its requests first");
            follower_serve(&mut ctx, &node, &mut channel, 0, Terminator::Phase3)
        });
        let mut channel = establish_channel(&mut leader, 1).unwrap();
        let k = 5u32;
        for a in 0..k {
            let request = ProtocolMessage::MomentsRequest(vec![MomentsRequest { a, b: a + 1 }]);
            send_protocol(&mut leader, &mut channel, 1, &request).unwrap();
        }
        let before = network.wakes();
        go.send(()).unwrap();
        for a in 0..k {
            match recv_protocol(&mut leader, &mut channel, 1, "test") {
                Ok(ProtocolMessage::Moments(ms)) if ms.len() == 1 => {}
                other => panic!("reply {a}: {other:?}"),
            }
        }
        assert_eq!(network.wakes() - before, 1, "{k} replies, one wake");
        let phase3 = ProtocolMessage::Phase3(Phase3Broadcast { safe: vec![3] });
        send_protocol(&mut leader, &mut channel, 1, &phase3).unwrap();
        assert_eq!(follower.join().unwrap().unwrap(), vec![SnpId(3)]);
    }

    #[test]
    fn a_follower_rejects_leader_ids_past_its_panel() {
        let pair = |a, b| ProtocolMessage::MomentsRequest(vec![MomentsRequest { a, b }]);
        let phase2 = |retained: Vec<u32>, freqs| {
            let (case_freqs, ref_freqs) = (vec![0.3; freqs], vec![0.2; freqs]);
            ProtocolMessage::Phase2(
                0,
                Phase2Broadcast {
                    retained,
                    case_freqs,
                    ref_freqs,
                },
            )
        };
        // The harness is live: in-range ids are served to the end.
        let phase3 = ProtocolMessage::Phase3(Phase3Broadcast { safe: vec![7] });
        for compact in [false, true] {
            let good = [pair(0, 7), phase2(vec![0, 7], 2), phase3.clone()];
            assert_eq!(follower_after(&good, compact).unwrap(), vec![SnpId(7)]);
        }
        let bad = [
            (pair(8, 0), false),
            (pair(0, 108), false),
            (phase2(vec![1, 8], 2), false),
            (phase2(vec![1, 8], 2), true),
            (phase2(vec![1, 2], 1), false),
        ];
        for (msg, compact) in bad {
            match follower_after(std::slice::from_ref(&msg), compact) {
                Err(Interrupt::Fatal(ProtocolError::MalformedMessage { member: 0 })) => {}
                other => panic!("{msg:?} (compact {compact}): {other:?}"),
            }
        }
    }
}
