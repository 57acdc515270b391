//! The leader core: the one place Algorithm 1 is written, for every
//! driver.
//!
//! [`LeaderCore`] is the leader's procedure: [`LeaderCore::collect`] takes
//! the members' counts once and runs MAF and the χ² ranking per collusion
//! subset; [`LeaderCore::assess`] runs one job — MAF over its candidates,
//! an LD scan and a seeded LR search per subset, intersected after every
//! phase, earlier releases (`forced`) charged first. Its steps stand alone
//! for shard lanes and the naïve baseline.
//!
//! The drivers differ only in where a subset's member aggregates come
//! from: the counts, the pooled LD moments of a batch of rounds, the LR
//! case rows. That is the [`Source`] seam — the core emits requests, a
//! source answers them:
//!
//! * the **remote** source asks the members over the leader's attested
//!   channels and meters the leader enclave; [`LeaderSession`] (the core
//!   plus the `Phase1`–`Phase3` broadcasts, the abort notice and the
//!   certificate) serves [`crate::runtime`] and [`crate::serving`];
//! * the **local** source ([`Local`]) answers at once from in-process
//!   [`GdoNode`]s: [`crate::protocol::Federation`] (the evaluation
//!   subsets), the naïve baseline (all members for L′, each alone for LD
//!   and LR) and [`crate::dynamic`] (one member with the cumulative cases,
//!   earlier releases forced).
//!
//! [`follower_serve`] is the member side of an attested job. Announcing a
//! job, rekeying and traffic accounting stay with the drivers.

use crate::certificate::{AssessmentCertificate, AssessmentFacts, JobContext};
use crate::collusion::{evaluation_subsets, intersect_selections};
use crate::config::GwasParams;
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use crate::messages::{
    CountsReport, MomentsReport, MomentsRequest, Phase1Broadcast, Phase2Broadcast, Phase3Broadcast,
    ProtocolMessage,
};
use crate::phases::ld::LdScan;
use crate::phases::lrtest::admission_order;
use crate::phases::maf::{run_maf, MafOutcome};
use crate::protocol::PhaseTimings;
use crate::runtime::{recv_protocol, send_protocol, MemberCtx};
use crate::serving::{ShardOutput, ShardScan};
use gendpr_fednet::transport::Transport;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::{select_safe_subset, LrColumns, LrMatrix, LrSelection, LrValues};
use gendpr_stats::ranking::SnpRank;
use gendpr_tee::memory::EpcAccount;
use std::collections::HashMap;
use std::time::Instant;

/// Sends `msg` to every member of `peers` except this one, in order, as
/// one burst.
pub(crate) fn send_each<T: Transport>(
    ctx: &mut MemberCtx<T>,
    peers: impl IntoIterator<Item = usize>,
    msg: &ProtocolMessage,
) {
    ctx.burst(|ctx| {
        for peer in peers {
            if peer != ctx.id {
                send_protocol(ctx, peer, msg);
            }
        }
    });
}

/// Opens a moments round: one `MomentsRequest` for `pairs` to every remote
/// member of `subset`, in subset order.
fn request_moments<T: Transport>(
    ctx: &mut MemberCtx<T>,
    subset: &[usize],
    pairs: &[(SnpId, SnpId)],
) {
    let request = ProtocolMessage::MomentsRequest(
        pairs
            .iter()
            .map(|&(a, b)| MomentsRequest { a: a.0, b: b.0 })
            .collect(),
    );
    send_each(ctx, subset.iter().copied(), &request);
}

/// Closes the round [`request_moments`] opened for the same `subset` and
/// `pairs`: the reference moments and the leader's own shard if it is in
/// the subset (computed while the members work), then the replies in
/// subset order. Rounds must be closed in the order they were opened: a
/// member answers its requests in arrival order, so its next reply belongs
/// to the oldest round still open with it.
fn collect_moments<T: Transport>(
    ctx: &mut MemberCtx<T>,
    node: &GdoNode,
    subset: &[usize],
    pairs: &[(SnpId, SnpId)],
    ref_moments: impl Fn(SnpId, SnpId) -> LdMoments,
    phase: &'static str,
) -> Result<Vec<LdMoments>, ProtocolError> {
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
        match recv_protocol(ctx, peer, phase)? {
            ProtocolMessage::Moments(ms) if ms.len() == pairs.len() => {
                for (sum, m) in pooled.iter_mut().zip(ms) {
                    *sum = sum.merge(LdMoments::from(m));
                }
            }
            _ => return Err(ProtocolError::MalformedMessage { member: peer }),
        }
    }
    Ok(pooled)
}

/// One moments round: a subset and the pairs pooled over it.
pub(crate) type Round<'r> = (&'r [usize], &'r [(SnpId, SnpId)]);

/// Where the leader core's member aggregates come from. The provided
/// methods are a source's without peers, an enclave or transport options.
pub(crate) trait Source {
    /// Every member's counts report, by member id.
    fn counts(&mut self) -> Result<Vec<Option<CountsReport>>, ProtocolError>;
    /// Every round's pooled moments, each pair's from `reference`'s up;
    /// the rounds are opened together and closed in order. `phase` names
    /// the wait in a timeout.
    fn moments(
        &mut self,
        rounds: &[Round<'_>],
        reference: impl Fn(SnpId, SnpId) -> LdMoments,
        phase: &'static str,
    ) -> Result<Vec<Vec<LdMoments>>, ProtocolError>;
    /// Runs `search` in the leader enclave on combination `combo`'s case
    /// rows over `columns`, gathered in format `M`.
    fn lr_search<M: LrTransport>(
        &mut self,
        combo: usize,
        subset: &[usize],
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
        search: impl FnOnce(&mut EpcAccount, M) -> LrSelection,
    ) -> Result<LrSelection, ProtocolError>;
    /// Runs `body` inside the leader enclave, against its EPC meter.
    fn enter<R>(&mut self, body: impl FnOnce(&mut EpcAccount) -> R) -> R {
        body(&mut EpcAccount::default())
    }
    /// Tells every member a job's L′.
    fn announce_l_prime(&mut self, _: &[SnpId]) {}
    /// Tells every peer the run is over.
    fn abort(&mut self, _: &ProtocolError) {}
    /// Whether LD rounds prefetch every adjacent pair of L′ — not where
    /// nothing waits on a round.
    fn prefetch_ld(&self) -> bool {
        false
    }
    /// Whether LR case rows come as [`LrColumns`], not [`LrMatrix`].
    fn compact_lr(&self) -> bool {
        true
    }
}

/// The format of the Phase 3 matrices: the paper's dense value matrices,
/// or one indicator bit per cell (`RuntimeOptions::compact_lr`) which the
/// leader holds SNP-major, the layout the search sweeps.
pub(crate) trait LrTransport: LrValues + Sized {
    /// A member's rows from its own shard: the leader's, or an
    /// in-process member's.
    fn own(node: &GdoNode, columns: &[SnpId], case_freqs: &[f64], ref_freqs: &[f64]) -> Self;
    /// A member's rows from its Phase 3 report; `None` unless the message
    /// is this format's report for combination `combo`, declares `rows`
    /// rows and one column per frequency (checked before anything is
    /// allocated) and is well-formed.
    fn from_message(
        msg: ProtocolMessage,
        combo: u32,
        rows: u64,
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
    fn from_message(
        msg: ProtocolMessage,
        combo: u32,
        rows: u64,
        case_freqs: &[f64],
        _: &[f64],
    ) -> Option<Self> {
        match msg {
            ProtocolMessage::Lr(c, report)
                if c == combo
                    && report.individuals == rows
                    && report.snps == case_freqs.len() as u64 =>
            {
                report.into_matrix().ok()
            }
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
    /// dimensions, then block-transposed once ([`LrColumns::from_row_bits`]).
    /// They are the message's buffer and gone on return; beside the parts
    /// already held they stay below what the stitch holds a moment later,
    /// so the enclave account meters the transposed part only.
    fn from_message(
        msg: ProtocolMessage,
        combo: u32,
        rows: u64,
        case_freqs: &[f64],
        ref_freqs: &[f64],
    ) -> Option<Self> {
        match msg {
            ProtocolMessage::LrCompact(c, report)
                if c == combo
                    && report.individuals == rows
                    && report.snps == case_freqs.len() as u64 =>
            {
                LrColumns::from_row_bits(
                    report.individuals as usize,
                    report.snps as usize,
                    &report.bits,
                    case_freqs,
                    ref_freqs,
                )
                .ok()
            }
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
    /// Subset 0's (the full roster's) own LR selection.
    pub(crate) full_set_safe: Vec<SnpId>,
    /// Adversary power over forced ∪ released (subset 0).
    pub(crate) final_power: f64,
    /// Detection threshold over the cumulative release (subset 0).
    pub(crate) final_threshold: f64,
    /// Pooled case minor-allele frequencies of the released SNPs — the
    /// statistics the study may now publish.
    pub(crate) case_freqs: Vec<f64>,
    /// Reference frequencies of the released SNPs.
    pub(crate) ref_freqs: Vec<f64>,
    /// Issued by [`LeaderSession::assess`]; `None` from a local source.
    pub(crate) certificate: Option<AssessmentCertificate>,
    /// Leader wall time per task, the session's one-off `collect` share
    /// included: `aggregation` is the wait for the members' counts,
    /// `indexing` everything else up to the announcement of L′.
    pub(crate) timings: PhaseTimings,
}

/// Every subset's admitted candidates; subset 0's power and threshold.
pub(crate) struct LrPhase {
    pub(crate) selections: Vec<Vec<SnpId>>,
    pub(crate) final_power: f64,
    pub(crate) final_threshold: f64,
}

/// The leader's state over one set of members: everything computed once
/// from their counts. Shards do not change while a core lives, so neither
/// do the MAF outcomes or the χ² rankings; every job restricts them to its
/// own panel.
pub(crate) struct LeaderCore<'a> {
    // Row-major, as the drivers hold it: read only by the dense
    // format's null matrix.
    reference: &'a GenotypeMatrix,
    // SNP-major view of the reference, built once per core: reference
    // LD moments are popcount(AND) over two of its columns, the compact
    // null matrix a word-for-word copy of them.
    reference_columnar: ColumnarGenotypes,
    params: &'a GwasParams,
    subsets: Vec<Vec<usize>>,
    maf_outcomes: Vec<MafOutcome>,
    rankings: Vec<Vec<SnpRank>>,
    ref_counts: Vec<u64>,
    collect_timings: PhaseTimings,
}

impl<'a> LeaderCore<'a> {
    /// Collects the members' counts from `source` and runs MAF and the
    /// association ranking per subset (subset 0 is the full roster). A
    /// roster without case genomes is refused, the peers told: a release
    /// certified over the reference alone protects no case data.
    pub(crate) fn collect(
        source: &mut impl Source,
        subsets: Vec<Vec<usize>>,
        reference: &'a GenotypeMatrix,
        params: &'a GwasParams,
    ) -> Result<Self, ProtocolError> {
        let t = Instant::now();
        let reports = source.counts()?;
        let aggregation = t.elapsed();
        crate::telemetry::phase_seconds("aggregation").observe_duration(aggregation);
        if reports.iter().flatten().all(|r| r.n_case == 0) {
            let empty = ProtocolError::EmptyStudy;
            source.abort(&empty);
            return Err(empty);
        }

        let t = Instant::now();
        let (reference_columnar, ref_counts) = source.enter(|epc| {
            let columnar = ColumnarGenotypes::from_matrix(reference);
            epc.alloc(columnar.heap_bytes() as u64 + 8 * reference.snps() as u64);
            let counts = columnar.column_counts();
            (columnar, counts)
        });
        let n_ref = reference.individuals() as u64;
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
            reference,
            reference_columnar,
            params,
            subsets,
            maf_outcomes,
            rankings,
            ref_counts,
            collect_timings: PhaseTimings {
                aggregation,
                indexing,
                ..PhaseTimings::default()
            },
        })
    }

    /// Width of the study panel the members reported counts over.
    pub(crate) fn panel_len(&self) -> usize {
        self.ref_counts.len()
    }

    /// The whole study panel: the one-shot drivers' job.
    pub(crate) fn whole_panel(&self) -> Vec<SnpId> {
        (0..self.panel_len() as u32).map(SnpId).collect()
    }

    /// How many collusion subsets every job evaluates.
    pub(crate) fn evaluations(&self) -> usize {
        self.subsets.len()
    }

    /// Phase 1 over subset 0 (the full roster): the pooled counts the
    /// certificate digests and the released frequencies come from.
    pub(crate) fn full(&self) -> &MafOutcome {
        &self.maf_outcomes[0]
    }

    /// Phase 1 of one job: the per-subset MAF survivors among the job's
    /// *new* candidates (forced SNPs are already public and skip the
    /// funnel), intersected. `panel` and `forced` are sorted.
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
    /// subset. A pair's pooled moments come from the subset's table if it
    /// holds them — the shard lanes' moment logs when the job is a merge
    /// (`shards`; pooled moments are integer sums over the same genotype
    /// bits, so a hit is exactly what a live exchange would pool), else
    /// every adjacent pair of `l_prime` in one round per subset iff the
    /// source prefetches (the scan compares (survivor, next), and the
    /// survivor is usually `next − 1`) — and from a live one-pair round
    /// otherwise. Every scan runs up to its next miss, and the misses go
    /// to the source as one batch, until no scan waits: each subset asks
    /// exactly what a scan run on its own would ask, in the same order.
    /// With `log_moments` every scan also returns the `(a, b, pooled)` it
    /// evaluated, in its own order — what a shard lane hands the merge.
    pub(crate) fn ld_step(
        &self,
        source: &mut impl Source,
        l_prime: &[SnpId],
        shards: Option<&[ShardOutput]>,
        log_moments: bool,
    ) -> Result<Vec<ShardScan>, ProtocolError> {
        let prefetch = source.prefetch_ld() && shards.is_none() && l_prime.len() >= 2;
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
                let round: Round<'_> = (subset, &adjacent);
                let pooled = source.moments(&[round], ref_moments, "ld-prefetch")?;
                adjacent
                    .iter()
                    .zip(&pooled[0])
                    .map(|(&(a, b), &m)| ((a.0, b.0), m))
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
            let rounds: Vec<Round<'_>> = misses
                .iter()
                .map(|(c, pair)| (&self.subsets[*c][..], std::slice::from_ref(pair)))
                .collect();
            let pooled = match source.moments(&rounds, ref_moments, "ld-moments") {
                Ok(pooled) => pooled,
                Err(e) => {
                    source.abort(&e);
                    return Err(e);
                }
            };
            for (&(c, pair), pooled) in misses.iter().zip(pooled) {
                feed(c, &mut scans[c], pair, pooled[0]);
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

    /// Phase 3 for one subset: collects the subset's LR rows over
    /// `columns` in format `M` and runs the seeded search. `columns` are
    /// forced ∪ candidates; the first `forced_len` seed the cumulative sums
    /// and are never up for admission.
    fn lr_step<M: LrTransport>(
        &mut self,
        source: &mut impl Source,
        combo: usize,
        columns: &[SnpId],
        forced_len: usize,
    ) -> Result<LrSelection, ProtocolError> {
        let outcome = &self.maf_outcomes[combo];
        let case_freqs: Vec<f64> = columns.iter().map(|&s| outcome.case_frequency(s)).collect();
        let ref_freqs: Vec<f64> = columns.iter().map(|&s| outcome.ref_frequency(s)).collect();
        let candidates = &columns[forced_len..];
        let ranks: Vec<SnpRank> = candidates
            .iter()
            .map(|&s| self.rankings[combo][s.index()])
            .collect();
        let order = admission_order(candidates, ranks, forced_len);
        let forced_cols: Vec<usize> = (0..forced_len).collect();
        let (reference, reference_columnar) = (self.reference, &self.reference_columnar);
        let lr = &self.params.lr;
        let search = |epc: &mut EpcAccount, case_matrix: M| {
            let null_matrix = M::null(
                reference,
                reference_columnar,
                columns,
                &case_freqs,
                &ref_freqs,
            );
            epc.alloc(null_matrix.heap_bytes());
            let selection =
                select_safe_subset(&case_matrix, &null_matrix, &forced_cols, &order, lr);
            epc.free(case_matrix.heap_bytes() + null_matrix.heap_bytes());
            selection
        };
        let subset = &self.subsets[combo];
        source.lr_search(combo, subset, columns, &case_freqs, &ref_freqs, search)
    }

    /// Phase 3 of one job: the seeded LR search of every subset over
    /// `forced` ∪ `candidates`, each subset's admitted candidates sorted.
    pub(crate) fn lr_phase(
        &mut self,
        source: &mut impl Source,
        forced: &[SnpId],
        candidates: &[SnpId],
    ) -> Result<LrPhase, ProtocolError> {
        let columns: Vec<SnpId> = forced.iter().chain(candidates).copied().collect();
        let mut phase = LrPhase {
            selections: Vec::with_capacity(self.subsets.len()),
            final_power: 0.0,
            final_threshold: f64::INFINITY,
        };
        for c in 0..self.subsets.len() {
            let selection = if source.compact_lr() {
                self.lr_step::<LrColumns>(source, c, &columns, forced.len())?
            } else {
                self.lr_step::<LrMatrix>(source, c, &columns, forced.len())?
            };
            let mut safe: Vec<SnpId> = selection.kept_columns.iter().map(|&j| columns[j]).collect();
            safe.sort_unstable();
            if c == 0 {
                phase.final_power = selection.final_power;
                phase.final_threshold = selection.final_threshold;
            }
            phase.selections.push(safe);
        }
        Ok(phase)
    }

    /// Runs Algorithm 1 for one job over `panel` (sorted, in range) with
    /// the `forced` SNPs (sorted) — earlier releases — charged against the
    /// LR power budget before any new candidate is admitted. `shards`
    /// makes the job a *merge* of phases 1–2 already run by shard lanes
    /// over column slices of the same cohort.
    pub(crate) fn assess(
        &mut self,
        source: &mut impl Source,
        panel: &[SnpId],
        forced: &[SnpId],
        shards: Option<&[ShardOutput]>,
    ) -> Result<Assessment, ProtocolError> {
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
                ));
            }
        }
        source.announce_l_prime(&l_prime);
        timings.indexing += t.elapsed();
        crate::telemetry::phase_seconds("maf").observe_duration(t.elapsed());

        // ---- Phase 2 ----
        let t = Instant::now();
        let scans = self.ld_step(source, &l_prime, shards, false)?;
        let ld_selections: Vec<Vec<SnpId>> = scans.into_iter().map(|s| s.retained).collect();
        let l_double_prime = intersect_selections(&ld_selections);
        timings.ld += t.elapsed();
        crate::telemetry::phase_seconds("ld").observe_duration(t.elapsed());

        // ---- Phase 3 ----
        let t = Instant::now();
        let mut lr = self.lr_phase(source, forced, &l_double_prime)?;
        let released = intersect_selections(&lr.selections);
        timings.lr += t.elapsed();
        crate::telemetry::phase_seconds("lr").observe_duration(t.elapsed());

        let full = self.full();
        Ok(Assessment {
            case_freqs: released.iter().map(|&s| full.case_frequency(s)).collect(),
            ref_freqs: released.iter().map(|&s| full.ref_frequency(s)).collect(),
            full_set_safe: lr.selections.swap_remove(0),
            l_prime,
            l_double_prime,
            released,
            final_power: lr.final_power,
            final_threshold: lr.final_threshold,
            certificate: None,
            timings,
        })
    }
}

// ---- The remote source: the members over the leader's attested channels ----

/// The leader's end of one attested session.
pub(crate) struct Links<'a> {
    node: &'a GdoNode,
    /// Each member's Phase 1 case count, by member id: every later report
    /// is held to it.
    n_case: Vec<u64>,
    aborted: bool,
}

/// The remote source: the members' aggregates over the session's links,
/// metered in the leader enclave.
pub(crate) struct Remote<'s, 'a, T: Transport> {
    ctx: &'s mut MemberCtx<T>,
    links: &'s mut Links<'a>,
}

impl<T: Transport> Source for Remote<'_, '_, T> {
    fn counts(&mut self) -> Result<Vec<Option<CountsReport>>, ProtocolError> {
        let (ctx, Links { node, n_case, .. }) = (&mut *self.ctx, &mut *self.links);
        let (me, panel_len) = (ctx.id, node.columnar().snps());
        let mut reports: Vec<Option<CountsReport>> = vec![None; ctx.g];
        reports[me] = Some(node.counts_report());
        for peer in (0..ctx.g).filter(|&peer| peer != me) {
            match recv_protocol(ctx, peer, "counts")? {
                ProtocolMessage::Counts(c) if c.counts.len() == panel_len => {
                    n_case[peer] = c.n_case;
                    reports[peer] = Some(c);
                }
                _ => return Err(ProtocolError::MalformedMessage { member: peer }),
            }
        }
        Ok(reports)
    }

    fn enter<R>(&mut self, body: impl FnOnce(&mut EpcAccount) -> R) -> R {
        self.ctx.enclave.enter(|(), epc| body(epc))
    }

    fn announce_l_prime(&mut self, l_prime: &[SnpId]) {
        let phase1 = ProtocolMessage::Phase1(Phase1Broadcast {
            retained: l_prime.iter().map(|s| s.0).collect(),
        });
        send_each(self.ctx, 0..self.ctx.g, &phase1);
    }

    /// All requests go out as one burst, in round order: each round costs
    /// the messages it costs alone, and the leader waits once for all.
    fn moments(
        &mut self,
        rounds: &[Round<'_>],
        reference: impl Fn(SnpId, SnpId) -> LdMoments,
        phase: &'static str,
    ) -> Result<Vec<Vec<LdMoments>>, ProtocolError> {
        let (ctx, node) = (&mut *self.ctx, self.links.node);
        ctx.burst(|ctx| {
            for &(subset, pairs) in rounds {
                request_moments(ctx, subset, pairs);
            }
        });
        rounds
            .iter()
            .map(|&(subset, pairs)| collect_moments(ctx, node, subset, pairs, &reference, phase))
            .collect()
    }

    fn prefetch_ld(&self) -> bool {
        self.ctx.prefetch_ld
    }

    fn compact_lr(&self) -> bool {
        self.ctx.compact_lr
    }

    /// `Phase2` to the subset, then its rows, each part metered as it
    /// arrives and released once stitched. A report must declare the
    /// member's Phase 1 case count and one column per SNP asked for, or
    /// it is refused before anything is built from it.
    fn lr_search<M: LrTransport>(
        &mut self,
        combo: usize,
        subset: &[usize],
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
        search: impl FnOnce(&mut EpcAccount, M) -> LrSelection,
    ) -> Result<LrSelection, ProtocolError> {
        let broadcast = ProtocolMessage::Phase2(
            combo as u32,
            Phase2Broadcast {
                retained: columns.iter().map(|s| s.0).collect(),
                case_freqs: case_freqs.to_vec(),
                ref_freqs: ref_freqs.to_vec(),
            },
        );
        let (ctx, Links { node, n_case, .. }) = (&mut *self.ctx, &mut *self.links);
        send_each(ctx, subset.iter().copied(), &broadcast);
        let me = ctx.id;
        let mut parts: Vec<M> = Vec::with_capacity(subset.len());
        if subset.contains(&me) {
            parts.push(ctx.enclave.enter(|(), epc| {
                let m = M::own(node, columns, case_freqs, ref_freqs);
                epc.alloc(m.heap_bytes());
                m
            }));
        }
        for &peer in subset {
            if peer == me {
                continue;
            }
            let report = recv_protocol(ctx, peer, "lr-matrices")?;
            let m = M::from_message(report, combo as u32, n_case[peer], case_freqs, ref_freqs)
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
            search(epc, case_matrix)
        }))
    }

    /// At most once per session, to every member attested so far.
    fn abort(&mut self, err: &ProtocolError) {
        if std::mem::replace(&mut self.links.aborted, true) {
            return;
        }
        let notice = ProtocolMessage::Abort(err.to_string());
        for peer in 0..self.ctx.g {
            if self.ctx.attested(peer) {
                send_protocol(self.ctx, peer, &notice);
            }
        }
    }
}

/// The attested leader: the core over the remote source of one session's
/// links.
pub(crate) struct LeaderSession<'a> {
    pub(crate) core: LeaderCore<'a>,
    pub(crate) links: Links<'a>,
}

impl<'a> LeaderSession<'a> {
    /// Receives every member's `Counts` over the attested channels and
    /// runs the per-subset MAF evaluation and association ranking.
    pub(crate) fn collect<T: Transport>(
        ctx: &mut MemberCtx<T>,
        node: &'a GdoNode,
        reference: &'a GenotypeMatrix,
        params: &'a GwasParams,
    ) -> Result<Self, ProtocolError> {
        let subsets = evaluation_subsets(ctx.g, ctx.collusion);
        let mut links = Links {
            node,
            n_case: vec![0; ctx.g],
            aborted: false,
        };
        let remote = &mut Remote {
            ctx,
            links: &mut links,
        };
        let core = LeaderCore::collect(remote, subsets, reference, params)?;
        Ok(Self { core, links })
    }

    /// The core, and the remote source over this session's links.
    pub(crate) fn split<'s, T: Transport>(
        &'s mut self,
        ctx: &'s mut MemberCtx<T>,
    ) -> (&'s mut LeaderCore<'a>, Remote<'s, 'a, T>) {
        let links = &mut self.links;
        (&mut self.core, Remote { ctx, links })
    }

    /// Tells every peer the run is over (at most once per session).
    pub(crate) fn abort<T: Transport>(&mut self, ctx: &mut MemberCtx<T>, err: &ProtocolError) {
        self.split(ctx).1.abort(err);
    }

    /// [`LeaderCore::assess`] over the channels, then the certificate,
    /// issued inside the leader enclave (a `job_id` binds it to the job
    /// context), and the `Phase3` broadcast of the safe set.
    pub(crate) fn assess<T: Transport>(
        &mut self,
        ctx: &mut MemberCtx<T>,
        panel: &[SnpId],
        forced: &[SnpId],
        job_id: Option<u64>,
        shards: Option<&[ShardOutput]>,
    ) -> Result<Assessment, ProtocolError> {
        let (core, mut remote) = self.split(ctx);
        let mut assessment = core.assess(&mut remote, panel, forced, shards)?;
        let ctx = remote.ctx;

        // ---- Audit certificate (issued inside the leader enclave) ----
        // The certificate keeps its epoch and roster fields, always the
        // one epoch and the whole federation.
        let full = core.full();
        let roster: Vec<u32> = (0..ctx.g as u32).collect();
        assessment.certificate = Some(AssessmentCertificate::issue(
            &ctx.enclave,
            &AssessmentFacts {
                params: core.params,
                gdo_count: ctx.g,
                panel_len: core.panel_len(),
                case_counts: &full.case_counts,
                n_case: full.n_case,
                ref_counts: &full.ref_counts,
                n_ref: full.n_ref,
                safe: &assessment.released,
                evaluations: core.evaluations() as u64,
                epoch: 1,
                roster: &roster,
                context: job_id.map(|job_id| JobContext {
                    job_id,
                    panel,
                    forced,
                }),
            },
        ));

        // ---- Final broadcast ----
        let phase3 = ProtocolMessage::Phase3(Phase3Broadcast {
            safe: assessment.released.iter().map(|s| s.0).collect(),
        });
        send_each(ctx, 0..ctx.g, &phase3);
        Ok(assessment)
    }
}

// ---- The local source: in-process members ----

/// The local source: the members, by id, answer at once from their
/// shards. Its enclave meters are never read, and nothing waits on a
/// round.
pub(crate) struct Local<'n>(pub(crate) &'n [GdoNode]);

impl Source for Local<'_> {
    fn counts(&mut self) -> Result<Vec<Option<CountsReport>>, ProtocolError> {
        Ok(self.0.iter().map(|n| Some(n.counts_report())).collect())
    }

    fn moments(
        &mut self,
        rounds: &[Round<'_>],
        reference: impl Fn(SnpId, SnpId) -> LdMoments,
        _: &'static str,
    ) -> Result<Vec<Vec<LdMoments>>, ProtocolError> {
        let pooled = |subset: &[usize], &(a, b): &(SnpId, SnpId)| {
            subset.iter().fold(reference(a, b), |sum, &i| {
                sum.merge(LdMoments::from(self.0[i].ld_moments(a, b)))
            })
        };
        Ok(rounds
            .iter()
            .map(|&(subset, pairs)| pairs.iter().map(|pair| pooled(subset, pair)).collect())
            .collect())
    }

    fn lr_search<M: LrTransport>(
        &mut self,
        _: usize,
        subset: &[usize],
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
        search: impl FnOnce(&mut EpcAccount, M) -> LrSelection,
    ) -> Result<LrSelection, ProtocolError> {
        let parts: Vec<M> = subset
            .iter()
            .map(|&i| M::own(&self.0[i], columns, case_freqs, ref_freqs))
            .collect();
        let case_matrix = M::concat_rows(&parts);
        let mut epc = EpcAccount::default();
        epc.alloc(case_matrix.heap_bytes());
        Ok(search(&mut epc, case_matrix))
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
    leader: usize,
    terminator: Terminator,
) -> Result<Vec<SnpId>, ProtocolError> {
    let phase = match terminator {
        Terminator::Phase3 => "awaiting-leader",
        Terminator::ShardDone => "shard-serve",
    };
    loop {
        let first = recv_protocol(ctx, leader, phase)?;
        let done = ctx.burst(|ctx| -> Result<_, ProtocolError> {
            let mut msg = first;
            loop {
                if let Some(safe) = answer(ctx, node, leader, terminator, msg)? {
                    return Ok(Some(safe));
                }
                if !ctx.ready(leader) {
                    return Ok(None);
                }
                msg = recv_protocol(ctx, leader, phase)?;
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
    leader: usize,
    terminator: Terminator,
    msg: ProtocolMessage,
) -> Result<Option<Vec<SnpId>>, ProtocolError> {
    let full = terminator == Terminator::Phase3;
    // Ids and vector lengths are the leader's input: a wrong one is a
    // malformed message, not an index past this member's panel.
    let past_panel = |id: u32| id as usize >= node.columnar().snps();
    let malformed = || ProtocolError::MalformedMessage { member: leader };
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
            send_protocol(ctx, leader, &ProtocolMessage::Moments(reports));
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
            send_protocol(ctx, leader, &report);
            ctx.enclave.enter(|(), epc| epc.free(bytes));
        }
        ProtocolMessage::Phase3(broadcast) if full => {
            return Ok(Some(broadcast.safe.into_iter().map(SnpId).collect()));
        }
        ProtocolMessage::ShardDone if !full => return Ok(Some(Vec::new())),
        msg => return Err(unexpected_from_leader(leader, &msg)),
    }
    Ok(None)
}

/// The error a follower reports for a message that is not part of what it
/// is serving: the leader's `Abort` notice, or a malformed exchange.
pub(crate) fn unexpected_from_leader(leader: usize, msg: &ProtocolMessage) -> ProtocolError {
    match msg {
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
    use crate::messages::{LrReport, LrReportCompact};
    use crate::runtime::{build_member, establish_channel, RuntimeOptions};
    use gendpr_fednet::transport::{Network, PeerId};

    /// Member 1 of 2 serves a job over an 8-SNP shard while a hand-rolled
    /// leader sends `msgs`; returns how the follower's loop ended.
    fn follower_after(
        msgs: &[ProtocolMessage],
        compact_lr: bool,
    ) -> Result<Vec<SnpId>, ProtocolError> {
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
            establish_channel(&mut ctx, 0)?;
            follower_serve(&mut ctx, &node, 0, Terminator::Phase3)
        });
        establish_channel(&mut leader, 1).unwrap();
        for msg in msgs {
            send_protocol(&mut leader, 1, msg);
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
            establish_channel(&mut ctx, 0)?;
            gate.recv().expect("the leader queues its requests first");
            follower_serve(&mut ctx, &node, 0, Terminator::Phase3)
        });
        establish_channel(&mut leader, 1).unwrap();
        let k = 5u32;
        for a in 0..k {
            let request = ProtocolMessage::MomentsRequest(vec![MomentsRequest { a, b: a + 1 }]);
            send_protocol(&mut leader, 1, &request);
        }
        let before = network.wakes();
        go.send(()).unwrap();
        for a in 0..k {
            match recv_protocol(&mut leader, 1, "test") {
                Ok(ProtocolMessage::Moments(ms)) if ms.len() == 1 => {}
                other => panic!("reply {a}: {other:?}"),
            }
        }
        assert_eq!(network.wakes() - before, 1, "{k} replies, one wake");
        let phase3 = ProtocolMessage::Phase3(Phase3Broadcast { safe: vec![3] });
        send_protocol(&mut leader, 1, &phase3);
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
                Err(ProtocolError::MalformedMessage { member: 0 }) => {}
                other => panic!("{msg:?} (compact {compact}): {other:?}"),
            }
        }
    }

    /// Runs one job over an 8-SNP panel nobody carries — MAF keeps
    /// nothing, so the leader asks for zero-column LR reports — with
    /// member 0 leading and a hand-rolled member 1 answering `Phase2` with
    /// `forged(n_case)`, its Phase 1 case count in hand.
    fn job_with_a_forged_lr_report(
        compact_lr: bool,
        forged: fn(u64) -> ProtocolMessage,
    ) -> Result<Assessment, ProtocolError> {
        let config = FederationConfig::new(2);
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions {
            compact_lr,
            ..RuntimeOptions::default()
        };
        let network = Network::new();
        let shard = || GenotypeMatrix::zeroed(5, 8);
        let reference = GenotypeMatrix::zeroed(6, 8);
        let (mut leader, node, _) = build_member(
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
            let (mut ctx, _, counts) =
                build_member(endpoint, 1, &config, &params, options, shard()).unwrap();
            establish_channel(&mut ctx, 0).unwrap();
            send_protocol(&mut ctx, 0, &ProtocolMessage::Counts(counts.clone()));
            loop {
                match recv_protocol(&mut ctx, 0, "test") {
                    Ok(ProtocolMessage::Phase2(..)) => {
                        send_protocol(&mut ctx, 0, &forged(counts.n_case));
                    }
                    Ok(ProtocolMessage::Phase3(_) | ProtocolMessage::Abort(_)) | Err(_) => return,
                    Ok(_) => {}
                }
            }
        });
        establish_channel(&mut leader, 1).unwrap();
        let mut session = LeaderSession::collect(&mut leader, &node, &reference, &params).unwrap();
        let panel = session.core.whole_panel();
        let job = session.assess(&mut leader, &panel, &[], None, None);
        if job.is_err() {
            session.abort(&mut leader, &ProtocolError::InvalidConfig("test over"));
        }
        follower.join().expect("the follower must not panic");
        job
    }

    #[test]
    fn lr_reports_are_held_to_the_members_phase_one_case_count() {
        // The harness is live: a report of the member's own n_case rows
        // and no columns is the honest answer, and the job certifies.
        let honest = |n_case| {
            ProtocolMessage::LrCompact(
                0,
                LrReportCompact {
                    individuals: n_case,
                    snps: 0,
                    bits: vec![],
                },
            )
        };
        let job = job_with_a_forged_lr_report(true, honest).unwrap();
        assert!(job.released.is_empty() && job.certificate.is_some());
        // One row more than Phase 1 declared, in either format, is refused
        // as the member's malformed message before the search runs.
        let compact = |n_case: u64| {
            ProtocolMessage::LrCompact(
                0,
                LrReportCompact {
                    individuals: n_case + 1,
                    snps: 0,
                    bits: vec![],
                },
            )
        };
        let dense = |n_case: u64| {
            ProtocolMessage::Lr(
                0,
                LrReport {
                    individuals: n_case + 1,
                    snps: 0,
                    values: vec![],
                },
            )
        };
        for (compact_lr, forged) in [(true, compact as fn(u64) -> _), (false, dense)] {
            match job_with_a_forged_lr_report(compact_lr, forged) {
                Err(ProtocolError::MalformedMessage { member: 1 }) => {}
                other => panic!("compact {compact_lr}: {:?}", other.map(|a| a.released)),
            }
        }
    }
}
