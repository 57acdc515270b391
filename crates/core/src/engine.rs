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
//!   subsets) and the naïve baseline (all members for L′, each alone for
//!   LD and LR).
//!
//! Phase 3 has one matrix format in the leader: every member's rows, its
//! own and the null model are [`LrColumns`], whichever report format the
//! members send.
//!
//! [`follower_serve`] is the member side of an attested job: a
//! [`Follower`] machine the transport drives. Announcing a job, rekeying
//! and traffic accounting stay with the drivers.

use crate::certificate::{AssessmentCertificate, AssessmentFacts, JobContext};
use crate::collusion::{evaluation_subsets, intersect_selections};
use crate::config::GwasParams;
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use crate::messages::{
    encode_moments, encode_moments_request, moments_in, moments_request_in, CountsReport,
    MomentsRequest, Phase1Broadcast, Phase2Broadcast, Phase3Broadcast, ProtocolMessage,
};
use crate::phases::ld::LdScan;
use crate::phases::lrtest::admission_order;
use crate::phases::maf::{run_maf, MafOutcome, Phase1};
use crate::protocol::PhaseTimings;
use crate::runtime::{recv_decoded, recv_protocol, send_encoded, send_protocol, MemberCtx, Peers};
use crate::serving::{ShardOutput, ShardScan};
use gendpr_fednet::transport::{Handler, Outgoing, PeerId, Transport};
use gendpr_fednet::wire::{self, Encode, WireError};
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::{LdMoments, LdTest};
use gendpr_stats::lr::{select_safe_subset, LrColumns, LrSelection};
use gendpr_stats::ranking::SnpRank;
use gendpr_tee::enclave::Enclave;
use gendpr_tee::memory::EpcAccount;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Sends `msg` to every member of `peers` except this one, in order, as
/// one burst.
pub(crate) fn send_each<T: Transport>(
    ctx: &mut MemberCtx<T>,
    peers: impl IntoIterator<Item = usize>,
    msg: &ProtocolMessage,
) {
    send_each_encoded(ctx, peers, |buf| msg.encode(buf));
}

/// [`send_each`] for a message `encode` appends to each buffer itself.
fn send_each_encoded<T: Transport>(
    ctx: &mut MemberCtx<T>,
    peers: impl IntoIterator<Item = usize>,
    encode: impl Fn(&mut Vec<u8>),
) {
    ctx.burst(|ctx| {
        for peer in peers {
            if peer != ctx.id {
                send_encoded(ctx, peer, &encode);
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
    send_each_encoded(ctx, subset.iter().copied(), |buf| {
        let pairs = pairs
            .iter()
            .map(|&(a, b)| MomentsRequest { a: a.0, b: b.0 });
        encode_moments_request(pairs, buf);
    });
}

/// Closes the round [`request_moments`] opened for the same `subset` and
/// pairs: adds the replies, in subset order, to `pooled` (each pair's
/// moments before any reply, one per pair). A reply must hold one moment
/// per pair, each over the member's Phase 1 case count (`n_case`, by
/// member id). Rounds must be closed in the order they were opened: a
/// member answers its requests in arrival order, so its next reply
/// belongs to the oldest round still open with it.
fn collect_moments<T: Transport>(
    ctx: &mut MemberCtx<T>,
    n_case: &[u64],
    subset: &[usize],
    pooled: &mut [LdMoments],
    phase: &'static str,
) -> Result<(), ProtocolError> {
    for &peer in subset {
        if peer == ctx.id {
            continue;
        }
        // Read in place; a reply that does not fit is refused whole (the
        // error ends the job, so a part already added does not matter).
        let fits = recv_decoded(ctx, peer, phase, |bytes| {
            let reports = moments_in(bytes)?;
            if reports.len() != pooled.len() {
                return Ok(false);
            }
            for (sum, m) in pooled.iter_mut().zip(reports) {
                if m.n != n_case[peer] {
                    return Ok(false);
                }
                *sum = sum.merge(LdMoments::from(m));
            }
            Ok(true)
        })?;
        if !fits {
            return Err(ProtocolError::MalformedMessage { member: peer });
        }
    }
    Ok(())
}

/// One moments round: a subset and the pairs pooled over it.
pub(crate) type Round<'r> = (&'r [usize], &'r [(SnpId, SnpId)]);

/// Hashes a `(u32, u32)` pair key with one multiplication (Fibonacci
/// hashing) and a fold of the product's high half into its low bits,
/// where the table picks its bucket: the LD tables' keys are SNP ids the
/// leader chose, so no flooding defence is needed, and SipHash costs
/// several times more per lookup.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 << 8) | u64::from(byte);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 << 32) | u64::from(n);
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    }
}

/// A subset's pooled moments by `(a, b)` pair: prefetched, or a shard
/// lane's log.
type PairTable = HashMap<(u32, u32), LdMoments, BuildHasherDefault<PairHasher>>;

/// Where the leader core's member aggregates come from. The provided
/// methods are a source's without peers, an enclave or transport options.
pub(crate) trait Source {
    /// Every member's counts report, by member id.
    fn counts(&mut self) -> Result<Vec<Option<CountsReport>>, ProtocolError>;
    /// Appends every round's pooled moments to `pooled`, in round order,
    /// one per pair; the rounds are opened together and closed in order.
    /// Each round's pooling starts from what `fixed(pairs, own, pooled)`
    /// appends: the reference's moments, plus those of `own`, the shard of
    /// the subset member the leader answers for itself (none in-process).
    /// `phase` names the wait in a timeout.
    fn moments<'r>(
        &mut self,
        rounds: impl Iterator<Item = Round<'r>> + Clone,
        fixed: impl Fn(&[(SnpId, SnpId)], Option<&GdoNode>, &mut Vec<LdMoments>),
        pooled: &mut Vec<LdMoments>,
        phase: &'static str,
    ) -> Result<(), ProtocolError>;
    /// Runs `search` in the leader enclave on combination `combo`'s case
    /// rows over `columns`.
    fn lr_search(
        &mut self,
        combo: usize,
        subset: &[usize],
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
        search: impl FnOnce(&mut EpcAccount, LrColumns) -> LrSelection,
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
/// do the MAF outcomes or the χ² ranks (each computed on its first read);
/// every job restricts them to its own panel. The LD decision rule is
/// fixed with the parameters, so its [`LdTest`] is built once here too.
pub(crate) struct LeaderCore<'a> {
    // SNP-major view of the reference, built once per core: reference
    // LD moments are popcount(AND) over two of its columns, the null
    // matrix a word-for-word copy of them.
    reference_columnar: ColumnarGenotypes,
    params: &'a GwasParams,
    subsets: Vec<Vec<usize>>,
    phase1: Vec<Phase1>,
    ld_test: LdTest,
    ref_counts: Vec<u64>,
    collect_timings: PhaseTimings,
}

impl<'a> LeaderCore<'a> {
    /// Collects the members' counts from `source` and runs MAF per subset
    /// (subset 0 is the full roster), its χ² ranks left to their first
    /// read. A roster without case genomes is refused, the peers told: a
    /// release certified over the reference alone protects no case data.
    pub(crate) fn collect(
        source: &mut impl Source,
        subsets: Vec<Vec<usize>>,
        reference: &GenotypeMatrix,
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
        // Every pooled count and total below fits a u64 if the roster's
        // cases and the reference together do; a member whose declared
        // case count overflows that sum is lying about its size.
        let mut total = reference.individuals() as u64;
        for (member, report) in reports.iter().enumerate() {
            match report
                .as_ref()
                .map_or(Some(total), |r| total.checked_add(r.n_case))
            {
                Some(sum) => total = sum,
                None => {
                    let lie = ProtocolError::MalformedMessage { member };
                    source.abort(&lie);
                    return Err(lie);
                }
            }
        }

        let t = Instant::now();
        let (reference_columnar, ref_counts) = source.enter(|epc| {
            let columnar = ColumnarGenotypes::from_matrix(reference);
            epc.alloc(columnar.heap_bytes() as u64 + 8 * reference.snps() as u64);
            let counts = columnar.column_counts();
            (columnar, counts)
        });
        let n_ref = reference.individuals() as u64;
        let phase1: Vec<Phase1> = subsets
            .iter()
            .map(|subset| {
                let subset_reports: Vec<CountsReport> = subset
                    .iter()
                    .map(|&i| reports[i].clone().expect("subset member reported"))
                    .collect();
                Phase1::new(run_maf(
                    &subset_reports,
                    ref_counts.clone(),
                    n_ref,
                    params.maf_cutoff,
                ))
            })
            .collect();
        let indexing = t.elapsed();
        crate::telemetry::phase_seconds("maf").observe_duration(indexing);

        Ok(Self {
            reference_columnar,
            params,
            subsets,
            phase1,
            ld_test: LdTest::new(params.ld_cutoff),
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
        &self.phase1[0].maf
    }

    /// Phase 1 of one job: the per-subset MAF survivors among the job's
    /// *new* candidates (forced SNPs are already public and skip the
    /// funnel), intersected. `panel` and `forced` are sorted.
    pub(crate) fn maf_step(&self, panel: &[SnpId], forced: &[SnpId]) -> Vec<SnpId> {
        let per_subset: Vec<Vec<SnpId>> = self
            .phase1
            .iter()
            .map(|p| {
                p.maf
                    .retained
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
        // A pair's moments before any reply, from its joint counts (the
        // popcount sweeps): the reference's, plus those of the shard the
        // leader answers for itself.
        let pooled = |(a, b): (SnpId, SnpId), ref_joint: u64, own: Option<(&GdoNode, u64)>| {
            let pooled = LdMoments::from_counts(
                ref_counts[a.index()],
                ref_counts[b.index()],
                ref_joint,
                n_ref,
            );
            own.map_or(pooled, |(node, joint)| {
                pooled.merge(node.moments_with_joint(a, b, joint))
            })
        };
        let fixed = |pairs: &[(SnpId, SnpId)], own: Option<&GdoNode>, out: &mut Vec<LdMoments>| {
            out.extend(pairs.iter().map(|&(a, b)| {
                let own = own.map(|node| (node, node.columnar().pair_count(a, b)));
                pooled((a, b), reference.pair_count(a, b), own)
            }));
        };
        // Every subset's prefetch asks for the same pairs, so their joint
        // counts are swept once a job (on the first round that needs
        // each) and kept, one `u64` a pair: moments are integer sums, so
        // each pooled value is what the round would compute itself.
        let joints = |shard: &ColumnarGenotypes, pairs: &[(SnpId, SnpId)]| -> Vec<u64> {
            pairs.iter().map(|&(a, b)| shard.pair_count(a, b)).collect()
        };
        let (ref_joint, own_joint) = (OnceCell::new(), OnceCell::new());
        let prefetched =
            |pairs: &[(SnpId, SnpId)], own: Option<&GdoNode>, out: &mut Vec<LdMoments>| {
                let ref_joint: &Vec<u64> = ref_joint.get_or_init(|| joints(reference, pairs));
                let own = own.map(|node| {
                    let joint: &Vec<u64> = own_joint.get_or_init(|| joints(node.columnar(), pairs));
                    (node, joint)
                });
                out.extend(pairs.iter().enumerate().map(|(i, &pair)| {
                    pooled(pair, ref_joint[i], own.map(|(node, j)| (node, j[i])))
                }));
            };

        let mut tables: Vec<PairTable> = Vec::with_capacity(self.subsets.len());
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
                let mut pooled = Vec::with_capacity(adjacent.len());
                source.moments(
                    std::iter::once(round),
                    prefetched,
                    &mut pooled,
                    "ld-prefetch",
                )?;
                adjacent
                    .iter()
                    .zip(&pooled)
                    .map(|(&(a, b), &m)| ((a.0, b.0), m))
                    .collect()
            } else {
                PairTable::default()
            });
        }

        let mut scans = vec![LdScan::new(l_prime); self.subsets.len()];
        let mut logs = vec![Vec::new(); self.subsets.len()];
        let (phase1, ld_test) = (&self.phase1, &self.ld_test);
        let mut feed = |c: usize, scan: &mut LdScan, (a, b): (SnpId, SnpId), pooled| {
            if log_moments {
                logs[c].push((a.0, b.0, pooled));
            }
            scan.feed(pooled, |s| phase1[c].rank(s).p_value, ld_test);
        };
        // A batch's misses and their pooled moments, kept across batches.
        let mut misses: Vec<(usize, (SnpId, SnpId))> = Vec::with_capacity(scans.len());
        let mut pooled = Vec::with_capacity(scans.len());
        loop {
            misses.clear();
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
            let rounds = misses
                .iter()
                .map(|(c, pair)| (&self.subsets[*c][..], std::slice::from_ref(pair)));
            pooled.clear();
            if let Err(e) = source.moments(rounds, fixed, &mut pooled, "ld-moments") {
                source.abort(&e);
                return Err(e);
            }
            for (&(c, pair), &pooled) in misses.iter().zip(&pooled) {
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

    /// Phase 3 for one subset: collects the subset's LR rows over
    /// `columns` and runs the seeded search. `columns` are forced ∪
    /// candidates; the first `forced_len` seed the cumulative sums and are
    /// never up for admission.
    fn lr_step(
        &mut self,
        source: &mut impl Source,
        combo: usize,
        columns: &[SnpId],
        forced_len: usize,
    ) -> Result<LrSelection, ProtocolError> {
        let outcome = &self.phase1[combo].maf;
        let case_freqs: Vec<f64> = columns.iter().map(|&s| outcome.case_frequency(s)).collect();
        let ref_freqs: Vec<f64> = columns.iter().map(|&s| outcome.ref_frequency(s)).collect();
        let candidates = &columns[forced_len..];
        let ranks: Vec<SnpRank> = candidates
            .iter()
            .map(|&s| self.phase1[combo].rank(s))
            .collect();
        let order = admission_order(candidates, ranks, forced_len);
        let forced_cols: Vec<usize> = (0..forced_len).collect();
        let (reference, lr) = (&self.reference_columnar, &self.params.lr);
        let search = |epc: &mut EpcAccount, case_matrix: LrColumns| {
            let null_matrix = LrColumns::from_columnar(reference, columns, &case_freqs, &ref_freqs);
            epc.alloc(null_matrix.heap_bytes() as u64);
            let selection =
                select_safe_subset(&case_matrix, &null_matrix, &forced_cols, &order, lr);
            epc.free((case_matrix.heap_bytes() + null_matrix.heap_bytes()) as u64);
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
            let selection = self.lr_step(source, c, &columns, forced.len())?;
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
                // One count per panel SNP, none above the member's case
                // count: the χ² table refuses a minor-allele count past its
                // population with a panic.
                ProtocolMessage::Counts(c)
                    if c.counts.len() == panel_len && c.counts.iter().all(|&k| k <= c.n_case) =>
                {
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
    /// the messages it costs alone, and the leader waits once for all. A
    /// round's fixed part is computed while the members work.
    fn moments<'r>(
        &mut self,
        rounds: impl Iterator<Item = Round<'r>> + Clone,
        fixed: impl Fn(&[(SnpId, SnpId)], Option<&GdoNode>, &mut Vec<LdMoments>),
        pooled: &mut Vec<LdMoments>,
        phase: &'static str,
    ) -> Result<(), ProtocolError> {
        let (ctx, Links { node, n_case, .. }) = (&mut *self.ctx, &*self.links);
        ctx.burst(|ctx| {
            for (subset, pairs) in rounds.clone() {
                request_moments(ctx, subset, pairs);
            }
        });
        for (subset, pairs) in rounds {
            let own = subset.contains(&ctx.id).then_some(*node);
            let start = pooled.len();
            fixed(pairs, own, pooled);
            collect_moments(ctx, n_case, subset, &mut pooled[start..], phase)?;
        }
        Ok(())
    }

    fn prefetch_ld(&self) -> bool {
        self.ctx.prefetch_ld
    }

    /// `Phase2` to the subset, then its rows, each part metered as it
    /// arrives and released once stitched. A report must be of the format
    /// the session's members send (`compact_lr`), declare the member's
    /// Phase 1 case count and one column per SNP asked for, or it is
    /// refused before anything is built from it.
    fn lr_search(
        &mut self,
        combo: usize,
        subset: &[usize],
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
        search: impl FnOnce(&mut EpcAccount, LrColumns) -> LrSelection,
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
        let (me, combo, cols) = (ctx.id, combo as u32, columns.len() as u64);
        let mut parts: Vec<LrColumns> = Vec::with_capacity(subset.len());
        if subset.contains(&me) {
            parts.push(ctx.enclave.enter(|(), epc| {
                let m = LrColumns::from_columnar(node.columnar(), columns, case_freqs, ref_freqs);
                epc.alloc(m.heap_bytes() as u64);
                m
            }));
        }
        for &peer in subset {
            if peer == me {
                continue;
            }
            let rows = n_case[peer];
            // The report's buffer is the message's and gone on return. A
            // compact one stays below what the stitch holds a moment later,
            // so only its transposed part is metered; a dense one is
            // metered while it is decoded, once its length is checked.
            let part = match recv_protocol(ctx, peer, "lr-matrices")? {
                ProtocolMessage::LrCompact(c, r)
                    if ctx.compact_lr && c == combo && r.individuals == rows && r.snps == cols =>
                {
                    LrColumns::from_row_bits(
                        rows as usize,
                        cols as usize,
                        &r.bits,
                        case_freqs,
                        ref_freqs,
                    )
                    .ok()
                }
                ProtocolMessage::Lr(c, r)
                    if !ctx.compact_lr
                        && c == combo
                        && r.individuals == rows
                        && r.snps == cols
                        && rows.checked_mul(cols) == Some(r.values.len() as u64) =>
                {
                    ctx.enclave.enter(|(), epc| {
                        let buffer = 8 * r.values.len() as u64;
                        epc.alloc(buffer);
                        let part = LrColumns::from_row_values(
                            rows as usize,
                            cols as usize,
                            &r.values,
                            case_freqs,
                            ref_freqs,
                        );
                        epc.free(buffer);
                        part.ok()
                    })
                }
                _ => None,
            }
            .ok_or(ProtocolError::MalformedMessage { member: peer })?;
            ctx.enclave
                .enter(|(), epc| epc.alloc(part.heap_bytes() as u64));
            parts.push(part);
        }
        Ok(ctx.enclave.enter(|(), epc| {
            // The parts are only needed until they are stitched.
            let case_matrix = LrColumns::concat_rows(&parts);
            epc.alloc(case_matrix.heap_bytes() as u64);
            epc.free(parts.iter().map(|p| p.heap_bytes() as u64).sum());
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
    /// runs the per-subset MAF evaluation.
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

    fn moments<'r>(
        &mut self,
        rounds: impl Iterator<Item = Round<'r>> + Clone,
        fixed: impl Fn(&[(SnpId, SnpId)], Option<&GdoNode>, &mut Vec<LdMoments>),
        pooled: &mut Vec<LdMoments>,
        _: &'static str,
    ) -> Result<(), ProtocolError> {
        for (subset, pairs) in rounds {
            let start = pooled.len();
            fixed(pairs, None, pooled);
            for (sum, &(a, b)) in pooled[start..].iter_mut().zip(pairs) {
                for &i in subset {
                    *sum = sum.merge(LdMoments::from(self.0[i].ld_moments(a, b)));
                }
            }
        }
        Ok(())
    }

    fn lr_search(
        &mut self,
        _: usize,
        subset: &[usize],
        columns: &[SnpId],
        case_freqs: &[f64],
        ref_freqs: &[f64],
        search: impl FnOnce(&mut EpcAccount, LrColumns) -> LrSelection,
    ) -> Result<LrSelection, ProtocolError> {
        let parts: Vec<LrColumns> = subset
            .iter()
            .map(|&i| {
                LrColumns::from_columnar(self.0[i].columnar(), columns, case_freqs, ref_freqs)
            })
            .collect();
        let case_matrix = LrColumns::concat_rows(&parts);
        let mut epc = EpcAccount::default();
        epc.alloc(case_matrix.heap_bytes() as u64);
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

/// Serves one job as a follower until the terminator arrives and returns
/// the safe set it carried (empty for a shard job), with `ctx`. One-shot
/// runs, service jobs and shard lanes share it, so a service job follows
/// byte-for-byte the message schedule of a standalone run. The job is a
/// [`Follower`], which takes the member's links and enclave with it into
/// [`Transport::serve`]; a leader silent through the timeout is suspected.
pub(crate) fn follower_serve<T: Transport>(
    mut ctx: MemberCtx<T>,
    node: &Arc<GdoNode>,
    leader: usize,
    terminator: Terminator,
) -> (MemberCtx<T>, Result<Vec<SnpId>, ProtocolError>) {
    let mut follower = Follower {
        peers: ctx.peers,
        enclave: ctx.enclave,
        node: Arc::clone(node),
        id: ctx.id,
        leader,
        terminator,
        compact_lr: ctx.compact_lr,
        pairs: Vec::new(),
    };
    // What a receive before the job filed goes first.
    let mut out = Vec::new();
    let filed = follower.answer_filed(&mut out).transpose();
    if !out.is_empty() {
        ctx.endpoint.send_all(&mut out, &mut |_| {});
    }
    let (follower, outcome) = match filed {
        Some(outcome) => (follower, Some(outcome)),
        None => ctx.endpoint.serve(follower, ctx.timeout),
    };
    ctx.peers = follower.peers;
    ctx.enclave = follower.enclave;
    let phase = match terminator {
        Terminator::Phase3 => "awaiting-leader",
        Terminator::ShardDone => "shard-serve",
    };
    let outcome = outcome.unwrap_or_else(|| Err(ctx.suspect(leader, phase)));
    (ctx, outcome)
}

/// A follower serving one job, without I/O: it takes the leader's frames
/// in sequence order, opens each under the link's next receive counter,
/// answers it and seals the replies into `out`. It owns what that takes,
/// so it can move to the thread that delivers and back. Its one channel is
/// its leader's, whom a heartbeat skips, so silence asks nothing of it.
pub(crate) struct Follower {
    peers: Peers,
    enclave: Enclave<()>,
    node: Arc<GdoNode>,
    id: usize,
    leader: usize,
    terminator: Terminator,
    compact_lr: bool,
    /// The pairs of the moments request read last, kept across messages.
    pairs: Vec<MomentsRequest>,
}

/// A message from the leader to a follower serving a job.
enum FromLeader {
    /// A `MomentsRequest`, read in place into the follower's pairs.
    Pairs,
    /// Any other message.
    Other(ProtocolMessage),
}

impl Handler for Follower {
    type Done = Vec<SnpId>;
    type Error = ProtocolError;

    /// Files a frame, then answers every message of the leader's next in
    /// sequence; the safe set once the terminator is taken. A frame that
    /// does not fit its slot is dropped, as a blocking receive drops it.
    fn on_frame(
        &mut self,
        from: PeerId,
        payload: Vec<u8>,
        out: &mut Vec<Outgoing>,
    ) -> Result<Option<Vec<SnpId>>, ProtocolError> {
        self.peers.ingest(self.id, from, payload);
        self.answer_filed(out)
    }

    fn heard(&self) -> u64 {
        self.peers.heard(self.leader)
    }
}

impl Follower {
    /// Answers every filed message of the leader's next in sequence; a
    /// moments request's pairs are read into `pairs`, building no vector.
    fn answer_filed(
        &mut self,
        out: &mut Vec<Outgoing>,
    ) -> Result<Option<Vec<SnpId>>, ProtocolError> {
        while let Some(buf) = self.peers.next_message(self.id, self.leader) {
            let pairs = &mut self.pairs;
            let msg = self
                .peers
                .decode(self.leader, buf, |bytes| -> Result<_, WireError> {
                    match moments_request_in(bytes)? {
                        Some(read) => {
                            pairs.clear();
                            pairs.extend(read);
                            Ok(FromLeader::Pairs)
                        }
                        None => wire::from_bytes(bytes).map(FromLeader::Other),
                    }
                })?;
            if let Some(safe) = self.answer(msg, out)? {
                return Ok(Some(safe));
            }
        }
        Ok(None)
    }

    /// Answers one message of the job (a moments request's `pairs`); the
    /// safe set once the terminator arrives.
    fn answer(
        &mut self,
        msg: FromLeader,
        out: &mut Vec<Outgoing>,
    ) -> Result<Option<Vec<SnpId>>, ProtocolError> {
        let (node, leader) = (&*self.node, self.leader);
        let full = self.terminator == Terminator::Phase3;
        // Ids and vector lengths are the leader's input: a wrong one is a
        // malformed message, not an index past this member's panel.
        let past_panel = |id: u32| id as usize >= node.columnar().snps();
        let malformed = || ProtocolError::MalformedMessage { member: leader };
        let msg = match msg {
            FromLeader::Pairs => {
                let pairs = &self.pairs;
                if pairs.iter().any(|p| past_panel(p.a) || past_panel(p.b)) {
                    return Err(malformed());
                }
                out.push(self.peers.sealed(leader, |buf| {
                    let reports = pairs
                        .iter()
                        .map(|p| node.ld_moments(SnpId(p.a), SnpId(p.b)));
                    encode_moments(reports, buf);
                }));
                return Ok(None);
            }
            FromLeader::Other(msg) => msg,
        };
        match msg {
            ProtocolMessage::Phase1(_) if full => {
                // Informational: L' arrives before the moments queries.
            }
            ProtocolMessage::Phase2(combo, broadcast) if full => {
                let n = broadcast.retained.len();
                let one_freq_each =
                    broadcast.case_freqs.len() == n && broadcast.ref_freqs.len() == n;
                if !one_freq_each || broadcast.retained.iter().any(|&s| past_panel(s)) {
                    return Err(malformed());
                }
                let snps: Vec<SnpId> = broadcast.retained.iter().map(|&s| SnpId(s)).collect();
                let compact = self.compact_lr;
                let (report, bytes) = self.enclave.enter(|(), epc| {
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
                out.push(self.peers.sealed(leader, |buf| report.encode(buf)));
                self.enclave.enter(|(), epc| epc.free(bytes));
            }
            ProtocolMessage::Phase3(broadcast) if full => {
                return Ok(Some(broadcast.safe.into_iter().map(SnpId).collect()));
            }
            ProtocolMessage::ShardDone if !full => return Ok(Some(Vec::new())),
            msg => return Err(unexpected_from_leader(leader, &msg)),
        }
        Ok(None)
    }
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
    use crate::config::{CollusionMode, FederationConfig};
    use crate::messages::{LrReport, LrReportCompact, MomentsReport};
    use crate::runtime::{build_member, establish_channel, RuntimeOptions};
    use gendpr_crypto::rng::ChaChaRng;
    use gendpr_fednet::fault::FaultPlan;
    use gendpr_fednet::metrics::TrafficStats;
    use gendpr_fednet::transport::{Endpoint, Envelope, NetError, Network};
    use gendpr_genomics::synth::SyntheticCohort;
    use std::sync::OnceLock;
    use std::time::Duration;

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
            GdoNode::new(0, shard()),
        )
        .unwrap();
        let endpoint = network.register(PeerId(1));
        let follower = std::thread::spawn(move || {
            let (mut ctx, node, _) = build_member(
                endpoint,
                1,
                &config,
                &params,
                options,
                GdoNode::new(1, shard()),
            )?;
            establish_channel(&mut ctx, 0)?;
            follower_serve(ctx, &Arc::new(node), 0, Terminator::Phase3).1
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
        // burst, however the threads are scheduled. The terminator then
        // reaches the serving follower on the leader's thread: no wake.
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
            GdoNode::new(0, shard()),
        )
        .unwrap();
        let endpoint = network.register(PeerId(1));
        let (go, gate) = std::sync::mpsc::channel::<()>();
        let follower = std::thread::spawn(move || {
            let (mut ctx, node, _) = build_member(
                endpoint,
                1,
                &config,
                &params,
                options,
                GdoNode::new(1, shard()),
            )?;
            establish_channel(&mut ctx, 0)?;
            gate.recv().expect("the leader queues its requests first");
            follower_serve(ctx, &Arc::new(node), 0, Terminator::Phase3).1
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
        assert_eq!(network.wakes() - before, 1, "the terminator is no wake");
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
            GdoNode::new(0, shard()),
        )
        .unwrap();
        let endpoint = network.register(PeerId(1));
        let follower = std::thread::spawn(move || {
            let (mut ctx, _, counts) = build_member(
                endpoint,
                1,
                &config,
                &params,
                options,
                GdoNode::new(1, shard()),
            )
            .unwrap();
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

    /// How member 2's one lying reply differs from its honest one: which
    /// reply it replaces (0 is its Phase 1 counts), and an offset from the
    /// true value for each size the reply carries, in order: the counts'
    /// length and `n_case`; the moments' length and each one's `n`; an LR
    /// report's declared rows and columns and its buffer's length. `fill`
    /// seeds the values drawn; an odd one also puts a drawn value in a
    /// drawn cell of a dense LR report.
    #[derive(Debug, Clone, Copy)]
    struct Lie {
        reply: usize,
        offsets: [i64; 3],
        fill: u64,
    }

    /// Offsets a size is drawn from: mostly the truth or a step or two
    /// off, sometimes a word's worth, sometimes absurd (a buffer grows by
    /// at most 64 entries; a declared size takes the whole offset).
    const OFFSETS: [i64; 10] = [0, 0, 0, 1, -1, 2, -2, 64, -64, 1 << 40];

    /// `honest` with its sizes moved by `lie.offsets`, a buffer cut short
    /// or padded with arbitrary values, and a dense LR report's cell
    /// overwritten with a value no genotype produces. The content is the
    /// honest one otherwise: a same-size lie about the genotypes themselves
    /// is a different cohort, which no check of the leader could tell apart.
    fn lie_about(honest: &ProtocolMessage, lie: Lie) -> ProtocolMessage {
        let [a, b, c] = lie.offsets;
        let declared = |v: u64, off: i64| (v as i64).saturating_add(off).max(0) as u64;
        let mut rng = ChaChaRng::from_seed_u64(lie.fill);
        fn resized<X: Clone>(v: &[X], off: i64, mut pad: impl FnMut() -> X) -> Vec<X> {
            let len = (v.len() as i64 + off.clamp(-64, 64)).max(0) as usize;
            let mut v = v[..len.min(v.len())].to_vec();
            v.resize_with(len, &mut pad);
            v
        }
        match honest.clone() {
            ProtocolMessage::Counts(r) => ProtocolMessage::Counts(CountsReport {
                counts: resized(&r.counts, a, || rng.next_below(1 << 20)),
                n_case: declared(r.n_case, b),
            }),
            ProtocolMessage::Moments(ms) => {
                let mut ms = resized(&ms, a, || MomentsReport {
                    sum_x: rng.next_below(64),
                    sum_y: rng.next_below(64),
                    sum_xy: rng.next_below(64),
                    sum_xx: rng.next_below(64),
                    sum_yy: rng.next_below(64),
                    n: rng.next_below(64),
                });
                for m in &mut ms {
                    m.n = declared(m.n, b);
                }
                ProtocolMessage::Moments(ms)
            }
            ProtocolMessage::LrCompact(combo, r) => ProtocolMessage::LrCompact(
                combo,
                LrReportCompact {
                    individuals: declared(r.individuals, a),
                    snps: declared(r.snps, b),
                    bits: resized(&r.bits, c, || rng.next_u64()),
                },
            ),
            ProtocolMessage::Lr(combo, r) => {
                let mut values = resized(&r.values, c, || rng.next_f64() - 0.5);
                if lie.fill % 2 == 1 && !values.is_empty() {
                    let cell = rng.next_below(values.len() as u64) as usize;
                    values[cell] = rng.next_f64() - 0.5;
                }
                ProtocolMessage::Lr(
                    combo,
                    LrReport {
                        individuals: declared(r.individuals, a),
                        snps: declared(r.snps, b),
                        values,
                    },
                )
            }
            other => other,
        }
    }

    /// What a job with a lying member came to: the leader's outcome (its
    /// safe set and certificate), the leader enclave's metered peak, the
    /// kinds of member 2's replies in order (the counts, moments, LR
    /// reports: 0, 1, 2) and whether one differed from the honest reply.
    struct LiarRun {
        outcome: Result<(Vec<SnpId>, Option<AssessmentCertificate>), ProtocolError>,
        peak: u64,
        kinds: Vec<usize>,
        lied: bool,
    }

    /// One job over a 40-SNP study with G = 3 and one colluder tolerated
    /// (four subsets), member 0 leading, member 1 serving honestly
    /// (`follower_serve`) and member 2 hand-rolled: it answers as member 1
    /// does, except that its reply number `reply` goes out as `forge` made
    /// it from the honest one, sealed on its channel like any other.
    fn job_with_a_liar(
        compact_lr: bool,
        reply: usize,
        forge: impl Fn(&ProtocolMessage) -> ProtocolMessage + Send + 'static,
    ) -> LiarRun {
        let cohort = SyntheticCohort::builder()
            .snps(40)
            .case_individuals(60)
            .reference_individuals(60)
            .seed(31)
            .build();
        let mut shards = cohort.split_case_among(3).into_iter();
        let reference = cohort.reference().clone();
        let config = FederationConfig::new(3).with_collusion(CollusionMode::Fixed(1));
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions {
            compact_lr,
            ..RuntimeOptions::default()
        };
        let network = Network::new();
        let (mut leader, node, _) = build_member(
            network.register(PeerId(0)),
            0,
            &config,
            &params,
            options,
            GdoNode::new(0, shards.next().unwrap()),
        )
        .unwrap();
        let (endpoint, shard) = (network.register(PeerId(1)), shards.next().unwrap());
        let honest = std::thread::spawn(move || {
            let (mut ctx, node, counts) = build_member(
                endpoint,
                1,
                &config,
                &params,
                options,
                GdoNode::new(1, shard),
            )
            .unwrap();
            establish_channel(&mut ctx, 0).unwrap();
            send_protocol(&mut ctx, 0, &ProtocolMessage::Counts(counts));
            // An abort ends it with an error: the leader's business.
            let _ = follower_serve(ctx, &Arc::new(node), 0, Terminator::Phase3);
        });
        let (endpoint, shard) = (network.register(PeerId(2)), shards.next().unwrap());
        let liar = std::thread::spawn(move || {
            let (mut ctx, node, counts) = build_member(
                endpoint,
                2,
                &config,
                &params,
                options,
                GdoNode::new(2, shard),
            )
            .unwrap();
            establish_channel(&mut ctx, 0).unwrap();
            let (mut kinds, mut lied) = (Vec::new(), false);
            let mut reply = |ctx: &mut MemberCtx<_>, honest: ProtocolMessage| {
                let sent = if kinds.len() == reply {
                    forge(&honest)
                } else {
                    honest.clone()
                };
                lied |= sent != honest;
                kinds.push(match honest {
                    ProtocolMessage::Counts(_) => 0,
                    ProtocolMessage::Moments(_) => 1,
                    _ => 2,
                });
                send_protocol(ctx, 0, &sent);
            };
            reply(&mut ctx, ProtocolMessage::Counts(counts));
            loop {
                let honest = match recv_protocol(&mut ctx, 0, "test") {
                    Ok(ProtocolMessage::MomentsRequest(pairs)) => ProtocolMessage::Moments(
                        pairs
                            .iter()
                            .map(|p| node.ld_moments(SnpId(p.a), SnpId(p.b)))
                            .collect(),
                    ),
                    Ok(ProtocolMessage::Phase2(combo, b)) => {
                        let snps: Vec<SnpId> = b.retained.iter().map(|&s| SnpId(s)).collect();
                        if compact_lr {
                            ProtocolMessage::LrCompact(combo, node.lr_report_compact(&snps))
                        } else {
                            let r = node.lr_report(&snps, &b.case_freqs, &b.ref_freqs);
                            ProtocolMessage::Lr(combo, r)
                        }
                    }
                    Ok(ProtocolMessage::Phase1(_)) => continue,
                    _ => break,
                };
                reply(&mut ctx, honest);
            }
            (kinds, lied)
        });
        establish_channel(&mut leader, 1).unwrap();
        establish_channel(&mut leader, 2).unwrap();
        let outcome = match LeaderSession::collect(&mut leader, &node, &reference, &params) {
            Ok(mut session) => {
                let panel = session.core.whole_panel();
                let job = session.assess(&mut leader, &panel, &[], None, None);
                if let Err(e) = &job {
                    session.abort(&mut leader, e);
                }
                job.map(|a| (a.released, a.certificate))
            }
            Err(e) => {
                for peer in [1, 2] {
                    send_protocol(&mut leader, peer, &ProtocolMessage::Abort(e.to_string()));
                }
                Err(e)
            }
        };
        honest.join().expect("the honest member must not panic");
        let (kinds, lied) = liar.join().expect("the lying member must not panic");
        LiarRun {
            outcome,
            peak: leader.enclave.epc().peak(),
            kinds,
            lied,
        }
    }

    /// The clean run of each format, compact first.
    fn clean_run(compact_lr: bool) -> &'static LiarRun {
        static CLEAN: OnceLock<[LiarRun; 2]> = OnceLock::new();
        let clean = |compact_lr| job_with_a_liar(compact_lr, usize::MAX, ProtocolMessage::clone);
        &CLEAN.get_or_init(|| [clean(true), clean(false)])[usize::from(!compact_lr)]
    }

    #[test]
    fn a_member_counting_past_its_case_count_is_refused() {
        // Member 2 counts 30 more minor alleles at every SNP than it has
        // cases: in the subsets it pairs into, pooled minor counts would
        // pass the pooled case count, which the χ² table refuses with a
        // panic.
        let inflate = |honest: &ProtocolMessage| match honest {
            ProtocolMessage::Counts(r) => ProtocolMessage::Counts(CountsReport {
                counts: vec![r.n_case + 30; r.counts.len()],
                n_case: r.n_case,
            }),
            other => other.clone(),
        };
        for compact_lr in [true, false] {
            match job_with_a_liar(compact_lr, 0, inflate).outcome {
                Err(ProtocolError::MalformedMessage { member: 2 }) => {}
                other => panic!("{:?}", other.map(|(safe, _)| safe)),
            }
        }
    }

    #[test]
    fn a_member_declaring_an_overflowing_case_count_is_refused() {
        // Pooled with the other members' cases and the reference, a case
        // count of u64::MAX overflowed the Phase 1 totals.
        let overflow = |honest: &ProtocolMessage| match honest {
            ProtocolMessage::Counts(r) => ProtocolMessage::Counts(CountsReport {
                counts: r.counts.clone(),
                n_case: u64::MAX,
            }),
            other => other.clone(),
        };
        match job_with_a_liar(true, 0, overflow).outcome {
            Err(ProtocolError::MalformedMessage { member: 2 }) => {}
            other => panic!("{:?}", other.map(|(safe, _)| safe)),
        }
    }

    #[test]
    fn a_dense_value_no_genotype_produces_is_refused() {
        // Member 2's first dense report, the same size as the honest one,
        // with one cell off both of its column's levels (each level is a
        // logarithm of clamped frequency ratios, far below f64::MAX).
        let off_level = |honest: &ProtocolMessage| match honest {
            ProtocolMessage::Lr(combo, r) => {
                let mut r = r.clone();
                r.values[0] = f64::MAX;
                ProtocolMessage::Lr(*combo, r)
            }
            other => other.clone(),
        };
        let first_report = clean_run(false).kinds.iter().position(|&k| k == 2);
        let run = job_with_a_liar(false, first_report.unwrap(), off_level);
        assert!(run.lied);
        match run.outcome {
            Err(ProtocolError::MalformedMessage { member: 2 }) => {}
            other => panic!("{:?}", other.map(|(safe, _)| safe)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A member that lies about the sizes of one reply: the leader
        /// certifies exactly the clean run's result when the reply was the
        /// honest one after all, and otherwise refuses the job with an
        /// error naming that member. It never panics, and its metered EPC
        /// peak never exceeds the clean run's.
        #[test]
        fn a_lying_member_is_named_or_changes_nothing(
            compact_lr in proptest::prelude::any::<bool>(),
            kind_pick in (0usize..3, 0.0f64..1.0),
            offsets in (0usize..10, 0usize..10, 0usize..10),
            fill in proptest::prelude::any::<u64>(),
        ) {
            let (kind, pick) = kind_pick;
            let clean = clean_run(compact_lr);
            proptest::prop_assert!(clean.outcome.is_ok());
            // A reply of the drawn kind: the counts, a moments reply or an
            // LR report.
            let of_kind: Vec<usize> = (0..clean.kinds.len()).filter(|&i| clean.kinds[i] == kind).collect();
            proptest::prop_assert!(!of_kind.is_empty(), "no reply of kind {}", kind);
            let lie = Lie {
                reply: of_kind[(pick * of_kind.len() as f64) as usize],
                offsets: [OFFSETS[offsets.0], OFFSETS[offsets.1], OFFSETS[offsets.2]],
                fill,
            };
            let run = job_with_a_liar(compact_lr, lie.reply, move |honest| lie_about(honest, lie));
            if run.lied {
                match &run.outcome {
                    Err(
                        ProtocolError::MalformedMessage { member: 2 }
                        | ProtocolError::SecurityFailure { member: 2, .. },
                    ) => {}
                    other => proptest::prop_assert!(
                        false,
                        "{:?}: {:?}",
                        lie,
                        other.as_ref().map(|(safe, _)| safe)
                    ),
                }
            } else {
                proptest::prop_assert_eq!(&run.outcome, &clean.outcome, "{:?}", lie);
            }
            proptest::prop_assert!(run.peak <= clean.peak, "{:?}: peak {} > {}", lie, run.peak, clean.peak);
        }
    }

    /// An endpoint behind the default, blocking [`Transport::serve`].
    struct Blocking(Endpoint);

    impl Transport for Blocking {
        fn id(&self) -> PeerId {
            self.0.id()
        }

        fn send(&self, to: PeerId, payload: Vec<u8>, plaintext_len: usize) -> Result<(), NetError> {
            self.0.send(to, payload, plaintext_len)
        }

        fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
            self.0.recv_timeout(timeout)
        }

        fn try_recv(&self) -> Option<Envelope> {
            self.0.try_recv()
        }

        fn set_faults(&self, faults: FaultPlan) {
            self.0.network().set_faults(faults);
        }

        fn link_stats(&self, to: PeerId) -> TrafficStats {
            Transport::link_stats(&self.0, to)
        }

        fn egress_stats(&self) -> TrafficStats {
            Transport::egress_stats(&self.0)
        }

        fn ingress_stats(&self) -> TrafficStats {
            Transport::ingress_stats(&self.0)
        }
    }

    /// Member 0 leading member 1 of 2 over an 8-SNP shard, their channel
    /// up, member 1 over `wrap` of its endpoint; with member 1's node.
    fn attested_pair<T: Transport + 'static>(
        wrap: fn(Endpoint) -> T,
    ) -> (MemberCtx<Endpoint>, MemberCtx<T>, GdoNode) {
        let config = FederationConfig::new(2);
        let params = GwasParams::secure_genome_defaults();
        let options = RuntimeOptions::default();
        let shard = || {
            let mut m = GenotypeMatrix::zeroed(6, 8);
            for (i, j) in (0..6).flat_map(|i| (0..8).map(move |j| (i, j))) {
                m.set(i, j, (i * j + i) % 3 == 0);
            }
            m
        };
        let network = Network::new();
        let (mut leader, ..) = build_member(
            network.register(PeerId(0)),
            0,
            &config,
            &params,
            options,
            GdoNode::new(0, shard()),
        )
        .unwrap();
        let endpoint = network.register(PeerId(1));
        let follower = std::thread::spawn(move || {
            let (mut ctx, node, _) = build_member(
                wrap(endpoint),
                1,
                &config,
                &params,
                options,
                GdoNode::new(1, shard()),
            )
            .unwrap();
            establish_channel(&mut ctx, 0).unwrap();
            (ctx, node)
        });
        establish_channel(&mut leader, 1).unwrap();
        let (follower, node) = follower.join().unwrap();
        (leader, follower, node)
    }

    /// The leader's side of a job, frame by frame (`None` a heartbeat).
    fn script() -> Vec<Option<ProtocolMessage>> {
        let pairs = |ps: &[(u32, u32)]| {
            let pairs = ps.iter().map(|&(a, b)| MomentsRequest { a, b }).collect();
            Some(ProtocolMessage::MomentsRequest(pairs))
        };
        let phase2 = Phase2Broadcast {
            retained: vec![0, 3, 7],
            case_freqs: vec![0.3; 3],
            ref_freqs: vec![0.2; 3],
        };
        vec![
            pairs(&[(0, 1), (2, 3)]),
            None,
            pairs(&[(1, 7)]),
            pairs(&[(4, 5), (5, 6), (6, 7)]),
            None,
            Some(ProtocolMessage::Phase2(0, phase2)),
            Some(ProtocolMessage::Phase3(Phase3Broadcast { safe: vec![7] })),
        ]
    }

    /// The script sealed by `leader` for member 1, in order.
    fn sealed_script(leader: &mut MemberCtx<Endpoint>) -> Vec<Vec<u8>> {
        script()
            .iter()
            .map(|msg| {
                leader
                    .peers
                    .sealed(1, |buf| msg.iter().for_each(|m| m.encode(buf)))
                    .1
            })
            .collect()
    }

    /// A fresh pair's script and member 1's machine for it.
    fn machine() -> (Vec<Vec<u8>>, Follower) {
        let (mut leader, ctx, node) = attested_pair(|e| e);
        let follower = Follower {
            peers: ctx.peers,
            enclave: ctx.enclave,
            node: Arc::new(node),
            id: 1,
            leader: 0,
            terminator: Terminator::Phase3,
            compact_lr: false,
            pairs: Vec::new(),
        };
        (sealed_script(&mut leader), follower)
    }

    /// Member 1's replies to the whole script through the blocking driver
    /// (`follower_serve` over [`Blocking`]), as the leader received them.
    fn blocking_replies() -> &'static [Vec<u8>] {
        static REPLIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        REPLIES.get_or_init(|| {
            let (mut leader, ctx, node) = attested_pair(Blocking);
            for frame in sealed_script(&mut leader) {
                leader.endpoint.send(PeerId(1), frame, 0).unwrap();
            }
            let (_, safe) = follower_serve(ctx, &Arc::new(node), 0, Terminator::Phase3);
            assert_eq!(safe.unwrap(), vec![SnpId(7)]);
            std::iter::from_fn(|| leader.endpoint.try_recv())
                .map(|env| env.payload)
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A follower's machine handed genuine frames in any order, with
        /// replays, forgeries (a flipped ciphertext byte, a restamped
        /// sequence number, junk), truncations and frames from outside
        /// its link mixed in: it never panics or fails, and its replies
        /// are always what the blocking driver sends for the honest
        /// sequence, up to the longest run of genuine frames that has
        /// arrived from the first — it answers only what opens under the
        /// link's next counter, and all of that at once. Once every
        /// genuine frame has arrived it reports the terminator's safe set.
        #[test]
        fn the_follower_machine_answers_only_what_opens_in_sequence(
            events in proptest::collection::vec(
                (0u8..6, proptest::prelude::any::<proptest::sample::Index>(), proptest::prelude::any::<u8>()),
                0..24,
            ),
        ) {
            let honest = blocking_replies();
            let (genuine, mut follower) = machine();
            let n = genuine.len();
            // Replies owed once the first k genuine frames have arrived.
            let owed: Vec<usize> = std::iter::once(0)
                .chain(script().iter().scan(0, |owed, msg| {
                    let request = matches!(
                        msg,
                        Some(ProtocolMessage::MomentsRequest(_) | ProtocolMessage::Phase2(..))
                    );
                    *owed += usize::from(request);
                    Some(*owed)
                }))
                .collect();
            // Each frame, from whom, and which genuine frame it is, if any
            // (the handshake took sequence number 0).
            let mut hostile: Vec<(PeerId, Vec<u8>, Option<usize>)> = events
                .iter()
                .map(|&(kind, index, byte)| {
                    let i = index.index(n);
                    let mut frame = genuine[i].clone();
                    let (mut from, mut is) = (PeerId(0), None);
                    match kind {
                        0 => is = Some(i),
                        1 => {
                            let at = 25 + usize::from(byte) % (frame.len() - 25);
                            frame[at] ^= 0x40;
                        }
                        2 => frame.truncate(usize::from(byte) % frame.len()),
                        3 => {
                            let seq = usize::from(byte % 8);
                            frame[8..16].copy_from_slice(&(seq as u64).to_le_bytes());
                            is = (seq == i + 1).then_some(i);
                        }
                        4 => from = PeerId(if byte % 2 == 0 { 1 } else { 9 }),
                        _ => frame = vec![byte; usize::from(byte)],
                    }
                    (from, frame, is)
                })
                .collect();
            hostile.extend(genuine.iter().enumerate().map(|(i, f)| (PeerId(0), f.clone(), Some(i))));
            let mut arrived = vec![false; n];
            let mut sent = Vec::new();
            let mut outcome = None;
            for (from, frame, is) in hostile {
                if let Some(i) = is {
                    arrived[i] = true;
                }
                let mut out = Vec::new();
                let step = follower.on_frame(from, frame, &mut out);
                sent.extend(out.into_iter().map(|(to, bytes, _)| {
                    assert_eq!(to, PeerId(0));
                    bytes
                }));
                let run = arrived.iter().take_while(|&&a| a).count();
                proptest::prop_assert_eq!(&sent[..], &honest[..owed[run]]);
                match step {
                    Ok(None) => {}
                    Ok(Some(safe)) => {
                        outcome = Some(safe);
                        break;
                    }
                    Err(e) => proptest::prop_assert!(false, "{e}"),
                }
            }
            proptest::prop_assert_eq!(outcome, Some(vec![SnpId(7)]));
            proptest::prop_assert_eq!(&sent[..], honest);
        }
    }
}
