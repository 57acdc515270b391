//! Algorithm 1 over one pool of members, for the in-process drivers.
//!
//! A [`Pool`] is a subset of [`GdoNode`]s pooled with the SNP-major
//! reference panel: every statistic a phase decides on is the members'
//! local aggregates plus the reference's, what the leader enclave would
//! hold for that subset. `Federation::run` pools each collusion subset,
//! the naïve baseline each member alone, the dynamic assessor the
//! cumulative cases — the drivers differ only in *which* genomes they pool.

use crate::gdo::GdoNode;
use crate::messages::CountsReport;
use crate::phases::ld::run_ld_scan;
use crate::phases::lrtest::{select_sorted, SelectionKernel};
use crate::phases::maf::{run_maf, MafOutcome};
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::{LrColumns, LrTestParams};
use gendpr_stats::ranking::SnpRank;

/// Members pooled with the reference panel.
pub(crate) struct Pool<'a> {
    members: Vec<&'a GdoNode>,
    reference: &'a ColumnarGenotypes,
    /// Phase 1 over the pooled counts; later phases read its frequencies.
    pub(crate) maf: MafOutcome,
    ranks: Vec<SnpRank>,
}

impl<'a> Pool<'a> {
    /// The MAF phase over the members' count reports and `ref_counts`
    /// (the reference's per-SNP counts), then the χ² ranking of the panel.
    pub(crate) fn new(
        members: Vec<&'a GdoNode>,
        reference: &'a ColumnarGenotypes,
        ref_counts: &[u64],
        maf_cutoff: f64,
    ) -> Self {
        let reports: Vec<CountsReport> = members.iter().map(|m| m.counts_report()).collect();
        let n_ref = reference.individuals() as u64;
        let maf = run_maf(&reports, ref_counts.to_vec(), n_ref, maf_cutoff);
        let ranks = maf.ranks();
        Self {
            members,
            reference,
            maf,
            ranks,
        }
    }

    /// Phase 2 over `l_prime`: a pair's moments are the reference's plus
    /// every member's.
    pub(crate) fn ld_scan(&self, l_prime: &[SnpId], ld_cutoff: f64) -> Vec<SnpId> {
        let ref_counts = &self.maf.ref_counts;
        run_ld_scan(
            l_prime,
            |a, b| {
                let reference = LdMoments::from_counts(
                    ref_counts[a.index()],
                    ref_counts[b.index()],
                    self.reference.pair_count(a, b),
                    self.maf.n_ref,
                );
                self.members.iter().fold(reference, |pooled, m| {
                    pooled.merge(LdMoments::from(m.ld_moments(a, b)))
                })
            },
            |s| self.ranks[s.index()].p_value,
            ld_cutoff,
        )
    }

    /// Phase 3 over `forced` ∪ `candidates`: the members' columns stitched
    /// into one case matrix, the reference's as the null, `forced` charged
    /// first. Returns the admitted candidates in panel order.
    pub(crate) fn lr_select(
        &self,
        forced: &[SnpId],
        candidates: &[SnpId],
        lr: &LrTestParams,
        kernel: SelectionKernel,
    ) -> Vec<SnpId> {
        let columns: Vec<SnpId> = forced.iter().chain(candidates).copied().collect();
        let freqs = |f: fn(&MafOutcome, SnpId) -> f64| -> Vec<f64> {
            columns.iter().map(|&s| f(&self.maf, s)).collect()
        };
        let (case_freqs, ref_freqs) = (
            freqs(MafOutcome::case_frequency),
            freqs(MafOutcome::ref_frequency),
        );
        let shards: Vec<&ColumnarGenotypes> = self.members.iter().map(|m| m.columnar()).collect();
        let case = LrColumns::from_columnar_parts(&shards, &columns, &case_freqs, &ref_freqs);
        let null = LrColumns::from_columnar(self.reference, &columns, &case_freqs, &ref_freqs);
        let ranks = candidates.iter().map(|&s| self.ranks[s.index()]).collect();
        select_sorted(&columns, forced.len(), &case, &null, ranks, lr, kernel)
    }
}
