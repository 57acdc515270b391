//! Phase 3: LR-test analysis (Algorithm 1 lines 60–69, Figure 4).
//!
//! The leader merges the members' LR matrices with its own, builds the
//! null model from the reference individuals, and runs SecureGenome's
//! empirical subset search over the χ²-ranked candidates.

use gendpr_genomics::snp::SnpId;
#[cfg(test)]
use gendpr_stats::lr::LrMatrix;
use gendpr_stats::lr::{select_safe_subset, LrTestParams, LrValues};
use gendpr_stats::ranking::{sort_most_significant_first, SnpRank};
use std::collections::HashMap;

/// The LR subset search the leader runs. There is one: the enum and its
/// one variant stay only because `benchmark/src/probes.rs` links them
/// through [`run_lr_test_threads`]; they go with that signature (ROADMAP
/// item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionKernel {
    /// [`select_safe_subset`], the one search.
    #[default]
    Fast,
}

/// The paper's admission order as column indices: `ranks` (one per
/// candidate) most significant first, each mapped to its candidate's
/// position in `candidates` plus `offset` — the width of the forced
/// prefix the candidates' columns sit behind, `0` when there is none.
///
/// # Panics
///
/// Panics if a rank names a SNP outside `candidates`.
pub(crate) fn admission_order(
    candidates: &[SnpId],
    ranks: Vec<SnpRank>,
    offset: usize,
) -> Vec<usize> {
    let col_of: HashMap<SnpId, usize> = candidates
        .iter()
        .enumerate()
        .map(|(j, &s)| (s, offset + j))
        .collect();
    sort_most_significant_first(ranks)
        .iter()
        .map(|r| {
            *col_of
                .get(&r.snp)
                .expect("rank refers to a SNP outside the candidate set")
        })
        .collect()
}

/// Runs the LR-test over the merged case matrix and the reference null
/// matrix. `candidates[j]` names the SNP behind column `j` of both
/// matrices; `ranks` carries each candidate's χ² p-value.
///
/// Returns `L_safe` in panel order.
///
/// # Panics
///
/// Panics if `ranks` does not cover exactly the candidate set or the
/// matrices disagree with `candidates` in width.
#[must_use]
pub fn run_lr_test<M: LrValues + ?Sized, N: LrValues + ?Sized>(
    candidates: &[SnpId],
    case_matrix: &M,
    null_matrix: &N,
    ranks: &[SnpRank],
    params: &LrTestParams,
) -> Vec<SnpId> {
    run_lr_test_threads(
        candidates,
        case_matrix,
        null_matrix,
        ranks,
        params,
        SelectionKernel::Fast,
        1,
    )
}

/// [`run_lr_test`] under the seven-argument signature
/// `benchmark/src/probes.rs` links (ROADMAP item 2).
///
/// `kernel` and `threads` are accepted and **ignored**: there is one
/// serial search (the row-chunked pool `threads` used to size measured
/// 8–9× slower and is gone). Both arguments go when that probe does.
///
/// # Panics
///
/// Same conditions as [`run_lr_test`].
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_lr_test_threads<M: LrValues + ?Sized, N: LrValues + ?Sized>(
    candidates: &[SnpId],
    case_matrix: &M,
    null_matrix: &N,
    ranks: &[SnpRank],
    params: &LrTestParams,
    _kernel: SelectionKernel,
    _threads: usize,
) -> Vec<SnpId> {
    assert_eq!(
        case_matrix.snps(),
        candidates.len(),
        "case matrix width must match candidates"
    );
    assert_eq!(
        null_matrix.snps(),
        candidates.len(),
        "null matrix width must match candidates"
    );
    assert_eq!(ranks.len(), candidates.len(), "one rank per candidate");
    let order = admission_order(candidates, ranks.to_vec(), 0);
    let selection = select_safe_subset(case_matrix, null_matrix, &[], &order, params);
    let mut safe: Vec<SnpId> = selection
        .kept_columns
        .iter()
        .map(|&j| candidates[j])
        .collect();
    safe.sort_unstable();
    safe
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendpr_crypto::rng::ChaChaRng;
    use gendpr_genomics::genotype::GenotypeMatrix;

    /// Builds case/null genotypes where the first `hot` SNPs diverge.
    fn build(
        hot: usize,
        cold: usize,
        gap: f64,
        n: usize,
    ) -> (Vec<SnpId>, LrMatrix, LrMatrix, Vec<SnpRank>) {
        let total = hot + cold;
        let mut rng = ChaChaRng::from_seed_u64(11);
        let mut case = GenotypeMatrix::zeroed(n, total);
        let mut refm = GenotypeMatrix::zeroed(n, total);
        for j in 0..total {
            let p = 0.3;
            let q = if j < hot { p + gap } else { p };
            for i in 0..n {
                if rng.next_bool(q) {
                    case.set(i, j, true);
                }
                if rng.next_bool(p) {
                    refm.set(i, j, true);
                }
            }
        }
        let ids: Vec<SnpId> = (0..total as u32).map(SnpId).collect();
        let cf: Vec<f64> = case
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n as f64)
            .collect();
        let rf: Vec<f64> = refm
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n as f64)
            .collect();
        let case_m = LrMatrix::from_genotypes(&case, &ids, &cf, &rf);
        let null_m = LrMatrix::from_genotypes(&refm, &ids, &cf, &rf);
        let ranks = gendpr_stats::ranking::rank_by_association(
            &ids,
            &case.column_counts(),
            n as u64,
            &refm.column_counts(),
            n as u64,
        );
        (ids, case_m, null_m, ranks)
    }

    #[test]
    fn neutral_snps_all_safe() {
        let (ids, case_m, null_m, ranks) = build(0, 25, 0.0, 300);
        let safe = run_lr_test(
            &ids,
            &case_m,
            &null_m,
            &ranks,
            &LrTestParams::secure_genome_defaults(),
        );
        assert_eq!(safe.len(), 25);
    }

    #[test]
    fn divergent_snps_partially_rejected() {
        let (ids, case_m, null_m, ranks) = build(40, 0, 0.35, 400);
        let safe = run_lr_test(
            &ids,
            &case_m,
            &null_m,
            &ranks,
            &LrTestParams::secure_genome_defaults(),
        );
        assert!(safe.len() < 40, "kept {} of 40", safe.len());
        assert!(!safe.is_empty());
        // Output is sorted by id.
        assert!(safe.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn admission_order_equals_the_position_scan_it_replaced() {
        // 500 shuffled candidates, p-values drawn from 20 levels so ties
        // (broken by SNP id) are everywhere, behind a forced prefix.
        let mut rng = ChaChaRng::from_seed_u64(29);
        let mut candidates: Vec<SnpId> = (0..500).map(SnpId).collect();
        rng.shuffle(&mut candidates);
        let ranks: Vec<SnpRank> = candidates
            .iter()
            .map(|&snp| SnpRank {
                snp,
                p_value: rng.next_below(20) as f64 / 20.0,
            })
            .collect();
        let offset = 7;
        let by_position: Vec<usize> = sort_most_significant_first(ranks.clone())
            .iter()
            .map(|r| offset + candidates.iter().position(|&s| s == r.snp).unwrap())
            .collect();
        assert_eq!(admission_order(&candidates, ranks, offset), by_position);
    }

    #[test]
    #[should_panic(expected = "one rank per candidate")]
    fn rank_count_must_match() {
        let (ids, case_m, null_m, mut ranks) = build(0, 5, 0.0, 50);
        ranks.pop();
        let _ = run_lr_test(
            &ids,
            &case_m,
            &null_m,
            &ranks,
            &LrTestParams::secure_genome_defaults(),
        );
    }
}
