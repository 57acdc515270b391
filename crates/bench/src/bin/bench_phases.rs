//! Measures the pooled LD-moment evaluation — the kernel the collusion
//! loop hammers hardest — before and after the columnar + memoization
//! rework, and emits machine-readable `BENCH_phases.json`.
//!
//! The "before" path is the pre-rework kernel exactly: row-major
//! `pair_count` scans (strided one word per individual) re-pooled from
//! scratch for every member combination. The "after" path is what
//! [`gendpr_core::gdo::GdoNode`] and the protocol driver now do: SNP-major
//! columnar popcount sweeps, the members' recomputed for every combination
//! (their columns are short; a memo in front of them measured slower) and
//! the reference panel's memoized (one long column pair, asked once per
//! combination: at the paper's scale the memo is worth 13–35 ms of this
//! row, so it stays here although the drivers, where it did not show,
//! compute directly). Building the columnar views and warming the memo are
//! *included* in the timed region. Both paths fold the pooled moments into
//! a checksum that must agree, so the comparison cannot drift semantically.
//!
//! The same report carries the LR subset search before/after, the
//! `lr_sweep` row (is the sweeps' level select a blend or load, or a jump,
//! in this build?), a full protocol phase breakdown, the chromosome-scale
//! workloads and the SNP-shard sweep. `synth_ms` under `workload` and
//! `chromosome_100k` times the two cohort builds, the one-run setup cost
//! of every paper-scale experiment.
//!
//! Scale defaults to the paper's Table 5 setting — 14,860 case genomes ×
//! 10,000 SNPs, G = 5, f = 2 (11 combinations) — shrink with
//! `--scale <f>` for CI. `--out <path>` writes the JSON (default
//! `BENCH_phases.json`).

use gendpr_bench::workload::paper_cohort;
use gendpr_bench::PAPER_CASES_FULL;
use gendpr_core::collusion::evaluation_subsets;
use gendpr_core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr_core::gdo::GdoNode;
use gendpr_core::memo::MomentMemo;
use gendpr_core::protocol::Federation;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::snp::SnpId;
use gendpr_service::ShardPlan;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::{select_safe_subset, select_safe_subset_naive, LrColumns, LrMatrix};
use gendpr_stats::ranking::{rank_by_association, sort_most_significant_first};
use std::hint::black_box;
use std::time::{Duration, Instant};

const G: usize = 5;
const F: usize = 2;

/// Shape of the `lr_sweep` row: a reference panel the size of the repo
/// benchmark's `assess-lr` null model, enough columns to outrun a branch
/// predictor's history.
const SWEEP_INDIVIDUALS: usize = 1_630;
const SWEEP_COLUMNS: usize = 2_000;

/// SplitMix64 step: cheap deterministic words for the synthetic packed
/// matrices (quality is irrelevant here, width is).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn checksum(acc: u64, m: LdMoments) -> u64 {
    acc.rotate_left(7)
        ^ m.sum_x
        ^ m.sum_y.rotate_left(13)
        ^ m.sum_xy.rotate_left(26)
        ^ m.n.rotate_left(39)
}

fn main() {
    let mut scale = 1.0f64;
    let mut out = String::from("BENCH_phases.json");
    let mut shard_sweep: Vec<u32> = vec![1, 2, 4, 8];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number in (0, 1]");
                assert!(scale > 0.0 && scale <= 1.0, "--scale must be in (0, 1]");
            }
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a path").clone();
            }
            "--shards" => {
                i += 1;
                shard_sweep = args
                    .get(i)
                    .expect("--shards needs a comma-separated list")
                    .split(',')
                    .map(|s| s.parse().expect("--shards entries must be integers"))
                    .collect();
                assert!(!shard_sweep.is_empty(), "--shards list is empty");
            }
            other => {
                panic!("unknown argument {other}; use --scale <f> | --out <path> | --shards S,...")
            }
        }
        i += 1;
    }
    let scaled = |v: usize| ((v as f64 * scale).round() as usize).max(1);
    let genomes = scaled(PAPER_CASES_FULL);
    let snps = scaled(10_000);

    eprintln!("generating cohort: {genomes} case genomes x {snps} SNPs (G = {G}, f = {F})…");
    let t = Instant::now();
    let cohort = paper_cohort(genomes, snps);
    let synth = t.elapsed();
    let reference = cohort.reference();
    let shards = cohort.split_case_among(G);
    let subsets = evaluation_subsets(G, CollusionMode::Fixed(F));
    // The LD scan queries (mostly adjacent) pairs of the retained panel;
    // adjacent pairs over the full panel are a faithful stand-in.
    let pairs: Vec<(SnpId, SnpId)> = (0..snps.saturating_sub(1) as u32)
        .map(|i| (SnpId(i), SnpId(i + 1)))
        .collect();

    // ---- Before: row-major scans, recomputed per combination ----
    // (Marginal counts are precomputed outside the timer, as the old
    // protocol did via the pre-processing reports.)
    let ref_counts = reference.column_counts();
    let n_ref = reference.individuals() as u64;
    let shard_counts: Vec<Vec<u64>> = shards.iter().map(|s| s.column_counts()).collect();
    eprintln!(
        "timing row-major kernels ({} combinations x {} pairs)…",
        subsets.len(),
        pairs.len()
    );
    let t = Instant::now();
    let mut sum_before = 0u64;
    for subset in &subsets {
        for &(a, b) in &pairs {
            let mut pooled = LdMoments::from_counts(
                ref_counts[a.index()],
                ref_counts[b.index()],
                reference.pair_count(a, b),
                n_ref,
            );
            for &m in subset {
                pooled = pooled.merge(LdMoments::from_counts(
                    shard_counts[m][a.index()],
                    shard_counts[m][b.index()],
                    shards[m].pair_count(a, b),
                    shards[m].individuals() as u64,
                ));
            }
            sum_before = checksum(sum_before, pooled);
        }
    }
    let before = t.elapsed();

    // ---- After: columnar popcount sweeps + memoized reference moments ----
    // (Transposing the shards and warming the memo is part of the timed
    // region — this is the full cost a fresh federation pays.)
    eprintln!("timing columnar kernels (reference moments memoized)…");
    let t = Instant::now();
    let nodes: Vec<GdoNode> = shards
        .iter()
        .enumerate()
        .map(|(id, s)| GdoNode::new(id, s.clone()))
        .collect();
    let ref_columnar = ColumnarGenotypes::from_matrix(reference);
    let ref_memo = MomentMemo::new();
    let mut sum_after = 0u64;
    for subset in &subsets {
        for &(a, b) in &pairs {
            let mut pooled = ref_memo.get_or_compute(a, b, || {
                LdMoments::from_counts(
                    ref_counts[a.index()],
                    ref_counts[b.index()],
                    ref_columnar.pair_count(a, b),
                    n_ref,
                )
            });
            for &m in subset {
                pooled = pooled.merge(LdMoments::from(nodes[m].ld_moments(a, b)));
            }
            sum_after = checksum(sum_after, pooled);
        }
    }
    let after = t.elapsed();
    assert_eq!(
        sum_before, sum_after,
        "kernel rework changed the pooled moments"
    );

    // ---- LR subset search: naive dense vs columnar kernels ----
    // One combination (the full pooled roster) over the whole panel. The
    // "before" path is the retained scalar reference verbatim: a dense
    // per-cell matrix for each population plus per-scalar add/back-out
    // sweeps. The "after" path is the production route: bit-packed
    // SNP-major gathers and word-sweep kernels. Both include their
    // matrix construction in the timed region, and the selections must be
    // identical — the comparison doubles as a checksum gate.
    let case_all = cohort.case();
    let n_case_all = case_all.individuals() as u64;
    let case_counts_all = case_all.column_counts();
    let ids: Vec<SnpId> = (0..snps as u32).map(SnpId).collect();
    let cf: Vec<f64> = case_counts_all
        .iter()
        .map(|&c| c as f64 / n_case_all.max(1) as f64)
        .collect();
    let rf: Vec<f64> = ref_counts
        .iter()
        .map(|&c| c as f64 / n_ref.max(1) as f64)
        .collect();
    let ranks = rank_by_association(&ids, &case_counts_all, n_case_all, &ref_counts, n_ref);
    let order: Vec<usize> = sort_most_significant_first(ranks)
        .iter()
        .map(|r| r.snp.index())
        .collect();
    let params = GwasParams::secure_genome_defaults();

    eprintln!("timing naive dense LR search ({} candidates)…", order.len());
    let t = Instant::now();
    let naive_selection = {
        let case_matrix = LrMatrix::from_genotypes(case_all, &ids, &cf, &rf);
        let null_matrix = LrMatrix::from_genotypes(reference, &ids, &cf, &rf);
        select_safe_subset_naive(&case_matrix, &null_matrix, &[], &order, &params.lr)
    };
    let lr_naive = t.elapsed();

    eprintln!("timing columnar LR search…");
    let t = Instant::now();
    let (case_cols, null_cols) = {
        let case_view = ColumnarGenotypes::from_matrix(case_all);
        let null_view = ColumnarGenotypes::from_matrix(reference);
        (
            LrColumns::from_columnar(&case_view, &ids, &cf, &rf),
            LrColumns::from_columnar(&null_view, &ids, &cf, &rf),
        )
    };
    let columnar_selection = select_safe_subset(&case_cols, &null_cols, &[], &order, &params.lr);
    let lr_columnar = t.elapsed();
    assert_eq!(
        naive_selection, columnar_selection,
        "columnar kernels changed the LR selection"
    );

    drop((case_cols, null_cols));

    // ---- Full protocol phase breakdown at the same scale ----
    eprintln!("running the full three-phase protocol for the phase breakdown…");
    let config = FederationConfig::new(G).with_collusion(CollusionMode::Fixed(F));
    let protocol = Federation::new(config, params, &cohort)
        .run()
        .expect("protocol completes");

    // ---- Chromosome-scale workloads ----
    // (a) A full three-phase run at chromosome width: 10x the panel of the
    // paper's Table 5 setting, same populations.
    let chrom_snps = scaled(100_000);
    eprintln!("chromosome workload: full run at {genomes} x {chrom_snps}…");
    let t = Instant::now();
    let chrom_cohort = paper_cohort(genomes, chrom_snps);
    let chrom_synth = t.elapsed();
    let chrom = Federation::new(config, params, &chrom_cohort)
        .run()
        .expect("chromosome-scale protocol completes");

    // ---- SNP-sharded phase 1-2 sweep at chromosome width ----
    // `gendpr serve --shards S` splits the panel into word-aligned ranges,
    // each assessed by its own sub-federation, and the merge recombines
    // per-shard counts and LD moments by coordinate translation. This
    // sweep runs the same split over the phase 1-2 kernels: each shard
    // thread slices its column range, computes the per-SNP counts (the MAF
    // screen's input) and the within-shard adjacent-pair LD moments; the
    // merge concatenates counts and stitches boundary pairs from the
    // primary view, exactly as the shard-merge oracle does. Every shard
    // count must reproduce the unsharded checksum bit for bit.
    let shard_case = chrom_cohort.case();
    let n_chrom = shard_case.individuals() as u64;
    let chrom_truth = shard_case.column_counts();
    let chrom_columnar = ColumnarGenotypes::from_matrix(shard_case);
    let fold = |counts: &[u64], moments: &[LdMoments]| -> u64 {
        let acc = counts.iter().fold(0u64, |acc, &c| acc.rotate_left(3) ^ c);
        moments.iter().fold(acc, |acc, &m| checksum(acc, m))
    };
    let mut shard_rows: Vec<(u32, usize, Duration)> = Vec::new();
    let mut shard_truth_sum: Option<u64> = None;
    for &s in &shard_sweep {
        let plan = ShardPlan::new(chrom_snps, s);
        eprintln!(
            "shard sweep: phase 1-2 kernels, --shards {s} ({} shard lanes)…",
            plan.len()
        );
        let t = Instant::now();
        let per_shard: Vec<(usize, Vec<u64>, Vec<LdMoments>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .ranges()
                .iter()
                .map(|range| {
                    let cohort = &chrom_cohort;
                    scope.spawn(move || {
                        let slice = cohort
                            .as_ref()
                            .column_range(range.start as usize, range.len as usize);
                        let case = slice.case();
                        let counts = case.column_counts();
                        let view = ColumnarGenotypes::from_matrix(case);
                        let n = case.individuals() as u64;
                        let moments: Vec<LdMoments> = (1..range.len as usize)
                            .map(|i| {
                                LdMoments::from_counts(
                                    counts[i - 1],
                                    counts[i],
                                    view.pair_count(SnpId(i as u32 - 1), SnpId(i as u32)),
                                    n,
                                )
                            })
                            .collect();
                        (range.start as usize, counts, moments)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread completes"))
                .collect()
        });
        // Merge: concatenate translated counts, stitch the cross-shard
        // boundary pairs from the primary (unsliced) view.
        let mut merged_counts = Vec::with_capacity(chrom_snps);
        let mut merged_moments = Vec::with_capacity(chrom_snps.saturating_sub(1));
        for (start, counts, moments) in &per_shard {
            if *start > 0 {
                let b = *start as u32;
                merged_moments.push(LdMoments::from_counts(
                    chrom_truth[*start - 1],
                    chrom_truth[*start],
                    chrom_columnar.pair_count(SnpId(b - 1), SnpId(b)),
                    n_chrom,
                ));
            }
            merged_counts.extend_from_slice(counts);
            merged_moments.extend_from_slice(moments);
        }
        let elapsed = t.elapsed();
        assert_eq!(merged_counts, chrom_truth, "sharding changed the counts");
        let sum = fold(&merged_counts, &merged_moments);
        match shard_truth_sum {
            None => shard_truth_sum = Some(sum),
            Some(truth) => assert_eq!(sum, truth, "--shards {s} changed the merged moments"),
        }
        shard_rows.push((s, plan.len(), elapsed));
    }
    drop(chrom_columnar);
    drop(chrom_cohort);

    // (b) The LR phase alone at 1M SNPs: synthetic row-major indicator
    // words, as compact reports carry them (the screens would never pass a
    // million candidates, but the kernels must sustain the width), decoded
    // to columns and swept in admission order.
    let mega_snps = scaled(1_000_000);
    let mega_individuals = scaled(2_000);
    eprintln!("chromosome workload: LR-only sweep at {mega_individuals} x {mega_snps}…");
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let words_per_row = mega_snps.div_ceil(64);
    let tail_mask = if mega_snps % 64 == 0 {
        u64::MAX
    } else {
        (1u64 << (mega_snps % 64)) - 1
    };
    let packed = |rng: &mut u64| -> Vec<u64> {
        let mut bits: Vec<u64> = (0..mega_individuals * words_per_row)
            .map(|_| splitmix(rng))
            .collect();
        for row in bits.chunks_mut(words_per_row) {
            row[words_per_row - 1] &= tail_mask;
        }
        bits
    };
    let case_bits = packed(&mut rng);
    let null_bits = packed(&mut rng);
    let mega_cf: Vec<f64> = (0..mega_snps)
        .map(|_| 0.1 + (splitmix(&mut rng) % 1000) as f64 / 1250.0)
        .collect();
    let mega_rf: Vec<f64> = (0..mega_snps)
        .map(|_| 0.1 + (splitmix(&mut rng) % 1000) as f64 / 1250.0)
        .collect();
    let mega_order: Vec<usize> = (0..mega_snps).collect();
    let t = Instant::now();
    let mega_columns = |bits: &[u64]| {
        LrColumns::from_row_bits(mega_individuals, mega_snps, bits, &mega_cf, &mega_rf)
            .expect("well-formed packed matrix")
    };
    let mega_cols = (mega_columns(&case_bits), mega_columns(&null_bits));
    let mega_selection =
        select_safe_subset(&mega_cols.0, &mega_cols.1, &[], &mega_order, &params.lr);
    let mega_lr = t.elapsed();
    drop(mega_cols);
    eprintln!(
        "LR-only sweep kept {} of {} candidates in {:.1} s",
        mega_selection.kept_columns.len(),
        mega_snps,
        mega_lr.as_secs_f64()
    );

    // ---- Sweep kernel: is the level select a jump? ----
    // The sweeps add one of two levels per individual, chosen by a genotype
    // bit. Compiled to a conditional jump, the sweep is fast only while the
    // predictor has seen the column before; compiled to a blend (the AVX2
    // sweep) or an indexed load (the scalar fallback) it costs the same on
    // any column. So: a search with no candidates, only the forced columns
    // it accumulates (one null sweep per column, a one-row case side, one
    // quantile), over one column repeated `SWEEP_COLUMNS` times against as
    // many distinct columns visited once. Fixed shape, independent of
    // --scale.
    eprintln!("timing the LR sweep on repeated vs distinct columns…");
    let sweep_bits: Vec<u64> = (0..SWEEP_INDIVIDUALS * SWEEP_COLUMNS.div_ceil(64))
        .map(|_| splitmix(&mut rng))
        .collect();
    let (sweep_cf, sweep_rf) = (vec![0.3; SWEEP_COLUMNS], vec![0.2; SWEEP_COLUMNS]);
    let sweep_columns = |individuals: usize, bits: &[u64]| {
        LrColumns::from_row_bits(individuals, SWEEP_COLUMNS, bits, &sweep_cf, &sweep_rf)
            .expect("well-formed sweep matrix")
    };
    let sweep_null = sweep_columns(SWEEP_INDIVIDUALS, &sweep_bits);
    let sweep_case = sweep_columns(1, &vec![0; SWEEP_COLUMNS.div_ceil(64)]);
    let sweep = |forced: &[usize]| {
        let t = Instant::now();
        black_box(select_safe_subset(
            &sweep_case,
            &sweep_null,
            black_box(forced),
            &[],
            &params.lr,
        ));
        t.elapsed()
    };
    // Best of five each, interleaved so a slow spell of the host falls on
    // both sides of the ratio.
    let (repeated, distinct) = (
        vec![0; SWEEP_COLUMNS],
        (0..SWEEP_COLUMNS).collect::<Vec<_>>(),
    );
    let (mut best_repeated, mut best_distinct) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        best_repeated = best_repeated.min(sweep(&repeated));
        best_distinct = best_distinct.min(sweep(&distinct));
    }
    let ns_per_individual =
        |d: Duration| d.as_secs_f64() * 1e9 / (SWEEP_INDIVIDUALS * SWEEP_COLUMNS) as f64;
    let sweep_repeated = ns_per_individual(best_repeated);
    let sweep_distinct = ns_per_individual(best_distinct);
    let branch_free = sweep_distinct <= 1.5 * sweep_repeated;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let speedup = before.as_secs_f64() / after.as_secs_f64().max(1e-9);
    let lr_speedup = lr_naive.as_secs_f64() / lr_columnar.as_secs_f64().max(1e-9);
    let shard_json = shard_rows
        .iter()
        .map(|(s, lanes, d)| {
            format!(
                "      {{ \"shards\": {s}, \"lanes\": {lanes}, \"phase12_ms\": {:.3} }}",
                ms(*d)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"workload\": {{\n    \"case_genomes\": {genomes},\n    \"snps\": {snps},\n    \"gdos\": {G},\n    \"colluders\": {F},\n    \"combinations\": {},\n    \"pairs\": {},\n    \"scale\": {scale},\n    \"synth_ms\": {:.3}\n  }},\n  \"pooled_ld_moments\": {{\n    \"row_major_ms\": {:.3},\n    \"columnar_memo_ms\": {:.3},\n    \"speedup\": {:.2}\n  }},\n  \"lr_subset_search\": {{\n    \"candidates\": {},\n    \"naive_dense_ms\": {:.3},\n    \"columnar_ms\": {:.3},\n    \"speedup\": {:.2},\n    \"selection_identical\": true\n  }},\n  \"lr_sweep\": {{\n    \"individuals\": {SWEEP_INDIVIDUALS},\n    \"columns\": {SWEEP_COLUMNS},\n    \"repeated_column_ns_per_individual\": {sweep_repeated:.3},\n    \"distinct_columns_ns_per_individual\": {sweep_distinct:.3},\n    \"branch_free\": {branch_free}\n  }},\n  \"protocol_phases_ms\": {{\n    \"threads\": 1,\n    \"aggregation\": {:.3},\n    \"indexing\": {:.3},\n    \"ld\": {:.3},\n    \"lr\": {:.3},\n    \"total\": {:.3}\n  }},\n  \"chromosome_100k\": {{\n    \"snps\": {chrom_snps},\n    \"synth_ms\": {:.3},\n    \"lr_ms\": {:.3},\n    \"total_ms\": {:.3},\n    \"safe_snps\": {}\n  }},\n  \"shard_sweep\": {{\n    \"snps\": {chrom_snps},\n    \"plans\": [\n{shard_json}\n    ],\n    \"shard_identical\": true\n  }},\n  \"chromosome_1m_lr_only\": {{\n    \"snps\": {mega_snps},\n    \"individuals\": {mega_individuals},\n    \"search_ms\": {:.3},\n    \"kept_columns\": {}\n  }}\n}}\n",
        subsets.len(),
        pairs.len(),
        ms(synth),
        ms(before),
        ms(after),
        speedup,
        order.len(),
        ms(lr_naive),
        ms(lr_columnar),
        lr_speedup,
        ms(protocol.timings.aggregation),
        ms(protocol.timings.indexing),
        ms(protocol.timings.ld),
        ms(protocol.timings.lr),
        ms(protocol.timings.total()),
        ms(chrom_synth),
        ms(chrom.timings.lr),
        ms(chrom.timings.total()),
        chrom.safe_snps.len(),
        ms(mega_lr),
        mega_selection.kept_columns.len(),
    );
    std::fs::write(&out, &json).expect("writing the JSON report");
    println!(
        "pooled LD moments: row-major {:.1} ms -> columnar+memo {:.1} ms ({speedup:.1}x)",
        ms(before),
        ms(after)
    );
    println!(
        "LR subset search: naive dense {:.1} ms -> columnar {:.1} ms ({lr_speedup:.1}x)",
        ms(lr_naive),
        ms(lr_columnar)
    );
    println!(
        "LR sweep: {sweep_repeated:.2} ns/individual on a repeated column, {sweep_distinct:.2} on distinct columns (branch-free: {branch_free})"
    );
    for (s, lanes, d) in &shard_rows {
        println!(
            "shard sweep: --shards {s} -> {lanes} lanes, phase 1-2 in {:.1} ms (merge identical)",
            ms(*d)
        );
    }
    println!(
        "cohort synthesis: {:.1} ms at {snps} SNPs, {:.1} ms at {chrom_snps}",
        ms(synth),
        ms(chrom_synth)
    );
    println!("report written to {out}");
}
