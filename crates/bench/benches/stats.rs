//! Criterion micro-benchmarks of the statistical kernels behind the three
//! GenDPR phases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gendpr_bench::workload::paper_cohort;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::{select_safe_subset, LrMatrix, LrTestParams};
use gendpr_stats::special::{chi2_sf, normal_quantile};
use std::hint::black_box;

fn bench_column_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("column_counts");
    for (n, l) in [(1_000usize, 1_000usize), (4_000, 2_500)] {
        let cohort = paper_cohort(n, l);
        let m = cohort.case().clone();
        group.throughput(Throughput::Elements((n * l) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{l}")),
            &m,
            |b, m| b.iter(|| black_box(m.column_counts())),
        );
    }
    group.finish();
}

fn bench_ld_moments(c: &mut Criterion) {
    let cohort = paper_cohort(4_000, 500);
    let m = cohort.case().clone();
    c.bench_function("ld_moments_pair_4k_individuals", |b| {
        b.iter(|| LdMoments::from_matrix(black_box(&m), SnpId(10), SnpId(11)));
    });
}

fn bench_special_functions(c: &mut Criterion) {
    c.bench_function("chi2_sf_df1", |b| {
        b.iter(|| chi2_sf(black_box(7.3), 1));
    });
    c.bench_function("normal_quantile", |b| {
        b.iter(|| normal_quantile(black_box(0.937)));
    });
}

fn bench_lr_selection(c: &mut Criterion) {
    let cohort = paper_cohort(1_000, 200);
    let ids: Vec<SnpId> = (0..200u32).map(SnpId).collect();
    let n_case = cohort.case().individuals() as f64;
    let n_ref = cohort.reference().individuals() as f64;
    let case_freqs: Vec<f64> = cohort
        .case()
        .column_counts()
        .iter()
        .map(|&x| x as f64 / n_case)
        .collect();
    let ref_freqs: Vec<f64> = cohort
        .reference()
        .column_counts()
        .iter()
        .map(|&x| x as f64 / n_ref)
        .collect();
    let case_m = LrMatrix::from_genotypes(cohort.case(), &ids, &case_freqs, &ref_freqs);
    let null_m = LrMatrix::from_genotypes(cohort.reference(), &ids, &case_freqs, &ref_freqs);
    let order: Vec<usize> = (0..200).collect();
    let params = LrTestParams::secure_genome_defaults();
    c.bench_function("lr_select_200snps_1k_cases", |b| {
        b.iter(|| {
            select_safe_subset(
                black_box(&case_m),
                black_box(&null_m),
                &[],
                black_box(&order),
                &params,
                1,
                None,
            )
        });
    });
}

fn bench_oblivious_kernels(c: &mut Criterion) {
    use gendpr_stats::oblivious::{bitonic_sort, select_safe_subset_oblivious};
    let mut data: Vec<f64> = (0..1024)
        .map(|i| ((i * 2654435761u64 as usize) % 977) as f64)
        .collect();
    c.bench_function("bitonic_sort_1024", |b| {
        b.iter(|| {
            let mut copy = data.clone();
            bitonic_sort(black_box(&mut copy));
            copy
        });
    });
    data.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let cohort = paper_cohort(400, 60);
    let ids: Vec<SnpId> = (0..60u32).map(SnpId).collect();
    let n = cohort.case().individuals() as f64;
    let cf: Vec<f64> = cohort
        .case()
        .column_counts()
        .iter()
        .map(|&x| x as f64 / n)
        .collect();
    let rf: Vec<f64> = cohort
        .reference()
        .column_counts()
        .iter()
        .map(|&x| x as f64 / cohort.reference().individuals() as f64)
        .collect();
    let case_m = LrMatrix::from_genotypes(cohort.case(), &ids, &cf, &rf);
    let null_m = LrMatrix::from_genotypes(cohort.reference(), &ids, &cf, &rf);
    let order: Vec<usize> = (0..60).collect();
    let params = LrTestParams::secure_genome_defaults();
    c.bench_function("lr_select_oblivious_60snps_400", |b| {
        b.iter(|| select_safe_subset_oblivious(black_box(&case_m), &null_m, &order, &params));
    });
    c.bench_function("lr_select_fast_60snps_400", |b| {
        b.iter(|| select_safe_subset(black_box(&case_m), &null_m, &[], &order, &params, 1, None));
    });
}

fn bench_lr_matrix_build(c: &mut Criterion) {
    let cohort = paper_cohort(2_000, 300);
    let ids: Vec<SnpId> = (0..300u32).map(SnpId).collect();
    let case_freqs = vec![0.3; 300];
    let ref_freqs = vec![0.25; 300];
    c.bench_function("lr_matrix_build_2k_x_300", |b| {
        b.iter(|| {
            LrMatrix::from_genotypes(black_box(cohort.case()), &ids, &case_freqs, &ref_freqs)
        });
    });
}

criterion_group!(
    benches,
    bench_column_counts,
    bench_ld_moments,
    bench_special_functions,
    bench_lr_selection,
    bench_oblivious_kernels,
    bench_lr_matrix_build
);
criterion_main!(benches);
