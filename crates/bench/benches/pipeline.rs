//! End-to-end pipeline benchmarks: world synthesis, the whole streaming
//! pipeline at several corpus scales, and the analysis/table-regeneration
//! pass.

use aipan_analysis::{insights::Insights, tables};
use aipan_core::{run_pipeline, PipelineConfig};
use aipan_webgen::{build_world, WorldConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_world_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_build");
    group.sample_size(10);
    for size in [100usize, 400] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| build_world(WorldConfig::small(9, size)))
        });
    }
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_end_to_end");
    group.sample_size(10);
    for size in [100usize, 300] {
        let world = build_world(WorldConfig::small(9, size));
        group.bench_with_input(BenchmarkId::from_parameter(size), &world, |b, world| {
            b.iter(|| {
                run_pipeline(
                    black_box(world),
                    PipelineConfig {
                        seed: 9,
                        ..Default::default()
                    },
                )
            })
        });
    }
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let world = build_world(WorldConfig::small(9, 400));
    let run = run_pipeline(
        &world,
        PipelineConfig {
            seed: 9,
            ..Default::default()
        },
    );
    let mut group = c.benchmark_group("analysis");
    group.bench_function("table1", |b| {
        b.iter(|| tables::table1(black_box(&run.dataset), 3))
    });
    group.bench_function("table5", |b| {
        b.iter(|| tables::table5(black_box(&run.dataset)))
    });
    group.bench_function("table3", |b| {
        b.iter(|| tables::table3(black_box(&run.dataset)))
    });
    group.bench_function("insights", |b| {
        b.iter(|| Insights::compute(black_box(&run.dataset)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_world_build,
    bench_full_pipeline,
    bench_analysis,
);
criterion_main!(benches);
