//! Partitioning-time benchmarks — the "time" columns of Table 2.
//!
//! Benchmarks each decomposition model's end-to-end partitioning on a
//! reduced catalog matrix. The paper's observation to reproduce: the 2D
//! fine-grain model is a constant factor slower than the 1D hypergraph
//! model (~2.4x) and the graph model (~7.3x) because its hypergraph has Z
//! vertices and 2x the nets/pins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fgh_core::models::FineGrainModel;
use fgh_core::{decompose_workload, DecomposeConfig, Model, Workload, WorkloadOutcome};
use fgh_partition::{partition_hypergraph_with, MultilevelDriver, PartitionConfig};
use std::hint::black_box;

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioning");
    group.sample_size(10);
    for name in ["sherman3", "bcspwr10", "ken-11"] {
        let entry = fgh_sparse::catalog::by_name(name).expect("catalog name");
        let a = entry.generate_scaled(16, 1);
        for model in [
            Model::Graph1D,
            Model::Hypergraph1DColNet,
            Model::FineGrain2D,
        ] {
            group.bench_with_input(BenchmarkId::new(model.name(), name), &a, |b, a| {
                b.iter(|| {
                    let cfg = DecomposeConfig::new(model, 16);
                    black_box(
                        decompose_workload(Workload::Spmv(black_box(a)), &cfg)
                            .and_then(WorkloadOutcome::into_spmv)
                            .expect("decompose"),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_k_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fine_grain_k_scaling");
    group.sample_size(10);
    let entry = fgh_sparse::catalog::by_name("sherman3").expect("catalog name");
    let a = entry.generate_scaled(8, 1);
    for k in [4u32, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let cfg = DecomposeConfig::new(Model::FineGrain2D, k);
                black_box(
                    decompose_workload(Workload::Spmv(black_box(&a)), &cfg)
                        .and_then(WorkloadOutcome::into_spmv)
                        .expect("decompose"),
                )
            })
        });
    }
    group.finish();
}

/// The engine's LevelArena kept warm across runs vs started empty: the
/// same K-way run on one reused driver (`pooled`) and on a fresh driver
/// per run (`cold`). Results are bit-identical either way; only the
/// allocation count differs.
fn bench_arena(c: &mut Criterion) {
    let entry = fgh_sparse::catalog::by_name("ken-11").expect("catalog name");
    let a = entry.generate_scaled(16, 1);
    let m = FineGrainModel::build(&a).expect("square");
    let hg = m.hypergraph();

    let mut group = c.benchmark_group("arena");
    group.sample_size(10);
    group.bench_function("pooled", |b| {
        let mut driver = MultilevelDriver::new(PartitionConfig::with_seed(7));
        b.iter(|| {
            black_box(partition_hypergraph_with(&mut driver, black_box(hg), 16).expect("partition"))
        })
    });
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut driver = MultilevelDriver::new(PartitionConfig::with_seed(7));
            black_box(partition_hypergraph_with(&mut driver, black_box(hg), 16).expect("partition"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_models, bench_k_scaling, bench_arena);
criterion_main!(benches);
