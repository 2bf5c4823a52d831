//! Microbenchmarks of the partitioner's inner loops: coarsening,
//! an FM refinement pass, and K-way refinement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fgh_core::models::FineGrainModel;
use fgh_hypergraph::Partition;
use fgh_partition::coarsen::coarsen_once;
use fgh_partition::kway::kway_refine;
use fgh_partition::refine::BisectionState;
use fgh_partition::CoarseningScheme;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn model() -> FineGrainModel {
    let entry = fgh_sparse::catalog::by_name("ken-11").expect("catalog");
    let a = entry.generate_scaled(16, 1);
    FineGrainModel::build(&a).expect("square")
}

fn bench_coarsening(c: &mut Criterion) {
    let m = model();
    let hg = m.hypergraph();
    let mut group = c.benchmark_group("coarsening");
    for scheme in [
        CoarseningScheme::Hcm,
        CoarseningScheme::Hcc,
        CoarseningScheme::ScaledHcc,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scheme:?}")),
            &scheme,
            |b, &scheme| {
                let mut rng = SmallRng::seed_from_u64(1);
                b.iter(|| {
                    black_box(coarsen_once(
                        black_box(hg),
                        scheme,
                        64,
                        hg.total_vertex_weight(),
                        &mut rng,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_fm(c: &mut Criterion) {
    let m = model();
    let hg = m.hypergraph();
    let n = hg.num_vertices();
    let sides: Vec<u8> = (0..n).map(|v| (v % 2) as u8).collect();
    let half = hg.total_vertex_weight() as f64 / 2.0;

    let mut group = c.benchmark_group("fm_pass");
    group.sample_size(10);
    group.bench_function("full", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter(|| {
            let mut st = BisectionState::new(hg, sides.clone(), [half, half], 0.03);
            black_box(st.fm_pass(&mut rng, 0))
        })
    });
    group.finish();
}

fn bench_kway(c: &mut Criterion) {
    let m = model();
    let hg = m.hypergraph();
    let n = hg.num_vertices();
    let parts: Vec<u32> = (0..n).map(|v| v % 8).collect();
    c.bench_function("kway_refine_pass", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| {
            let mut p = Partition::new(8, parts.clone()).expect("valid");
            black_box(kway_refine(hg, &mut p, 0.05, 1, &mut rng))
        })
    });
}

criterion_group!(benches, bench_coarsening, bench_fm, bench_kway);
criterion_main!(benches);
