//! Geometric initial-partitioning scheme: balance, determinism, fallback,
//! and degenerate-geometry coverage on the fine-grain model.

use fgh_core::{
    decompose_workload, DecomposeConfig, InitialScheme, Model, Parallelism, Workload,
    WorkloadOutcome,
};
use fgh_sparse::catalog::by_name;
use fgh_sparse::{CooMatrix, CsrMatrix};

fn csr(rows: u32, cols: u32, triplets: Vec<(u32, u32, f64)>) -> CsrMatrix {
    CsrMatrix::from_coo(CooMatrix::from_triplets(rows, cols, triplets).unwrap())
}

/// Geometric seeding must keep every catalog decomposition inside the
/// balance tolerance (status not degraded) and produce a valid mapping.
#[test]
fn geometric_balances_catalog() {
    for (name, scale, k) in [
        ("sherman3", 8u32, 8u32),
        ("bcspwr10", 8, 8),
        ("ken-11", 16, 4),
    ] {
        let a = by_name(name).unwrap().generate_scaled(scale, 42);
        let cfg =
            DecomposeConfig::new(Model::FineGrain2D, k).with_initial(InitialScheme::Geometric);
        let out = decompose_workload(Workload::Spmv(&a), &cfg)
            .and_then(WorkloadOutcome::into_spmv)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.decomposition
            .validate(&a)
            .unwrap_or_else(|e| panic!("{name}: invalid decomposition: {e}"));
        assert!(
            !out.status.is_degraded(),
            "{name}: geometric run degraded: {:?}",
            out.status
        );
        assert!(out.objective > 0, "{name}: zero objective is implausible");
    }
}

/// Models without vertex coordinates (1D column-net) silently fall back
/// to GHG: requesting geometric must change nothing.
#[test]
fn geometric_falls_back_to_ghg_without_coords() {
    let a = by_name("sherman3").unwrap().generate_scaled(8, 42);
    let ghg = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::Hypergraph1DColNet, 8).with_initial(InitialScheme::Ghg),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .unwrap();
    let geo = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::Hypergraph1DColNet, 8).with_initial(InitialScheme::Geometric),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .unwrap();
    assert_eq!(ghg.objective, geo.objective);
    assert_eq!(ghg.stats.total_volume(), geo.stats.total_volume());
}

/// The parallel-determinism contract extends to the geometric scheme:
/// serial and threaded runs are bit-identical.
#[test]
fn geometric_deterministic_across_parallelism() {
    let a = by_name("bcspwr10").unwrap().generate_scaled(8, 42);
    let serial = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::FineGrain2D, 8)
            .with_initial(InitialScheme::Geometric)
            .with_parallelism(Parallelism::Serial),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .unwrap();
    let threaded = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::FineGrain2D, 8)
            .with_initial(InitialScheme::Geometric)
            .with_parallelism(Parallelism::Threads(4)),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .unwrap();
    assert_eq!(serial.objective, threaded.objective);
    assert_eq!(
        serial.stats.per_proc, threaded.stats.per_proc,
        "per-processor stats must be bit-identical across thread counts"
    );
}

/// Degenerate geometries: every nonzero on one row (all vertex rows
/// equal), every nonzero in one column, a diagonal line, and a matrix
/// with empty stripes between two dense bands. The sweep must not panic
/// and must return a valid decomposition.
#[test]
fn geometric_degenerate_geometries() {
    let n = 16u32;
    let single_row: Vec<(u32, u32, f64)> = (0..n).map(|j| (0, j, 1.0)).collect();
    let single_col: Vec<(u32, u32, f64)> = (0..n).map(|i| (i, 0, 1.0)).collect();
    let diagonal: Vec<(u32, u32, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
    // Dense bands at the top and bottom, empty stripe in the middle.
    let mut striped: Vec<(u32, u32, f64)> = Vec::new();
    for i in 0..3 {
        for j in 0..n {
            striped.push((i, j, 1.0));
            striped.push((n - 1 - i, j, 1.0));
        }
    }
    for (name, triplets) in [
        ("single_row", single_row),
        ("single_col", single_col),
        ("diagonal", diagonal),
        ("striped", striped),
    ] {
        let a = csr(n, n, triplets);
        for k in [2u32, 4] {
            let cfg =
                DecomposeConfig::new(Model::FineGrain2D, k).with_initial(InitialScheme::Geometric);
            let out = decompose_workload(Workload::Spmv(&a), &cfg)
                .and_then(WorkloadOutcome::into_spmv)
                .unwrap_or_else(|e| panic!("{name}/K={k}: geometric must not fail: {e}"));
            out.decomposition
                .validate(&a)
                .unwrap_or_else(|e| panic!("{name}/K={k}: invalid decomposition: {e}"));
        }
    }
}
