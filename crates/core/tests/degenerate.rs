//! Degenerate-input catalog: every pathological matrix shape the issue
//! tracker has seen, crossed with boundary K values and three models.
//! `decompose` must return a *valid* decomposition (possibly tagged
//! `Degraded`) or a typed error — never panic.

use std::time::Duration;

use fgh_core::{
    decompose_workload, Budget, DecomposeConfig, DecompositionStatus, FghError, Model, Parallelism,
    Workload, WorkloadOutcome,
};
use fgh_sparse::{CooMatrix, CsrMatrix};

const MODELS: [Model; 3] = [
    Model::Graph1D,
    Model::Hypergraph1DColNet,
    Model::FineGrain2D,
];

fn csr(n: u32, triplets: Vec<(u32, u32, f64)>) -> CsrMatrix {
    CsrMatrix::from_coo(CooMatrix::from_triplets(n, n, triplets).unwrap())
}

/// The degenerate shapes under test, by name.
fn degenerate_matrices() -> Vec<(&'static str, CsrMatrix)> {
    let diagonal: Vec<(u32, u32, f64)> = (0..8).map(|i| (i, i, 1.0 + i as f64)).collect();
    let mut dense_row: Vec<(u32, u32, f64)> = (0..8).map(|j| (0, j, 1.0)).collect();
    dense_row.extend((1..8).map(|i| (i, i, 2.0)));
    // Every nonzero on one row, or in one column: one line holds the whole
    // matrix and every other line is empty.
    let n = 16u32;
    let single_row: Vec<(u32, u32, f64)> = (0..n).map(|j| (0, j, 1.0)).collect();
    let single_col: Vec<(u32, u32, f64)> = (0..n).map(|i| (i, 0, 1.0)).collect();
    // Two dense bands of three rows, top and bottom, with an empty stripe
    // of rows between them.
    let mut striped: Vec<(u32, u32, f64)> = Vec::new();
    for i in 0..3 {
        for j in 0..n {
            striped.push((i, j, 1.0));
            striped.push((n - 1 - i, j, 1.0));
        }
    }
    vec![
        ("empty", csr(6, vec![])),
        ("zero_by_zero", csr(0, vec![])),
        ("single_entry", csr(1, vec![(0, 0, 3.0)])),
        ("diagonal_only", csr(8, diagonal)),
        ("dense_row", csr(8, dense_row)),
        ("single_row", csr(n, single_row)),
        ("single_col", csr(n, single_col)),
        ("striped", csr(n, striped)),
    ]
}

/// Asserts the decompose contract on one (matrix, model, k) combination.
fn check(name: &str, a: &CsrMatrix, model: Model, k: u32) {
    let mut cfg = DecomposeConfig::new(model, k);
    cfg.runs = 1;
    let out = match decompose_workload(Workload::Spmv(a), &cfg).and_then(WorkloadOutcome::into_spmv)
    {
        Ok(out) => out,
        Err(e) => panic!(
            "{name}/{}/K={k}: degenerate input must degrade, got error {e}",
            model.name()
        ),
    };
    out.decomposition
        .validate(a)
        .unwrap_or_else(|e| panic!("{name}/{}/K={k}: invalid decomposition: {e}", model.name()));
    assert_eq!(out.stats.k, k, "{name}/{}/K={k}", model.name());
    if a.nnz() > 0 && k as u64 > a.nnz() as u64 {
        assert!(
            out.status.is_degraded(),
            "{name}/{}/K={k}: K > nnz must be tagged degraded",
            model.name()
        );
    }
    if k == 1 {
        assert_eq!(
            out.stats.total_volume(),
            0,
            "{name}/{}/K=1 must need no communication",
            model.name()
        );
    }
}

#[test]
fn degenerate_catalog_by_model_and_k() {
    for (name, a) in degenerate_matrices() {
        let nnz = a.nnz() as u32;
        // K = 1, K = nnz, K = nnz + 1 (clamped to >= 1), plus a mid value.
        let mut ks = vec![1, nnz.max(1), nnz + 1, 3];
        ks.sort_unstable();
        ks.dedup();
        for model in MODELS {
            for &k in &ks {
                check(name, &a, model, k);
            }
        }
    }
}

#[test]
fn k_zero_is_a_typed_bad_input() {
    let a = csr(4, vec![(0, 0, 1.0), (1, 1, 1.0)]);
    for model in MODELS {
        match decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(model, 0))
            .and_then(WorkloadOutcome::into_spmv)
        {
            Err(FghError::InvalidInput(_)) => {}
            other => panic!("{}: expected InvalidInput, got {other:?}", model.name()),
        }
    }
}

#[test]
fn bad_epsilon_is_a_typed_bad_input() {
    let a = csr(4, vec![(0, 0, 1.0), (1, 1, 1.0)]);
    for eps in [f64::NAN, f64::INFINITY, -0.5] {
        let mut cfg = DecomposeConfig::new(Model::FineGrain2D, 2);
        cfg.epsilon = eps;
        assert!(
            matches!(
                decompose_workload(Workload::Spmv(&a), &cfg).and_then(WorkloadOutcome::into_spmv),
                Err(FghError::InvalidInput(_))
            ),
            "epsilon {eps} must be rejected"
        );
    }
}

#[test]
fn rectangular_is_a_typed_error() {
    let a: CsrMatrix =
        CsrMatrix::from_coo(CooMatrix::from_triplets(1, 5, vec![(0, 2, 1.0)]).unwrap());
    for model in MODELS {
        match decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(model, 2))
            .and_then(WorkloadOutcome::into_spmv)
        {
            Err(FghError::Model(fgh_core::ModelError::NotSquare { nrows: 1, ncols: 5 })) => {}
            other => panic!("{}: expected NotSquare, got {other:?}", model.name()),
        }
    }
}

#[test]
fn empty_matrix_degrades_with_reason() {
    let a = csr(5, vec![]);
    let out = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::FineGrain2D, 4),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .unwrap();
    match &out.status {
        DecompositionStatus::Degraded { reason } => {
            assert_eq!(reason.code(), "empty-matrix");
            assert!(
                reason.to_string().contains("no nonzeros"),
                "reason: {reason}"
            );
        }
        DecompositionStatus::Full => panic!("empty matrix must be degraded"),
    }
    assert_eq!(out.stats.total_volume(), 0);
}

#[test]
fn expired_wall_budget_still_returns_valid_partition() {
    // A deadline that is already unreachable forces truncation at the
    // first checkpoint: the engine must fall back to a quick partition and
    // record what happened rather than fail.
    let a = fgh_sparse::catalog::by_name("bcspwr10")
        .expect("catalog matrix")
        .generate_scaled(48, 7);
    let cfg = DecomposeConfig::new(Model::FineGrain2D, 4)
        .with_budget(Budget::wall(Duration::from_nanos(1)));
    let out = decompose_workload(Workload::Spmv(&a), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
    out.decomposition.validate(&a).unwrap();
    assert!(
        out.engine.truncated(),
        "an expired deadline must record a truncation: {:?}",
        out.engine
    );
    assert!(out.status.is_degraded());
    assert_eq!(out.status.code(), Some("budget-exhausted"));
    assert!(
        out.status
            .reason()
            .map(ToString::to_string)
            .unwrap_or_default()
            .contains("budget"),
        "reason: {:?}",
        out.status.reason()
    );
    // Strict callers reject the degraded outcome as budget exhaustion.
    match out.into_strict() {
        Err(FghError::BudgetExhausted(_)) => {}
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn generous_wall_budget_returns_valid_partition() {
    // A 50ms budget on a catalog matrix: whether or not it trips, the
    // result must be valid, and any truncation must be visible in the
    // engine stats and the status tag.
    let a = fgh_sparse::catalog::by_name("bcspwr10")
        .expect("catalog matrix")
        .generate_scaled(48, 7);
    let cfg = DecomposeConfig::new(Model::FineGrain2D, 8)
        .with_budget(Budget::wall(Duration::from_millis(50)));
    let out = decompose_workload(Workload::Spmv(&a), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
    out.decomposition.validate(&a).unwrap();
    assert_eq!(out.objective, out.stats.total_volume());
    if out.engine.truncated() {
        assert!(out.status.is_degraded());
    }
}

#[test]
fn fm_pass_budget_caps_refinement() {
    let a = fgh_sparse::catalog::by_name("bcspwr10")
        .expect("catalog matrix")
        .generate_scaled(32, 3);
    let budget = Budget {
        max_fm_passes: Some(1),
        ..Budget::UNLIMITED
    };
    let out = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::Hypergraph1DColNet, 4).with_budget(budget),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .unwrap();
    out.decomposition.validate(&a).unwrap();
    assert!(
        out.engine.fm_truncations > 0,
        "a 1-pass cap on a multilevel run must truncate: {:?}",
        out.engine
    );
}

#[test]
fn fm_pass_budget_caps_initial_tries() {
    // The default config's 8 initial tries per bisection each want 4 FM
    // passes: a 3-pass cap must stop them too, not only the uncoarsening
    // levels, and the run must report no more passes than the cap.
    let a = fgh_sparse::catalog::by_name("bcspwr10")
        .expect("catalog matrix")
        .generate_scaled(32, 3);
    let budget = Budget {
        max_fm_passes: Some(3),
        ..Budget::UNLIMITED
    };
    let out = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::FineGrain2D, 4)
            .with_parallelism(Parallelism::Serial)
            .with_budget(budget),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .unwrap();
    out.decomposition.validate(&a).unwrap();
    assert!(
        out.engine.fm_passes <= 3,
        "a 3-pass cap must bound every FM pass, initial tries included: {:?}",
        out.engine
    );
    assert!(
        out.engine.fm_truncations > 0,
        "a 3-pass cap must truncate: {:?}",
        out.engine
    );
}

#[test]
fn level_budget_caps_coarsening() {
    // Large enough that coarsening genuinely needs several levels, so the
    // 1-level cap must trip before the natural coarsen-to threshold.
    let a = fgh_sparse::catalog::by_name("bcspwr10")
        .expect("catalog matrix")
        .generate_scaled(4, 3);
    let budget = Budget {
        max_levels: Some(1),
        ..Budget::UNLIMITED
    };
    let out = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::FineGrain2D, 4).with_budget(budget),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .unwrap();
    out.decomposition.validate(&a).unwrap();
    assert!(
        out.engine.level_truncations > 0,
        "a 1-level cap must truncate coarsening: {:?}",
        out.engine
    );
}
