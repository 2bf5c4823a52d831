//! Integration tests for the extension layer: round scheduling, machine
//! cost model, reordering invariance, and the 2D model taxonomy playing
//! together.

use fine_grain_hypergraph::core::models::{JaggedModel, MondriaanModel};
use fine_grain_hypergraph::core::CommStats;
use fine_grain_hypergraph::prelude::*;
use fine_grain_hypergraph::sparse::catalog;
use fine_grain_hypergraph::sparse::reorder::{permute_symmetric, rcm_order};
use fine_grain_hypergraph::spmv::schedule::SpmvSchedule;
use fine_grain_hypergraph::spmv::{estimate, MachineModel};

/// Round schedules are valid and consistent with message counts for every
/// model on a catalog analogue.
#[test]
fn schedules_cover_all_messages() {
    let a = catalog::by_name("nl")
        .expect("catalog")
        .generate_scaled(32, 1);
    for model in [Model::Graph1D, Model::FineGrain2D, Model::Checkerboard2D] {
        let out = decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(model, 8))
            .and_then(WorkloadOutcome::into_spmv)
            .expect("ok");
        let plan = DistributedSpmv::build(&a, &out.decomposition).expect("plan");
        let sch = SpmvSchedule::build(&plan);
        let scheduled: usize = sch.expand.rounds.iter().map(|r| r.len()).sum::<usize>()
            + sch.fold.rounds.iter().map(|r| r.len()).sum::<usize>();
        assert_eq!(
            scheduled as u64,
            out.stats.total_messages(),
            "{}: every message scheduled exactly once",
            model.name()
        );
        // Round count at least the max per-processor message count.
        assert!(
            sch.total_rounds() as u64 >= out.stats.max_messages_per_proc(),
            "{}",
            model.name()
        );
    }
}

/// The cost model ranks a volume-heavy decomposition worse on a
/// bandwidth-bound machine and a message-heavy one worse on a
/// latency-bound machine.
#[test]
fn cost_model_tradeoff_direction() {
    let a = catalog::by_name("ken-11")
        .expect("catalog")
        .generate_scaled(16, 2);
    let fg = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::FineGrain2D, 8),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .expect("ok");
    let cb = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::Checkerboard2D, 8),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .expect("ok");
    // Sanity preconditions for this instance: fg has less volume, more msgs.
    assert!(fg.stats.total_volume() < cb.stats.total_volume());
    assert!(fg.stats.total_messages() > cb.stats.total_messages());

    let plan_fg = DistributedSpmv::build(&a, &fg.decomposition).expect("plan");
    let plan_cb = DistributedSpmv::build(&a, &cb.decomposition).expect("plan");

    // Latency-dominated: the message-light checkerboard should not lose
    // badly; specifically its communication time advantage must be larger
    // (or its disadvantage smaller) than on a pure-bandwidth machine.
    let lat = MachineModel {
        alpha: 1e-3,
        beta: 1e-9,
        gamma: 1e-12,
    };
    let bw = MachineModel {
        alpha: 1e-12,
        beta: 1e-6,
        gamma: 1e-12,
    };
    let t = |p: &DistributedSpmv, m: &MachineModel| {
        let e = estimate(p, m);
        e.t_expand + e.t_fold
    };
    let ratio_lat = t(&plan_fg, &lat) / t(&plan_cb, &lat);
    let ratio_bw = t(&plan_fg, &bw) / t(&plan_cb, &bw);
    assert!(
        ratio_lat > ratio_bw,
        "fine-grain should look relatively worse on the latency-bound machine \
         (lat ratio {ratio_lat:.3} vs bw ratio {ratio_bw:.3})"
    );
}

/// Hypergraph decomposition volume is invariant (statistically) under
/// symmetric permutation, while the executed SpMV stays numerically
/// correct on the permuted system.
#[test]
fn reordering_pipeline() {
    let a = catalog::by_name("bcspwr10")
        .expect("catalog")
        .generate_scaled(16, 3);
    let order = rcm_order(&a).expect("square");
    let b = permute_symmetric(&a, &order).expect("bijection");
    assert_eq!(a.nnz(), b.nnz());

    let oa = decompose_workload(
        Workload::Spmv(&a),
        &DecomposeConfig::new(Model::FineGrain2D, 4),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .expect("ok");
    let ob = decompose_workload(
        Workload::Spmv(&b),
        &DecomposeConfig::new(Model::FineGrain2D, 4),
    )
    .and_then(WorkloadOutcome::into_spmv)
    .expect("ok");
    // Identical structure, so volumes should be close (partitioner
    // randomness aside) — generous 2x band.
    let (va, vb) = (
        oa.stats.total_volume() as f64,
        ob.stats.total_volume() as f64,
    );
    assert!(
        va <= 2.0 * vb && vb <= 2.0 * va,
        "volumes {va} vs {vb} diverged"
    );

    let plan = DistributedSpmv::build(&b, &ob.decomposition).expect("plan");
    let x: Vec<f64> = (0..b.ncols()).map(|j| 1.0 + (j % 5) as f64).collect();
    let (y, _) = plan.multiply(&x).expect("dims");
    assert_eq!(y, b.spmv(&x).expect("dims"));
}

/// Jagged and Mondriaan decompositions are valid, and their SpMV executes
/// correctly and moves exactly their volume.
#[test]
fn two_dimensional_taxonomy() {
    let a = catalog::by_name("cq9")
        .expect("catalog")
        .generate_scaled(32, 4);
    let x: Vec<f64> = (0..a.ncols())
        .map(|j| (j as f64 * 0.01).exp() % 3.0)
        .collect();
    let y_serial = a.spmv(&x).expect("dims");

    let pcfg = PartitionConfig::with_seed(2);
    let decomps = vec![
        (
            "jagged",
            JaggedModel::new(4, 0.1)
                .unwrap()
                .decompose(&a, &pcfg)
                .unwrap(),
        ),
        (
            "mondriaan",
            MondriaanModel::new(4, 0.1).decompose(&a, &pcfg).unwrap(),
        ),
    ];
    for (name, d) in &decomps {
        d.validate(&a).expect("valid");
        let s = CommStats::compute(&a, d).expect("stats");
        let plan = DistributedSpmv::build(&a, d).expect("plan");
        let (y, comm) = plan.multiply(&x).expect("dims");
        assert_eq!(comm.total_words(), s.total_volume(), "{name}");
        for (yp, ys) in y.iter().zip(&y_serial) {
            assert!((yp - ys).abs() <= 1e-9 * ys.abs().max(1.0), "{name}");
        }
    }
}
