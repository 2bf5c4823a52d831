//! Golden cutsize-identity tests for the hot-loop kernels.
//!
//! The connectivity/gain/coarsening kernel rewrites (DESIGN.md §5.10) are
//! required to be *behavior-preserving*: every structure was redesigned for
//! locality, not for different decisions, so the engine must reproduce the
//! exact per-seed objectives it produced before the rewrite. These
//! constants were captured from the pre-rewrite engine on the synthetic
//! catalog analogues; any drift means a kernel changed tie-breaking or
//! gain arithmetic, not just speed — treat a failure here as a
//! correctness regression, never re-record without understanding why.
//!
//! The same inputs also gate the paper's Section-3 identity for every
//! SpMV model: see `every_spmv_model_embeds_at_its_volume`.

use fgh_core::models::FineGrainModel;
use fgh_core::{
    decompose_workload, DecomposeConfig, InitialScheme, Model, Workload, WorkloadKind,
    WorkloadOutcome,
};
use fgh_hypergraph::{cutsize_connectivity, Partition};
use fgh_sparse::catalog::by_name;
use fgh_sparse::CsrMatrix;

/// (catalog name, scale, k, [(seed, objective); 3])
#[allow(clippy::type_complexity)]
const GOLDEN: &[(&str, u32, u32, [(u64, u64); 3])] = &[
    ("sherman3", 8, 8, [(1, 84), (2, 105), (3, 91)]),
    ("bcspwr10", 8, 8, [(1, 338), (2, 363), (3, 358)]),
    ("ken-11", 16, 4, [(1, 619), (2, 617), (3, 624)]),
];

/// The graph baseline and the best-of-`runs` seed fan-out on the same
/// inputs and seeds: (model, runs, objectives in `GOLDEN`'s input and
/// seed order). These pin which run the fan-out keeps, not only what one
/// run produces.
const GOLDEN_FAN_OUT: &[(Model, usize, [[u64; 3]; 3])] = &[
    (
        Model::Graph1D,
        1,
        [[104, 116, 106], [466, 474, 454], [1394, 1488, 1398]],
    ),
    (
        Model::Graph1D,
        4,
        [[102, 102, 102], [454, 454, 454], [1394, 1370, 1370]],
    ),
    (
        Model::FineGrain2D,
        4,
        [[84, 91, 90], [338, 350, 350], [615, 615, 603]],
    ),
];

/// One run of every initial scheme but the default GHG on the fine-grain
/// model, on `GOLDEN`'s inputs and seeds: (model, initial scheme,
/// objectives in `GOLDEN`'s input and seed order).
const GOLDEN_SCHEMES: &[(Model, InitialScheme, [[u64; 3]; 3])] = &[(
    Model::FineGrain2D,
    InitialScheme::BinPacking,
    [[96, 92, 98], [355, 370, 383], [654, 610, 617]],
)];

fn input(name: &str, scale: u32) -> CsrMatrix {
    let entry = by_name(name).unwrap_or_else(|| panic!("{name} not in catalog"));
    entry.generate_scaled(scale, 42)
}

fn objective(cfg: &DecomposeConfig, name: &str, scale: u32) -> u64 {
    let a = input(name, scale);
    let out = decompose_workload(Workload::Spmv(&a), cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    out.objective
}

/// Runs `model` with `runs` seeds under `initial` on every `GOLDEN`
/// input and seed and fails with the full list of drifted objectives.
fn check(model: Model, runs: usize, initial: InitialScheme, want: impl Fn(usize, usize) -> u64) {
    let mut failures = Vec::new();
    for (i, &(name, scale, k, seeds)) in GOLDEN.iter().enumerate() {
        for (j, (seed, _)) in seeds.into_iter().enumerate() {
            let cfg = DecomposeConfig::new(model, k)
                .with_seed(seed)
                .with_runs(runs)
                .with_initial(initial);
            let (got, want) = (objective(&cfg, name, scale), want(i, j));
            println!(
                "golden: {model} runs {runs} {initial:?} (\"{name}\", {scale}, {k}) seed {seed} => {got}"
            );
            if got != want {
                failures.push(format!(
                    "{model} runs {runs} {initial:?} {name} scale {scale} k {k} seed {seed}: \
                     got {got}, recorded {want}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "objective drift:\n{}",
        failures.join("\n")
    );
}

#[test]
fn per_seed_objectives_match_pre_rewrite_engine() {
    check(Model::FineGrain2D, 1, InitialScheme::Ghg, |i, j| {
        GOLDEN[i].3[j].1
    });
}

#[test]
fn graph_baseline_and_seed_fan_out_objectives_are_pinned() {
    for &(model, runs, want) in GOLDEN_FAN_OUT {
        check(model, runs, InitialScheme::Ghg, |i, j| want[i][j]);
    }
}

#[test]
fn initial_scheme_objectives_are_pinned() {
    for &(model, initial, want) in GOLDEN_SCHEMES {
        check(model, 1, initial, |i, j| want[i][j]);
    }
}

/// Embeds every SpMV model's decomposition into the fine-grain
/// hypergraph: nonzero vertex `v` goes to `nonzero_owner[v]`, the dummy
/// `v_jj` of a missing diagonal to `vec_owner[j]`. A model that keeps
/// `x_j` and `y_j` with `a_jj` then has a connectivity−1 cutsize equal to
/// its volume (the paper's Section-3 identity), so the fine-grain
/// partitioner could have found it. Mondriaan can separate `x_j` from
/// `a_jj`, where the cutsize only bounds the volume from below.
#[test]
fn every_spmv_model_embeds_at_its_volume() {
    let mut failures = Vec::new();
    for &(name, scale, _, _) in GOLDEN {
        let a = input(name, scale);
        let fine = FineGrainModel::build(&a).expect("catalog inputs are square");
        let hg = fine.hypergraph();
        for k in [4, 16] {
            for model in Model::ALL
                .into_iter()
                .filter(|m| m.workload() == WorkloadKind::Spmv)
            {
                let cfg = DecomposeConfig::new(model, k).with_seed(1);
                let out = decompose_workload(Workload::Spmv(&a), &cfg)
                    .and_then(WorkloadOutcome::into_spmv)
                    .unwrap_or_else(|e| panic!("{model} {name} k {k}: {e}"));
                let d = &out.decomposition;
                let parts = (0..hg.num_vertices())
                    .map(|v| {
                        if (v as usize) < fine.num_real_vertices() {
                            d.nonzero_owner[v as usize]
                        } else {
                            d.vec_owner[fine.coords(v).0 as usize]
                        }
                    })
                    .collect();
                let embedded = Partition::new(k, parts).expect("owners are parts");
                let (cut, volume) = (
                    cutsize_connectivity(hg, &embedded),
                    out.stats.total_volume(),
                );
                println!("embedding: {model} {name} k {k}: cutsize {cut}, volume {volume}");
                let holds = if model == Model::Mondriaan2D {
                    cut <= volume
                } else {
                    cut == volume
                };
                if !holds {
                    failures.push(format!(
                        "{model} {name} k {k}: cutsize {cut}, volume {volume}"
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "embedded cutsize breaks the identity:\n{}",
        failures.join("\n")
    );
}
