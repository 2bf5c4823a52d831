//! The grouped SpGEMM model prices every partition exactly.
//!
//! `SpgemmModel` gives each used nonzero `a_ik` one vertex holding all the
//! tasks that read it, or a few chunk vertices tied by an A-net when the
//! group is heavy. The oracle is the model it replaced, rebuilt here: one
//! unit vertex per multiply task and one net per used A, B and C element.
//! For a partition of the groups, four prices must agree: the grouped
//! connectivity−1 cutsize, the flop-level cutsize of the same partition
//! expanded to tasks, `SpgemmCommStats::total_volume()`, and the remote
//! words the `fgh-traffic` replay moves.

use fgh_core::models::{SpgemmCommStats, SpgemmModel, SpgemmStructure};
use fgh_core::{
    decompose_workload, DecomposeConfig, DecompositionStatus, Model, SpgemmOutcome, Workload,
    WorkloadOutcome,
};
use fgh_hypergraph::{cutsize_connectivity, Hypergraph, Partition};
use fgh_sparse::{catalog, CooMatrix, CsrMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mat(nrows: u32, ncols: u32, t: Vec<(u32, u32, f64)>) -> CsrMatrix {
    CsrMatrix::from_coo(CooMatrix::from_triplets(nrows, ncols, t).unwrap())
}

/// The flop-level SpGEMM hypergraph: one unit-weight vertex per task, an
/// A-net per used `a_ik`, a B-net per used `b_kj`, a C-net per `c_ij`.
fn flop_level(s: &SpgemmStructure) -> Hypergraph {
    let (na, nb) = (s.a_elems.len(), s.b_elems.len());
    let mut nets: Vec<Vec<u32>> = (0..na)
        .map(|e| (s.a_starts[e] as u32..s.a_starts[e + 1] as u32).collect())
        .collect();
    nets.resize(na + nb + s.c_elems.len(), Vec::new());
    for t in 0..s.num_tasks() {
        nets[na + s.task_b[t]].push(t as u32);
        nets[na + nb + s.task_c[t]].push(t as u32);
    }
    Hypergraph::from_nets(s.num_tasks() as u32, &nets).unwrap()
}

/// Asserts that the four prices of group partition `p` agree.
fn assert_priced_alike(m: &SpgemmModel, flops: &Hypergraph, p: &Partition) {
    let grouped = cutsize_connectivity(m.hypergraph(), p);
    let d = m.decode(p).unwrap();
    let tasks = Partition::new(p.k(), d.task_owner.clone()).unwrap();
    let flop = cutsize_connectivity(flops, &tasks);
    let stats = SpgemmCommStats::compute_with(m.structure(), &d).unwrap();
    let replay = fgh_traffic::simulate_with(m.structure(), &d).unwrap();
    assert_eq!(
        (grouped, stats.total_volume(), replay.total_remote()),
        (flop, flop, flop),
        "K = {}: grouped, statistics and replay against the flop-level price",
        p.k()
    );
}

/// `n` × `n` tridiagonal, except that column 0 holds only `a_00`.
fn tridiagonal_without_column_0(n: u32) -> Vec<(u32, u32, f64)> {
    (0..n)
        .flat_map(|i| [(i, i.wrapping_sub(1)), (i, i), (i, i + 1)])
        .filter(|&(i, j)| j < n && (j != 0 || i == 0))
        .map(|(i, j)| (i, j, 1.0 + (i + 2 * j) as f64 / n as f64))
        .collect()
}

/// An arrow-like pair: `B` is `A` plus a dense row 0, and the only `A`
/// nonzero that reads that row is `a_00`, so one task group holds `n`
/// tasks while every other holds at most 3.
fn arrow_pair(n: u32) -> (CsrMatrix, CsrMatrix) {
    let a = tridiagonal_without_column_0(n);
    let mut b: Vec<(u32, u32, f64)> = a.iter().copied().filter(|&(i, _, _)| i != 0).collect();
    b.extend((0..n).map(|j| (0, j, 1.0 + j as f64 / n as f64)));
    (mat(n, n, a), mat(n, n, b))
}

fn random_pair(rng: &mut SmallRng) -> (CsrMatrix, CsrMatrix) {
    let (m, p, n) = (
        rng.gen_range(1..6),
        rng.gen_range(1..6),
        rng.gen_range(1..7),
    );
    let mut pattern = |rows: u32, cols: u32, density: f64| -> Vec<(u32, u32, f64)> {
        (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(density))
            .map(|(i, j)| (i, j, 1.0))
            .collect()
    };
    let a = pattern(m, p, 0.4);
    let b = pattern(p, n, 0.5);
    (mat(m, p, a), mat(p, n, b))
}

#[test]
fn every_bisection_of_small_products_is_priced_exactly() {
    let mut products = vec![
        (
            mat(
                3,
                3,
                vec![
                    (0, 0, 2.0),
                    (0, 2, 1.0),
                    (1, 1, 3.0),
                    (2, 0, 1.0),
                    (2, 2, 4.0),
                ],
            ),
            mat(
                3,
                2,
                vec![(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0), (2, 0, 5.0)],
            ),
        ),
        // A diagonal A against a dense row 0 of B: 23 flops in 12 groups,
        // so a_00's 12 tasks exceed the cap of 4 * 2 and split in two.
        (
            mat(12, 12, (0..12).map(|i| (i, i, 1.0)).collect()),
            mat(
                12,
                12,
                (0..12)
                    .map(|j| (0, j, 1.0))
                    .chain((1..12).map(|i| (i, i, 1.0)))
                    .collect(),
            ),
        ),
    ];
    let mut rng = SmallRng::seed_from_u64(22);
    while products.len() < 24 {
        let (a, b) = random_pair(&mut rng);
        let groups = SpgemmModel::build(&a, &b)
            .unwrap()
            .hypergraph()
            .num_vertices();
        if (1..=14).contains(&groups) {
            products.push((a, b));
        }
    }
    let mut split = 0;
    for (a, b) in &products {
        let m = SpgemmModel::build(a, b).unwrap();
        let flops = flop_level(m.structure());
        let nv = m.hypergraph().num_vertices();
        assert!(nv <= 14);
        split += usize::from(nv as usize > m.structure().a_elems.len());
        for mask in 0u32..1 << nv {
            let parts = (0..nv).map(|v| (mask >> v) & 1).collect();
            assert_priced_alike(&m, &flops, &Partition::new(2, parts).unwrap());
        }
    }
    assert!(
        split > 0,
        "a split group (an A-net) must be among the products"
    );
}

#[test]
fn random_kway_partitions_of_catalog_pairs_are_priced_exactly() {
    let mut rng = SmallRng::seed_from_u64(2001);
    for entry in catalog::catalog() {
        let a = entry.generate_scaled(256, 1);
        // A·A, and A against A with a dense row 0, whose groups split.
        let n = a.nrows();
        let mut dense: Vec<(u32, u32, f64)> = a.iter().filter(|&(i, _, _)| i != 0).collect();
        dense.extend((0..n).map(|j| (0, j, 1.0)));
        for b in [a.clone(), mat(n, n, dense)] {
            let m = SpgemmModel::build(&a, &b).unwrap();
            let flops = flop_level(m.structure());
            let nv = m.hypergraph().num_vertices();
            for k in [2u32, 3, 7, 16] {
                let parts = (0..nv).map(|_| rng.gen_range(0..k)).collect();
                assert_priced_alike(&m, &flops, &Partition::new(k, parts).unwrap());
            }
        }
    }
}

fn decompose(a: &CsrMatrix, b: &CsrMatrix, k: u32) -> SpgemmOutcome {
    let out = decompose_workload(
        Workload::Spgemm(a, b),
        &DecomposeConfig::new(Model::SpgemmFineGrain, k),
    )
    .and_then(WorkloadOutcome::into_spgemm)
    .unwrap();
    out.decomposition.validate(a, b).unwrap();
    assert_eq!(out.objective, out.stats.total_volume(), "K = {k}");
    let replay = fgh_traffic::simulate(a, b, &out.decomposition).unwrap();
    assert_eq!(replay.total_remote(), out.objective, "K = {k}");
    out
}

#[test]
fn heavy_groups_are_split_so_the_arrow_pair_balances() {
    let n = 2000;
    let (a, b) = arrow_pair(n);
    let m = SpgemmModel::build(&a, &b).unwrap();
    let flops = m.structure().num_tasks() as u64;
    // Unsplit, a_00's group would outweigh a part at K = 16.
    assert!(u64::from(n) > flops / 16, "{n} tasks vs {flops} flops");
    assert!(m
        .hypergraph()
        .vertex_weights()
        .iter()
        .all(|&w| u64::from(w) < flops / 64));
    for k in [16, 64] {
        let out = decompose(&a, &b, k);
        // Full: within ε of flop balance, with no budget or K fallback.
        assert_eq!(out.status, DecompositionStatus::Full, "K = {k}");
    }
}

#[test]
fn k_between_group_and_flop_counts_is_a_valid_exact_outcome() {
    // Two task groups of 8 flops each: K = 3, 4 and 16 exceed the
    // vertex count but not the work units.
    let a = mat(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]);
    let b = mat(
        2,
        8,
        (0..2)
            .flat_map(|i| (0..8).map(move |j| (i, j, 1.0)))
            .collect(),
    );
    assert_eq!(
        SpgemmModel::build(&a, &b)
            .unwrap()
            .hypergraph()
            .num_vertices(),
        2
    );
    for k in [3, 4, 16] {
        let out = decompose(&a, &b, k);
        assert_eq!(out.flops(), 16);
        assert_eq!(out.decomposition.k, k);
        // Two vertices cannot fill K parts: a typed degradation.
        assert_eq!(out.status.code(), Some("balance-infeasible"), "K = {k}");
    }
}
