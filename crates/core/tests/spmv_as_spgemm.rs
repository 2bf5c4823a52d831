//! SpMV is SpGEMM with a dense n×1 `B`: on a matrix with a full
//! diagonal (so the fine-grain model needs no dummy vertices), the SpGEMM
//! hypergraph of `(A, x)` is the paper's fine-grain hypergraph of `A`.
//! Every task group is one task (each `a_ik` meets the one entry of row
//! `k` of `x`), so group `t` is nonzero `t`, no group is split and there
//! are no A-nets, the B-net of `x_j` is the column net `n_j`, and the
//! C-net of `y_i` is the row net `m_i`: both models price every
//! partition alike.

use fgh_core::models::{FineGrainModel, SpgemmModel};
use fgh_hypergraph::{cutsize_connectivity, Partition};
use fgh_sparse::{catalog, CooMatrix, CsrMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Catalog entry `entry` at scale 16, with its missing diagonal entries
/// added.
fn full_diagonal(entry: usize, seed: u64) -> CsrMatrix {
    let a = catalog::catalog()[entry].generate_scaled(16, seed);
    let n = a.nrows();
    let mut has_diag = vec![false; n as usize];
    let mut triplets: Vec<(u32, u32, f64)> = a
        .iter()
        .inspect(|&(i, j, _)| has_diag[i as usize] |= i == j)
        .collect();
    triplets.extend(
        (0..n)
            .filter(|&i| !has_diag[i as usize])
            .map(|i| (i, i, 1.0)),
    );
    CsrMatrix::from_coo(CooMatrix::from_triplets(n, n, triplets).unwrap())
}

proptest! {
    #[test]
    fn spmv_is_spgemm_with_a_dense_column(
        entry in 0..catalog::catalog().len(),
        seed in 1u64..4,
        k in (0usize..3).prop_map(|i| [2u32, 5, 16][i]),
        partition_seed in 0u64..1_000_000,
    ) {
        let a = full_diagonal(entry, seed);
        let (n, nnz) = (a.nrows(), a.nnz() as u32);
        let x = CsrMatrix::from_coo(
            CooMatrix::from_triplets(n, 1, (0..n).map(|j| (j, 0, 1.0))).unwrap(),
        );
        let fg = FineGrainModel::build(&a).unwrap();
        let sg = SpgemmModel::build(&a, &x).unwrap();
        let (fh, sh) = (fg.hypergraph(), sg.hypergraph());
        prop_assert_eq!(fg.num_dummy_vertices(), 0);

        // The same vertices: one unit-weight task group per nonzero, in
        // CSR order.
        prop_assert_eq!(sh.num_vertices(), nnz);
        prop_assert_eq!(sh.num_vertices(), fh.num_vertices());
        prop_assert_eq!(sh.vertex_weights(), fh.vertex_weights());

        // No A-nets; n unit-cost B-nets, then n C-nets.
        prop_assert_eq!(sh.num_nets(), 2 * n);
        prop_assert!(sh.net_costs().iter().all(|&c| c == 1));
        for j in 0..n {
            prop_assert_eq!(sh.pins(j), fh.pins(fg.col_net(j)), "B-net {}", j);
        }
        for i in 0..n {
            prop_assert_eq!(sh.pins(n + i), fh.pins(fg.row_net(i)), "C-net {}", i);
        }

        // So the connectivity−1 cutsizes agree.
        let mut rng = SmallRng::seed_from_u64(partition_seed);
        let parts: Vec<u32> = (0..fh.num_vertices()).map(|_| rng.gen_range(0..k)).collect();
        let p = Partition::new(k, parts).unwrap();
        prop_assert_eq!(cutsize_connectivity(sh, &p), cutsize_connectivity(fh, &p));
    }
}
