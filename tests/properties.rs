//! Property-based tests (proptest) on the library's core invariants, with
//! randomly generated matrices and partitions rather than partitioner
//! outputs — the identities must hold for *every* valid input.

use fine_grain_hypergraph::core::models::{ColumnNetModel, FineGrainModel, RowNetModel};
use fine_grain_hypergraph::core::CommStats;
use fine_grain_hypergraph::prelude::*;
use proptest::prelude::*;

/// Strategy: a random square matrix of order 2..=20 as unique positions.
fn square_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2u32..=20)
        .prop_flat_map(|n| {
            let max_nnz = (n * n) as usize;
            (
                Just(n),
                proptest::collection::btree_set((0..n, 0..n), 1..=max_nnz.min(80)),
            )
        })
        .prop_map(|(n, pos)| {
            let triplets: Vec<(u32, u32, f64)> = pos
                .into_iter()
                .enumerate()
                .map(|(e, (i, j))| (i, j, 1.0 + e as f64))
                .collect();
            CsrMatrix::from_coo(CooMatrix::from_triplets(n, n, triplets).expect("in bounds"))
        })
}

proptest! {
    /// CSR -> CSC -> CSR and CSR -> COO -> CSR round trips are lossless.
    #[test]
    fn format_roundtrips(a in square_matrix()) {
        prop_assert_eq!(&a.to_csc().to_csr(), &a);
        prop_assert_eq!(&CsrMatrix::from_coo(a.to_coo()), &a);
        prop_assert_eq!(&a.transpose().transpose(), &a);
    }

    /// Matrix Market write/read is lossless for any matrix.
    #[test]
    fn matrix_market_roundtrip(a in square_matrix()) {
        let mut buf = Vec::new();
        fine_grain_hypergraph::sparse::io::write_matrix_market_to(&a, &mut buf).unwrap();
        let b = CsrMatrix::from_coo(
            fine_grain_hypergraph::sparse::io::read_matrix_market_from(buf.as_slice()).unwrap(),
        );
        prop_assert_eq!(a, b);
    }

    /// Fine-grain model structure: |V| = Z + dummies, |N| = 2M, every
    /// vertex has degree exactly 2, total pins = 2|V|, total weight = Z.
    #[test]
    fn fine_grain_structure(a in square_matrix()) {
        let m = FineGrainModel::build(&a).unwrap();
        let hg = m.hypergraph();
        prop_assert_eq!(hg.num_vertices() as usize, a.nnz() + m.num_dummy_vertices());
        prop_assert_eq!(hg.num_nets(), 2 * a.nrows());
        prop_assert_eq!(hg.num_pins(), 2 * hg.num_vertices() as usize);
        prop_assert_eq!(hg.total_vertex_weight(), a.nnz() as u64);
        for v in 0..hg.num_vertices() {
            prop_assert_eq!(hg.vertex_degree(v), 2);
        }
        // Consistency condition: v_jj in pins of both nets, for every j.
        for j in 0..a.nrows() {
            let d = m.diag_vertex(j);
            prop_assert!(hg.pins(m.row_net(j)).contains(&d));
            prop_assert!(hg.pins(m.col_net(j)).contains(&d));
        }
    }

    /// THE PAPER'S CENTRAL THEOREM, property-tested: for ANY partition of
    /// the fine-grain hypergraph, the connectivity−1 cutsize equals the
    /// exact communication volume of the decoded decomposition.
    #[test]
    fn fine_grain_cutsize_equals_volume(
        a in square_matrix(),
        k in 2u32..=5,
        seed in 0u64..1000,
    ) {
        let m = FineGrainModel::build(&a).unwrap();
        let hg = m.hypergraph();
        // Random vertex partition.
        let mut rng = SmallRng::seed_from_u64(seed);
        let parts: Vec<u32> = (0..hg.num_vertices())
            .map(|_| rand::Rng::gen_range(&mut rng, 0..k))
            .collect();
        let p = Partition::new(k, parts).unwrap();
        let d = m.decode(&a, &p).unwrap();
        let stats = CommStats::compute(&a, &d).unwrap();
        prop_assert_eq!(cutsize_connectivity(hg, &p), stats.total_volume());
        // And the simulator moves exactly that many words.
        let plan = DistributedSpmv::build(&a, &d).unwrap();
        let x = vec![1.0; a.ncols() as usize];
        let (y, comm) = plan.multiply(&x).unwrap();
        prop_assert_eq!(comm.total_words(), stats.total_volume());
        prop_assert_eq!(y, a.spmv(&x).unwrap());
    }

    /// Same identity for the 1D column-net model (expand volume only).
    #[test]
    fn colnet_cutsize_equals_volume(
        a in square_matrix(),
        k in 2u32..=4,
        seed in 0u64..1000,
    ) {
        let m = ColumnNetModel::build(&a).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let parts: Vec<u32> = (0..a.nrows())
            .map(|_| rand::Rng::gen_range(&mut rng, 0..k))
            .collect();
        let p = Partition::new(k, parts).unwrap();
        let d = m.decode(&a, &p).unwrap();
        let stats = CommStats::compute(&a, &d).unwrap();
        prop_assert_eq!(stats.fold_volume, 0);
        prop_assert_eq!(cutsize_connectivity(m.hypergraph(), &p), stats.total_volume());
    }

    /// And the row-net model (fold volume only).
    #[test]
    fn rownet_cutsize_equals_volume(
        a in square_matrix(),
        k in 2u32..=4,
        seed in 0u64..1000,
    ) {
        let m = RowNetModel::build(&a).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let parts: Vec<u32> = (0..a.nrows())
            .map(|_| rand::Rng::gen_range(&mut rng, 0..k))
            .collect();
        let p = Partition::new(k, parts).unwrap();
        let d = m.decode(&a, &p).unwrap();
        let stats = CommStats::compute(&a, &d).unwrap();
        prop_assert_eq!(stats.expand_volume, 0);
        prop_assert_eq!(cutsize_connectivity(m.hypergraph(), &p), stats.total_volume());
    }

    /// The partitioner always returns valid, reasonably balanced
    /// partitions whose reported cutsize matches a recomputation.
    #[test]
    fn partitioner_postconditions(
        a in square_matrix(),
        k in 1u32..=4,
        seed in 0u64..100,
    ) {
        let m = FineGrainModel::build(&a).unwrap();
        let r = partition_hypergraph(m.hypergraph(), k, &PartitionConfig::with_seed(seed)).unwrap();
        prop_assert_eq!(r.partition.k(), k);
        prop_assert_eq!(r.partition.len(), m.hypergraph().num_vertices() as usize);
        prop_assert_eq!(r.cutsize, cutsize_connectivity(m.hypergraph(), &r.partition));
        // Decoding never fails (consistency condition holds by construction).
        let d = m.decode(&a, &r.partition).unwrap();
        d.validate(&a).unwrap();
    }

    /// Distributed SpMV is numerically exact for arbitrary decompositions
    /// and input vectors.
    #[test]
    fn spmv_exactness(
        a in square_matrix(),
        k in 1u32..=4,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nz: Vec<u32> = (0..a.nnz()).map(|_| rand::Rng::gen_range(&mut rng, 0..k)).collect();
        let vo: Vec<u32> = (0..a.nrows()).map(|_| rand::Rng::gen_range(&mut rng, 0..k)).collect();
        let d = Decomposition::general(&a, k, nz, vo).unwrap();
        let plan = DistributedSpmv::build(&a, &d).unwrap();
        let x: Vec<f64> = (0..a.ncols())
            .map(|_| rand::Rng::gen_range(&mut rng, -10.0..10.0))
            .collect();
        let (y, _) = plan.multiply(&x).unwrap();
        let y_serial = a.spmv(&x).unwrap();
        for (yp, ys) in y.iter().zip(&y_serial) {
            prop_assert!((yp - ys).abs() <= 1e-9 * ys.abs().max(1.0));
        }
    }

    /// Coarsening invariant: for ANY partition of the coarse hypergraph,
    /// its connectivity−1 cutsize equals the cutsize of the projected
    /// fine partition (merged identical nets carry summed costs; dropped
    /// single-pin nets can never be cut).
    #[test]
    fn coarsening_preserves_projected_cutsize(
        a in square_matrix(),
        seed in 0u64..500,
        k in 2u32..=4,
    ) {
        use fine_grain_hypergraph::partition::coarsen::coarsen_once;
        use fine_grain_hypergraph::partition::CoarseningScheme;
        let m = FineGrainModel::build(&a).unwrap();
        let hg = m.hypergraph();
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Some(level) = coarsen_once(
            hg,
            CoarseningScheme::Hcc,
            64,
            hg.total_vertex_weight().max(1),
            &mut rng,
        ) {
            // Total weight preserved.
            prop_assert_eq!(level.coarse.total_vertex_weight(), hg.total_vertex_weight());
            // Random coarse partition -> projected fine partition.
            let coarse_parts: Vec<u32> = (0..level.coarse.num_vertices())
                .map(|_| rand::Rng::gen_range(&mut rng, 0..k))
                .collect();
            let pc = Partition::new(k, coarse_parts).unwrap();
            let fine_parts: Vec<u32> = (0..hg.num_vertices())
                .map(|v| pc.part(level.map[v as usize]))
                .collect();
            let pf = Partition::new(k, fine_parts).unwrap();
            prop_assert_eq!(
                cutsize_connectivity(&level.coarse, &pc),
                cutsize_connectivity(hg, &pf)
            );
        }
    }

    /// Symmetric partitioning invariant: the decoded x-owner and y-owner
    /// coincide for every index (conformal vectors).
    #[test]
    fn symmetric_partitioning(a in square_matrix(), seed in 0u64..100) {
        let m = FineGrainModel::build(&a).unwrap();
        let r = partition_hypergraph(m.hypergraph(), 3, &PartitionConfig::with_seed(seed)).unwrap();
        let d = m.decode(&a, &r.partition).unwrap();
        // Decomposition stores a single vec_owner used for both x and y —
        // assert it matches part[v_jj] on both nets' connectivity sets.
        for j in 0..a.nrows() {
            prop_assert_eq!(d.vec_owner[j as usize], r.partition.part(m.diag_vertex(j)));
        }
    }
}
