//! # fgh-graph — undirected graphs and a MeTiS-style multilevel partitioner
//!
//! The *standard graph model* baseline the paper compares against: a
//! weighted undirected graph is partitioned with the classic multilevel
//! scheme (heavy-edge matching coarsening, greedy graph growing initial
//! partitioning, Kernighan–Lin/Fiduccia–Mattheyses refinement, recursive
//! bisection), minimizing *edge cut* under a balance constraint.
//!
//! The edge cut only *approximates* SpMV communication volume — that
//! approximation error is exactly what the paper's hypergraph models fix —
//! so the decomposition-model layer (`fgh-core`) always reports true
//! decoded volumes for every model, including this one.
//!
//! The multilevel machinery itself is **not** duplicated here: [`CsrGraph`]
//! implements `fgh_partition::Substrate` (see [`partition`]), and the whole
//! coarsen → initial → refine → recurse pipeline runs on
//! `fgh_partition::MultilevelDriver`, configured by the same
//! [`PartitionConfig`] as the hypergraph partitioner.

// Robustness contract: library (non-test) code must not panic; provably
// infallible sites carry a narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod graph;
pub mod io;
pub mod partition;

pub use fgh_partition::PartitionConfig;
pub use graph::CsrGraph;
pub use partition::{
    partition_graph, partition_graph_best, partition_graph_best_traced_in, partition_graph_with,
    GraphPartitionResult,
};

#[cfg(test)]
pub(crate) mod testutil {
    use crate::graph::CsrGraph;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Two cliques of `per_side` vertices joined by one edge.
    pub fn two_cliques(per_side: u32) -> CsrGraph {
        let n = per_side * 2;
        let mut edges = Vec::new();
        for base in [0, per_side] {
            for i in 0..per_side {
                for j in (i + 1)..per_side {
                    edges.push((base + i, base + j, 1u32));
                }
            }
        }
        edges.push((per_side - 1, per_side, 1));
        CsrGraph::from_edges(n, &edges, None).unwrap()
    }

    /// Random connected graph: a path plus `extra` random edges.
    pub fn random_graph(n: u32, extra: usize, seed: u64) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32, u32)> = (1..n).map(|i| (i - 1, i, 1)).collect();
        for _ in 0..extra {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                edges.push((u.min(v), u.max(v), 1));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        CsrGraph::from_edges(n, &edges, None).unwrap()
    }
}
