//! # fgh-partition — multilevel hypergraph partitioner
//!
//! A PaToH-style multilevel hypergraph partitioner, built from scratch:
//!
//! * **Coarsening** ([`coarsen`]): heavy-connectivity matching (HCM) or
//!   agglomerative heavy-connectivity clustering (HCC), followed by
//!   contraction that dedupes pins, drops single-pin nets, and merges
//!   identical nets (summing their costs).
//! * **Initial partitioning** ([`initial`]): multiple tries, best kept,
//!   each seeded by greedy hypergraph growing (GHG) and then FM-polished;
//!   weight-only bin packing is the quick split of an interrupted run.
//! * **Refinement** ([`refine`]): Fiduccia–Mattheyses passes with
//!   gain-bucket lists, balance-constrained moves, lock-on-move, and
//!   best-prefix rollback.
//! * **K-way** ([`recursive`]): recursive bisection with **net splitting**,
//!   which makes the per-bisection cut-net objective compose to the
//!   K-way connectivity−1 objective (eq. 3 of the paper) — the metric that
//!   equals SpMV communication volume under the fine-grain model.
//!
//! Entry points: [`partition_hypergraph`] for one run,
//! [`partition_hypergraph_best`] for the paper's multi-seed protocol
//! (PaToH was run 50 times per instance; seeds run in parallel here).
//!
//! ## The unified engine
//!
//! The multilevel machinery is substrate-generic: the [`engine::Substrate`]
//! trait abstracts cut accounting, contraction, and extraction, and
//! [`engine::MultilevelDriver`] runs the V-cycle and recursive bisection
//! for both hypergraphs and graphs (`fgh-graph` implements the trait for
//! its CSR graph). The driver draws all per-level scratch from an
//! [`arena::LevelArena`], so a K-way run performs O(levels) allocations
//! instead of O(levels × vertices). [`level::EngineStats`] collects
//! counters and per-stage wall-clock timing on every run.
//!
//! ## Parallelism
//!
//! [`PartitionConfig::parallelism`] gates a fork-join parallel mode
//! ([`Parallelism::Threads`] / [`Parallelism::Auto`]): independent
//! recursive-bisection subtrees and the seeds of a multi-seed sweep
//! ([`parallel::run_seeds`], shared with the graph baseline) run
//! concurrently, each domain drawing its scratch from a shared
//! [`arena::ArenaPool`]. Every
//! recursion node seeds its RNG from its own identity, so parallel runs
//! are **bit-identical** to serial ones — threads change wall-clock time
//! only.

// Robustness contract: partitioning runs on untrusted, possibly degenerate
// instances, so the library (non-test) code must not panic. Sites that are
// provably infallible carry a narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
pub mod cancel;
pub mod coarsen;
pub mod config;
pub mod connectivity;
pub mod engine;
pub mod error;
pub mod gain;
pub mod initial;
pub mod kway;
pub mod level;
pub mod parallel;
pub mod recursive;
pub mod refine;

pub use arena::{ArenaIndex, ArenaPool, ArenaStats, LevelArena};
pub use cancel::CancelToken;
pub use config::{Budget, CoarseningScheme, Parallelism, PartitionConfig};
pub use connectivity::NetConnectivity;
pub use engine::{MultilevelDriver, RecursiveOutcome, Substrate};
pub use error::PartitionError;
pub use level::{EngineStats, Level};
pub use parallel::{best_of_seeds, partition_hypergraph_seeds, run_seeds};
pub use recursive::{
    partition_hypergraph, partition_hypergraph_best, partition_hypergraph_best_traced_in,
    partition_hypergraph_traced, partition_hypergraph_with, PartitionResult,
};

#[cfg(test)]
pub(crate) mod testutil {
    use fgh_hypergraph::Hypergraph;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Random hypergraph for stress tests: `nv` vertices, `nn` nets of size
    /// 2..=max_size.
    pub fn random_hypergraph(nv: u32, nn: u32, max_size: usize, seed: u64) -> Hypergraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut nets = Vec::with_capacity(nn as usize);
        for _ in 0..nn {
            let size = rng.gen_range(2..=max_size.max(2)).min(nv as usize);
            let mut pins: Vec<u32> = Vec::with_capacity(size);
            while pins.len() < size {
                let v = rng.gen_range(0..nv);
                if !pins.contains(&v) {
                    pins.push(v);
                }
            }
            nets.push(pins);
        }
        Hypergraph::from_nets(nv, &nets).unwrap()
    }

    /// A hypergraph with two dense clusters joined by a single bridge net —
    /// the obvious optimal bisection cuts only the bridge.
    pub fn two_clusters(per_side: u32) -> Hypergraph {
        let n = per_side * 2;
        let mut nets = Vec::new();
        for i in 0..per_side - 1 {
            nets.push(vec![i, i + 1]);
            nets.push(vec![per_side + i, per_side + i + 1]);
        }
        // Triangles for density.
        for i in 0..per_side.saturating_sub(2) {
            nets.push(vec![i, i + 2]);
            nets.push(vec![per_side + i, per_side + i + 2]);
        }
        nets.push(vec![per_side - 1, per_side]); // the bridge
        Hypergraph::from_nets(n, &nets).unwrap()
    }
}
