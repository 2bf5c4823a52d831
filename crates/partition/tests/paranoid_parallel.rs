//! Thread-safety audit: runs the parallel driver with the `paranoid`
//! feature's invariant validators live at every engine checkpoint. A
//! cross-thread arena aliasing bug (two domains sharing scratch, a
//! recycled buffer leaking between subtrees) corrupts the extracted
//! sub-hypergraphs, which these validators reject by panicking — so a
//! clean pass is evidence the per-domain arena discipline holds under
//! real fork-join concurrency.
//!
//! Build with `cargo test -p fgh-partition --features paranoid`.
#![cfg(feature = "paranoid")]

use std::sync::Arc;

use fgh_hypergraph::Hypergraph;
use fgh_partition::{
    partition_hypergraph_seeds, ArenaPool, Budget, MultilevelDriver, Parallelism, PartitionConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random hypergraph: `nv` vertices, `nn` nets of 2..=6 pins.
fn random_hypergraph(nv: u32, nn: u32, seed: u64) -> Hypergraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut nets = Vec::with_capacity(nn as usize);
    for _ in 0..nn {
        let size = rng.gen_range(2..=6).min(nv as usize);
        let mut pins: Vec<u32> = Vec::with_capacity(size);
        while pins.len() < size {
            let v = rng.gen_range(0..nv);
            if !pins.contains(&v) {
                pins.push(v);
            }
        }
        nets.push(pins);
    }
    Hypergraph::from_nets(nv, &nets).expect("valid test hypergraph")
}

#[test]
fn parallel_driver_passes_invariant_validators() {
    let hg = random_hypergraph(600, 1400, 42);
    let cfg = PartitionConfig {
        seed: 3,
        parallelism: Parallelism::Threads(4),
        ..Default::default()
    };
    // 4 seeds x K=8 forks both the multi-seed fan-out and the in-tree
    // recursive-bisection parallelism, with paranoid checkpoints armed.
    let results = partition_hypergraph_seeds(&hg, 8, &cfg, 4);
    assert_eq!(results.len(), 4);
    for r in results {
        let r = r.expect("paranoid parallel run failed");
        assert_eq!(r.partition.k(), 8);
        r.partition.validate(&hg, false).expect("valid partition");
    }
}

/// A fork-join pool exactly `width` threads wide, whatever the host's CPUs.
fn pool_of(width: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("thread pool")
}

#[test]
fn inline_joins_run_on_the_callers_arena() {
    let hg = random_hypergraph(600, 1400, 42);
    let arenas = Arc::new(ArenaPool::new());
    let cfg = PartitionConfig {
        seed: 3,
        parallelism: Parallelism::Threads(2),
        ..Default::default()
    };
    // In a one-wide pool every join of the K = 16 recursion runs its
    // right branch inline, on the caller's own driver: the run works on
    // one arena, and parks exactly that one when the driver drops.
    let forks = pool_of(1).install(|| {
        let mut driver = MultilevelDriver::with_pool(cfg, Arc::clone(&arenas));
        driver.partition_recursive(&hg, 16);
        driver.stats().parallel_forks
    });
    assert_eq!(forks, 0, "a one-wide pool never forks");
    assert_eq!(arenas.idle(), 1, "idle arenas after one inline run");
}

#[test]
fn fm_pass_budget_counts_per_branch_inline_or_forked() {
    let hg = random_hypergraph(600, 1400, 42);
    // Every initial try runs a pass while the budget has one left, so the
    // budget's three passes run out in the initial tries of each
    // domain's first bisection.
    let cfg = PartitionConfig {
        seed: 3,
        parallelism: Parallelism::Threads(2),
        budget: Budget {
            max_fm_passes: Some(3),
            ..Budget::UNLIMITED
        },
        ..Default::default()
    };
    // Every right branch counts FM passes from zero, whether it forked
    // or ran inline, so the truncation and the parts do not depend on
    // how many joins found a free thread.
    let parts = |width| {
        pool_of(width).install(|| {
            MultilevelDriver::new(cfg.clone())
                .partition_recursive(&hg, 16)
                .parts
        })
    };
    assert_eq!(parts(1), parts(4));
}
