//! Recursive-bisection K-way partitioning with net splitting, plus the
//! multi-seed driver matching the paper's experimental protocol.
//!
//! The recursion itself lives in
//! [`MultilevelDriver::partition_recursive`]; this module adds the
//! hypergraph-specific validation, the K-way greedy post-refinement,
//! and the metric bookkeeping of [`PartitionResult`].
//!
//! Every entry point is generic over the hypergraph's index width `I`
//! (`u32` by default, `u64` for instances whose pin counts overflow
//! `u32`); the partition itself always carries `u32` part ids.

use fgh_hypergraph::{
    cutsize_connectivity, cutsize_cutnet, Hypergraph, HypergraphError, Partition,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use fgh_trace::SpanHandle;

use crate::arena::ArenaIndex;
use crate::config::PartitionConfig;
use crate::engine::MultilevelDriver;
use crate::error::PartitionError;
use crate::kway::kway_refine;
use crate::level::EngineStats;

/// Outcome of a K-way partitioning run.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// The K-way vertex partition.
    pub partition: Partition,
    /// Connectivity−1 cutsize (eq. 3) — equals SpMV communication volume
    /// in words under the fine-grain model.
    pub cutsize: u64,
    /// Cut-net cutsize (eq. 2), for reference.
    pub cutnet: u64,
    /// Percent load imbalance `100 (W_max − W_avg) / W_avg`.
    pub imbalance_percent: f64,
    /// Sum of the per-bisection cut-net cuts over the recursion tree,
    /// before any K-way post-refinement. With net splitting this equals
    /// the connectivity−1 cutsize of the recursive-bisection partition
    /// (eq. 3 composition).
    pub bisection_cut_sum: u64,
    /// Engine instrumentation for this run, including budget-truncation
    /// counters (see [`EngineStats::truncated`]).
    pub stats: EngineStats,
}

/// Partitions `hg` into `k` parts using multilevel recursive bisection.
///
/// ```
/// use fgh_hypergraph::Hypergraph;
/// use fgh_partition::{partition_hypergraph, PartitionConfig};
/// // Two pairs tied internally, one bridge net between them.
/// let hg = Hypergraph::from_nets(4u32, &[vec![0, 1], vec![2, 3], vec![1, 2]]).unwrap();
/// let r = partition_hypergraph(&hg, 2, &PartitionConfig::with_seed(1)).unwrap();
/// assert_eq!(r.cutsize, 1); // only the bridge is cut
/// assert_eq!(r.partition.part(0), r.partition.part(1));
/// assert_eq!(r.partition.part(2), r.partition.part(3));
/// ```
pub fn partition_hypergraph<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    k: u32,
    cfg: &PartitionConfig,
) -> Result<PartitionResult, PartitionError> {
    partition_hypergraph_with(&mut MultilevelDriver::new(cfg.clone()), hg, k)
}

/// [`partition_hypergraph`] recording under a trace scope: the multilevel
/// phase spans (`bisect` → `coarsen`/`initial`/`refine`) nest directly
/// under `parent`, and the run's engine/arena counters are recorded onto
/// `parent` itself. Meant for composite models that stitch several single runs
/// into one decomposition.
pub fn partition_hypergraph_traced<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    k: u32,
    cfg: &PartitionConfig,
    parent: &SpanHandle,
) -> Result<PartitionResult, PartitionError> {
    let mut driver = MultilevelDriver::new(cfg.clone());
    driver.set_trace_parent(parent.clone());
    let r = partition_hypergraph_with(&mut driver, hg, k);
    if let Ok(res) = &r {
        crate::parallel::record_run_counters(parent, &res.stats, driver.arena_stats());
    }
    r
}

/// [`partition_hypergraph`] on a caller-supplied [`MultilevelDriver`]
/// (whose config it runs under). The driver's arena and instrumentation
/// persist across calls, so repeated partitioning reuses all scratch
/// buffers.
pub fn partition_hypergraph_with<I: ArenaIndex>(
    driver: &mut MultilevelDriver,
    hg: &Hypergraph<I>,
    k: u32,
) -> Result<PartitionResult, PartitionError> {
    if k == 0 {
        return Err(HypergraphError::InvalidK.into());
    }
    // Arm the wall budget here so the window also covers the K-way
    // post-refinement below (partition_recursive arms only if unarmed).
    let armed_here = driver.arm_budget();
    let outcome = driver.partition_recursive(hg, k);
    let cfg = driver.cfg();

    let mut partition = Partition::new(k, outcome.parts).map_err(PartitionError::from)?;
    if k > 2 && !driver.interrupted() {
        let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0x9e3779b97f4a7c15));
        kway_refine(hg, &mut partition, cfg.epsilon, 2, &mut rng)?;
    }
    if armed_here {
        driver.disarm_budget();
    }

    let cutsize = cutsize_connectivity(hg, &partition);
    let cutnet = cutsize_cutnet(hg, &partition);
    let imbalance_percent = partition.imbalance_percent(hg);
    Ok(PartitionResult {
        partition,
        cutsize,
        cutnet,
        imbalance_percent,
        bisection_cut_sum: outcome.cut_sum,
        stats: driver.stats(),
    })
}

/// Runs [`partition_hypergraph`] with `runs` different seeds — fanned out
/// over threads per `cfg.parallelism` — and returns the best balanced
/// result by connectivity−1 cutsize, following the paper's 50-seed
/// protocol. A panicking seed becomes a `PartitionError::Worker` value;
/// the surviving seeds still compete for the best result.
pub fn partition_hypergraph_best<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    k: u32,
    cfg: &PartitionConfig,
    runs: usize,
) -> Result<PartitionResult, PartitionError> {
    partition_hypergraph_best_traced_in(
        hg,
        k,
        cfg,
        runs,
        &std::sync::Arc::new(crate::arena::ArenaPool::new()),
        &SpanHandle::noop(),
    )
}

/// [`partition_hypergraph_best`] drawing every seed's scratch arena from
/// a caller-supplied [`crate::ArenaPool`] and recording under a trace
/// scope — the pool-reuse entry point: a server passes one pool for
/// its whole lifetime so warm buffers survive across requests. Each seed
/// gets a `run[offset]` child span of `parent` carrying the run's
/// engine/arena counters, with the multilevel phase spans nested inside.
pub fn partition_hypergraph_best_traced_in<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    k: u32,
    cfg: &PartitionConfig,
    runs: usize,
    pool: &std::sync::Arc<crate::arena::ArenaPool>,
    parent: &SpanHandle,
) -> Result<PartitionResult, PartitionError> {
    let results = crate::parallel::run_seeds(cfg, runs, pool, parent, |driver| {
        partition_hypergraph_with(driver, hg, k)
    });
    crate::parallel::best_of_seeds(results, cfg.epsilon, |r| (r.imbalance_percent, r.cutsize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_hypergraph, two_clusters};

    #[test]
    fn k1_is_trivial() {
        let hg = two_clusters(10);
        let r = partition_hypergraph(&hg, 1, &PartitionConfig::default()).unwrap();
        assert_eq!(r.cutsize, 0);
        assert_eq!(r.bisection_cut_sum, 0);
        assert!(r.partition.parts().iter().all(|&p| p == 0));
    }

    #[test]
    fn k0_rejected() {
        let hg = two_clusters(4);
        assert!(matches!(
            partition_hypergraph(&hg, 0, &PartitionConfig::default()),
            Err(PartitionError::Hypergraph(HypergraphError::InvalidK))
        ));
    }

    #[test]
    fn k2_finds_bridge() {
        let hg = two_clusters(100);
        let r = partition_hypergraph(&hg, 2, &PartitionConfig::with_seed(3)).unwrap();
        assert_eq!(r.cutsize, 1);
        assert_eq!(r.bisection_cut_sum, 1);
        assert!(r.imbalance_percent <= 3.0 + 1e-9);
    }

    #[test]
    fn k4_balance_and_validity() {
        let hg = random_hypergraph(400, 600, 5, 1);
        let cfg = PartitionConfig::with_seed(7);
        let r = partition_hypergraph(&hg, 4, &cfg).unwrap();
        assert_eq!(r.partition.k(), 4);
        r.partition.validate(&hg, true).unwrap();
        assert!(
            r.imbalance_percent <= 3.5,
            "imbalance {}% exceeds epsilon",
            r.imbalance_percent
        );
        // Cutsize fields agree with the metric module.
        assert_eq!(r.cutsize, cutsize_connectivity(&hg, &r.partition));
        assert_eq!(r.cutnet, cutsize_cutnet(&hg, &r.partition));
        assert!(r.cutnet <= r.cutsize);
    }

    #[test]
    fn non_power_of_two_k() {
        let hg = random_hypergraph(300, 450, 5, 2);
        let r = partition_hypergraph(&hg, 5, &PartitionConfig::with_seed(1)).unwrap();
        assert_eq!(r.partition.k(), 5);
        let sizes = r.partition.part_sizes();
        assert!(sizes.iter().all(|&s| s > 0), "empty part in {sizes:?}");
        assert!(
            r.imbalance_percent <= 6.0,
            "imbalance {}%",
            r.imbalance_percent
        );
    }

    #[test]
    fn k_exceeding_vertices_yields_empty_parts_error_free() {
        // 3 vertices into 8 parts: parts will be empty, but the call should
        // not panic and the partition must still be valid by construction.
        let hg = Hypergraph::from_nets(3u32, &[vec![0, 1, 2]]).unwrap();
        let r = partition_hypergraph(&hg, 8, &PartitionConfig::default()).unwrap();
        assert_eq!(r.partition.len(), 3);
    }

    #[test]
    fn multi_seed_never_worse_than_single() {
        let hg = random_hypergraph(300, 500, 6, 4);
        let cfg = PartitionConfig::with_seed(1);
        let single = partition_hypergraph(&hg, 8, &cfg).unwrap();
        let best = partition_hypergraph_best(&hg, 8, &cfg, 4).unwrap();
        assert!(best.cutsize <= single.cutsize);
    }

    #[test]
    fn wide_partition_matches_narrow_end_to_end() {
        // The full pipeline (RB + K-way post-refinement) must be
        // bit-identical across index widths for the same seed.
        let hg = random_hypergraph(350, 520, 6, 21);
        let nets: Vec<Vec<u64>> = (0..hg.num_nets())
            .map(|n| hg.pins(n).iter().map(|&p| p as u64).collect())
            .collect();
        let hg64 = Hypergraph::<u64>::from_nets(350u64, &nets).unwrap();
        let cfg = PartitionConfig::with_seed(21);
        let r32 = partition_hypergraph(&hg, 6, &cfg).unwrap();
        let r64 = partition_hypergraph(&hg64, 6, &cfg).unwrap();
        assert_eq!(r32.partition.parts(), r64.partition.parts());
        assert_eq!(r32.cutsize, r64.cutsize);
        assert_eq!(r32.bisection_cut_sum, r64.bisection_cut_sum);
    }

    #[test]
    fn all_coarsening_and_initial_schemes_work() {
        use crate::config::CoarseningScheme;
        let hg = random_hypergraph(300, 450, 5, 12);
        for coarsening in [
            CoarseningScheme::Hcm,
            CoarseningScheme::Hcc,
            CoarseningScheme::ScaledHcc,
        ] {
            let cfg = PartitionConfig {
                coarsening,
                ..PartitionConfig::with_seed(4)
            };
            let r = partition_hypergraph(&hg, 4, &cfg).unwrap();
            r.partition.validate(&hg, true).unwrap();
            assert!(
                r.imbalance_percent <= 5.0,
                "{coarsening:?}: imbalance {}%",
                r.imbalance_percent
            );
        }
    }

    #[test]
    fn net_splitting_ablation_not_better_without() {
        // Averaged over seeds, disabling net splitting must not improve
        // the connectivity−1 cutsize (it optimizes the wrong objective).
        let hg = random_hypergraph(400, 600, 6, 13);
        let (mut with, mut without) = (0u64, 0u64);
        for seed in 0..6u64 {
            let on = PartitionConfig {
                net_splitting: true,
                ..PartitionConfig::with_seed(seed)
            };
            let off = PartitionConfig {
                net_splitting: false,
                ..PartitionConfig::with_seed(seed)
            };
            with += partition_hypergraph(&hg, 8, &on).unwrap().cutsize;
            without += partition_hypergraph(&hg, 8, &off).unwrap().cutsize;
        }
        assert!(
            with <= without,
            "net splitting should help: with={with} without={without}"
        );
    }

    #[test]
    fn determinism() {
        let hg = random_hypergraph(250, 400, 5, 9);
        let cfg = PartitionConfig::with_seed(11);
        let a = partition_hypergraph(&hg, 4, &cfg).unwrap();
        let b = partition_hypergraph(&hg, 4, &cfg).unwrap();
        assert_eq!(a.partition.parts(), b.partition.parts());
        assert_eq!(a.cutsize, b.cutsize);
    }

    #[test]
    fn shared_driver_reuses_arena_across_calls() {
        let hg = random_hypergraph(300, 450, 5, 6);
        let mut driver = MultilevelDriver::new(PartitionConfig::with_seed(8));
        let a = partition_hypergraph_with(&mut driver, &hg, 4).unwrap();
        let miss_after_first = driver.arena_stats().fresh;
        let b = partition_hypergraph_with(&mut driver, &hg, 4).unwrap();
        assert_eq!(
            a.partition.parts(),
            b.partition.parts(),
            "same seed, same result"
        );
        // The second run should be served almost entirely from the pool.
        let growth = driver.arena_stats().fresh - miss_after_first;
        assert!(
            growth <= miss_after_first / 4 + 1,
            "second run allocated {growth} fresh buffers (first: {miss_after_first})"
        );
    }
}
