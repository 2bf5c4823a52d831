//! Multi-seed fan-out: run the partitioner under several seeds, possibly
//! concurrently, collect every result, and keep the best of them (the
//! paper's 50-seed protocol). The fan-out is generic over what one seed
//! runs, so the hypergraph partitioner and the graph baseline (`fgh-graph`)
//! share it.
//!
//! Parallelism is config-gated through [`crate::Parallelism`] and changes
//! wall-clock only: each seed derives its own RNG streams, so per-seed
//! results are bit-identical whether the seeds run serially, fanned out
//! here, or both this fan-out *and* the recursive-bisection forks inside
//! each seed share one pool's threads. Every concurrency domain checks a
//! scratch arena out of a shared [`ArenaPool`], keeping the multilevel
//! hot loops free of synchronization.

use std::sync::Arc;

use fgh_hypergraph::Hypergraph;
use fgh_trace::SpanHandle;

use crate::arena::{ArenaIndex, ArenaPool};
use crate::config::PartitionConfig;
use crate::engine::MultilevelDriver;
use crate::error::{panic_message, PartitionError};
use crate::level::EngineStats;
use crate::recursive::{partition_hypergraph_with, PartitionResult};

/// Partitions `hg` once per seed `cfg.seed + i` for `i in 0..runs` and
/// returns the results in seed order (`runs` is clamped to at least 1).
/// See [`run_seeds`] for threading and panic containment.
pub fn partition_hypergraph_seeds<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    k: u32,
    cfg: &PartitionConfig,
    runs: usize,
) -> Vec<Result<PartitionResult, PartitionError>> {
    let pool = Arc::new(ArenaPool::new());
    run_seeds(cfg, runs, &pool, &SpanHandle::noop(), |driver| {
        partition_hypergraph_with(driver, hg, k, None)
    })
}

/// Calls `run` once per seed `cfg.seed + i` for `i in 0..runs` and
/// returns the results in seed order (`runs` is clamped to at least 1).
/// Each call gets a fresh [`MultilevelDriver`] over `pool` whose config
/// carries that seed, traced under a `run[i]` child span of `parent`
/// that receives the run's engine/arena counters.
///
/// Under a parallel `cfg.parallelism`, the seed range fans out over a
/// bounded fork-join pool by binary splitting; when the caller is already
/// inside a pool, its threads are reused instead of building a nested
/// one. A panicking seed becomes `Err(PartitionError::Worker(..))` in its
/// slot and leaves the other seeds unaffected.
pub fn run_seeds<R, F>(
    cfg: &PartitionConfig,
    runs: usize,
    pool: &Arc<ArenaPool>,
    parent: &SpanHandle,
    run: F,
) -> Vec<Result<R, PartitionError>>
where
    R: Send,
    F: Fn(&mut MultilevelDriver) -> Result<R, PartitionError> + Sync,
{
    let runs = runs.max(1);
    in_thread_pool(cfg.parallelism.resolved(), || {
        run_range(cfg, 0, runs, pool, parent, &run)
    })
}

/// Runs `op` inside a fork-join pool of `threads` threads, so the
/// `rayon::join`s it reaches can fork. Runs it inline when `threads` is 1,
/// when the caller already runs inside a pool (whose threads the joins
/// then share, instead of a nested pool), or when no pool can be built.
pub(crate) fn in_thread_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    if threads > 1 && rayon::current_thread_index().is_none() {
        if let Ok(pool) = rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            return pool.install(op);
        }
    }
    op()
}

/// The best of a multi-seed sweep: balanced results first, then the lower
/// objective, the earliest seed winning ties. `score` reads a result's
/// `(imbalance percent, objective)`; a result is balanced when its
/// imbalance is within `epsilon`. Failed seeds drop out; when every seed
/// failed, the first seed's error is returned.
pub fn best_of_seeds<R>(
    results: Vec<Result<R, PartitionError>>,
    epsilon: f64,
    score: impl Fn(&R) -> (f64, u64),
) -> Result<R, PartitionError> {
    let key = |r: &R| {
        let (imbalance_percent, objective) = score(r);
        (
            imbalance_percent <= epsilon * 100.0 + 1e-9,
            std::cmp::Reverse(objective),
        )
    };
    let mut best: Option<R> = None;
    let mut first_err: Option<PartitionError> = None;
    for r in results {
        match r {
            Ok(res) => {
                let better = match &best {
                    None => true,
                    Some(b) => key(&res) > key(b),
                };
                if better {
                    best = Some(res);
                }
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    best.ok_or_else(|| {
        first_err.unwrap_or_else(|| PartitionError::Worker("no seed produced a result".into()))
    })
}

/// Runs seed offsets `lo..hi`, halving the range across `rayon::join`
/// until single seeds remain. Results concatenate back in seed order.
fn run_range<R, F>(
    cfg: &PartitionConfig,
    lo: usize,
    hi: usize,
    pool: &Arc<ArenaPool>,
    span: &SpanHandle,
    run: &F,
) -> Vec<Result<R, PartitionError>>
where
    R: Send,
    F: Fn(&mut MultilevelDriver) -> Result<R, PartitionError> + Sync,
{
    if hi - lo <= 1 {
        return vec![run_seeded(cfg, lo, pool, span, run)];
    }
    let mid = lo + (hi - lo) / 2;
    let (mut left, mut right) = rayon::join(
        || run_range(cfg, lo, mid, pool, span, run),
        || run_range(cfg, mid, hi, pool, span, run),
    );
    left.append(&mut right);
    left
}

/// Records a finished run's engine and arena counters onto its `run[i]`
/// span (a no-op for noop scopes).
pub(crate) fn record_run_counters(
    scope: &SpanHandle,
    stats: &EngineStats,
    arena: crate::arena::ArenaStats,
) {
    if !scope.is_enabled() {
        return;
    }
    scope.counter("bisections", stats.bisections);
    scope.counter("levels", stats.levels);
    scope.counter("fm_passes", stats.fm_passes);
    scope.counter("fm_moves", stats.fm_moves);
    scope.counter("fm_rollbacks", stats.fm_rollbacks);
    scope.counter("parallel_forks", stats.parallel_forks);
    scope.counter(
        "budget_truncations",
        stats.wall_truncations
            + stats.level_truncations
            + stats.fm_truncations
            + stats.byte_truncations,
    );
    scope.counter("cancel_truncations", stats.cancel_truncations);
    scope.counter("arena_fresh", arena.fresh);
    scope.counter("arena_reused", arena.reused);
    scope.counter("gain_resizes", arena.bucket_grows);
}

/// One seed: a fresh driver over the shared arena pool, panics contained
/// to this seed's slot. The engine is panic-free by design; the catch is
/// defense in depth so a defect in one seed cannot sink a 50-seed sweep.
fn run_seeded<R>(
    cfg: &PartitionConfig,
    offset: usize,
    pool: &Arc<ArenaPool>,
    span: &SpanHandle,
    run: impl Fn(&mut MultilevelDriver) -> Result<R, PartitionError>,
) -> Result<R, PartitionError> {
    let mut c = cfg.clone();
    c.seed = cfg.seed.wrapping_add(offset as u64);
    let rspan = span.child_indexed("run", offset as u64);
    let scope = rspan.handle();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut driver = MultilevelDriver::with_pool(c, Arc::clone(pool));
        driver.set_trace_parent(scope.clone());
        let r = run(&mut driver);
        if r.is_ok() {
            record_run_counters(&scope, &driver.stats(), driver.arena_stats());
        }
        r
    }))
    .unwrap_or_else(|p| Err(PartitionError::Worker(panic_message(p))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Parallelism;
    use crate::recursive::partition_hypergraph;
    use crate::testutil::random_hypergraph;

    #[test]
    fn seeds_come_back_in_order_and_match_single_runs() {
        let hg = random_hypergraph(250, 400, 5, 31);
        let cfg = PartitionConfig::with_seed(5);
        let fanned = partition_hypergraph_seeds(&hg, 4, &cfg, 4);
        assert_eq!(fanned.len(), 4);
        for (i, r) in fanned.iter().enumerate() {
            let mut c = cfg.clone();
            c.seed = cfg.seed + i as u64;
            let single = partition_hypergraph(&hg, 4, &c).unwrap();
            let r = r.as_ref().unwrap();
            assert_eq!(
                r.partition.parts(),
                single.partition.parts(),
                "seed offset {i} differs from a standalone run"
            );
            assert_eq!(r.cutsize, single.cutsize);
        }
    }

    #[test]
    fn parallel_fanout_matches_serial_per_seed() {
        let hg = random_hypergraph(300, 500, 6, 7);
        let serial_cfg = PartitionConfig {
            parallelism: Parallelism::Serial,
            ..PartitionConfig::with_seed(9)
        };
        let par_cfg = PartitionConfig {
            parallelism: Parallelism::Threads(4),
            ..PartitionConfig::with_seed(9)
        };
        let serial = partition_hypergraph_seeds(&hg, 8, &serial_cfg, 6);
        let par = partition_hypergraph_seeds(&hg, 8, &par_cfg, 6);
        for (i, (s, p)) in serial.iter().zip(par.iter()).enumerate() {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.cutsize, p.cutsize, "seed offset {i}");
            assert_eq!(s.imbalance_percent, p.imbalance_percent, "seed offset {i}");
            assert_eq!(s.partition.parts(), p.partition.parts(), "seed offset {i}");
        }
    }

    #[test]
    fn zero_runs_clamps_to_one() {
        let hg = random_hypergraph(100, 150, 4, 2);
        let out = partition_hypergraph_seeds(&hg, 2, &PartitionConfig::with_seed(1), 0);
        assert_eq!(out.len(), 1);
        assert!(out.first().is_some_and(|r| r.is_ok()));
    }

    #[test]
    fn best_of_seeds_prefers_balanced_then_lower_objective_then_earliest() {
        // Results are (imbalance %, objective, seed offset); ε = 3%.
        type R = Result<(f64, u64, usize), PartitionError>;
        let pick = |results: Vec<R>| best_of_seeds(results, 0.03, |r| (r.0, r.1));
        let worker = |m: &str| PartitionError::Worker(m.into());
        // A balanced result beats any unbalanced one, whatever its cut.
        let r = pick(vec![Ok((5.0, 1, 0)), Ok((3.0, 9, 1))]).unwrap();
        assert_eq!(r.2, 1);
        // Among balanced results the lower objective wins, and a tie
        // keeps the earliest seed.
        let r = pick(vec![Ok((1.0, 7, 0)), Ok((0.0, 5, 1)), Ok((2.0, 5, 2))]).unwrap();
        assert_eq!(r.2, 1);
        // Failed seeds drop out; when every seed failed, the first error
        // comes back.
        let r = pick(vec![Err(worker("a")), Ok((9.0, 1, 1))]).unwrap();
        assert_eq!(r.2, 1);
        let e = pick(vec![Err(worker("a")), Err(worker("b"))]).unwrap_err();
        assert!(matches!(e, PartitionError::Worker(m) if m == "a"));
    }
}
