//! Per-level storage and instrumentation for the multilevel engine.

use crate::engine::Substrate;

/// One coarsening level of a multilevel run over any
/// [`crate::engine::Substrate`]: the contracted structure plus the
/// fine→coarse projection map.
///
/// The map entries are coarse vertex ids, so they carry the substrate's
/// index width `S::Ix` — at `u64` width a map over `n` fine vertices is
/// the single largest per-level allocation, which is exactly what the
/// byte-budget checkpoint accounts via [`Level::heap_bytes`].
#[derive(Debug)]
pub struct Level<S: Substrate> {
    /// The contracted substrate.
    pub coarse: S,
    /// Fine-vertex → coarse-vertex map.
    pub map: Vec<S::Ix>,
}

impl<S: Substrate> Level<S> {
    /// Heap bytes held by this level: the contracted substrate plus the
    /// projection map.
    pub fn heap_bytes(&self) -> usize {
        self.coarse.heap_bytes() + self.map.capacity() * std::mem::size_of::<S::Ix>()
    }
}

/// Instrumentation counters threaded through
/// [`crate::engine::MultilevelDriver`]. Counters are always collected
/// (they are a handful of integer adds per level/pass), and so are the
/// per-stage wall-clock fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Bisections driven (nodes of the recursive-bisection tree).
    pub bisections: u64,
    /// Coarsening levels built across all bisections.
    pub levels: u64,
    /// Incidences (pins / adjacency entries) surviving contraction, summed
    /// over all levels.
    pub contracted_incidences: u64,
    /// FM passes run (including initial-partitioning refinement).
    pub fm_passes: u64,
    /// Tentative FM moves applied across all passes (before rollback).
    pub fm_moves: u64,
    /// Tentative moves undone by best-prefix rollback (so
    /// `fm_moves - fm_rollbacks` moves were actually kept).
    pub fm_rollbacks: u64,
    /// Times the wall-clock budget checkpoint fired and skipped work
    /// (coarsening stopped, quick initial split, or refinement skipped).
    pub wall_truncations: u64,
    /// Times coarsening stopped early because `Budget::max_levels` was
    /// reached in a bisection.
    pub level_truncations: u64,
    /// Times an initial-partitioning try or an uncoarsening level ran
    /// fewer FM passes than configured because `Budget::max_fm_passes`
    /// was exhausted.
    pub fm_truncations: u64,
    /// Times coarsening stopped early because `Budget::max_bytes` was
    /// reached in a bisection (the run continues from the coarseness it
    /// reached — truncated but valid, never an abort).
    pub byte_truncations: u64,
    /// Times a checkpoint stopped work because an external
    /// [`crate::CancelToken`] was tripped. Deliberately *not* part of
    /// [`EngineStats::truncated`]: a cancelled run is reported as
    /// cancelled, not as a budget accident.
    pub cancel_truncations: u64,
    /// Recursion branches the parallel driver ran on a thread other than
    /// their parent's (0 in serial runs and whenever the recursion ran
    /// inline; a join whose branch ran inline does not count).
    pub parallel_forks: u64,
    /// Wall-clock nanoseconds in coarsening.
    pub coarsen_nanos: u64,
    /// Wall-clock nanoseconds in initial partitioning.
    pub initial_nanos: u64,
    /// Wall-clock nanoseconds in refinement.
    pub refine_nanos: u64,
}

impl EngineStats {
    /// `true` when any *budget* checkpoint truncated work during the run —
    /// the partition is valid but may be lower quality than an unbounded
    /// run would produce. Cancellation is excluded; see
    /// [`EngineStats::cancelled`].
    pub fn truncated(&self) -> bool {
        self.wall_truncations > 0
            || self.level_truncations > 0
            || self.fm_truncations > 0
            || self.byte_truncations > 0
    }

    /// `true` when a checkpoint observed a tripped [`crate::CancelToken`]
    /// during the run — the partition is a valid partial of a cancelled
    /// job.
    pub fn cancelled(&self) -> bool {
        self.cancel_truncations > 0
    }

    /// Accumulates `other` into `self` (for merging per-run stats).
    pub fn merge(&mut self, other: &EngineStats) {
        self.bisections += other.bisections;
        self.levels += other.levels;
        self.contracted_incidences += other.contracted_incidences;
        self.fm_passes += other.fm_passes;
        self.fm_moves += other.fm_moves;
        self.fm_rollbacks += other.fm_rollbacks;
        self.wall_truncations += other.wall_truncations;
        self.level_truncations += other.level_truncations;
        self.fm_truncations += other.fm_truncations;
        self.byte_truncations += other.byte_truncations;
        self.cancel_truncations += other.cancel_truncations;
        self.parallel_forks += other.parallel_forks;
        self.coarsen_nanos += other.coarsen_nanos;
        self.initial_nanos += other.initial_nanos;
        self.refine_nanos += other.refine_nanos;
    }
}

/// Stage timer: adds the wall-clock time between `start` and `stop` to
/// one of the `*_nanos` fields.
pub(crate) struct StageTimer(std::time::Instant);

impl StageTimer {
    pub(crate) fn start() -> Self {
        StageTimer(std::time::Instant::now())
    }

    pub(crate) fn stop(self, into: &mut u64) {
        *into += self.0.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters() {
        let mut a = EngineStats {
            bisections: 1,
            fm_moves: 10,
            ..Default::default()
        };
        let b = EngineStats {
            bisections: 2,
            fm_moves: 5,
            levels: 3,
            byte_truncations: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.bisections, 3);
        assert_eq!(a.fm_moves, 15);
        assert_eq!(a.levels, 3);
        assert_eq!(a.byte_truncations, 1);
        assert!(a.truncated());
    }
}
