//! Partitioner configuration.

use std::time::Duration;

use crate::cancel::CancelToken;
use crate::level::EngineStats;

/// Nets larger than this are skipped during the engine's coarsening
/// neighbor scans (they contribute little structural signal and cost
/// O(size²)).
pub(crate) const MAX_NET_SIZE_FOR_MATCHING: usize = 64;

/// The engine aborts an uncoarsening FM pass after this many consecutive
/// non-improving moves; the pass still rolls back to its best prefix.
pub(crate) const FM_EARLY_EXIT: usize = 400;

/// Resource budget for a partitioning run. Each limit is optional; `None`
/// means unbounded (the default). Budgets degrade gracefully: when a limit
/// trips, the engine keeps the best partition found so far and records the
/// truncation in [`crate::EngineStats`] rather than failing.
///
/// Checkpoints sit between coarsening levels and between FM passes (the
/// initial-partitioning tries' passes included), so a budget is honored
/// to the granularity of one level / one pass — a single checkpoint
/// interval may overshoot `max_wall` slightly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline for the whole run (coarsening through
    /// refinement, including K-way post-refinement).
    pub max_wall: Option<Duration>,
    /// Cap on total FM passes across all levels and bisections, the
    /// initial-partitioning tries' passes included.
    pub max_fm_passes: Option<u64>,
    /// Cap on coarsening levels built per bisection.
    pub max_levels: Option<u64>,
    /// Cap on engine heap bytes (levels + contracted substrates + arena
    /// pools), checked between coarsening levels. When the cap trips,
    /// coarsening stops at the size it reached and the run continues —
    /// a truncated-but-valid partition instead of an OOM abort. The input
    /// substrate itself is counted, so a cap smaller than the input stops
    /// level-building immediately (flat FM on the original structure).
    pub max_bytes: Option<usize>,
}

impl Budget {
    /// An unbounded budget.
    pub const UNLIMITED: Budget = Budget {
        max_wall: None,
        max_fm_passes: None,
        max_levels: None,
        max_bytes: None,
    };

    /// A wall-clock-only budget.
    pub fn wall(limit: Duration) -> Budget {
        Budget {
            max_wall: Some(limit),
            ..Budget::UNLIMITED
        }
    }

    /// A byte-cap-only budget.
    pub fn bytes(limit: usize) -> Budget {
        Budget {
            max_bytes: Some(limit),
            ..Budget::UNLIMITED
        }
    }

    /// `true` when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::UNLIMITED
    }

    /// FM passes still allowed by `max_fm_passes` once `stats` has run
    /// its passes, capped at `want`; records an `fm_truncations` tick
    /// when the cap bites. Every FM site asks this before it refines:
    /// each initial-partitioning try and each uncoarsening level.
    pub(crate) fn fm_pass_allowance(&self, stats: &mut EngineStats, want: usize) -> usize {
        match self.max_fm_passes {
            None => want,
            Some(max) => {
                let remaining = max.saturating_sub(stats.fm_passes);
                let allowed = (want as u64).min(remaining) as usize;
                if allowed < want {
                    stats.fm_truncations += 1;
                }
                allowed
            }
        }
    }

    /// The tighter of two budgets, limit by limit: a limit set on either
    /// side applies, and when both sides set one the smaller wins. A
    /// service uses this to clamp per-request budgets under a global
    /// ceiling — no request can escape the ceiling by asking for more.
    pub fn intersect(&self, other: &Budget) -> Budget {
        fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        Budget {
            max_wall: tighter(self.max_wall, other.max_wall),
            max_fm_passes: tighter(self.max_fm_passes, other.max_fm_passes),
            max_levels: tighter(self.max_levels, other.max_levels),
            max_bytes: tighter(self.max_bytes, other.max_bytes),
        }
    }
}

/// How much of the machine a partitioning run may use.
///
/// Parallelism never changes results: every recursion node and every seed
/// derives its RNG stream from its own identity (see
/// [`crate::engine::MultilevelDriver::partition_recursive`]), so
/// [`Parallelism::Threads`] and [`Parallelism::Auto`] produce bit-identical
/// partitions to [`Parallelism::Serial`] for the same seed — threads only
/// change wall-clock time.
///
/// One budget caveat: `Budget::max_fm_passes` is a *global* pass counter
/// in serial runs but is accounted per concurrency domain (per subtree a
/// join offers to another thread, whether it forks or runs inline, and
/// per seed) in parallel runs, so a run limited by that knob may do more
/// total FM work under `Threads(n)` than under `Serial`, though the same
/// work whatever the pool's width. The
/// wall-clock budget is shared across all threads of a run either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Everything on the calling thread (the default for
    /// [`PartitionConfig`]).
    #[default]
    Serial,
    /// Fork-join pool of exactly `n` threads (`0` is treated as `1`).
    Threads(usize),
    /// One thread per available CPU.
    Auto,
}

impl Parallelism {
    /// The concrete thread count this setting resolves to on this machine.
    pub fn resolved(&self) -> usize {
        match *self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }
}

/// Coarsening scheme selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseningScheme {
    /// Heavy-connectivity *matching*: clusters have at most two vertices
    /// per level.
    Hcm,
    /// Heavy-connectivity *clustering* (agglomerative): a vertex may join
    /// an already-formed cluster, allowing multi-vertex clusters per level.
    Hcc,
    /// HCC with the connectivity score scaled by the candidate cluster's
    /// weight (PaToH's "absorption" flavour) — discourages snowballing
    /// into a few huge clusters.
    ScaledHcc,
}

/// Initial-partitioning scheme at the coarsest level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialScheme {
    /// Greedy hypergraph growing: grow side 1 by max-gain moves (default).
    Ghg,
    /// Weight-only bin packing: heaviest vertices first onto the lighter
    /// side, ignoring connectivity. The engine's quick split once a run
    /// is out of time or cancelled.
    BinPacking,
}

impl std::str::FromStr for InitialScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ghg" => Ok(InitialScheme::Ghg),
            "binpacking" | "bin-packing" => Ok(InitialScheme::BinPacking),
            other => Err(format!(
                "unknown initial scheme '{other}' (expected ghg or binpacking)"
            )),
        }
    }
}

/// Configuration for the multilevel partitioner.
///
/// The defaults mirror the paper's experimental setup where it specifies
/// one: `epsilon = 0.03` (all reported imbalances are below 3%).
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Maximum allowed imbalance ratio ε of the *final* K-way partition
    /// (eq. 1): every part weight ≤ average · (1 + ε).
    pub epsilon: f64,
    /// RNG seed; every stage is deterministic given the seed.
    pub seed: u64,
    /// Coarsening scheme.
    pub coarsening: CoarseningScheme,
    /// Initial-partitioning scheme at the coarsest level.
    pub initial: InitialScheme,
    /// Apply net splitting during recursive bisection (the correct
    /// treatment for the connectivity−1 objective). Disable only for the
    /// cut-net-metric ablation.
    pub net_splitting: bool,
    /// Stop coarsening once the working hypergraph has at most this many
    /// vertices.
    pub coarsen_to: u32,
    /// Number of greedy-hypergraph-growing tries at the coarsest level.
    pub initial_tries: usize,
    /// Maximum FM passes per level (a pass that improves nothing ends
    /// refinement early).
    pub fm_passes: usize,
    /// Run a direct K-way greedy refinement pass over the assembled
    /// partition after recursive bisection (extension over the paper).
    pub kway_refine: bool,
    /// Resource budget (wall clock / FM passes / levels); unlimited by
    /// default. See [`Budget`].
    pub budget: Budget,
    /// Thread usage of a run: recursive-bisection subtrees and multi-seed
    /// fan-outs execute as fork-join tasks under [`Parallelism::Threads`] /
    /// [`Parallelism::Auto`]. Results are bit-identical across settings;
    /// see [`Parallelism`].
    pub parallelism: Parallelism,
    /// Cooperative cancellation: when a token is attached and tripped, the
    /// engine stops at its next multilevel checkpoint, keeps the best
    /// partition found so far, and records the stop in
    /// [`crate::EngineStats::cancel_truncations`] — same graceful
    /// degradation as an exhausted [`Budget`], but attributed to the
    /// caller. `None` (the default) disables polling.
    pub cancel: Option<CancelToken>,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            epsilon: 0.03,
            seed: 1,
            coarsening: CoarseningScheme::Hcc,
            initial: InitialScheme::Ghg,
            net_splitting: true,
            coarsen_to: 100,
            initial_tries: 8,
            fm_passes: 4,
            kway_refine: true,
            budget: Budget::UNLIMITED,
            parallelism: Parallelism::Serial,
            cancel: None,
        }
    }
}

impl PartitionConfig {
    /// A config with the given seed and defaults elsewhere.
    pub fn with_seed(seed: u64) -> Self {
        PartitionConfig {
            seed,
            ..Default::default()
        }
    }

    /// Per-bisection imbalance for recursive bisection so that the final
    /// K-way imbalance stays within ε: with `d = ceil(log2 K)` levels,
    /// `(1 + ε') ^ d = 1 + ε`.
    pub fn per_level_epsilon(&self, k: u32) -> f64 {
        if k <= 2 {
            return self.epsilon;
        }
        let d = (k as f64).log2().ceil();
        (1.0 + self.epsilon).powf(1.0 / d) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PartitionConfig::default();
        assert!((c.epsilon - 0.03).abs() < 1e-12);
    }

    #[test]
    fn per_level_epsilon_composes() {
        let c = PartitionConfig::default();
        for k in [2u32, 4, 8, 16, 32, 64] {
            let e = c.per_level_epsilon(k);
            let d = (k as f64).log2().ceil();
            let total = (1.0 + e).powf(d) - 1.0;
            assert!(total <= c.epsilon + 1e-9, "k={k}: total {total}");
            assert!(e > 0.0);
        }
    }

    #[test]
    fn per_level_epsilon_k2_is_full() {
        let c = PartitionConfig::default();
        assert_eq!(c.per_level_epsilon(2), c.epsilon);
    }

    #[test]
    fn parallelism_resolves_to_positive_thread_counts() {
        assert_eq!(Parallelism::default(), Parallelism::Serial);
        assert_eq!(Parallelism::Serial.resolved(), 1);
        assert_eq!(Parallelism::Threads(4).resolved(), 4);
        assert_eq!(
            Parallelism::Threads(0).resolved(),
            1,
            "0 means 1, not a hang"
        );
        assert!(Parallelism::Auto.resolved() >= 1);
    }
}
