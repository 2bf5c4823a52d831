//! The substrate-generic multilevel engine.
//!
//! Graph and hypergraph partitioning share one skeleton — coarsen by
//! clustering, partition the coarsest level, project and FM-refine back up,
//! recurse for K-way — and differ only in how a cut is counted, how moves
//! change it, and how contraction/extraction rebuild the structure. The
//! [`Substrate`] trait captures exactly those differences; everything else
//! (the FM state machine in [`crate::refine`], the clustering loop in
//! [`crate::coarsen`], initial partitioning in [`crate::initial`], and the
//! V-cycle + recursive-bisection control flow here) is written once
//! against the trait.
//!
//! A substrate also declares its index width through [`Substrate::Ix`]:
//! `u32` for everything that fits 32-bit ids (the fast path — half the
//! scratch memory) and `u64` for instances whose vertex/net/pin counts
//! overflow it. The engine's own loops run on `usize` positions and only
//! materialize typed ids where they are stored (maps, gain-bucket links,
//! cut bookkeeping), so one monomorphization per width covers the whole
//! multilevel stack.
//!
//! [`MultilevelDriver`] owns the run: the [`PartitionConfig`], a
//! [`LevelArena`] of recycled scratch buffers, and [`EngineStats`]
//! counters. One driver instance serves a whole K-way run, so every level
//! of every bisection draws its match/map arrays, side vectors, and gain
//! buckets from the same pool. The driver itself is *not* generic — its
//! methods are — so a single driver can serve substrates of both widths.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fgh_hypergraph::Hypergraph;
use fgh_invariant::InvariantViolation;
use fgh_sparse::IndexType;
use fgh_trace::{Span, SpanHandle};

use crate::arena::{ArenaIndex, ArenaPool, LevelArena};
use crate::cancel::{CancelToken, SharedDeadline};
use crate::coarsen::coarsen_once_in;
use crate::config::{
    PartitionConfig, COARSEN_TO, FM_EARLY_EXIT, FM_PASSES, MAX_NET_SIZE_FOR_MATCHING,
};
use crate::initial::{bin_pack, initial_best_in};
use crate::level::{EngineStats, Level, StageTimer};
use crate::parallel::in_thread_pool;
use crate::refine::BisectionState;

/// The structure a multilevel partitioner runs on: vertices with weights,
/// an incidence structure that defines cut and FM gains, and the
/// contraction/extraction operations of the V-cycle.
///
/// Implemented by [`fgh_hypergraph::Hypergraph`] (cut-net metric over
/// nets, net splitting on extraction) and by `fgh_graph::CsrGraph`
/// (edge-cut metric, induced-subgraph extraction — cut edges are split
/// away trivially), each at both index widths.
pub trait Substrate: Sized {
    /// Incremental cut bookkeeping for a bisection: per-net side pin
    /// counts for hypergraphs, nothing for graphs (gains are recomputed
    /// from the adjacency directly).
    type CutState: Clone + std::fmt::Debug;

    /// Vertex-id width of this substrate. Drives the width of projection
    /// maps, gain-bucket links, and cut bookkeeping throughout the engine.
    type Ix: ArenaIndex;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Weight of vertex `v`.
    fn vertex_weight(&self, v: Self::Ix) -> u32;
    /// Sum of vertex weights.
    fn total_vertex_weight(&self) -> u64;
    /// Maximum vertex weight (1 when there are no vertices).
    fn max_vertex_weight(&self) -> u64;
    /// Stored incidences — pins for hypergraphs, directed adjacency
    /// entries for graphs. Only used for instrumentation.
    fn num_incidences(&self) -> u64;
    /// Upper bound on |FM gain| of any single move, for gain-bucket sizing.
    fn max_gain_bound(&self) -> i64;
    /// Heap bytes held by this substrate's backing arrays — the input to
    /// the engine's `Budget::max_bytes` accounting.
    fn heap_bytes(&self) -> usize;

    /// Builds cut bookkeeping for `side` and returns it with the cut.
    fn cut_state(&self, side: &[u8], arena: &mut LevelArena) -> (Self::CutState, u64);
    /// Returns a cut state's buffers to the arena.
    fn recycle_cut_state(cs: Self::CutState, arena: &mut LevelArena);
    /// FM gain of moving `v` to the opposite side.
    fn gain(&self, cs: &Self::CutState, side: &[u8], v: Self::Ix) -> i64;
    /// Applies the cut/bookkeeping effects of moving `v` to the opposite
    /// side; the caller flips `side[v]` and the side weights afterwards.
    /// Counter-only form — rollbacks and replay paths that do not keep
    /// gain buckets use this cheaper kernel.
    fn apply_move(&self, cs: &mut Self::CutState, side: &[u8], v: Self::Ix, cut: &mut u64);

    /// Like [`Substrate::apply_move`], additionally invoking
    /// `adjust(u, delta)` for every other vertex whose FM gain changes.
    /// The callback is a generic parameter, not a `dyn` object: this is
    /// the FM inner loop, and monomorphizing it lets the gain-bucket
    /// update inline into the pin scan.
    fn apply_move_gains(
        &self,
        cs: &mut Self::CutState,
        side: &[u8],
        v: Self::Ix,
        cut: &mut u64,
        adjust: impl FnMut(Self::Ix, i64),
    );

    /// Visits the clustering-score contributions of `u`'s neighbors:
    /// `visit(v, score)` once per shared net of size ≤ `max_net_size`
    /// (hypergraphs) or once per incident edge (graphs, which ignore
    /// `max_net_size` — every edge has two pins). Generic for the same
    /// reason as [`Substrate::apply_move_gains`]: this is the coarsening
    /// hot loop.
    fn for_each_scored_neighbor(
        &self,
        u: Self::Ix,
        max_net_size: usize,
        visit: impl FnMut(Self::Ix, u64),
    );
    /// Contracts under a clustering: cluster = coarse vertex with summed
    /// weight, degenerate nets/edges dropped, parallel ones merged.
    fn contract(
        &self,
        cluster_of: &[Self::Ix],
        num_clusters: usize,
        arena: &mut LevelArena,
    ) -> Self;
    /// Extracts both sides of a bisection in one pass over the incidence
    /// structure, returning the side-0 and side-1 sub-structures induced
    /// by `side` with their new→old vertex maps (new ids rise with old
    /// ids). `split` enables net splitting (hypergraphs only; graphs
    /// always drop cut edges). Remap scratch comes from `arena`.
    fn extract_both(
        &self,
        side: &[u8],
        split: bool,
        arena: &mut LevelArena,
    ) -> [(Self, Vec<Self::Ix>); 2];

    /// Full structural self-audit, run by the driver at multilevel
    /// checkpoints when the `paranoid` feature is enabled. The default is
    /// a no-op so lightweight substrates opt in by overriding.
    fn validate_invariants(&self) -> Result<(), InvariantViolation> {
        Ok(())
    }
}

/// Audits `sub` at a named driver checkpoint. Compiled to nothing without
/// the `paranoid` feature; with it, a violation aborts the run — a broken
/// substrate invariant mid-partition is a defect in coarsening/extraction,
/// never a recoverable input condition.
#[inline]
fn paranoid_check<S: Substrate>(sub: &S, checkpoint: &str) {
    if cfg!(feature = "paranoid") {
        if let Err(v) = sub.validate_invariants() {
            panic!("paranoid checkpoint '{checkpoint}': {v}");
        }
    }
}

/// Outcome of [`MultilevelDriver::partition_recursive`].
#[derive(Debug, Clone)]
pub struct RecursiveOutcome {
    /// Per-vertex part assignment in `0..k`.
    pub parts: Vec<u32>,
    /// Sum of the per-bisection cuts over the recursion tree. With net
    /// splitting enabled this equals the connectivity−1 cutsize of
    /// `parts` (eq. 3 of the paper); for graphs it equals the edge cut.
    pub cut_sum: u64,
}

/// RNG seed for one node of the recursive-bisection tree, mixed from the
/// run seed and the node's identity. The half-open part range
/// `[part_lo, part_lo + k)` is unique per node, so each node's stream is
/// independent of *traversal order* — the invariant that makes parallel
/// runs bit-identical to serial ones. splitmix64 finalization separates
/// the streams of adjacent nodes.
fn node_seed(seed: u64, part_lo: u32, k: u32) -> u64 {
    let node = ((part_lo as u64) << 32) | k as u64;
    let mut z = seed ^ node.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The unified multilevel driver: owns the configuration, the scratch
/// arena, and instrumentation for one partitioning run over any
/// [`Substrate`].
///
/// Under [`crate::Parallelism::Threads`] / `Auto`, recursive-bisection
/// subtrees fork onto a bounded rayon pool; each one that runs on another
/// thread checks a whole [`LevelArena`] out of a shared [`ArenaPool`] so
/// the hot loops stay synchronization-free. On drop the driver returns
/// its arena to that pool.
#[derive(Debug)]
pub struct MultilevelDriver {
    cfg: PartitionConfig,
    arena: LevelArena,
    /// Shared arena pool serving forked workers; this driver's own arena
    /// returns here on drop so repeated runs reuse warm buffers.
    pool: Arc<ArenaPool>,
    /// Thread count resolved from `cfg.parallelism`.
    threads: usize,
    stats: EngineStats,
    /// Wall-clock deadline derived from `cfg.budget.max_wall`, armed at
    /// the start of a run (see [`MultilevelDriver::arm_budget`]) and
    /// shared with forked workers.
    deadline: Option<Arc<SharedDeadline>>,
    /// Trace scope this driver records phase spans under. A noop handle
    /// (the default) makes every span site a single branch; see
    /// [`MultilevelDriver::set_trace_parent`].
    span: SpanHandle,
}

impl Drop for MultilevelDriver {
    fn drop(&mut self) {
        // Return the warm arena to the shared pool: forked workers
        // recycle buffers across forks, and a caller holding the pool
        // keeps them across whole runs.
        self.pool.checkin(std::mem::take(&mut self.arena));
    }
}

impl MultilevelDriver {
    /// A driver over a private arena pool.
    pub fn new(cfg: PartitionConfig) -> Self {
        Self::with_pool(cfg, Arc::new(ArenaPool::new()))
    }

    /// A driver drawing its scratch arena from (and returning it to) a
    /// shared [`ArenaPool`] — what parallel fan-outs use so every
    /// concurrency domain recycles the same warm buffers over time.
    pub fn with_pool(cfg: PartitionConfig, pool: Arc<ArenaPool>) -> Self {
        let threads = cfg.parallelism.resolved();
        MultilevelDriver {
            cfg,
            arena: pool.checkout(),
            pool,
            threads,
            stats: EngineStats::default(),
            deadline: None,
            span: SpanHandle::noop(),
        }
    }

    /// Attaches this driver to a trace scope: subsequent phase spans
    /// (`bisect[part] → coarsen[level] / initial / refine[level] →
    /// fm-pass[i]`) are recorded as children of `span`. Forked workers
    /// inherit the scope through per-domain child spans, so parallel
    /// traces stitch under the same parent.
    pub fn set_trace_parent(&mut self, span: SpanHandle) {
        self.span = span;
    }

    /// Opens a child span under this driver's trace scope — a noop span
    /// unless a real scope was attached.
    fn trace_child(&self, name: &'static str, index: Option<u64>) -> Span {
        match index {
            Some(i) => self.span.child_indexed(name, i),
            None => self.span.child(name),
        }
    }

    /// Builds the worker for one forked recursion branch: same config,
    /// shared budget deadline and arena pool, fresh stats (merged back at
    /// the join), recording under `span`. The branch calls the builder on
    /// the thread it runs on, so only a branch that really forked checks
    /// an arena out.
    fn fork(&self) -> impl FnOnce(SpanHandle) -> MultilevelDriver + Send {
        let (cfg, pool) = (self.cfg.clone(), Arc::clone(&self.pool));
        let (threads, deadline) = (self.threads, self.deadline.clone());
        move |span| MultilevelDriver {
            cfg,
            arena: pool.checkout(),
            pool,
            threads,
            stats: EngineStats::default(),
            deadline,
            span,
        }
    }

    /// Starts the wall-clock budget: the deadline is
    /// `now + cfg.budget.max_wall`, measured from this call, and is
    /// shared with every worker forked during the run. Returns `true` if
    /// a deadline was armed (idempotent: re-arming while armed is a no-op
    /// so an outer caller's window covers nested runs).
    pub fn arm_budget(&mut self) -> bool {
        if self.deadline.is_none() {
            if let Some(limit) = self.cfg.budget.max_wall {
                self.deadline = Some(Arc::new(SharedDeadline::new(
                    std::time::Instant::now() + limit,
                )));
                return true;
            }
        }
        false
    }

    /// Clears the wall-clock deadline.
    pub fn disarm_budget(&mut self) {
        self.deadline = None;
    }

    /// `true` once the armed wall-clock deadline has passed (on any
    /// thread of the run).
    pub fn wall_exhausted(&self) -> bool {
        self.deadline.as_ref().is_some_and(|d| d.exhausted())
    }

    /// `true` once the external [`CancelToken`] attached to the config
    /// has been cancelled. Polled at the same multilevel checkpoints as
    /// the wall deadline; always `false` when no token was attached.
    pub fn cancel_requested(&self) -> bool {
        self.cfg
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }

    /// `true` once the run should stop early for any reason — external
    /// cancellation or the armed wall-clock deadline. Callers layering
    /// post-refinement on top of the engine gate it on this.
    pub fn interrupted(&self) -> bool {
        self.cancel_requested() || self.wall_exhausted()
    }

    /// Interrupt checkpoint: polls cancellation and the wall deadline,
    /// recording the matching truncation counter when one has tripped.
    /// Cancellation wins the attribution when both have — a cancelled run
    /// must be reported as cancelled, not as a budget accident.
    fn interrupt_checkpoint(&mut self) -> bool {
        if self.cancel_requested() {
            self.stats.cancel_truncations += 1;
            true
        } else if self.wall_exhausted() {
            self.stats.wall_truncations += 1;
            true
        } else {
            false
        }
    }

    /// The configuration this driver runs with.
    pub fn cfg(&self) -> &PartitionConfig {
        &self.cfg
    }

    /// Instrumentation accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The arena's allocation counters.
    pub fn arena_stats(&self) -> crate::arena::ArenaStats {
        self.arena.stats()
    }

    /// Bisects `sub` into sides 0/1 with ideal side weights `targets` and
    /// per-bisection imbalance `epsilon`. Returns the side assignment and
    /// the cut.
    pub fn bisect<S: Substrate>(
        &mut self,
        sub: &S,
        targets: [f64; 2],
        epsilon: f64,
        rng: &mut impl Rng,
    ) -> (Vec<u8>, u64) {
        // Degenerate targets: everything belongs on one side.
        if targets[1] <= 0.0 {
            return (vec![0; sub.num_vertices()], 0);
        }
        if targets[0] <= 0.0 {
            return (vec![1; sub.num_vertices()], 0);
        }
        self.stats.bisections += 1;

        // --- Coarsening phase ---
        // Cap cluster weights so no coarse vertex exceeds a fraction of
        // the smaller side's cap; otherwise balanced bisection can become
        // infeasible at the coarsest level.
        let min_target = targets[0].min(targets[1]);
        let weight_cap = (((min_target * (1.0 + epsilon)) / 4.0).ceil().max(1.0) as u64)
            .max(sub.max_vertex_weight());

        let mut levels: Vec<Level<S>> = Vec::new();
        loop {
            let cur: &S = levels.last().map_or(sub, |l| &l.coarse);
            if cur.num_vertices() <= COARSEN_TO {
                break;
            }
            // Budget checkpoints: stop building levels once the per-
            // bisection level cap, the wall deadline / cancel token, or
            // the byte cap is hit; the run continues from whatever
            // coarseness was reached.
            if let Some(max_levels) = self.cfg.budget.max_levels {
                if levels.len() as u64 >= max_levels {
                    self.stats.level_truncations += 1;
                    break;
                }
            }
            if self.interrupt_checkpoint() {
                break;
            }
            if let Some(max_bytes) = self.cfg.budget.max_bytes {
                // Everything the multilevel state holds right now: the
                // input structure, every contracted level (substrate +
                // projection map), and the arena's idle pools. Honored to
                // the granularity of one level, like the wall checkpoint.
                let held = sub.heap_bytes()
                    + levels.iter().map(Level::heap_bytes).sum::<usize>()
                    + self.arena.heap_bytes();
                if held > max_bytes {
                    self.stats.byte_truncations += 1;
                    break;
                }
            }
            let cspan = self.trace_child("coarsen", Some(levels.len() as u64));
            let timer = StageTimer::start();
            let next = coarsen_once_in(
                cur,
                self.cfg.coarsening,
                MAX_NET_SIZE_FOR_MATCHING,
                weight_cap,
                rng,
                &mut self.arena,
            );
            timer.stop(&mut self.stats.coarsen_nanos);
            match next {
                Some(level) => {
                    paranoid_check(&level.coarse, "coarsen.contract");
                    self.stats.levels += 1;
                    self.stats.contracted_incidences += level.coarse.num_incidences();
                    if cspan.is_enabled() {
                        cspan.counter("vertices", level.coarse.num_vertices() as u64);
                        cspan.counter("incidences", level.coarse.num_incidences());
                    }
                    levels.push(level);
                }
                None => break,
            }
        }

        // --- Initial partitioning at the coarsest level ---
        let coarsest: &S = levels.last().map_or(sub, |l| &l.coarse);
        let ispan = self.trace_child("initial", None);
        let timer = StageTimer::start();
        let mut sides = if self.interrupt_checkpoint() {
            // Out of time or cancelled: one weight-only split instead of
            // multi-try greedy growing.
            bin_pack(coarsest, targets, rng, &mut self.arena)
        } else {
            initial_best_in(
                coarsest,
                targets,
                epsilon,
                &self.cfg.budget,
                rng,
                &mut self.arena,
                &mut self.stats,
            )
        };
        timer.stop(&mut self.stats.initial_nanos);
        if ispan.is_enabled() {
            ispan.counter("vertices", coarsest.num_vertices() as u64);
        }
        drop(ispan);

        // --- Uncoarsening: project and refine at every level ---
        let timer = StageTimer::start();
        for li in (0..levels.len()).rev() {
            let fine: &S = if li == 0 { sub } else { &levels[li - 1].coarse };
            let map = &levels[li].map;
            let nf = fine.num_vertices();
            let mut fine_sides = self.arena.take_u8(nf, 0);
            for (v, fs) in fine_sides.iter_mut().enumerate() {
                *fs = sides[map[v].index()];
            }
            self.arena
                .give_u8(std::mem::replace(&mut sides, fine_sides));
            // Budget checkpoint between refinement levels: out of wall
            // time or cancelled → project only; FM-pass cap → run the
            // remaining allowance.
            let passes = if self.interrupt_checkpoint() {
                0
            } else {
                self.cfg
                    .budget
                    .fm_pass_allowance(&mut self.stats, FM_PASSES)
            };
            let rspan = self.trace_child("refine", Some(li as u64));
            let mut st = BisectionState::new_in(
                fine,
                std::mem::take(&mut sides),
                targets,
                epsilon,
                &mut self.arena,
            );
            st.refine_in(
                rng,
                passes,
                FM_EARLY_EXIT,
                &mut self.arena,
                &mut self.stats,
                &rspan.handle(),
            );
            sides = st.into_sides_in(&mut self.arena);
        }
        timer.stop(&mut self.stats.refine_nanos);

        // Recycle per-level scratch before computing the final cut.
        for l in levels {
            S::Ix::give_ids(&mut self.arena, l.map);
        }
        let st = BisectionState::new_in(sub, sides, targets, epsilon, &mut self.arena);
        let cut = st.cut();
        (st.into_sides_in(&mut self.arena), cut)
    }

    /// Recursive-bisection K-way partitioning. Net splitting / edge
    /// dropping on extraction follows the config.
    ///
    /// Under a parallel [`crate::Parallelism`] setting this builds a
    /// fork-join pool and runs independent subtrees concurrently; results
    /// are bit-identical to a serial run, because each node of the
    /// recursion seeds its RNG from the run seed and its own part range,
    /// not from traversal order. When the caller is already inside a pool
    /// (a multi-seed fan-out, or a job of `fgh serve`), no nested pool is
    /// built — subtree forks draw from the outer pool's threads.
    pub fn partition_recursive<S: Substrate + Send + Sync>(
        &mut self,
        sub: &S,
        k: u32,
    ) -> RecursiveOutcome {
        paranoid_check(sub, "recursive.input");
        let n = sub.num_vertices();
        let mut parts = vec![0u32; n];
        let mut cut_sum = 0u64;
        // Arm the wall budget here unless an outer caller (whose window
        // should also cover post-refinement) already did.
        let armed_here = self.arm_budget();
        if k > 1 && n > 0 {
            let eps = self.cfg.per_level_epsilon(k);
            let mut ids = S::Ix::take_ids(&mut self.arena, 0, S::Ix::ZERO);
            ids.extend((0..n).map(S::Ix::from_index));
            let mut leaves: Vec<(u32, Vec<S::Ix>)> = Vec::new();
            in_thread_pool(self.threads, || {
                self.recurse(sub, ids, k, 0, eps, &mut leaves, &mut cut_sum)
            });
            for (part, leaf_ids) in leaves {
                for &orig in &leaf_ids {
                    parts[orig.index()] = part;
                }
                S::Ix::give_ids(&mut self.arena, leaf_ids);
            }
        }
        if armed_here {
            self.disarm_budget();
        }
        RecursiveOutcome { parts, cut_sum }
    }

    /// Recursive worker. `sub` is a sub-structure of the original (nets
    /// already split); `ids[v]` maps its vertices back to original ids.
    /// Finished `(part, original-ids)` leaves accumulate into `leaves`
    /// (each branch owns its own sink, so forked subtrees never write into
    /// shared output).
    #[allow(clippy::too_many_arguments)]
    fn recurse<S: Substrate + Send + Sync>(
        &mut self,
        sub: &S,
        ids: Vec<S::Ix>,
        k: u32,
        part_lo: u32,
        eps: f64,
        leaves: &mut Vec<(u32, Vec<S::Ix>)>,
        cut_sum: &mut u64,
    ) {
        if k == 1 {
            leaves.push((part_lo, ids));
            return;
        }
        let k0 = k.div_ceil(2);
        let k1 = k - k0;
        let total = sub.total_vertex_weight() as f64;
        let targets = [total * k0 as f64 / k as f64, total * k1 as f64 / k as f64];
        let mut rng = SmallRng::seed_from_u64(node_seed(self.cfg.seed, part_lo, k));

        // Phase spans of this bisection nest under a `bisect[part_lo]`
        // span; `part_lo` is the node's identity, so serial and parallel
        // traversals produce the same tree.
        let bspan = self.trace_child("bisect", Some(part_lo as u64));
        let saved_scope = std::mem::replace(&mut self.span, bspan.handle());
        let (sides, cut) = self.bisect(sub, targets, eps, &mut rng);
        self.span = saved_scope;
        if bspan.is_enabled() {
            bspan.counter("vertices", sub.num_vertices() as u64);
            bspan.counter("cut", cut);
        }
        drop(bspan);
        *cut_sum += cut;

        // Extract both halves in one pass (net splitting per config).
        let [(child0, map0), (child1, map1)] =
            sub.extract_both(&sides, self.cfg.net_splitting, &mut self.arena);
        paranoid_check(&child0, "recurse.extract");
        paranoid_check(&child1, "recurse.extract");
        self.arena.give_u8(sides);
        let mut ids0 = S::Ix::take_ids(&mut self.arena, 0, S::Ix::ZERO);
        ids0.extend(map0.iter().map(|&lv| ids[lv.index()]));
        let mut ids1 = S::Ix::take_ids(&mut self.arena, 0, S::Ix::ZERO);
        ids1.extend(map1.iter().map(|&lv| ids[lv.index()]));
        S::Ix::give_ids(&mut self.arena, map0);
        S::Ix::give_ids(&mut self.arena, map1);
        S::Ix::give_ids(&mut self.arena, ids);

        // Offer a fork only when both halves carry further bisection work
        // and a pool is installed; the right half, parts `lo1..`, is its
        // own concurrency domain, whose stats merge back at the join. A
        // trivial (k == 1) half is a leaf push — never worth a fork.
        let lo1 = part_lo + k0;
        if k0 > 1 && k1 > 1 && self.threads > 1 && rayon::current_thread_index().is_some() {
            // The right half records under a `domain[lo1]` child span, so
            // its subtree stitches deterministically under this driver's
            // scope wherever it runs.
            let dspan = self.trace_child("domain", Some(lo1 as u64));
            let (fork, child1) = (self.fork(), &child1);
            let caller = std::thread::current().id();
            let ((), right) = rayon::join(
                || self.recurse(&child0, ids0, k0, part_lo, eps, leaves, cut_sum),
                move || {
                    // On the caller's thread (no thread was free): hand the
                    // branch back, to run on the caller's driver below.
                    if std::thread::current().id() == caller {
                        return Err((ids1, dspan));
                    }
                    let mut worker = fork(dspan.handle());
                    let _domain = dspan;
                    let (mut leaves1, mut cut1) = (Vec::new(), 0u64);
                    worker.recurse(child1, ids1, k1, lo1, eps, &mut leaves1, &mut cut1);
                    Ok((leaves1, cut1, worker.stats))
                },
            );
            match right {
                Ok((mut leaves1, cut1, stats)) => {
                    self.stats.parallel_forks += 1;
                    self.stats.merge(&stats);
                    leaves.append(&mut leaves1);
                    *cut_sum += cut1;
                }
                Err((ids1, dspan)) => {
                    // As a forked worker would: under the domain span, from
                    // fresh stats (FM-pass budgets count per domain).
                    let scope = std::mem::replace(&mut self.span, dspan.handle());
                    let outer = std::mem::take(&mut self.stats);
                    self.recurse(child1, ids1, k1, lo1, eps, leaves, cut_sum);
                    let branch = std::mem::replace(&mut self.stats, outer);
                    self.stats.merge(&branch);
                    self.span = scope;
                }
            }
        } else {
            self.recurse(&child0, ids0, k0, part_lo, eps, leaves, cut_sum);
            self.recurse(&child1, ids1, k1, lo1, eps, leaves, cut_sum);
        }
    }
}

/// Per-net side pin counts and pin XORs: the hypergraph cut bookkeeping.
/// Counts are stored at the substrate's index width — a count never
/// exceeds the net's pin total, which fits `I` by construction — so the
/// buffers recycle through the same width-matched arena pools as every
/// other id array.
#[derive(Debug, Clone)]
pub struct NetSideCounts<I: IndexType = u32> {
    /// `pc[s][n]` = pins of net `n` on side `s`.
    pub pc: [Vec<I>; 2],
    /// `px[s][n]` = XOR of the ids of net `n`'s pins on side `s`. Pins are
    /// unique within a net, so when `pc[s][n] == 1` this *is* the lone
    /// pin's id: FM reads it in O(1) instead of scanning the net.
    pub px: [Vec<I>; 2],
}

/// `a ^ b` at index width (the XOR of two ids fits the width).
#[inline(always)]
fn xor<I: IndexType>(a: I, b: I) -> I {
    I::from_index(a.index() ^ b.index())
}

impl<I: ArenaIndex> Substrate for Hypergraph<I> {
    type CutState = NetSideCounts<I>;
    type Ix = I;

    fn num_vertices(&self) -> usize {
        Hypergraph::num_vertices(self).index()
    }

    fn vertex_weight(&self, v: I) -> u32 {
        Hypergraph::vertex_weight(self, v)
    }

    fn total_vertex_weight(&self) -> u64 {
        Hypergraph::total_vertex_weight(self)
    }

    fn max_vertex_weight(&self) -> u64 {
        self.vertex_weights().iter().copied().max().unwrap_or(1) as u64
    }

    fn num_incidences(&self) -> u64 {
        self.num_pins() as u64
    }

    fn max_gain_bound(&self) -> i64 {
        let mut best = 1i64;
        for v in 0..Hypergraph::num_vertices(self).index() {
            let s: i64 = self
                .nets(I::from_index(v))
                .iter()
                .map(|&n| self.net_cost(n) as i64)
                .sum();
            best = best.max(s);
        }
        best
    }

    fn heap_bytes(&self) -> usize {
        Hypergraph::heap_bytes(self)
    }

    fn cut_state(&self, side: &[u8], arena: &mut LevelArena) -> (NetSideCounts<I>, u64) {
        let nn = self.num_nets().index();
        let mut pc = [
            I::take_ids(arena, nn, I::ZERO),
            I::take_ids(arena, nn, I::ZERO),
        ];
        let mut px = [
            I::take_ids(arena, nn, I::ZERO),
            I::take_ids(arena, nn, I::ZERO),
        ];
        for (v, &sv) in side.iter().enumerate() {
            let s = sv as usize;
            let v = I::from_index(v);
            for &n in self.nets(v) {
                let ni = n.index();
                pc[s][ni] = I::from_index(pc[s][ni].index() + 1);
                px[s][ni] = xor(px[s][ni], v);
            }
        }
        let mut cut = 0u64;
        for (n, (&p0, &p1)) in pc[0].iter().zip(pc[1].iter()).enumerate() {
            if p0 > I::ZERO && p1 > I::ZERO {
                cut += self.net_cost(I::from_index(n)) as u64;
            }
        }
        (NetSideCounts { pc, px }, cut)
    }

    fn recycle_cut_state(cs: NetSideCounts<I>, arena: &mut LevelArena) {
        for ids in cs.pc.into_iter().chain(cs.px) {
            I::give_ids(arena, ids);
        }
    }

    fn gain(&self, cs: &NetSideCounts<I>, side: &[u8], v: I) -> i64 {
        let s = side[v.index()] as usize;
        let t = 1 - s;
        let mut g = 0i64;
        for &n in self.nets(v) {
            let c = self.net_cost(n) as i64;
            if cs.pc[s][n.index()] == I::ONE {
                g += c; // net becomes uncut (or stays internal to t)
            }
            if cs.pc[t][n.index()] == I::ZERO {
                g -= c; // net becomes cut
            }
        }
        g
    }

    fn apply_move(&self, cs: &mut NetSideCounts<I>, side: &[u8], v: I, cut: &mut u64) {
        let s = side[v.index()] as usize;
        let t = 1 - s;
        for &n in self.nets(v) {
            let ni = n.index();
            let c = self.net_cost(n) as u64;
            if cs.pc[t][ni] == I::ZERO {
                *cut += c;
            }
            cs.pc[s][ni] = I::from_index(cs.pc[s][ni].index() - 1);
            cs.pc[t][ni] = I::from_index(cs.pc[t][ni].index() + 1);
            cs.px[s][ni] = xor(cs.px[s][ni], v);
            cs.px[t][ni] = xor(cs.px[t][ni], v);
            if cs.pc[s][ni] == I::ZERO {
                *cut -= c;
            }
        }
    }

    fn apply_move_gains(
        &self,
        cs: &mut NetSideCounts<I>,
        side: &[u8],
        v: I,
        cut: &mut u64,
        mut adjust: impl FnMut(I, i64),
    ) {
        let s = side[v.index()] as usize;
        let t = 1 - s;
        for &n in self.nets(v) {
            let ni = n.index();
            let c = self.net_cost(n) as i64;
            let tc = cs.pc[t][ni].index();
            let fc_after = cs.pc[s][ni].index() - 1;
            // A side holding exactly one other pin names it in its XOR:
            // `lone_t` (t's XOR before the move) is the t-pin when
            // tc == 1, `lone_s` (s's XOR after it) the s-pin left behind
            // when fc_after == 1. Only the two transitions that touch
            // every other pin still scan the net. Each arm emits exactly
            // the adjusts, values, and order of the historical per-branch
            // kernel (kernel_equivalence.rs): gain ties break by bucket
            // LIFO position (golden_cutsize.rs).
            let lone_t = cs.px[t][ni];
            let lone_s = xor(cs.px[s][ni], v);
            match (tc, fc_after) {
                // A single-pin net: never cut, no other pin.
                (0, 0) => {}
                // Net becomes cut, and the lone s-pin also gains the
                // uncut bonus: one +2c adjust.
                (0, 1) => {
                    *cut += c as u64;
                    adjust(lone_s, 2 * c);
                }
                // Net becomes cut: every other pin (all on s) gains +c.
                (0, _) => {
                    *cut += c as u64;
                    for &u in self.pins(n) {
                        if u != v {
                            adjust(u, c);
                        }
                    }
                }
                // A cut 2-pin net becomes internal to t. The lone t-pin
                // historically received two −c adjusts, and the
                // intermediate bucket hop re-raises the gain buckets'
                // cached max, re-exposing higher-gain vertices that an
                // earlier pop skipped as inadmissible. A coalesced −2c
                // skips that bucket, observably changing pop order — keep
                // the two-step form.
                (1, 0) => {
                    *cut -= c as u64;
                    adjust(lone_t, -c);
                    adjust(lone_t, -c);
                }
                // Exactly 3 pins, one left per side after the move: the
                // t-pin (−c) before the s-pin (+c).
                (1, 1) => {
                    adjust(lone_t, -c);
                    adjust(lone_s, c);
                }
                // The lone pin on t loses its "uncut by moving" bonus.
                (1, _) => adjust(lone_t, -c),
                // Net becomes internal to t: every other pin (all on t)
                // loses the cut malus.
                (_, 0) => {
                    *cut -= c as u64;
                    for &u in self.pins(n) {
                        if u != v {
                            adjust(u, -c);
                        }
                    }
                }
                // The lone remaining pin on s gains the uncut bonus.
                (_, 1) => adjust(lone_s, c),
                _ => {}
            }
            cs.pc[s][ni] = I::from_index(fc_after);
            cs.pc[t][ni] = I::from_index(tc + 1);
            cs.px[s][ni] = lone_s;
            cs.px[t][ni] = xor(lone_t, v);
        }
    }

    fn for_each_scored_neighbor(&self, u: I, max_net_size: usize, mut visit: impl FnMut(I, u64)) {
        for &net in self.nets(u) {
            if self.net_size(net) > max_net_size {
                continue;
            }
            let cost = self.net_cost(net) as u64;
            for &v in self.pins(net) {
                if v != u {
                    visit(v, cost);
                }
            }
        }
    }

    // Infallible `expect` below: contraction emits sorted, deduped,
    // in-bounds pin lists with matched pointer arrays, which is exactly
    // what `from_flat_nets` validates.
    #[allow(clippy::expect_used)]
    fn contract(&self, cluster_of: &[I], num_clusters: usize, arena: &mut LevelArena) -> Self {
        let nc = num_clusters;
        let mut weights64 = arena.take_u64(nc, 0);
        for (v, &c) in cluster_of.iter().enumerate() {
            weights64[c.index()] += Hypergraph::vertex_weight(self, I::from_index(v)) as u64;
        }
        // Cluster weights saturate rather than abort: a u32::MAX-weight
        // coarse vertex only degrades balance quality on absurd inputs.
        let weights: Vec<u32> = weights64
            .iter()
            .map(|&w| u32::try_from(w).unwrap_or(u32::MAX))
            .collect();
        arena.give_u64(weights64);

        // Dedupe pins per net into one flat buffer, dropping nets that
        // collapse below two pins (they can never be cut). Stamps hold
        // the current net id; `I::MAX` (never a valid id) is the unseen
        // marker.
        let mut stamp = I::take_ids(arena, nc, I::MAX);
        let mut flat = I::take_ids(arena, 0, I::ZERO);
        let mut start = I::take_ids(arena, 0, I::ZERO);
        let mut cost = arena.take_u32(0, 0);
        start.push(I::ZERO);
        for n in 0..self.num_nets().index() {
            let n = I::from_index(n);
            let s = flat.len();
            for &p in self.pins(n) {
                let c = cluster_of[p.index()];
                if stamp[c.index()] != n {
                    stamp[c.index()] = n;
                    flat.push(c);
                }
            }
            if flat.len() - s < 2 {
                flat.truncate(s);
                continue;
            }
            flat[s..].sort_unstable();
            start.push(I::from_index(flat.len()));
            cost.push(self.net_cost(n));
        }
        I::give_ids(arena, stamp);

        // Merge nets with identical pin sets: sort net ids by pin slice,
        // then fold runs of equal slices (summed costs). No per-net boxes.
        let kept = cost.len();
        let mut order = I::take_ids(arena, 0, I::ZERO);
        order.extend((0..kept).map(I::from_index));
        let slice_of = |i: I| &flat[start[i.index()].index()..start[i.index() + 1].index()];
        order.sort_unstable_by(|&a, &b| slice_of(a).cmp(slice_of(b)));

        let mut pin_ptr: Vec<usize> = Vec::with_capacity(kept + 1);
        let mut pins: Vec<I> = Vec::with_capacity(flat.len());
        let mut costs: Vec<u32> = Vec::with_capacity(kept);
        pin_ptr.push(0);
        let mut i = 0usize;
        while i < kept {
            let sl = slice_of(order[i]);
            let mut c = cost[order[i].index()] as u64;
            let mut j = i + 1;
            while j < kept && slice_of(order[j]) == sl {
                c += cost[order[j].index()] as u64;
                j += 1;
            }
            pins.extend_from_slice(sl);
            pin_ptr.push(pins.len());
            costs.push(u32::try_from(c).unwrap_or(u32::MAX));
            i = j;
        }
        I::give_ids(arena, order);
        I::give_ids(arena, flat);
        I::give_ids(arena, start);
        arena.give_u32(cost);

        Hypergraph::from_flat_nets(I::from_index(num_clusters), pin_ptr, pins, weights, costs)
            .expect("contraction preserves hypergraph validity")
    }

    // Infallible `expect`s: extraction renumbers pins into `0..map.len()`
    // with sorted, deduped, in-bounds nets — exactly what
    // `from_flat_nets` validates.
    #[allow(clippy::expect_used)]
    fn extract_both(
        &self,
        side: &[u8],
        split: bool,
        arena: &mut LevelArena,
    ) -> [(Self, Vec<I>); 2] {
        let n = Hypergraph::num_vertices(self).index();
        // One remap pass: new_id[v] = rank of v within its side. New ids
        // rise with old ids, so remapped pins inherit the pin sort order.
        let mut new_id = I::take_ids(arena, n, I::ZERO);
        let mut maps: [Vec<I>; 2] = [Vec::new(), Vec::new()];
        for v in 0..n {
            let s = side[v] as usize;
            new_id[v] = I::from_index(maps[s].len());
            maps[s].push(I::from_index(v));
        }

        // One pass over the pins: route each pin into its side's flat
        // CSR, then keep or revert the net per side. Split mode keeps any
        // remainder of >= 2 pins; cut-net mode keeps a net only on the
        // side that received *all* of its pins.
        let mut pin_ptr = [vec![0usize], vec![0usize]];
        let mut pins: [Vec<I>; 2] = [Vec::new(), Vec::new()];
        let mut costs: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for net in 0..self.num_nets().index() {
            let net = I::from_index(net);
            let all = self.pins(net);
            let before = [pins[0].len(), pins[1].len()];
            for &p in all {
                let s = side[p.index()] as usize;
                pins[s].push(new_id[p.index()]);
            }
            let cost = self.net_cost(net);
            for s in 0..2 {
                let cnt = pins[s].len() - before[s];
                if cnt >= 2 && (split || cnt == all.len()) {
                    pin_ptr[s].push(pins[s].len());
                    costs[s].push(cost);
                } else {
                    pins[s].truncate(before[s]);
                }
            }
        }
        I::give_ids(arena, new_id);

        let [map0, map1] = maps;
        let [ptr0, ptr1] = pin_ptr;
        let [pins0, pins1] = pins;
        let [costs0, costs1] = costs;
        let weights_of = |map: &[I]| -> Vec<u32> {
            map.iter()
                .map(|&v| Hypergraph::vertex_weight(self, v))
                .collect()
        };
        let w0 = weights_of(&map0);
        let w1 = weights_of(&map1);
        let nv0 = I::from_index(map0.len());
        let nv1 = I::from_index(map1.len());
        let h0 = Hypergraph::from_flat_nets(nv0, ptr0, pins0, w0, costs0)
            .expect("extraction preserves hypergraph validity");
        let h1 = Hypergraph::from_flat_nets(nv1, ptr1, pins1, w1, costs1)
            .expect("extraction preserves hypergraph validity");
        [(h0, map0), (h1, map1)]
    }

    fn validate_invariants(&self) -> Result<(), InvariantViolation> {
        Hypergraph::validate_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Budget;
    use crate::testutil::{random_hypergraph, two_clusters};
    use fgh_hypergraph::{cutsize_connectivity, Partition};

    /// Rebuilds a `u32` hypergraph at `u64` width with identical content.
    fn widen(hg: &Hypergraph) -> Hypergraph<u64> {
        let nets: Vec<Vec<u64>> = (0..hg.num_nets())
            .map(|n| hg.pins(n).iter().map(|&p| p as u64).collect())
            .collect();
        Hypergraph::<u64>::from_nets_weighted(
            hg.num_vertices() as u64,
            &nets,
            hg.vertex_weights().to_vec(),
            hg.net_costs().to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn driver_bisect_matches_quality_of_direct_path() {
        let hg = two_clusters(200);
        let mut driver = MultilevelDriver::new(PartitionConfig::with_seed(5));
        let mut rng = SmallRng::seed_from_u64(5);
        let (sides, cut) = driver.bisect(&hg, [200.0, 200.0], 0.03, &mut rng);
        assert_eq!(cut, 1, "should discover the single-bridge cut");
        let w1 = sides.iter().filter(|&&s| s == 1).count();
        assert!((194..=206).contains(&w1), "balance violated: {w1}/400");
        let st = driver.stats();
        assert!(st.bisections == 1 && st.levels > 0 && st.fm_passes > 0);
    }

    /// One multilevel bisection on a fresh driver.
    fn bisect(
        hg: &Hypergraph,
        targets: [f64; 2],
        epsilon: f64,
        cfg: PartitionConfig,
        seed: u64,
    ) -> (Vec<u8>, u64) {
        MultilevelDriver::new(cfg).bisect(hg, targets, epsilon, &mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn bisect_two_clusters_optimally() {
        let hg = two_clusters(200);
        let cfg = PartitionConfig::default();
        let (sides, cut) = bisect(&hg, [200.0, 200.0], 0.03, cfg, 5);
        assert_eq!(cut, 1, "should discover the single-bridge cut");
        let w1 = sides.iter().filter(|&&s| s == 1).count();
        assert!((194..=206).contains(&w1), "balance violated: {w1}/400");
    }

    #[test]
    fn bisect_respects_balance_on_random_hypergraphs() {
        for seed in 0..3u64 {
            let hg = random_hypergraph(500, 800, 6, seed);
            let cfg = PartitionConfig::default();
            let (sides, _) = bisect(&hg, [250.0, 250.0], 0.05, cfg, seed);
            let w1 = sides.iter().filter(|&&s| s == 1).count() as f64;
            assert!(
                w1 <= 250.0 * 1.05 + 1.0 && (500.0 - w1) <= 250.0 * 1.05 + 1.0,
                "seed {seed}: side weights {w1}/{}",
                500.0 - w1
            );
        }
    }

    #[test]
    fn degenerate_targets() {
        let hg = two_clusters(10);
        let cfg = PartitionConfig::default();
        let (sides, cut) = bisect(&hg, [20.0, 0.0], 0.03, cfg, 1);
        assert!(sides.iter().all(|&s| s == 0));
        assert_eq!(cut, 0);
    }

    #[test]
    fn unbalanced_targets_respected() {
        // 3:1 split request.
        let hg = two_clusters(100);
        let cfg = PartitionConfig::default();
        let (sides, _) = bisect(&hg, [150.0, 50.0], 0.05, cfg, 2);
        let w1 = sides.iter().filter(|&&s| s == 1).count() as f64;
        assert!(w1 <= 50.0 * 1.05 + 1.0, "side 1 too heavy: {w1}");
        assert!(w1 >= 30.0, "side 1 suspiciously light: {w1}");
    }

    #[test]
    fn arena_reuses_buffers_across_levels() {
        let hg = random_hypergraph(600, 900, 6, 3);
        let mut driver = MultilevelDriver::new(PartitionConfig::with_seed(2));
        driver.partition_recursive(&hg, 8);
        let a = driver.arena_stats();
        assert!(a.reused > a.fresh, "pool should serve most takes: {a:?}");
    }

    #[test]
    fn cut_sum_equals_connectivity_with_net_splitting() {
        let hg = random_hypergraph(300, 500, 6, 7);
        for k in [2u32, 4, 8] {
            let cfg = PartitionConfig {
                net_splitting: true,
                ..PartitionConfig::with_seed(k as u64)
            };
            let mut driver = MultilevelDriver::new(cfg);
            let out = driver.partition_recursive(&hg, k);
            let p = Partition::new(k, out.parts).unwrap();
            assert_eq!(
                cutsize_connectivity(&hg, &p),
                out.cut_sum,
                "eq. 3 composition failed for k = {k}"
            );
        }
    }

    #[test]
    fn recursive_driver_is_deterministic() {
        let hg = random_hypergraph(250, 400, 5, 9);
        let run = || {
            let mut d = MultilevelDriver::new(PartitionConfig::with_seed(11));
            d.partition_recursive(&hg, 4)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.parts, b.parts);
        assert_eq!(a.cut_sum, b.cut_sum);
    }

    #[test]
    fn u64_width_reproduces_u32_partitions() {
        // The same structure at both index widths must drive the engine
        // through identical decisions: same RNG consumption, same gains,
        // same final parts and cut. This is the golden width-parity test
        // for the whole multilevel stack.
        let hg32 = random_hypergraph(300, 500, 6, 7);
        let hg64 = widen(&hg32);
        for k in [2u32, 4, 8] {
            let cfg = PartitionConfig::with_seed(k as u64 + 40);
            let mut d32 = MultilevelDriver::new(cfg.clone());
            let mut d64 = MultilevelDriver::new(cfg);
            let out32 = d32.partition_recursive(&hg32, k);
            let out64 = d64.partition_recursive(&hg64, k);
            assert_eq!(out32.parts, out64.parts, "width divergence at k = {k}");
            assert_eq!(out32.cut_sum, out64.cut_sum, "cut divergence at k = {k}");
        }
    }

    #[test]
    fn byte_budget_truncates_but_stays_valid() {
        let hg = random_hypergraph(400, 600, 6, 5);
        // A 1-byte cap trips the checkpoint before any level is built:
        // flat FM on the input structure, never an abort.
        let cfg = PartitionConfig {
            budget: Budget::bytes(1),
            ..PartitionConfig::with_seed(3)
        };
        let mut d = MultilevelDriver::new(cfg);
        let out = d.partition_recursive(&hg, 4);
        assert_eq!(out.parts.len(), 400);
        assert!(out.parts.iter().all(|&p| p < 4), "parts must stay in range");
        let st = d.stats();
        assert!(st.byte_truncations > 0, "cap must be recorded: {st:?}");
        assert_eq!(st.levels, 0, "no level fits a 1-byte cap");
        assert!(st.truncated());

        // A generous cap must not change results vs. unlimited.
        let cfg_roomy = PartitionConfig {
            budget: Budget::bytes(1 << 30),
            ..PartitionConfig::with_seed(3)
        };
        let mut roomy = MultilevelDriver::new(cfg_roomy);
        let out_roomy = roomy.partition_recursive(&hg, 4);
        let mut unlimited = MultilevelDriver::new(PartitionConfig::with_seed(3));
        let out_unlimited = unlimited.partition_recursive(&hg, 4);
        assert_eq!(out_roomy.parts, out_unlimited.parts);
        assert_eq!(roomy.stats().byte_truncations, 0);
    }

    #[test]
    fn extract_both_matches_extract_side() {
        let hg = random_hypergraph(200, 320, 6, 21);
        // An arbitrary deterministic 0/1 side vector.
        let side: Vec<u8> = (0..200u32)
            .map(|v| ((v.wrapping_mul(2_654_435_761) >> 16) & 1) as u8)
            .collect();
        let partition = Partition::new(2, side.iter().map(|&s| s as u32).collect()).unwrap();
        let mut arena = LevelArena::new();
        for split in [true, false] {
            let [(h0, m0), (h1, m1)] = hg.extract_both(&side, split, &mut arena);
            let (e0, em0) = hg.extract_part_mode(&partition, 0, split);
            let (e1, em1) = hg.extract_part_mode(&partition, 1, split);
            assert_eq!(m0, em0, "side-0 map differs (split={split})");
            assert_eq!(m1, em1, "side-1 map differs (split={split})");
            assert_eq!(h0, e0, "side-0 hypergraph differs (split={split})");
            assert_eq!(h1, e1, "side-1 hypergraph differs (split={split})");
        }
    }

    #[test]
    fn parallel_recursion_matches_serial_bit_for_bit() {
        use crate::config::Parallelism;
        let hg = random_hypergraph(500, 800, 6, 13);
        let mut serial_driver = MultilevelDriver::new(PartitionConfig::with_seed(7));
        let serial = serial_driver.partition_recursive(&hg, 16);
        for threads in [2usize, 4] {
            let cfg = PartitionConfig {
                parallelism: Parallelism::Threads(threads),
                ..PartitionConfig::with_seed(7)
            };
            let mut d = MultilevelDriver::new(cfg);
            let par = d.partition_recursive(&hg, 16);
            assert_eq!(par.parts, serial.parts, "threads={threads}");
            assert_eq!(par.cut_sum, serial.cut_sum, "threads={threads}");
            assert!(
                d.stats().parallel_forks > 0,
                "parallel run should dispatch forks (threads={threads})"
            );
        }
        assert_eq!(serial_driver.stats().parallel_forks, 0);
    }

    #[test]
    fn parallel_forks_count_branches_run_on_another_thread() {
        use crate::config::Parallelism;
        let hg = random_hypergraph(500, 800, 6, 13);
        let forks = |parallelism| {
            let cfg = PartitionConfig {
                parallelism,
                ..PartitionConfig::with_seed(7)
            };
            let mut d = MultilevelDriver::new(cfg);
            d.partition_recursive(&hg, 16);
            d.stats().parallel_forks
        };
        assert_eq!(forks(Parallelism::Serial), 0);
        // Inside a 1-thread pool every join runs its right branch inline.
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        assert_eq!(one.install(|| forks(Parallelism::Threads(2))), 0);
        // K = 16 offers 7 joins (the k = 16, 8, 4 nodes). Two threads
        // always take the root fork. At most one k = 8 join can fork: the
        // slot it needs is freed only after the other side's k = 8 join.
        let two = forks(Parallelism::Threads(2));
        assert!((1..7).contains(&two), "Threads(2) forks: {two}");
    }
}
