//! Fiduccia–Mattheyses bisection refinement with gain buckets.
//!
//! [`BisectionState`] maintains a 2-way partition of any
//! [`Substrate`] — a hypergraph with per-net side pin counts and the
//! cut-net cutsize, or a graph with the edge cut — together with side
//! weights and balance caps. [`BisectionState::fm_pass`] runs one FM pass:
//! tentatively move max-gain vertices (locking each after its move), then
//! roll back to the best prefix seen. For hypergraphs, gains use the
//! cut-net metric, which recursive bisection with net splitting composes
//! into the connectivity−1 metric; for graphs they are the classic
//! external-minus-internal edge weights.
//!
//! Vertex ids carry the substrate's index width [`Substrate::Ix`]; the
//! gain buckets, order buffers, and move log are all width-matched so the
//! u32 fast path keeps its compact memory layout.

use fgh_hypergraph::Hypergraph;
use fgh_sparse::IndexType;
use fgh_trace::SpanHandle;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::arena::{ArenaIndex, LevelArena};
use crate::engine::Substrate;
use crate::gain::GainBuckets;
use crate::level::EngineStats;

/// Mutable state of a bisection over any [`Substrate`] (defaults to
/// [`Hypergraph`] for backward compatibility).
#[derive(Debug, Clone)]
pub struct BisectionState<'a, S: Substrate = Hypergraph> {
    sub: &'a S,
    /// Side (0/1) of each vertex.
    side: Vec<u8>,
    /// Substrate-specific cut bookkeeping (per-net side pin counts for
    /// hypergraphs, nothing for graphs).
    cs: S::CutState,
    /// Total vertex weight on each side.
    weight: [u64; 2],
    /// Balance caps per side: side weight must not exceed `cap[s]`.
    cap: [u64; 2],
    /// One max vertex weight of slack lets FM pass through mildly
    /// imbalanced intermediate states (the rollback only keeps prefixes
    /// whose balance penalty did not worsen).
    slack: u64,
    /// Current cutsize.
    cut: u64,
    /// Lazily computed [`Substrate::max_gain_bound`]: the bound is an
    /// O(incidences) scan, so it is cached across the FM passes of this
    /// bisection instead of being recomputed per pass.
    gain_bound: Option<i64>,
}

impl<'a, S: Substrate> BisectionState<'a, S> {
    /// Builds the state for an existing side assignment.
    ///
    /// `targets` are the ideal side weights (they sum to the total vertex
    /// weight for proportional K-way splits); `epsilon` is the per-level
    /// allowance, so `cap[s] = targets[s] * (1 + epsilon)`.
    pub fn new(sub: &'a S, side: Vec<u8>, targets: [f64; 2], epsilon: f64) -> Self {
        Self::new_in(sub, side, targets, epsilon, &mut LevelArena::new())
    }

    /// Arena-backed variant of [`BisectionState::new`]: cut bookkeeping
    /// buffers are drawn from `arena` (return them with
    /// [`BisectionState::into_sides_in`]).
    // lint: checked-index — side length is asserted == num_vertices; weight/cap are [u64; 2] indexed by 0/1 sides
    pub fn new_in(
        sub: &'a S,
        side: Vec<u8>,
        targets: [f64; 2],
        epsilon: f64,
        arena: &mut LevelArena,
    ) -> Self {
        assert_eq!(side.len(), sub.num_vertices());
        let mut weight = [0u64; 2];
        for (v, &s) in side.iter().enumerate() {
            weight[s as usize] += sub.vertex_weight(S::Ix::from_index(v)) as u64;
        }
        let (cs, cut) = sub.cut_state(&side, arena);
        let cap = [
            (targets[0] * (1.0 + epsilon)).floor().max(0.0) as u64,
            (targets[1] * (1.0 + epsilon)).floor().max(0.0) as u64,
        ];
        let slack = sub.max_vertex_weight().max(1);
        BisectionState {
            sub,
            side,
            cs,
            weight,
            cap,
            slack,
            cut,
            gain_bound: None,
        }
    }

    /// The substrate's gain bound, computed on first use and cached for
    /// the remaining FM passes of this bisection.
    fn cached_gain_bound(&mut self) -> i64 {
        match self.gain_bound {
            Some(b) => b,
            None => {
                let b = self.sub.max_gain_bound();
                self.gain_bound = Some(b);
                b
            }
        }
    }

    /// Current cutsize.
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Current side weights.
    pub fn weights(&self) -> [u64; 2] {
        self.weight
    }

    /// Balance caps.
    pub fn caps(&self) -> [u64; 2] {
        self.cap
    }

    /// The side assignment.
    pub fn sides(&self) -> &[u8] {
        &self.side
    }

    /// Consumes the state, returning the side assignment after recycling
    /// the cut bookkeeping buffers into `arena`.
    pub fn into_sides_in(self, arena: &mut LevelArena) -> Vec<u8> {
        S::recycle_cut_state(self.cs, arena);
        self.side
    }

    /// Sum of balance-cap violations (0 when balanced).
    // lint: checked-index — weight and cap are [u64; 2] indexed by constant 0/1
    pub fn balance_penalty(&self) -> u64 {
        self.weight[0].saturating_sub(self.cap[0]) + self.weight[1].saturating_sub(self.cap[1])
    }

    /// FM gain of moving `v` to the opposite side.
    pub fn gain(&self, v: S::Ix) -> i64 {
        self.sub.gain(&self.cs, &self.side, v)
    }

    /// Moves `v` to the opposite side, updating the cut bookkeeping,
    /// weights, and the cutsize. Optionally applies FM delta-gain updates
    /// to `buckets`.
    // lint: checked-index — v < num_vertices == side.len(); s/t are 0/1 into [u64; 2]
    pub fn apply_move(&mut self, v: S::Ix, buckets: Option<&mut GainBuckets<S::Ix>>) {
        let s = self.side[v.index()] as usize;
        let t = 1 - s;
        let w = self.sub.vertex_weight(v) as u64;
        match buckets {
            Some(b) => {
                self.sub
                    .apply_move_gains(&mut self.cs, &self.side, v, &mut self.cut, |u, d| {
                        b.adjust(u, d)
                    })
            }
            None => self
                .sub
                .apply_move(&mut self.cs, &self.side, v, &mut self.cut),
        }
        self.side[v.index()] = t as u8; // lint: checked-cast — t is a 0/1 side
        self.weight[s] -= w;
        self.weight[t] += w;
    }

    /// `true` when moving `v` to the opposite side is admissible under the
    /// balance caps: the target side stays under its cap, or the source
    /// side is over its cap and the move strictly reduces the total
    /// violation.
    // lint: checked-index — v < num_vertices == side.len(); s/t are 0/1 into [u64; 2]
    fn admissible(&self, v: S::Ix) -> bool {
        let s = self.side[v.index()] as usize;
        let t = 1 - s;
        let w = self.sub.vertex_weight(v) as u64;
        // Saturating adds: side weights approach the total vertex weight
        // and caps derive from it, so the per-move admission check needs
        // no range pre-checks — overflow saturates to "inadmissible"
        // instead of branching.
        if self.weight[t].saturating_add(w) <= self.cap[t].saturating_add(self.slack) {
            return true;
        }
        if self.weight[s] > self.cap[s] {
            let before = self.balance_penalty();
            let after = self.weight[s].saturating_sub(w).saturating_sub(self.cap[s])
                + self.weight[t].saturating_add(w).saturating_sub(self.cap[t]);
            return after < before;
        }
        false
    }

    /// One FM pass: tentative max-gain moves with lock-on-move, then
    /// rollback to the best prefix (lexicographic on (balance penalty,
    /// cut)). Returns `true` if the pass strictly improved that pair.
    ///
    /// `early_exit` bounds the number of consecutive non-improving moves
    /// (0 = unbounded).
    pub fn fm_pass(&mut self, rng: &mut impl Rng, early_exit: usize) -> bool {
        self.fm_pass_in(
            rng,
            early_exit,
            &mut LevelArena::new(),
            &mut EngineStats::default(),
        )
    }

    /// Arena-backed FM pass used by the engine: the bucket structure and
    /// order/move buffers come from `arena`; pass/move counters accumulate
    /// into `stats`.
    // lint: checked-index — best_len <= moves.len()
    pub(crate) fn fm_pass_in(
        &mut self,
        rng: &mut impl Rng,
        early_exit: usize,
        arena: &mut LevelArena,
        stats: &mut EngineStats,
    ) -> bool {
        let n = self.sub.num_vertices();
        let bound = self.cached_gain_bound();
        let mut buckets = S::Ix::take_buckets(arena, n, bound);

        // Insert vertices in random order (ties broken by insertion).
        let mut order = S::Ix::take_ids(arena, 0, S::Ix::ZERO);
        order.extend((0..n).map(S::Ix::from_index));
        order.shuffle(rng);
        for &v in order.iter() {
            buckets.insert(v, self.gain(v));
        }

        let start = (self.balance_penalty(), self.cut);
        let mut best = start;
        let mut moves = S::Ix::take_ids(arena, 0, S::Ix::ZERO);
        let mut best_len = 0usize;
        let mut since_best = 0usize;

        while let Some((v, _)) = {
            // Split borrows: admissibility needs &self, pop needs &mut buckets.
            let state: &Self = &*self;
            buckets.pop_max_where(|u| state.admissible(u))
        } {
            self.apply_move(v, Some(&mut buckets));
            moves.push(v);
            let now = (self.balance_penalty(), self.cut);
            if now < best {
                best = now;
                best_len = moves.len();
                since_best = 0;
            } else {
                since_best += 1;
                if early_exit > 0 && since_best >= early_exit {
                    break;
                }
            }
        }
        stats.fm_passes += 1;
        stats.fm_moves += moves.len() as u64;
        stats.fm_rollbacks += (moves.len() - best_len) as u64;

        // Roll back past the best prefix.
        for &v in moves[best_len..].iter().rev() {
            self.apply_move(v, None);
        }
        debug_assert_eq!((self.balance_penalty(), self.cut), best);
        S::Ix::give_buckets(arena, buckets);
        S::Ix::give_ids(arena, order);
        S::Ix::give_ids(arena, moves);
        best < start
    }

    /// Runs up to `max_passes` FM passes, stopping when a pass yields no
    /// improvement. Returns the number of improving passes.
    pub fn refine(&mut self, rng: &mut impl Rng, max_passes: usize, early_exit: usize) -> usize {
        self.refine_in(
            rng,
            max_passes,
            early_exit,
            &mut LevelArena::new(),
            &mut EngineStats::default(),
            &SpanHandle::noop(),
        )
    }

    /// Arena-backed refinement loop used by the engine. Each FM pass
    /// opens an `fm-pass[i]` child span under `span` (free when the
    /// handle is a noop) carrying per-pass `moves`/`rollbacks` counters.
    pub(crate) fn refine_in(
        &mut self,
        rng: &mut impl Rng,
        max_passes: usize,
        early_exit: usize,
        arena: &mut LevelArena,
        stats: &mut EngineStats,
        span: &SpanHandle,
    ) -> usize {
        let mut improved = 0;
        let mut pass_idx = 0u64;
        for _ in 0..max_passes {
            if self.traced_pass(rng, early_exit, arena, stats, span, pass_idx) {
                pass_idx += 1;
                improved += 1;
            } else {
                break;
            }
        }
        improved
    }

    /// One [`BisectionState::fm_pass_in`] wrapped in an `fm-pass[idx]`
    /// span with per-pass counters. Under a noop handle this is exactly an
    /// `fm_pass_in` call.
    fn traced_pass(
        &mut self,
        rng: &mut impl Rng,
        early_exit: usize,
        arena: &mut LevelArena,
        stats: &mut EngineStats,
        span: &SpanHandle,
        idx: u64,
    ) -> bool {
        let sp = span.child_indexed("fm-pass", idx);
        let (moves0, rollbacks0) = (stats.fm_moves, stats.fm_rollbacks);
        let improved = self.fm_pass_in(rng, early_exit, arena, stats);
        if sp.is_enabled() {
            sp.counter("moves", stats.fm_moves - moves0);
            sp.counter("rollbacks", stats.fm_rollbacks - rollbacks0);
        }
        improved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_clusters;
    use fgh_hypergraph::{cutsize_cutnet, Partition};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    #[test]
    fn state_cut_matches_metric() {
        let hg = two_clusters(10);
        // Deliberately bad split: even/odd.
        let side: Vec<u8> = (0..20).map(|v| (v % 2) as u8).collect();
        let st = BisectionState::new(&hg, side.clone(), [10.0, 10.0], 0.1);
        let p = Partition::new(2, side.iter().map(|&s| s as u32).collect()).unwrap();
        assert_eq!(st.cut(), cutsize_cutnet(&hg, &p));
    }

    #[test]
    fn gain_matches_recompute() {
        let hg = two_clusters(8);
        let side: Vec<u8> = (0..16).map(|v| (v % 2) as u8).collect();
        let st = BisectionState::new(&hg, side, [8.0, 8.0], 0.2);
        for v in 0..16u32 {
            // Recompute gain by brute force: cut before minus cut after.
            let mut st2 = st.clone();
            let before = st2.cut() as i64;
            st2.apply_move(v, None);
            let after = st2.cut() as i64;
            assert_eq!(st.gain(v), before - after, "vertex {v}");
        }
    }

    #[test]
    fn apply_move_roundtrip() {
        let hg = two_clusters(8);
        let side: Vec<u8> = (0..16).map(|v| u8::from(v >= 8)).collect();
        let st0 = BisectionState::new(&hg, side, [8.0, 8.0], 0.2);
        let mut st = st0.clone();
        st.apply_move(3, None);
        st.apply_move(3, None);
        assert_eq!(st.cut(), st0.cut());
        assert_eq!(st.weights(), st0.weights());
        assert_eq!(st.sides(), st0.sides());
    }

    #[test]
    fn fm_finds_the_bridge_cut() {
        let hg = two_clusters(20);
        // Start from a random-ish split with the right weights.
        let side: Vec<u8> = (0..40).map(|v| (v % 2) as u8).collect();
        let mut st = BisectionState::new(&hg, side, [20.0, 20.0], 0.05);
        st.refine(&mut rng(), 8, 0);
        assert_eq!(st.cut(), 1, "optimal bisection cuts only the bridge net");
        assert_eq!(st.balance_penalty(), 0);
    }

    #[test]
    fn fm_never_worsens() {
        for seed in 0..5u64 {
            let hg = crate::testutil::random_hypergraph(60, 90, 6, seed);
            let side: Vec<u8> = (0..60).map(|v| u8::from(v >= 30)).collect();
            let mut st = BisectionState::new(&hg, side, [30.0, 30.0], 0.1);
            let before = (st.balance_penalty(), st.cut());
            st.refine(&mut SmallRng::seed_from_u64(seed), 6, 0);
            let after = (st.balance_penalty(), st.cut());
            assert!(after <= before, "seed {seed}: {before:?} -> {after:?}");
        }
    }

    #[test]
    fn rebalances_overweight_side() {
        let hg = two_clusters(16);
        // Everything on side 0: grossly imbalanced.
        let side = vec![0u8; 32];
        let mut st = BisectionState::new(&hg, side, [16.0, 16.0], 0.1);
        st.refine(&mut rng(), 8, 0);
        assert_eq!(st.balance_penalty(), 0, "FM must restore balance");
    }

    #[test]
    fn zero_weight_vertices_move_freely() {
        let hg = fgh_hypergraph::Hypergraph::from_nets_weighted(
            4u32,
            &[vec![0, 1], vec![1, 2], vec![2, 3]],
            vec![1, 0, 0, 1],
            vec![1, 1, 1],
        )
        .unwrap();
        let side = vec![0u8, 1, 0, 1];
        let mut st = BisectionState::new(&hg, side, [1.0, 1.0], 0.0);
        st.refine(&mut rng(), 6, 0);
        // Best achievable: dummies huddle with their net mates, cut = 1.
        assert_eq!(st.cut(), 1);
    }

    #[test]
    fn u64_state_matches_u32_state() {
        // The same structure at both widths refines to the same sides.
        let hg = two_clusters(12);
        let nets: Vec<Vec<u64>> = (0..hg.num_nets())
            .map(|n| hg.pins(n).iter().map(|&p| p as u64).collect())
            .collect();
        let hg64 = Hypergraph::<u64>::from_nets(24u64, &nets).unwrap();
        let side: Vec<u8> = (0..24).map(|v| (v % 2) as u8).collect();
        let mut a = BisectionState::new(&hg, side.clone(), [12.0, 12.0], 0.1);
        let mut b = BisectionState::new(&hg64, side, [12.0, 12.0], 0.1);
        a.refine(&mut rng(), 8, 0);
        b.refine(&mut rng(), 8, 0);
        assert_eq!(a.cut(), b.cut());
        assert_eq!(a.sides(), b.sides());
    }

    #[test]
    fn arena_backed_state_matches_plain() {
        let hg = two_clusters(12);
        let side: Vec<u8> = (0..24).map(|v| (v % 2) as u8).collect();
        let mut arena = LevelArena::new();
        let mut stats = EngineStats::default();
        let mut a = BisectionState::new_in(&hg, side.clone(), [12.0, 12.0], 0.1, &mut arena);
        let mut b = BisectionState::new(&hg, side, [12.0, 12.0], 0.1);
        a.refine_in(
            &mut rng(),
            8,
            0,
            &mut arena,
            &mut stats,
            &SpanHandle::noop(),
        );
        b.refine(&mut rng(), 8, 0);
        assert_eq!(a.cut(), b.cut());
        assert_eq!(a.sides(), b.sides());
        assert!(stats.fm_passes > 0 && stats.fm_moves > 0);
        let sides = a.into_sides_in(&mut arena);
        assert_eq!(sides.len(), 24);
        assert!(
            arena.stats().reused > 0,
            "pass 2+ should reuse pooled buffers"
        );
    }
}
