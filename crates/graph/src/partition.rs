//! K-way graph partitioning on the unified multilevel engine.
//!
//! [`CsrGraph`] implements [`Substrate`], so the MeTiS-style baseline —
//! heavy-connectivity clustering coarsening, greedy graph growing, FM
//! refinement, recursive bisection — runs on the exact same
//! [`MultilevelDriver`] as the hypergraph partitioner. The substrate
//! differences are small: the cut is the edge cut (no per-net pin counts
//! needed — gains recompute from the adjacency), contraction merges
//! parallel edges and drops intra-cluster ones, and extraction builds the
//! induced subgraph (a cut edge has nothing to "split", so the
//! `net_splitting` flag is a no-op here and the per-bisection cuts always
//! sum to the final edge cut).
//!
//! Both index widths run on the one engine: `CsrGraph<u32>` for graphs
//! that fit 32-bit ids, `CsrGraph<u64>` beyond that.
//!
//! The hypergraph-only [`PartitionConfig`] field `net_splitting` is
//! ignored for graphs.

use std::sync::Arc;

use fgh_hypergraph::partition::imbalance_percent;
use fgh_partition::error::HypergraphError;
use fgh_partition::{
    best_of_seeds, run_seeds, ArenaIndex, ArenaPool, EngineStats, LevelArena, MultilevelDriver,
    PartitionConfig, PartitionError, Substrate,
};
use fgh_trace::SpanHandle;

use crate::graph::CsrGraph;

/// Outcome of a K-way graph partitioning run.
#[derive(Debug, Clone)]
pub struct GraphPartitionResult {
    /// Per-vertex part assignment (`0..k`).
    pub parts: Vec<u32>,
    /// Number of parts.
    pub k: u32,
    /// Edge cut of the partition (the partitioner's objective — an
    /// *approximation* of communication volume, per the paper's critique).
    pub edge_cut: u64,
    /// Percent load imbalance `100 (W_max − W_avg) / W_avg`.
    pub imbalance_percent: f64,
    /// Engine instrumentation for this run, including budget-truncation
    /// counters (see [`EngineStats::truncated`]).
    pub stats: EngineStats,
}

impl<I: ArenaIndex> Substrate for CsrGraph<I> {
    /// Graph gains recompute directly from the adjacency; no incremental
    /// bookkeeping is kept.
    type CutState = ();

    type Ix = I;

    fn num_vertices(&self) -> usize {
        CsrGraph::n(self).index()
    }

    fn vertex_weight(&self, v: I) -> u32 {
        CsrGraph::vertex_weight(self, v)
    }

    fn total_vertex_weight(&self) -> u64 {
        CsrGraph::total_vertex_weight(self)
    }

    fn max_vertex_weight(&self) -> u64 {
        self.vertex_weights().iter().copied().max().unwrap_or(1) as u64
    }

    fn num_incidences(&self) -> u64 {
        2 * self.num_edges() as u64
    }

    fn max_gain_bound(&self) -> i64 {
        let mut best = 1i64;
        for v in 0..Substrate::num_vertices(self) {
            let s: i64 = self
                .edge_weights(I::from_index(v))
                .iter()
                .map(|&w| w as i64)
                .sum();
            best = best.max(s);
        }
        best
    }

    fn heap_bytes(&self) -> usize {
        CsrGraph::heap_bytes(self)
    }

    fn cut_state(&self, side: &[u8], _arena: &mut LevelArena) -> ((), u64) {
        let mut twice_cut = 0u64;
        for v in 0..Substrate::num_vertices(self) {
            let s = side[v];
            let vi = I::from_index(v);
            for (&u, &w) in self.neighbors(vi).iter().zip(self.edge_weights(vi)) {
                if side[u.index()] != s {
                    twice_cut += w as u64;
                }
            }
        }
        ((), twice_cut / 2)
    }

    fn recycle_cut_state(_cs: (), _arena: &mut LevelArena) {}

    fn gain(&self, _cs: &(), side: &[u8], v: I) -> i64 {
        // Classic FM gain: external minus internal edge weight.
        let s = side[v.index()];
        let mut g = 0i64;
        for (&u, &w) in self.neighbors(v).iter().zip(self.edge_weights(v)) {
            if side[u.index()] == s {
                g -= w as i64;
            } else {
                g += w as i64;
            }
        }
        g
    }

    fn apply_move(&self, _cs: &mut (), side: &[u8], v: I, cut: &mut u64) {
        // `side` still holds v's pre-move side; the caller flips it after.
        let s = side[v.index()];
        for (&u, &w) in self.neighbors(v).iter().zip(self.edge_weights(v)) {
            if side[u.index()] == s {
                *cut += w as u64;
            } else {
                *cut -= w as u64;
            }
        }
    }

    fn apply_move_gains(
        &self,
        _cs: &mut (),
        side: &[u8],
        v: I,
        cut: &mut u64,
        mut adjust: impl FnMut(I, i64),
    ) {
        // `side` still holds v's pre-move side; the caller flips it after.
        let s = side[v.index()];
        for (&u, &w) in self.neighbors(v).iter().zip(self.edge_weights(v)) {
            if side[u.index()] == s {
                // Internal edge becomes cut: u now profits from following.
                *cut += w as u64;
                adjust(u, 2 * w as i64);
            } else {
                *cut -= w as u64;
                adjust(u, -2 * w as i64);
            }
        }
    }

    fn for_each_scored_neighbor(&self, u: I, _max_net_size: usize, mut visit: impl FnMut(I, u64)) {
        // Every edge is a two-pin net; the net-size filter never applies.
        for (&v, &w) in self.neighbors(u).iter().zip(self.edge_weights(u)) {
            visit(v, w as u64);
        }
    }

    // Infallible `expect` below: contraction emits in-bounds, deduped
    // edges, which is exactly what `from_edges` validates.
    #[allow(clippy::expect_used)]
    fn contract(&self, cluster_of: &[I], num_clusters: usize, arena: &mut LevelArena) -> Self {
        let mut weights64 = arena.take_u64(num_clusters, 0);
        for v in 0..Substrate::num_vertices(self) {
            weights64[cluster_of[v].index()] +=
                CsrGraph::vertex_weight(self, I::from_index(v)) as u64;
        }
        // Cluster weights saturate rather than abort on absurd inputs.
        let weights: Vec<u32> = weights64
            .iter()
            .map(|&w| u32::try_from(w).unwrap_or(u32::MAX))
            .collect();
        arena.give_u64(weights64);

        // Inter-cluster edges, each undirected edge emitted once;
        // `from_edges` merges parallel edges by summing their weights.
        let mut edges: Vec<(I, I, u32)> = Vec::new();
        for v in 0..Substrate::num_vertices(self) {
            let cv = cluster_of[v];
            let vi = I::from_index(v);
            for (&u, &w) in self.neighbors(vi).iter().zip(self.edge_weights(vi)) {
                let cu = cluster_of[u.index()];
                if vi < u && cv != cu {
                    edges.push((cv.min(cu), cv.max(cu), w));
                }
            }
        }
        CsrGraph::from_edges(I::from_index(num_clusters), &edges, Some(weights))
            .expect("contraction preserves graph validity")
    }

    // Infallible `expect`s below: each side's induced edges are renumbered
    // into `0..map.len()`, which is exactly what `from_edges` validates.
    #[allow(clippy::expect_used)]
    fn extract_both(
        &self,
        side: &[u8],
        _split: bool,
        arena: &mut LevelArena,
    ) -> [(Self, Vec<I>); 2] {
        let n = Substrate::num_vertices(self);
        // One remap pass: new_id[v] = rank of v within its side.
        let mut new_id = I::take_ids(arena, n, I::ZERO);
        let mut maps: [Vec<I>; 2] = [Vec::new(), Vec::new()];
        let mut vwgt: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for v in 0..n {
            let s = side[v] as usize;
            new_id[v] = I::from_index(maps[s].len());
            maps[s].push(I::from_index(v));
            vwgt[s].push(CsrGraph::vertex_weight(self, I::from_index(v)));
        }
        // One pass over the adjacency: each uncut edge (emitted once, at
        // its lower endpoint) lands in its side's induced edge list.
        let mut edges: [Vec<(I, I, u32)>; 2] = [Vec::new(), Vec::new()];
        for v in 0..n {
            let s = side[v];
            let nv = new_id[v];
            let vi = I::from_index(v);
            for (&u, &w) in self.neighbors(vi).iter().zip(self.edge_weights(vi)) {
                if vi < u && side[u.index()] == s {
                    edges[s as usize].push((nv, new_id[u.index()], w));
                }
            }
        }
        I::give_ids(arena, new_id);
        let [map0, map1] = maps;
        let [w0, w1] = vwgt;
        let [e0, e1] = edges;
        let nv0 = I::from_index(map0.len());
        let nv1 = I::from_index(map1.len());
        let g0 = CsrGraph::from_edges(nv0, &e0, Some(w0)).expect("induced subgraph is valid");
        let g1 = CsrGraph::from_edges(nv1, &e1, Some(w1)).expect("induced subgraph is valid");
        [(g0, map0), (g1, map1)]
    }

    fn validate_invariants(&self) -> Result<(), fgh_invariant::InvariantViolation> {
        CsrGraph::validate(self)
    }
}

/// Partitions `g` into `k` parts by multilevel recursive bisection on the
/// unified engine. Graph runs ignore the hypergraph-only config field
/// `net_splitting`.
pub fn partition_graph<I: ArenaIndex>(
    g: &CsrGraph<I>,
    k: u32,
    cfg: &PartitionConfig,
) -> Result<GraphPartitionResult, PartitionError> {
    let mut driver = MultilevelDriver::new(cfg.clone());
    partition_graph_with(&mut driver, g, k)
}

/// Like [`partition_graph`], but running on a caller-supplied
/// [`MultilevelDriver`] — its arena and instrumentation persist across
/// calls, so repeated partitioning reuses all scratch buffers.
pub fn partition_graph_with<I: ArenaIndex>(
    driver: &mut MultilevelDriver,
    g: &CsrGraph<I>,
    k: u32,
) -> Result<GraphPartitionResult, PartitionError> {
    if k == 0 {
        return Err(HypergraphError::InvalidK.into());
    }
    let out = driver.partition_recursive(g, k);
    let edge_cut = g.edge_cut(&out.parts);
    // Cut edges are dropped on extraction, so per-bisection cuts compose
    // exactly (the graph analogue of the eq. 3 invariant) — unless a
    // budget truncation skipped refinement work.
    debug_assert!(
        out.cut_sum == edge_cut || driver.stats().truncated(),
        "bisection cuts must sum to the edge cut"
    );
    Ok(finish(g, k, out.parts, edge_cut, driver.stats()))
}

fn finish<I: ArenaIndex>(
    g: &CsrGraph<I>,
    k: u32,
    parts: Vec<u32>,
    edge_cut: u64,
    stats: EngineStats,
) -> GraphPartitionResult {
    let mut w = vec![0u64; k as usize];
    for v in 0..Substrate::num_vertices(g) {
        w[parts[v] as usize] += g.vertex_weight(I::from_index(v)) as u64;
    }
    GraphPartitionResult {
        parts,
        k,
        edge_cut,
        imbalance_percent: imbalance_percent(w, k as usize),
        stats,
    }
}

/// Runs [`partition_graph`] with `runs` seeds — fanned out over threads
/// per `cfg.parallelism` — returning the best balanced result by edge cut
/// (the paper's MeTiS 50-seed protocol). A panicking seed becomes an
/// error value; surviving seeds still compete for the best result.
pub fn partition_graph_best<I: ArenaIndex>(
    g: &CsrGraph<I>,
    k: u32,
    cfg: &PartitionConfig,
    runs: usize,
) -> Result<GraphPartitionResult, PartitionError> {
    partition_graph_best_traced_in(
        g,
        k,
        cfg,
        runs,
        &Arc::new(ArenaPool::new()),
        &SpanHandle::noop(),
    )
}

/// [`partition_graph_best`] drawing every seed's scratch arena from a
/// caller-supplied [`ArenaPool`] and recording under a trace scope — the
/// pool-reuse entry point matching
/// `fgh_partition::partition_hypergraph_best_traced_in`, on the same
/// seed fan-out and best-of rule ([`fgh_partition::run_seeds`],
/// [`fgh_partition::best_of_seeds`]).
pub fn partition_graph_best_traced_in<I: ArenaIndex>(
    g: &CsrGraph<I>,
    k: u32,
    cfg: &PartitionConfig,
    runs: usize,
    pool: &Arc<ArenaPool>,
    parent: &SpanHandle,
) -> Result<GraphPartitionResult, PartitionError> {
    let results = run_seeds(cfg, runs, pool, parent, |driver| {
        partition_graph_with(driver, g, k)
    });
    best_of_seeds(results, cfg.epsilon, |r| (r.imbalance_percent, r.edge_cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_graph, two_cliques};
    use fgh_partition::refine::BisectionState;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The subgraph induced by `side[v] == which` with its new→old map,
    /// built one side at a time: the oracle for `extract_both`.
    fn extract_side(g: &CsrGraph, side: &[u8], which: u8) -> (CsrGraph, Vec<u32>) {
        let mut new_of_old = vec![u32::MAX; side.len()];
        let mut map = Vec::new();
        let mut vwgt = Vec::new();
        for v in (0..g.n()).filter(|&v| side[v as usize] == which) {
            new_of_old[v as usize] = map.len() as u32;
            map.push(v);
            vwgt.push(g.vertex_weight(v));
        }
        let mut edges = Vec::new();
        for &v in &map {
            for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
                if side[u as usize] == which && v < u {
                    edges.push((new_of_old[v as usize], new_of_old[u as usize], w));
                }
            }
        }
        let sub = CsrGraph::from_edges(map.len() as u32, &edges, Some(vwgt)).unwrap();
        (sub, map)
    }

    #[test]
    fn k2_two_cliques() {
        let g = two_cliques(50);
        let r = partition_graph(&g, 2, &PartitionConfig::with_seed(1)).unwrap();
        assert_eq!(r.edge_cut, 1);
        assert!(r.imbalance_percent <= 3.0 + 1e-9);
    }

    #[test]
    fn k8_balance_and_coverage() {
        let g = random_graph(800, 1600, 3);
        let r = partition_graph(&g, 8, &PartitionConfig::with_seed(2)).unwrap();
        assert_eq!(r.k, 8);
        let mut sizes = vec![0usize; 8];
        for &p in &r.parts {
            assert!(p < 8);
            sizes[p as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
        assert!(
            r.imbalance_percent <= 4.0,
            "imbalance {}%",
            r.imbalance_percent
        );
        assert_eq!(r.edge_cut, g.edge_cut(&r.parts));
    }

    #[test]
    fn non_power_of_two() {
        let g = random_graph(300, 600, 5);
        let r = partition_graph(&g, 6, &PartitionConfig::with_seed(3)).unwrap();
        assert_eq!(r.k, 6);
        assert!(r.parts.iter().all(|&p| p < 6));
        assert!(r.imbalance_percent <= 6.0);
    }

    #[test]
    fn k1_trivial() {
        let g = two_cliques(5);
        let r = partition_graph(&g, 1, &PartitionConfig::default()).unwrap();
        assert_eq!(r.edge_cut, 0);
        assert!(r.parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn weighted_vertices_balanced_by_weight() {
        // One heavy vertex should sit alone-ish.
        let mut edges = Vec::new();
        for i in 0..9u32 {
            edges.push((i, i + 1, 1u32));
        }
        let mut w = vec![1u32; 10];
        w[0] = 9; // total 18, target 9 per side
        let g = CsrGraph::from_edges(10u32, &edges, Some(w)).unwrap();
        let r = partition_graph(&g, 2, &PartitionConfig::with_seed(4)).unwrap();
        let side0 = r.parts[0];
        let with_heavy: u64 = (0..10)
            .filter(|&v| r.parts[v as usize] == side0)
            .map(|v| g.vertex_weight(v) as u64)
            .sum();
        assert!(with_heavy <= 10, "heavy side weight {with_heavy}");
    }

    #[test]
    fn multi_seed_never_worse() {
        let g = random_graph(400, 800, 7);
        let cfg = PartitionConfig::with_seed(1);
        let single = partition_graph(&g, 8, &cfg).unwrap();
        let best = partition_graph_best(&g, 8, &cfg, 4).unwrap();
        assert!(best.edge_cut <= single.edge_cut);
    }

    #[test]
    fn determinism() {
        let g = random_graph(200, 400, 9);
        let cfg = PartitionConfig::with_seed(5);
        let a = partition_graph(&g, 4, &cfg).unwrap();
        let b = partition_graph(&g, 4, &cfg).unwrap();
        assert_eq!(a.parts, b.parts);
    }

    #[test]
    fn wide_graph_partition_matches_narrow() {
        let g = random_graph(400, 800, 17);
        let mut edges64: Vec<(u64, u64, u32)> = Vec::new();
        for v in 0..400u32 {
            for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
                if v < u {
                    edges64.push((v as u64, u as u64, w));
                }
            }
        }
        let g64 = CsrGraph::from_edges(400u64, &edges64, None).unwrap();
        let cfg = PartitionConfig::with_seed(14);
        let r32 = partition_graph(&g, 8, &cfg).unwrap();
        let r64 = partition_graph(&g64, 8, &cfg).unwrap();
        assert_eq!(r32.parts, r64.parts, "widths must agree bit-for-bit");
        assert_eq!(r32.edge_cut, r64.edge_cut);
    }

    #[test]
    fn graph_state_cut_matches_edge_cut() {
        let g = two_cliques(10);
        let side: Vec<u8> = (0..20).map(|v| (v % 2) as u8).collect();
        let parts: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        let st = BisectionState::new(&g, side, [10.0, 10.0], 0.1);
        assert_eq!(st.cut(), g.edge_cut(&parts));
    }

    #[test]
    fn graph_gain_matches_recompute() {
        let g = random_graph(30, 60, 2);
        let side: Vec<u8> = (0..30).map(|v| (v % 2) as u8).collect();
        let st = BisectionState::new(&g, side, [15.0, 15.0], 0.2);
        for v in 0..30u32 {
            let mut st2 = st.clone();
            let before = st2.cut() as i64;
            st2.apply_move(v, None);
            let after = st2.cut() as i64;
            assert_eq!(st.gain(v), before - after, "vertex {v}");
        }
    }

    #[test]
    fn graph_fm_finds_the_bridge() {
        let g = two_cliques(20);
        let side: Vec<u8> = (0..40).map(|v| (v % 2) as u8).collect();
        let mut st = BisectionState::new(&g, side, [20.0, 20.0], 0.05);
        st.refine(&mut SmallRng::seed_from_u64(3), 8, 0);
        assert_eq!(st.cut(), 1, "FM should isolate the single bridge edge");
        assert_eq!(st.balance_penalty(), 0);
    }

    #[test]
    fn contract_merges_parallel_edges() {
        // Path 0-1-2-3; clustering {0,1} and {2,3} leaves one edge (1,2).
        let edges = [(0u32, 1u32, 2u32), (1, 2, 3), (2, 3, 4)];
        let g = CsrGraph::from_edges(4u32, &edges, None).unwrap();
        let c = Substrate::contract(&g, &[0, 0, 1, 1], 2, &mut LevelArena::new());
        assert_eq!(c.n(), 2);
        assert_eq!(c.num_edges(), 1);
        assert_eq!(c.edge_weights(0), &[3]);
        // Cluster weights are summed.
        assert_eq!(c.vertex_weight(0), 2);
        assert_eq!(c.vertex_weight(1), 2);
    }

    #[test]
    fn extract_both_matches_extract_side() {
        let g = random_graph(150, 400, 11);
        let side: Vec<u8> = (0..150u32)
            .map(|v| ((v.wrapping_mul(2_654_435_761) >> 16) & 1) as u8)
            .collect();
        let mut arena = LevelArena::new();
        let [(g0, m0), (g1, m1)] = g.extract_both(&side, true, &mut arena);
        for (which, (sub, map)) in [(0u8, (&g0, &m0)), (1u8, (&g1, &m1))] {
            let (es, em) = extract_side(&g, &side, which);
            assert_eq!(map, &em, "side-{which} map differs");
            assert_eq!(sub.n(), es.n());
            assert_eq!(sub.num_edges(), es.num_edges());
            for v in 0..sub.n() {
                assert_eq!(sub.neighbors(v), es.neighbors(v), "side {which} vertex {v}");
                assert_eq!(sub.edge_weights(v), es.edge_weights(v));
                assert_eq!(sub.vertex_weight(v), es.vertex_weight(v));
            }
        }
    }

    #[test]
    fn parallel_graph_partition_matches_serial() {
        use fgh_partition::Parallelism;
        let g = random_graph(500, 1000, 13);
        let run = |parallelism| {
            let cfg = PartitionConfig {
                parallelism,
                ..PartitionConfig::with_seed(6)
            };
            partition_graph(&g, 8, &cfg).unwrap()
        };
        let serial = run(Parallelism::Serial);
        let par = run(Parallelism::Threads(4));
        assert_eq!(serial.parts, par.parts);
        assert_eq!(serial.edge_cut, par.edge_cut);

        let best_cfg = PartitionConfig {
            parallelism: Parallelism::Threads(4),
            ..PartitionConfig::with_seed(6)
        };
        let best_serial = partition_graph_best(&g, 8, &PartitionConfig::with_seed(6), 4).unwrap();
        let best_par = partition_graph_best(&g, 8, &best_cfg, 4).unwrap();
        assert_eq!(best_serial.parts, best_par.parts);
        assert_eq!(best_serial.edge_cut, best_par.edge_cut);
    }

    #[test]
    fn extract_side_builds_induced_subgraph() {
        let g = two_cliques(3); // vertices 0..3 and 3..6, bridge (2,3)
        let side: Vec<u8> = (0..6).map(|v| u8::from(v >= 3)).collect();
        let (sub, map) = extract_side(&g, &side, 1);
        assert_eq!(map, vec![3, 4, 5]);
        assert_eq!(sub.n(), 3);
        assert_eq!(
            sub.num_edges(),
            3,
            "the clique survives, the bridge is dropped"
        );
    }
}
