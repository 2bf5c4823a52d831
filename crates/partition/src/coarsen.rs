//! Coarsening: heavy-connectivity matching/clustering plus contraction.
//!
//! Each level groups strongly connected vertices into clusters and
//! contracts the substrate: cluster = coarse vertex (weights summed);
//! contraction itself (net/edge dedup and merging) lives in each
//! [`Substrate`] implementation. Cluster weights are capped so one coarse
//! vertex can never make balanced bisection infeasible. The clustering
//! loop only needs connectivity scores between a vertex and its
//! neighbors, so it is written once for graphs and hypergraphs via
//! [`Substrate::for_each_scored_neighbor`], at either index width.

use fgh_hypergraph::Hypergraph;
use fgh_sparse::IndexType;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::arena::{ArenaIndex, LevelArena};
use crate::config::CoarseningScheme;
use crate::engine::Substrate;
use crate::level::Level;

/// Performs one level of coarsening. Returns `None` when clustering fails
/// to shrink the structure meaningfully (reduction below 5%), signalling
/// the driver to stop.
pub fn coarsen_once(
    hg: &Hypergraph,
    scheme: CoarseningScheme,
    max_net_size: usize,
    weight_cap: u64,
    rng: &mut impl Rng,
) -> Option<Level<Hypergraph>> {
    coarsen_once_in(
        hg,
        scheme,
        max_net_size,
        weight_cap,
        rng,
        &mut LevelArena::new(),
    )
}

/// Substrate-generic, arena-backed coarsening level (the engine's entry
/// point). Scratch buffers and the fine→coarse map are drawn from `arena`;
/// the returned [`Level`]'s `map` should be given back to it once
/// projected through.
pub(crate) fn coarsen_once_in<S: Substrate>(
    sub: &S,
    scheme: CoarseningScheme,
    max_net_size: usize,
    weight_cap: u64,
    rng: &mut impl Rng,
    arena: &mut LevelArena,
) -> Option<Level<S>> {
    let n = sub.num_vertices();
    let (cluster_of, num_clusters) =
        cluster_vertices(sub, scheme, max_net_size, weight_cap, rng, arena);
    if num_clusters as f64 > 0.95 * n as f64 {
        S::Ix::give_ids(arena, cluster_of);
        return None;
    }
    let coarse = sub.contract(&cluster_of, num_clusters, arena);
    Some(Level {
        coarse,
        map: cluster_of,
    })
}

/// Visits vertices in random order; each vertex joins the
/// heaviest-connectivity cluster among its already-processed neighbors
/// (subject to the weight cap) or starts its own. Under HCM a cluster
/// accepts at most one extra vertex. Returns the per-vertex cluster id
/// (an arena buffer, at the substrate's index width — `S::Ix::MAX` is
/// the "unclustered" sentinel during the pass) and the cluster count.
// lint: checked-index — u and neighbors are < n == cluster_of.len(); cluster ids index the per-cluster vecs, which grow with each new cluster, and score is pre-sized to n (cluster ids are < n)
fn cluster_vertices<S: Substrate>(
    sub: &S,
    scheme: CoarseningScheme,
    max_net_size: usize,
    weight_cap: u64,
    rng: &mut impl Rng,
    arena: &mut LevelArena,
) -> (Vec<S::Ix>, usize) {
    let n = sub.num_vertices();
    let mut order = S::Ix::take_ids(arena, 0, S::Ix::ZERO);
    order.extend((0..n).map(S::Ix::from_index));
    order.shuffle(rng);

    let mut cluster_of = S::Ix::take_ids(arena, n, S::Ix::MAX);
    let mut cluster_weight = arena.take_u64(0, 0);
    // Cluster sizes only gate HCM admission (size < 2), so u32 values
    // suffice at any index width.
    let mut cluster_size = arena.take_u32(0, 0);

    // Scratch connectivity scores keyed by cluster id. Cluster ids are
    // bounded by n, so sizing once up front removes the grow-check from
    // the scoring hot loop.
    let mut score = arena.take_u64(n, 0);
    let mut touched = S::Ix::take_ids(arena, 0, S::Ix::ZERO);

    for &u in order.iter() {
        let uw = sub.vertex_weight(u) as u64;

        // Score already-formed clusters reachable through u's incidences.
        touched.clear();
        sub.for_each_scored_neighbor(u, max_net_size, |v, cost| {
            let c = cluster_of[v.index()];
            if c == S::Ix::MAX {
                return;
            }
            if score[c.index()] == 0 {
                touched.push(c);
            }
            score[c.index()] += cost;
        });

        // Best admissible cluster.
        let mut best: Option<(S::Ix, f64)> = None;
        for &c in touched.iter() {
            let ci = c.index();
            let s = score[ci];
            score[ci] = 0;
            if cluster_weight[ci] + uw > weight_cap {
                continue;
            }
            if scheme == CoarseningScheme::Hcm && cluster_size[ci] >= 2 {
                continue;
            }
            // Scaled HCC divides the connectivity score by the merged
            // weight, discouraging snowball clusters.
            let key = match scheme {
                CoarseningScheme::ScaledHcc => s as f64 / (cluster_weight[ci] + uw).max(1) as f64,
                _ => s as f64,
            };
            match best {
                Some((_, bs)) if bs >= key => {}
                _ => best = Some((c, key)),
            }
        }

        match best {
            Some((c, _)) => {
                let ci = c.index();
                cluster_of[u.index()] = c;
                cluster_weight[ci] += uw;
                cluster_size[ci] += 1;
            }
            None => {
                let c = cluster_weight.len();
                cluster_of[u.index()] = S::Ix::from_index(c);
                cluster_weight.push(uw);
                cluster_size.push(1);
                if score.len() <= c {
                    score.push(0);
                }
            }
        }
    }

    let num_clusters = cluster_weight.len();
    S::Ix::give_ids(arena, order);
    arena.give_u64(cluster_weight);
    arena.give_u32(cluster_size);
    arena.give_u64(score);
    S::Ix::give_ids(arena, touched);
    (cluster_of, num_clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_hypergraph, two_clusters};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    /// Direct contraction through the [`Substrate`] impl.
    fn contract(hg: &Hypergraph, cluster_of: &[u32], num_clusters: usize) -> Hypergraph {
        Substrate::contract(hg, cluster_of, num_clusters, &mut LevelArena::new())
    }

    #[test]
    fn coarsening_shrinks_and_preserves_weight() {
        let hg = two_clusters(50);
        let total = hg.total_vertex_weight();
        let lvl =
            coarsen_once(&hg, CoarseningScheme::Hcc, 64, total, &mut rng()).expect("should shrink");
        assert!(lvl.coarse.num_vertices() < hg.num_vertices());
        assert_eq!(lvl.coarse.total_vertex_weight(), total);
        lvl.coarse.validate().unwrap();
        // Every fine vertex maps to a valid coarse vertex.
        for &c in &lvl.map {
            assert!(c < lvl.coarse.num_vertices());
        }
    }

    #[test]
    fn hcm_clusters_have_at_most_two_vertices() {
        let hg = random_hypergraph(200, 300, 5, 7);
        let lvl = coarsen_once(
            &hg,
            CoarseningScheme::Hcm,
            64,
            hg.total_vertex_weight(),
            &mut rng(),
        )
        .expect("should shrink");
        let mut sizes = vec![0u32; lvl.coarse.num_vertices() as usize];
        for &c in &lvl.map {
            sizes[c as usize] += 1;
        }
        assert!(
            sizes.iter().all(|&s| s <= 2),
            "HCM formed a cluster of size > 2"
        );
    }

    #[test]
    fn weight_cap_respected() {
        let hg = two_clusters(40);
        let cap = 3u64;
        let lvl =
            coarsen_once(&hg, CoarseningScheme::Hcc, 64, cap, &mut rng()).expect("should shrink");
        assert!(lvl.coarse.vertex_weights().iter().all(|&w| w as u64 <= cap));
    }

    #[test]
    fn identical_nets_merge_costs() {
        // Nets {0,1} and {0,1} should merge into one net of cost 2 if 0,1
        // stay separate clusters, or vanish if merged. Force separation by
        // keeping each vertex its own cluster.
        let hg = Hypergraph::from_nets(2, &[vec![0, 1], vec![0, 1]]).unwrap();
        let coarse = contract(&hg, &[0, 1], 2);
        assert_eq!(coarse.num_nets(), 1);
        assert_eq!(coarse.net_cost(0), 2);
    }

    #[test]
    fn single_pin_nets_dropped() {
        let hg = Hypergraph::from_nets(3, &[vec![0, 1], vec![1, 2]]).unwrap();
        // Merge 0 and 1: net {0,1} collapses to a single pin and is dropped.
        let coarse = contract(&hg, &[0, 0, 1], 2);
        assert_eq!(coarse.num_nets(), 1);
        assert_eq!(coarse.pins(0), &[0, 1]);
    }

    #[test]
    fn wide_contraction_matches_narrow() {
        // The same clustering at u64 width produces the same coarse
        // structure, modulo the id type.
        let hg = random_hypergraph(40, 60, 5, 2);
        let nets: Vec<Vec<u64>> = (0..hg.num_nets())
            .map(|n| hg.pins(n).iter().map(|&p| p as u64).collect())
            .collect();
        let hg64 = Hypergraph::<u64>::from_nets(40u64, &nets).unwrap();
        let cluster32: Vec<u32> = (0..40).map(|v| v / 2).collect();
        let cluster64: Vec<u64> = cluster32.iter().map(|&c| c as u64).collect();
        let c32 = contract(&hg, &cluster32, 20);
        let c64 = Substrate::contract(&hg64, &cluster64, 20, &mut LevelArena::new());
        assert_eq!(c32.num_nets() as u64, c64.num_nets());
        for n in 0..c32.num_nets() {
            let narrow: Vec<u64> = c32.pins(n).iter().map(|&p| p as u64).collect();
            assert_eq!(narrow.as_slice(), c64.pins(n as u64));
            assert_eq!(c32.net_cost(n), c64.net_cost(n as u64));
        }
    }

    #[test]
    fn stops_when_no_shrink_possible() {
        // A hypergraph with no nets cannot cluster at all.
        let hg = Hypergraph::from_nets(10, &[]).unwrap();
        assert!(coarsen_once(
            &hg,
            CoarseningScheme::Hcc,
            64,
            hg.total_vertex_weight(),
            &mut rng()
        )
        .is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let hg = random_hypergraph(300, 500, 6, 11);
        let a = coarsen_once(
            &hg,
            CoarseningScheme::Hcc,
            64,
            hg.total_vertex_weight(),
            &mut SmallRng::seed_from_u64(5),
        )
        .unwrap();
        let b = coarsen_once(
            &hg,
            CoarseningScheme::Hcc,
            64,
            hg.total_vertex_weight(),
            &mut SmallRng::seed_from_u64(5),
        )
        .unwrap();
        assert_eq!(a.map, b.map);
        assert_eq!(a.coarse, b.coarse);
    }
}
