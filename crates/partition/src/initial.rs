//! Initial partitioning of the coarsest substrate: multiple random tries
//! of one seeding scheme — greedy growing (GHG on hypergraphs, GGP on
//! graphs — the same max-gain frontier growth) or weight-only bin
//! packing — each FM-polished, best kept.

use fgh_sparse::IndexType;
use fgh_trace::SpanHandle;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::arena::{ArenaIndex, LevelArena};
use crate::config::{InitialScheme, PartitionConfig};
use crate::engine::Substrate;
use crate::level::EngineStats;
use crate::refine::BisectionState;

/// Substrate-generic, arena-backed initial partitioning (the engine's
/// entry point): scheme, tries, and FM passes are read from `cfg`.
///
/// Every try starts with every vertex on side 0, and the scheme's seeder
/// moves vertices across. The try then builds one [`BisectionState`],
/// FM-polishes it with the passes `cfg.budget` still allows, and scores
/// it as it stands. The best (balance penalty, cut) wins, the earliest
/// try on ties.
pub(crate) fn initial_best_in<S: Substrate>(
    sub: &S,
    targets: [f64; 2],
    epsilon: f64,
    cfg: &PartitionConfig,
    rng: &mut impl Rng,
    arena: &mut LevelArena,
    stats: &mut EngineStats,
) -> Vec<u8> {
    let n = sub.num_vertices();
    let mut best: Option<((u64, u64), Vec<u8>)> = None;
    for _ in 0..cfg.initial_tries.max(1) {
        let mut side = arena.take_u8(n, 0);
        // The seeders reorder the vertex list, so each try starts from id
        // order.
        let mut verts = S::Ix::take_ids(arena, 0, S::Ix::ZERO);
        verts.extend((0..n).map(S::Ix::from_index));
        // Growth picks vertices by gain, so it runs on the try's state;
        // bin packing places vertices before the state exists.
        if cfg.initial == InitialScheme::BinPacking {
            bin_pack(sub, &mut side, &mut verts, targets, rng);
        }
        let mut st = BisectionState::new_in(sub, side, targets, epsilon, arena);
        if cfg.initial == InitialScheme::Ghg {
            grow(sub, &mut st, &mut verts, targets, rng, arena);
        }
        S::Ix::give_ids(arena, verts);
        let passes = cfg.budget.fm_pass_allowance(stats, cfg.fm_passes);
        st.refine_in(rng, passes, 0, arena, stats, &SpanHandle::noop());
        let key = (st.balance_penalty(), st.cut());
        let sides = st.into_sides_in(arena);
        match &best {
            Some((best_key, _)) if *best_key <= key => arena.give_u8(sides),
            _ => {
                if let Some((_, old)) = best.replace((key, sides)) {
                    arena.give_u8(old);
                }
            }
        }
    }
    // The loop runs at least once; an all-zero split is a safe fallback
    // rather than a panic.
    best.map_or_else(|| arena.take_u8(n, 0), |(_, sides)| sides)
}

/// Weight-only greedy bin packing: heaviest vertices first, each onto the
/// side with the larger remaining gap to its target (ties randomized by a
/// shuffled pre-pass), connectivity ignored.
fn bin_pack<S: Substrate>(
    sub: &S,
    side: &mut [u8],
    verts: &mut [S::Ix],
    targets: [f64; 2],
    rng: &mut impl Rng,
) {
    verts.shuffle(rng);
    verts.sort_by_key(|&v| std::cmp::Reverse(sub.vertex_weight(v)));
    let mut w = [0u64; 2];
    for &v in verts.iter() {
        let s = usize::from(targets[1] - w[1] as f64 > targets[0] - w[0] as f64);
        side[v.index()] = s as u8; // lint: checked-cast — s is 0 or 1
        w[s] += sub.vertex_weight(v) as u64;
    }
}

/// Greedy growing: pull max-gain vertices across to side 1 until it
/// reaches its target weight. Gains make the growth cluster-shaped:
/// vertices adjacent to side 1 have higher gain.
fn grow<S: Substrate>(
    sub: &S,
    st: &mut BisectionState<'_, S>,
    verts: &mut [S::Ix],
    targets: [f64; 2],
    rng: &mut impl Rng,
    arena: &mut LevelArena,
) {
    let target1 = targets[1].floor().max(0.0) as u64;
    if st.weights()[1] >= target1 {
        return;
    }
    let mut buckets = S::Ix::take_buckets(arena, sub.num_vertices(), sub.max_gain_bound());
    // Random seed bias: shuffle so ties (isolated vertices) vary.
    verts.shuffle(rng);
    for &v in verts.iter() {
        buckets.insert(v, st.gain(v));
    }
    while st.weights()[1] < target1 {
        let state = &*st;
        match buckets.pop_max_where(|u| state.sides()[u.index()] == 0) {
            Some((v, _)) => st.apply_move(v, Some(&mut buckets)),
            None => break,
        }
    }
    S::Ix::give_buckets(arena, buckets);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_clusters;
    use fgh_hypergraph::Hypergraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Greedy hypergraph growing, best of `tries`, each try refined by
    /// up to `fm_passes` FM passes.
    fn ghg(
        hg: &Hypergraph,
        targets: [f64; 2],
        epsilon: f64,
        tries: usize,
        fm_passes: usize,
        seed: u64,
    ) -> Vec<u8> {
        let cfg = PartitionConfig {
            initial: InitialScheme::Ghg,
            initial_tries: tries,
            fm_passes,
            ..Default::default()
        };
        initial_best_in(
            hg,
            targets,
            epsilon,
            &cfg,
            &mut SmallRng::seed_from_u64(seed),
            &mut LevelArena::new(),
            &mut EngineStats::default(),
        )
    }

    #[test]
    fn ghg_produces_balanced_bisection() {
        let hg = two_clusters(20);
        let sides = ghg(&hg, [20.0, 20.0], 0.05, 4, 4, 2);
        let w1: usize = sides.iter().filter(|&&s| s == 1).count();
        assert!((15..=25).contains(&w1), "side 1 holds {w1} of 40");
        let st = BisectionState::new(&hg, sides, [20.0, 20.0], 0.05);
        assert_eq!(st.balance_penalty(), 0);
        // The two-cluster structure should be found.
        assert_eq!(st.cut(), 1);
    }

    #[test]
    fn ghg_on_netless_hypergraph() {
        // No nets: any balanced split works; GHG must still terminate.
        let hg = Hypergraph::from_nets(10, &[]).unwrap();
        let sides = ghg(&hg, [5.0, 5.0], 0.0, 2, 2, 4);
        let c1 = sides.iter().filter(|&&s| s == 1).count();
        assert_eq!(c1, 5);
    }

    #[test]
    fn ghg_single_vertex() {
        let hg = Hypergraph::from_nets(1, &[]).unwrap();
        let sides = ghg(&hg, [1.0, 0.0], 0.0, 1, 1, 4);
        assert_eq!(sides, vec![0]);
    }
}
