//! V-cycle (iterated multilevel) K-way refinement.
//!
//! After recursive bisection produces a K-way partition, further gains
//! hide at coarse granularities that flat per-vertex refinement cannot
//! reach (moving one degree-2 vertex of a fine-grain hypergraph rarely
//! uncuts a large net — whole clusters must move together). A V-cycle
//! recovers them: re-coarsen the hypergraph with clustering **restricted
//! to same-part vertices** (so the partition projects exactly, with
//! unchanged cutsize), refine greedily at the coarsest level where single
//! moves relocate whole clusters, then project back down refining at each
//! level. Repeats until a cycle yields no improvement.
//!
//! This is the standard PaToH/MeTiS "V-cycle" post-pass, one of the
//! "planned modifications" the paper's §4 alludes to for the fine-grain
//! model.

use fgh_hypergraph::{cutsize_connectivity, Hypergraph, Partition};
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

use crate::arena::{ArenaIndex, LevelArena};
use crate::coarsen::coarsen_once_in;
use crate::config::{CoarseningScheme, PartitionConfig, MAX_NET_SIZE_FOR_MATCHING};
use crate::engine::Substrate;
use crate::error::PartitionError;
use crate::kway::kway_refine;
use crate::level::Level;

/// Runs up to `cycles` V-cycles of K-way refinement on `partition` in
/// place. Returns the total connectivity−1 improvement, or
/// [`PartitionError::Internal`] when a projected partition falls outside
/// `0..k` (a coarsening-map defect, not bad input).
pub fn vcycle_refine<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    partition: &mut Partition,
    cfg: &PartitionConfig,
    cycles: usize,
) -> Result<u64, PartitionError> {
    let k = partition.k();
    if k < 2 || hg.num_vertices() == I::ZERO {
        return Ok(0);
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0xd1b54a32d192ed03));
    let start = cutsize_connectivity(hg, partition);
    let mut current = start;

    for _ in 0..cycles {
        let improved = one_cycle(hg, partition, cfg, &mut rng)?;
        let now = cutsize_connectivity(hg, partition);
        debug_assert!(now <= current, "V-cycle must never worsen");
        if !improved || now == current {
            current = now;
            break;
        }
        current = now;
    }
    Ok(start - current)
}

fn one_cycle<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    partition: &mut Partition,
    cfg: &PartitionConfig,
    rng: &mut SmallRng,
) -> Result<bool, PartitionError> {
    let k = partition.k();
    // Partition-respecting coarsening: cluster only same-part vertices so
    // the current partition projects exactly onto every coarse level.
    let mut levels: Vec<(Level<Hypergraph<I>>, Vec<u32>)> = Vec::new(); // (level, coarse parts)
    let weight_cap = (hg.total_vertex_weight() / (k as u64 * 2)).max(1);

    for _ in 0..10 {
        let (cur_hg, cur_parts): (&Hypergraph<I>, &[u32]) = match levels.last() {
            Some((l, p)) => (&l.coarse, p.as_slice()),
            None => (hg, partition.parts()),
        };
        if cur_hg.num_vertices().index() <= (cfg.coarsen_to as usize * k as usize).max(200) {
            break;
        }
        let next = coarsen_respecting(
            cur_hg,
            cur_parts,
            cfg.coarsening,
            MAX_NET_SIZE_FOR_MATCHING,
            weight_cap,
            rng,
        );
        match next {
            Some(x) => levels.push(x),
            None => break,
        }
    }
    if levels.is_empty() {
        // No coarsening possible: fall back to one flat K-way pass.
        let gain = kway_refine(hg, partition, cfg.epsilon, 1, rng)?;
        return Ok(gain > 0);
    }

    // Refine at the coarsest level, then project down refining each level.
    let mut improved_any = false;
    let coarsest_idx = levels.len() - 1;
    let mut parts_at: Vec<u32> = levels[coarsest_idx].1.clone();
    for li in (0..levels.len()).rev() {
        let level_hg: &Hypergraph<I> = &levels[li].0.coarse;
        // Projected parts are always in `0..k`: restricted coarsening only
        // merges same-part vertices, so a failure here is a defect in the
        // coarsening maps and surfaces as a typed internal error.
        let mut p = Partition::new(k, parts_at.clone()).map_err(|e| {
            PartitionError::internal(format!(
                "V-cycle level {li}: projected parts out of range: {e}"
            ))
        })?;
        let gain = kway_refine(level_hg, &mut p, cfg.epsilon, 2, rng)?;
        improved_any |= gain > 0;
        // Project to the next finer level (or the original hypergraph).
        let map = &levels[li].0.map;
        if li == 0 {
            for (v, m) in map.iter().enumerate().take(hg.num_vertices().index()) {
                partition.assign_at(v, p.part_at(m.index()));
            }
        } else {
            let finer_n = levels[li - 1].0.coarse.num_vertices().index();
            parts_at = (0..finer_n).map(|v| p.part_at(map[v].index())).collect();
        }
    }
    // Final flat pass on the original hypergraph.
    let gain = kway_refine(hg, partition, cfg.epsilon, 1, rng)?;
    Ok(improved_any | (gain > 0))
}

/// Coarsens while merging only vertices of the same part. Returns the
/// level plus the coarse per-vertex parts.
fn coarsen_respecting<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    parts: &[u32],
    scheme: CoarseningScheme,
    max_net: usize,
    weight_cap: u64,
    rng: &mut impl Rng,
) -> Option<(Level<Hypergraph<I>>, Vec<u32>)> {
    let k = parts.iter().copied().max().map(|m| m + 1).unwrap_or(1);
    let partition = Partition::new(k, parts.to_vec()).ok()?;
    let n = hg.num_vertices().index();

    let mut arena = LevelArena::new();
    let mut map = vec![I::MAX; n];
    let mut coarse_parts: Vec<u32> = Vec::new();
    let mut next_cluster = 0usize;
    for part in 0..k {
        let (sub, ids) = hg.extract_part(&partition, part);
        if sub.num_vertices() == I::ZERO {
            continue;
        }
        match coarsen_once_in(&sub, scheme, max_net, weight_cap, rng, &mut arena) {
            Some(level) => {
                for (lv, &c) in level.map.iter().enumerate() {
                    map[ids[lv].index()] = I::from_index(next_cluster + c.index());
                }
                let clusters = level.coarse.num_vertices().index();
                coarse_parts.resize(coarse_parts.len() + clusters, part);
                next_cluster += clusters;
            }
            None => {
                // Part too small/rigid to coarsen: singleton clusters.
                for &orig in &ids {
                    map[orig.index()] = I::from_index(next_cluster);
                    coarse_parts.push(part);
                    next_cluster += 1;
                }
            }
        }
    }
    if next_cluster as f64 > 0.95 * n as f64 {
        return None;
    }

    // Contract the FULL hypergraph under the stitched map (extract_part
    // dropped cross-part pins; contracting `hg` restores them so cut nets
    // keep their connectivity).
    let coarse = hg.contract(&map, next_cluster, &mut arena);
    Some((Level { coarse, map }, coarse_parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recursive::partition_hypergraph;
    use crate::testutil::random_hypergraph;

    #[test]
    fn vcycle_never_worsens_and_often_improves() {
        let mut total_gain = 0u64;
        for seed in 0..4u64 {
            let hg = random_hypergraph(600, 900, 8, seed);
            let cfg = PartitionConfig {
                kway_refine: false,
                ..PartitionConfig::with_seed(seed)
            };
            let r = partition_hypergraph(&hg, 8, &cfg).unwrap();
            let before = r.cutsize;
            let mut p = r.partition;
            let gain = vcycle_refine(&hg, &mut p, &cfg, 3).unwrap();
            let after = cutsize_connectivity(&hg, &p);
            assert_eq!(before - after, gain, "gain accounting");
            assert!(after <= before);
            total_gain += gain;
        }
        assert!(
            total_gain > 0,
            "V-cycles should find something across 4 seeds"
        );
    }

    #[test]
    fn vcycle_respects_balance() {
        let hg = random_hypergraph(400, 600, 6, 9);
        let cfg = PartitionConfig::with_seed(9);
        let r = partition_hypergraph(&hg, 4, &cfg).unwrap();
        let mut p = r.partition;
        vcycle_refine(&hg, &mut p, &cfg, 2).unwrap();
        assert!(
            p.imbalance_percent(&hg) <= cfg.epsilon * 100.0 + 1.0,
            "imbalance {}%",
            p.imbalance_percent(&hg)
        );
    }

    #[test]
    fn wide_vcycle_matches_narrow() {
        let hg = random_hypergraph(300, 450, 6, 11);
        let nets: Vec<Vec<u64>> = (0..hg.num_nets())
            .map(|n| hg.pins(n).iter().map(|&p| p as u64).collect())
            .collect();
        let hg64 = Hypergraph::<u64>::from_nets(300u64, &nets).unwrap();
        let cfg = PartitionConfig {
            kway_refine: false,
            ..PartitionConfig::with_seed(11)
        };
        let r = partition_hypergraph(&hg, 4, &cfg).unwrap();
        let mut p32 = r.partition.clone();
        let mut p64 = r.partition;
        let g32 = vcycle_refine(&hg, &mut p32, &cfg, 2).unwrap();
        let g64 = vcycle_refine(&hg64, &mut p64, &cfg, 2).unwrap();
        assert_eq!(g32, g64, "width must not change V-cycle behavior");
        assert_eq!(p32.parts(), p64.parts());
    }

    #[test]
    fn restricted_coarsening_preserves_partition_cutsize() {
        let hg = random_hypergraph(300, 500, 6, 5);
        let r = partition_hypergraph(&hg, 4, &PartitionConfig::with_seed(5)).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        if let Some((level, coarse_parts)) = coarsen_respecting(
            &hg,
            r.partition.parts(),
            CoarseningScheme::Hcc,
            64,
            hg.total_vertex_weight(),
            &mut rng,
        ) {
            let pc = Partition::new(4, coarse_parts).unwrap();
            assert_eq!(
                cutsize_connectivity(&level.coarse, &pc),
                r.cutsize,
                "projection must preserve the cutsize exactly"
            );
            // Every cluster is pure (one part).
            for (v, &c) in level.map.iter().enumerate() {
                assert_eq!(pc.part(c), r.partition.part(v as u32));
            }
        }
    }

    #[test]
    fn k1_noop() {
        let hg = random_hypergraph(50, 80, 4, 7);
        let mut p = Partition::trivial(50);
        assert_eq!(
            vcycle_refine(&hg, &mut p, &PartitionConfig::default(), 2).unwrap(),
            0
        );
    }
}
