//! Direct K-way greedy refinement on the connectivity−1 metric.
//!
//! Recursive bisection is locally optimal per bisection but cannot move a
//! vertex between parts created in different subtrees. This post-pass (an
//! extension over the paper; PaToH later grew a similar phase) sweeps
//! boundary vertices in random order and applies positive-gain moves under
//! the K-way balance constraint. It is generic over the hypergraph's index
//! width: vertex/net ids carry `I`, part ids stay `u32`, and per-part pin
//! counts are `u64` (a net at `u64` width can hold more than `u32::MAX`
//! pins in one part).

use fgh_hypergraph::{Hypergraph, Partition};
use fgh_sparse::IndexType;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::connectivity::NetConnectivity;
use crate::error::PartitionError;

/// Runs up to `passes` greedy K-way refinement sweeps over `partition`
/// in place. Returns the total connectivity−1 gain achieved
/// (non-negative), or [`PartitionError::Internal`] when the part-count
/// bookkeeping is found corrupt mid-sweep.
pub fn kway_refine<I: IndexType>(
    hg: &Hypergraph<I>,
    partition: &mut Partition,
    epsilon: f64,
    passes: usize,
    rng: &mut impl Rng,
) -> Result<u64, PartitionError> {
    let k = partition.k();
    if k < 2 || hg.num_vertices() == I::ZERO {
        return Ok(0);
    }
    let mut np = NetConnectivity::build(hg, partition);
    let mut weights = partition.part_weights(hg);
    let total: u64 = weights.iter().sum();
    let cap = ((total as f64 / k as f64) * (1.0 + epsilon)).floor() as u64;

    let mut total_gain = 0u64;
    let mut order: Vec<I> = (0..hg.num_vertices().index()).map(I::from_index).collect();
    // Per-vertex scratch, reused across vertices: the candidate parts in
    // first-seen order, and `touch[q]` = summed cost of the vertex's nets
    // that already have a pin in part `q` (UNSEEN until `q` is met).
    // Only candidates are ever written, so resetting through the
    // candidate list restores the whole array.
    const UNSEEN: i64 = -1;
    let mut candidates: Vec<u32> = Vec::new();
    let mut touch: Vec<i64> = vec![UNSEEN; k as usize];

    for _ in 0..passes {
        order.shuffle(rng);
        let mut pass_gain = 0u64;
        for &v in &order {
            let from = partition.part_at(v.index());
            // One pass over v's nets: `leave` sums the nets v is the last
            // `from` pin of (moving removes `from` from Λ), `span` sums
            // all of them. Moving to q then gains
            // `leave − (span − touch[q])`: every net without a pin in q
            // adds q to its Λ.
            let mut leave = 0i64;
            let mut span = 0i64;
            for &n in hg.nets(v) {
                let c = hg.net_cost(n) as i64;
                span += c;
                np.for_each_part(n, |q, count| {
                    if q == from {
                        if count == 1 {
                            leave += c;
                        }
                        return;
                    }
                    let t = &mut touch[q as usize]; // lint: checked-index — q < k is the Partition contract; touch has k entries
                    if *t == UNSEEN {
                        *t = 0;
                        candidates.push(q);
                    }
                    *t += c;
                });
            }
            // No candidate means every net of v lies inside `from`: v is
            // not on the boundary and cannot gain.
            let w = hg.vertex_weight(v) as u64;
            let mut best: Option<(i64, u32)> = None;
            for &q in &candidates {
                let q_weight = weights[q as usize]; // lint: checked-index — q < k == weights.len()
                let gain = leave - span + touch[q as usize]; // lint: checked-index — q < k == touch.len()
                touch[q as usize] = UNSEEN; // lint: checked-index — q < k == touch.len()
                if q_weight + w > cap {
                    continue;
                }
                match best {
                    Some((bg, _)) if bg >= gain => {}
                    _ => best = Some((gain, q)),
                }
            }
            candidates.clear();
            if let Some((gain, q)) = best {
                // Accept strict improvements, or zero-gain moves that
                // improve balance (helps escape RB artifacts).
                let improves_balance = weights[q as usize] + w < weights[from as usize]; // lint: checked-index — q, from < k == weights.len()
                if gain > 0 || (gain == 0 && improves_balance) {
                    for &n in hg.nets(v) {
                        np.move_pin(n, from, q)?;
                    }
                    weights[from as usize] -= w; // lint: checked-index — from < k == weights.len()
                    weights[q as usize] += w; // lint: checked-index — q < k == weights.len()
                    partition.assign_at(v.index(), q);
                    pass_gain += gain.max(0) as u64;
                }
            }
        }
        total_gain += pass_gain;
        if pass_gain == 0 {
            break;
        }
    }
    Ok(total_gain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_hypergraph;
    use fgh_hypergraph::cutsize_connectivity;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn refine_improves_or_preserves_cutsize() {
        for seed in 0..4u64 {
            let hg = random_hypergraph(200, 300, 5, seed);
            // Deliberately bad partition: round-robin.
            let parts: Vec<u32> = (0..200).map(|v| v % 4).collect();
            let mut p = Partition::new(4, parts).unwrap();
            let before = cutsize_connectivity(&hg, &p);
            let gain =
                kway_refine(&hg, &mut p, 0.05, 4, &mut SmallRng::seed_from_u64(seed)).unwrap();
            let after = cutsize_connectivity(&hg, &p);
            assert_eq!(
                before - after,
                gain,
                "reported gain must match metric delta"
            );
            assert!(after <= before);
            assert!(gain > 0, "round-robin should be improvable (seed {seed})");
        }
    }

    #[test]
    fn refine_respects_balance() {
        let hg = random_hypergraph(120, 200, 4, 2);
        let parts: Vec<u32> = (0..120).map(|v| v % 3).collect();
        let mut p = Partition::new(3, parts).unwrap();
        kway_refine(&hg, &mut p, 0.05, 4, &mut SmallRng::seed_from_u64(1)).unwrap();
        assert!(p.imbalance_percent(&hg) <= 5.0 + 1e-9);
    }

    #[test]
    fn wide_refine_matches_narrow() {
        let hg = random_hypergraph(150, 240, 5, 8);
        let nets: Vec<Vec<u64>> = (0..hg.num_nets())
            .map(|n| hg.pins(n).iter().map(|&p| p as u64).collect())
            .collect();
        let hg64 = Hypergraph::<u64>::from_nets(150u64, &nets).unwrap();
        let parts: Vec<u32> = (0..150).map(|v| v % 4).collect();
        let mut p32 = Partition::new(4, parts.clone()).unwrap();
        let mut p64 = Partition::new(4, parts).unwrap();
        let g32 = kway_refine(&hg, &mut p32, 0.05, 3, &mut SmallRng::seed_from_u64(6)).unwrap();
        let g64 = kway_refine(&hg64, &mut p64, 0.05, 3, &mut SmallRng::seed_from_u64(6)).unwrap();
        assert_eq!(g32, g64);
        assert_eq!(p32.parts(), p64.parts());
    }

    #[test]
    fn k1_noop() {
        let hg = random_hypergraph(20, 30, 4, 1);
        let mut p = Partition::trivial(20);
        assert_eq!(
            kway_refine(&hg, &mut p, 0.05, 2, &mut SmallRng::seed_from_u64(1)).unwrap(),
            0
        );
    }
}
