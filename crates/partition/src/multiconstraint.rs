//! Multi-constraint K-way hypergraph partitioning.
//!
//! Each vertex carries a *vector* of weights (one entry per constraint);
//! a partition is balanced when **every** constraint's per-part sums stay
//! within `(1 + ε)` of that constraint's average. This is the machinery
//! behind the coarse-grain *checkerboard hypergraph* model (Çatalyürek &
//! Aykanat's companion IPDPS 2001 paper): the column-partitioning phase
//! must keep every (row-stripe, column-group) cell balanced, i.e. one
//! constraint per stripe.
//!
//! The algorithm here is a direct K-way scheme (no multilevel): a
//! balance-first greedy placement followed by connectivity−1 refinement
//! sweeps that only accept moves keeping all constraints within their
//! caps. Simpler than multilevel multi-constraint (as in hMETIS/PaToH)
//! but sufficient for the model's moderate K and heavy vertices.

use fgh_hypergraph::{cutsize_connectivity, Hypergraph, HypergraphError, Partition};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::connectivity::NetConnectivity;
use crate::error::PartitionError;
use crate::level::StageTimer;
use crate::EngineStats;

/// Per-vertex weight vectors for `c` constraints, stored row-major
/// (`weights[v * c + i]`).
#[derive(Debug, Clone)]
pub struct MultiWeights {
    c: usize,
    flat: Vec<u32>,
}

impl MultiWeights {
    /// Builds from a flat row-major vector (`num_vertices * c` entries).
    pub fn new(c: usize, flat: Vec<u32>) -> Self {
        assert!(c >= 1, "at least one constraint");
        assert_eq!(flat.len() % c, 0, "flat length must be a multiple of c");
        MultiWeights { c, flat }
    }

    /// Number of constraints.
    pub fn constraints(&self) -> usize {
        self.c
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.flat.len() / self.c
    }

    /// The weight vector of vertex `v`.
    pub fn of(&self, v: u32) -> &[u32] {
        &self.flat[v as usize * self.c..(v as usize + 1) * self.c]
    }

    /// Per-constraint totals.
    pub fn totals(&self) -> Vec<u64> {
        let mut t = vec![0u64; self.c];
        for v in 0..self.num_vertices() {
            let v32 = v as u32; // lint: checked-cast — v < num_vertices, a u32
            for (i, &w) in self.of(v32).iter().enumerate() {
                t[i] += w as u64;
            }
        }
        t
    }
}

/// Result of a multi-constraint partitioning run.
#[derive(Debug, Clone)]
pub struct MultiConstraintResult {
    /// The K-way partition.
    pub partition: Partition,
    /// Connectivity−1 cutsize.
    pub cutsize: u64,
    /// Worst percent imbalance over all constraints.
    pub worst_imbalance_percent: f64,
    /// Engine counters for the run, in multilevel vocabulary: greedy
    /// placement reports as initial partitioning, refinement sweeps as FM
    /// passes, and accepted moves as FM moves (the greedy scheme never
    /// rolls back, so `fm_rollbacks` stays 0). Coarsening counters stay 0
    /// — the scheme is direct, not multilevel.
    pub stats: EngineStats,
}

/// Partitions `hg` into `k` parts balancing every constraint of `weights`
/// within `epsilon`, minimizing the connectivity−1 cutsize with greedy
/// sweeps. Deterministic in `seed`. Structural problems (invalid `k`)
/// surface as wrapped [`HypergraphError`]s; corrupt internal bookkeeping
/// surfaces as [`PartitionError::Internal`].
pub fn partition_multiconstraint(
    hg: &Hypergraph,
    weights: &MultiWeights,
    k: u32,
    epsilon: f64,
    seed: u64,
    passes: usize,
) -> Result<MultiConstraintResult, PartitionError> {
    if k == 0 {
        return Err(HypergraphError::InvalidK.into());
    }
    let n = hg.num_vertices();
    assert_eq!(
        weights.num_vertices(),
        n as usize,
        "weights cover every vertex"
    );
    let c = weights.constraints();
    let totals = weights.totals();
    // Caps with one max-entry slack so placement is always feasible-ish.
    let caps: Vec<f64> = totals
        .iter()
        .map(|&t| (t as f64 / k as f64) * (1.0 + epsilon))
        .collect();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stats = EngineStats::default();
    let placement_timer = StageTimer::start();

    // --- Balance-first greedy placement ---
    // Heaviest (by normalized total) vertices first; each goes to the part
    // with the lowest maximum relative fill after placement, with a small
    // connectivity bonus (prefer parts already holding net-mates).
    let mut order: Vec<u32> = (0..n).collect();
    order.shuffle(&mut rng);
    order.sort_by(|&a, &b| {
        let na: f64 = norm_total(weights, &totals, a);
        let nb: f64 = norm_total(weights, &totals, b);
        nb.partial_cmp(&na).unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut part_load = vec![0u64; k as usize * c];
    let mut parts = vec![u32::MAX; n as usize];
    let mut net_touch = NetConnectivity::empty(k, hg.num_nets() as usize);
    for &v in &order {
        let mut best: Option<(f64, u32)> = None;
        for p in 0..k {
            // Relative fill after adding v, worst constraint.
            let mut fill = 0.0f64;
            for (i, &w) in weights.of(v).iter().enumerate() {
                let cap = caps[i].max(1.0);
                fill = fill.max((part_load[p as usize * c + i] as f64 + w as f64) / cap);
            }
            // Connectivity bonus: parts already on v's nets are cheaper.
            let mut bonus = 0.0f64;
            for &nn in hg.nets(v) {
                if net_touch.count(nn, p) > 0 {
                    bonus += hg.net_cost(nn) as f64;
                }
            }
            let score = fill - 0.01 * bonus;
            match best {
                Some((bs, _)) if bs <= score => {}
                _ => best = Some((score, p)),
            }
        }
        // `k >= 1` makes the candidate loop non-empty; part 0 is a safe
        // fallback rather than a panic.
        let p = best.map(|(_, p)| p).unwrap_or(0);
        parts[v as usize] = p;
        for (i, &w) in weights.of(v).iter().enumerate() {
            part_load[p as usize * c + i] += w as u64;
        }
        for &nn in hg.nets(v) {
            net_touch.add_pin(nn as usize, p);
        }
    }

    placement_timer.stop(&mut stats.initial_nanos);

    // --- Connectivity−1 refinement sweeps under all caps ---
    let refine_timer = StageTimer::start();
    let mut order: Vec<u32> = (0..n).collect();
    for _ in 0..passes {
        order.shuffle(&mut rng);
        stats.fm_passes += 1;
        let mut moved = 0usize;
        for &v in &order {
            let from = parts[v as usize];
            // Candidate parts: those on v's nets.
            let mut cands: Vec<u32> = Vec::new();
            for &nn in hg.nets(v) {
                net_touch.for_each_part(nn, |q, _| {
                    if q != from && !cands.contains(&q) {
                        cands.push(q);
                    }
                });
            }
            let mut best: Option<(i64, u32)> = None;
            for &q in &cands {
                // All caps must hold after the move.
                let fits = weights.of(v).iter().enumerate().all(|(i, &w)| {
                    part_load[q as usize * c + i] as f64 + w as f64 <= caps[i].max(1.0)
                });
                if !fits {
                    continue;
                }
                let mut gain = 0i64;
                for &nn in hg.nets(v) {
                    let cost = hg.net_cost(nn) as i64;
                    if net_touch.count(nn, from) == 1 {
                        gain += cost;
                    }
                    if net_touch.count(nn, q) == 0 {
                        gain -= cost;
                    }
                }
                match best {
                    Some((bg, _)) if bg >= gain => {}
                    _ => best = Some((gain, q)),
                }
            }
            if let Some((gain, q)) = best {
                if gain > 0 {
                    parts[v as usize] = q;
                    for (i, &w) in weights.of(v).iter().enumerate() {
                        part_load[from as usize * c + i] -= w as u64;
                        part_load[q as usize * c + i] += w as u64;
                    }
                    for &nn in hg.nets(v) {
                        net_touch.move_pin(nn, from, q)?;
                    }
                    moved += 1;
                }
            }
        }
        stats.fm_moves += moved as u64;
        if moved == 0 {
            break;
        }
    }
    refine_timer.stop(&mut stats.refine_nanos);

    let partition = Partition::new(k, parts)?;
    let cutsize = cutsize_connectivity(hg, &partition);
    let mut worst = 0.0f64;
    for i in 0..c {
        let avg = totals[i] as f64 / k as f64;
        if avg > 0.0 {
            let max = (0..k)
                .map(|p| part_load[p as usize * c + i])
                .max()
                .unwrap_or(0) as f64;
            worst = worst.max(100.0 * (max - avg) / avg);
        }
    }
    Ok(MultiConstraintResult {
        partition,
        cutsize,
        worst_imbalance_percent: worst,
        stats,
    })
}

fn norm_total(w: &MultiWeights, totals: &[u64], v: u32) -> f64 {
    w.of(v)
        .iter()
        .enumerate()
        .map(|(i, &x)| x as f64 / (totals[i].max(1)) as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_hypergraph;
    use rand::Rng;

    #[test]
    fn multiweights_accessors() {
        let w = MultiWeights::new(2, vec![1, 10, 2, 20, 3, 30]);
        assert_eq!(w.constraints(), 2);
        assert_eq!(w.num_vertices(), 3);
        assert_eq!(w.of(1), &[2, 20]);
        assert_eq!(w.totals(), vec![6, 60]);
    }

    #[test]
    fn single_constraint_reduces_to_ordinary_balance() {
        let hg = random_hypergraph(120, 200, 4, 1);
        let w = MultiWeights::new(1, vec![1; 120]);
        let r = partition_multiconstraint(&hg, &w, 4, 0.05, 1, 4).unwrap();
        r.partition.validate(&hg, true).unwrap();
        assert!(
            r.worst_imbalance_percent <= 6.0,
            "{}",
            r.worst_imbalance_percent
        );
        assert_eq!(r.cutsize, cutsize_connectivity(&hg, &r.partition));
    }

    #[test]
    fn both_constraints_balanced() {
        // Two anti-correlated constraints: heavy-in-0 vertices are light
        // in 1 and vice versa — single-constraint balance would fail one.
        let hg = random_hypergraph(200, 300, 4, 2);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut flat = Vec::with_capacity(400);
        for _ in 0..200 {
            let a = rng.gen_range(1..10u32);
            flat.push(a);
            flat.push(11 - a);
        }
        let w = MultiWeights::new(2, flat);
        let r = partition_multiconstraint(&hg, &w, 4, 0.10, 2, 4).unwrap();
        assert!(
            r.worst_imbalance_percent <= 11.0,
            "worst constraint imbalance {}%",
            r.worst_imbalance_percent
        );
    }

    #[test]
    fn refinement_reduces_cut_vs_no_passes() {
        let hg = random_hypergraph(150, 250, 5, 4);
        let w = MultiWeights::new(1, vec![1; 150]);
        let r0 = partition_multiconstraint(&hg, &w, 4, 0.10, 5, 0).unwrap();
        let r4 = partition_multiconstraint(&hg, &w, 4, 0.10, 5, 4).unwrap();
        assert!(r4.cutsize <= r0.cutsize, "{} vs {}", r4.cutsize, r0.cutsize);
    }

    #[test]
    fn deterministic() {
        let hg = random_hypergraph(100, 150, 4, 5);
        let w = MultiWeights::new(1, vec![1; 100]);
        let a = partition_multiconstraint(&hg, &w, 3, 0.1, 7, 3).unwrap();
        let b = partition_multiconstraint(&hg, &w, 3, 0.1, 7, 3).unwrap();
        assert_eq!(a.partition.parts(), b.partition.parts());
    }

    #[test]
    fn k0_rejected_k1_trivial() {
        let hg = random_hypergraph(20, 30, 3, 6);
        let w = MultiWeights::new(1, vec![1; 20]);
        assert!(partition_multiconstraint(&hg, &w, 0, 0.1, 1, 2).is_err());
        let r = partition_multiconstraint(&hg, &w, 1, 0.1, 1, 2).unwrap();
        assert_eq!(r.cutsize, 0);
    }

    #[test]
    fn zero_weight_constraint_handled() {
        // A constraint that is all zeros must not divide by zero.
        let hg = random_hypergraph(40, 60, 3, 7);
        let mut flat = Vec::new();
        for _ in 0..40 {
            flat.push(1u32);
            flat.push(0u32);
        }
        let w = MultiWeights::new(2, flat);
        let r = partition_multiconstraint(&hg, &w, 4, 0.1, 1, 2).unwrap();
        r.partition.validate(&hg, false).unwrap();
    }
}
