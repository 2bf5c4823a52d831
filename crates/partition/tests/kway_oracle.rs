//! Differential oracle for the single-pass K-way gain kernel.
//!
//! [`kway_refine`] computes every candidate part's gain from one pass over
//! a vertex's nets. The reference below is the kernel it replaced, kept
//! verbatim over the public [`NetConnectivity`] / [`Partition`] API: it
//! collects candidates first, then makes one `count` lookup per
//! (candidate, net) pair. Both must return the same gain (or the same
//! error), leave the same partition, and draw the same random numbers —
//! K-way moves break gain ties by candidate order, so order is part of
//! the contract (`golden_cutsize.rs` in `fgh-core`).

use fgh_hypergraph::{Hypergraph, HypergraphBuilder, Partition};
use fgh_partition::connectivity::{NetConnectivity, INLINE_LAMBDA};
use fgh_partition::kway::kway_refine;
use fgh_partition::{MultilevelDriver, PartitionConfig, PartitionError};
use proptest::collection::{btree_set, vec as pvec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// The per-candidate K-way kernel, as the engine shipped it before the
/// single-pass gain.
fn kway_refine_oracle(
    hg: &Hypergraph<u32>,
    partition: &mut Partition,
    epsilon: f64,
    passes: usize,
    rng: &mut impl Rng,
) -> Result<u64, PartitionError> {
    let k = partition.k();
    if k < 2 || hg.num_vertices() == 0 {
        return Ok(0);
    }
    let mut np = NetConnectivity::build(hg, partition);
    let mut weights = partition.part_weights(hg);
    let total: u64 = weights.iter().sum();
    let cap = ((total as f64 / k as f64) * (1.0 + epsilon)).floor() as u64;

    let mut total_gain = 0u64;
    let mut order: Vec<u32> = (0..hg.num_vertices()).collect();

    for _ in 0..passes {
        order.shuffle(rng);
        let mut pass_gain = 0u64;
        for &v in &order {
            let from = partition.part_at(v as usize);
            let mut candidate_parts: Vec<u32> = Vec::new();
            let mut boundary = false;
            for &n in hg.nets(v) {
                if np.lambda(n) > 1 {
                    boundary = true;
                }
                np.for_each_part(n, |q, _| {
                    if q != from && !candidate_parts.contains(&q) {
                        candidate_parts.push(q);
                    }
                });
            }
            if !boundary || candidate_parts.is_empty() {
                continue;
            }
            let w = hg.vertex_weight(v) as u64;
            let mut best: Option<(i64, u32)> = None;
            for &q in &candidate_parts {
                if weights[q as usize] + w > cap {
                    continue;
                }
                let mut gain = 0i64;
                for &n in hg.nets(v) {
                    let c = hg.net_cost(n) as i64;
                    if np.count(n, from) == 1 {
                        gain += c;
                    }
                    if np.count(n, q) == 0 {
                        gain -= c;
                    }
                }
                match best {
                    Some((bg, _)) if bg >= gain => {}
                    _ => best = Some((gain, q)),
                }
            }
            if let Some((gain, q)) = best {
                let improves_balance = weights[q as usize] + w < weights[from as usize];
                if gain > 0 || (gain == 0 && improves_balance) {
                    for &n in hg.nets(v) {
                        np.move_pin(n, from, q)?;
                    }
                    weights[from as usize] -= w;
                    weights[q as usize] += w;
                    partition.assign_at(v as usize, q);
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

/// Runs both kernels from the same start and seed; asserts equal results,
/// partitions, and RNG consumption. Returns the gain.
fn assert_kernels_agree(
    hg: &Hypergraph<u32>,
    start: &Partition,
    epsilon: f64,
    passes: usize,
    seed: u64,
) -> u64 {
    let (mut p_new, mut p_old) = (start.clone(), start.clone());
    let mut rng_new = SmallRng::seed_from_u64(seed);
    let mut rng_old = SmallRng::seed_from_u64(seed);
    let r_new = kway_refine(hg, &mut p_new, epsilon, passes, &mut rng_new);
    let r_old = kway_refine_oracle(hg, &mut p_old, epsilon, passes, &mut rng_old);
    let r_new = r_new.map_err(|e| e.to_string());
    let r_old = r_old.map_err(|e| e.to_string());
    assert_eq!(r_new, r_old, "returned gain or error differs");
    assert_eq!(p_new.parts(), p_old.parts(), "partitions differ");
    assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "RNG streams differ");
    r_new.unwrap_or(0)
}

/// `true` when some net of `hg` touches more than [`INLINE_LAMBDA`] parts
/// under `p`, i.e. lives in a spill row.
fn spills(hg: &Hypergraph<u32>, p: &Partition) -> bool {
    let np = NetConnectivity::build(hg, p);
    (0..hg.num_nets()).any(|n| np.lambda(n) > INLINE_LAMBDA)
}

#[derive(Debug, Clone)]
struct Instance {
    nv: u32,
    k: u32,
    nets: Vec<Vec<u32>>,
    costs: Vec<u32>,
    weights: Vec<u32>,
    parts: Vec<u32>,
    eps_choice: usize,
    passes: usize,
    seed: u64,
}

const EPSILONS: [f64; 4] = [0.0, 0.01, 0.03, 0.1];

fn instance() -> impl Strategy<Value = Instance> {
    (8..60u32, 2..=16u32).prop_flat_map(|(nv, k)| {
        // Narrow nets dominate like a fine-grain hypergraph; wide ones
        // reach past INLINE_LAMBDA parts so spill rows are exercised.
        let narrow = pvec(btree_set(0..nv, 1..=4usize), 4..50);
        let wide = pvec(btree_set(0..nv, 5..=(nv as usize).min(20)), 0..6);
        let nets = (narrow, wide).prop_map(|(a, b)| {
            a.into_iter()
                .chain(b)
                .map(|s| s.into_iter().collect::<Vec<u32>>())
                .collect::<Vec<_>>()
        });
        let costs = pvec(1..=4u32, 56);
        let weights = pvec(1..=4u32, nv as usize);
        let parts = pvec(0..k, nv as usize);
        let knobs = (0..EPSILONS.len(), 1..=3usize, 0..u64::MAX);
        (nets, costs, (weights, parts), knobs).prop_map(
            move |(nets, costs, (weights, parts), (eps_choice, passes, seed))| Instance {
                nv,
                k,
                costs: costs[..nets.len()].to_vec(),
                nets,
                weights,
                parts,
                eps_choice,
                passes,
                seed,
            },
        )
    })
}

proptest! {
    /// Random hypergraphs, K from 2 to 16, weights and costs from 1 to 4,
    /// ε down to 0: the single-pass kernel matches the per-candidate
    /// oracle move for move.
    #[test]
    fn single_pass_gain_matches_per_candidate_oracle(inst in instance()) {
        let hg = Hypergraph::from_nets_weighted(
            inst.nv,
            &inst.nets,
            inst.weights.clone(),
            inst.costs.clone(),
        )
        .unwrap();
        let start = Partition::new(inst.k, inst.parts.clone()).unwrap();
        assert_kernels_agree(
            &hg,
            &start,
            EPSILONS[inst.eps_choice],
            inst.passes,
            inst.seed,
        );
    }
}

/// A deterministic instance whose nets start in spill rows and whose
/// sweeps move pins into and out of them.
#[test]
fn spilled_nets_match_oracle() {
    let nv = 48u32;
    let k = 12u32;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut nets: Vec<Vec<u32>> = (0..4).map(|i| (i * 12..i * 12 + 12).collect()).collect();
    for _ in 0..60 {
        let a = rng.gen_range(0..nv);
        let b = (a + rng.gen_range(1..nv)) % nv;
        nets.push(if a < b { vec![a, b] } else { vec![b, a] });
    }
    let hg = Hypergraph::from_nets(nv, &nets).unwrap();
    let start = Partition::new(k, (0..nv).map(|v| v % k).collect()).unwrap();
    assert!(spills(&hg, &start), "instance must start with spilled nets");
    for seed in 0..16 {
        assert_kernels_agree(&hg, &start, 0.1, 3, seed);
    }
}

/// The fine-grain hypergraph of `a`: one unit vertex per nonzero, a
/// zero-weight dummy per missing diagonal entry, a row net and a column
/// net per index.
fn fine_grain(a: &fgh_sparse::CsrMatrix) -> Hypergraph<u32> {
    let n = a.nrows() as usize;
    let mut b = HypergraphBuilder::<u32>::new();
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut cols: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut has_diag = vec![false; n];
    for (i, j, _) in a.iter() {
        let v = b.add_vertex(1);
        rows[i as usize].push(v);
        cols[j as usize].push(v);
        has_diag[i as usize] |= i == j;
    }
    for (j, _) in has_diag.iter().enumerate().filter(|(_, &d)| !d) {
        let v = b.add_vertex(0);
        rows[j].push(v);
        cols[j].push(v);
    }
    for pins in rows.into_iter().chain(cols) {
        b.add_net(pins);
    }
    b.build().unwrap()
}

/// The spmv-pipeline input: ken-11 at scale 8, K = 64. Its hub rows
/// spill, both on the recursive-bisection result the engine refines and
/// on a round-robin start that makes the sweeps move many vertices.
#[test]
fn ken11_k64_matches_oracle() {
    let a = fgh_sparse::catalog::by_name("ken-11")
        .unwrap()
        .generate_scaled(8, 1);
    let hg = fine_grain(&a);
    let nv = hg.num_vertices();
    let cfg = PartitionConfig {
        kway_refine: false,
        ..PartitionConfig::with_seed(1)
    };
    let rb = MultilevelDriver::new(cfg.clone()).partition_recursive(&hg, 64);
    let rb = Partition::new(64, rb.parts).unwrap();
    let round_robin = Partition::new(64, (0..nv).map(|v| v % 64).collect()).unwrap();
    assert!(spills(&hg, &round_robin));
    assert_kernels_agree(&hg, &rb, cfg.epsilon, 2, 1);
    let gain = assert_kernels_agree(&hg, &round_robin, cfg.epsilon, 2, 1);
    assert!(gain > 0, "round-robin start must be improvable");
}
