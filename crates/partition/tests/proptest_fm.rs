//! Property tests of the FM machinery on random hypergraphs: gains match
//! brute-force cut deltas, both on a fresh state and as the gain buckets
//! are updated move by move; moves are involutions, passes never worsen
//! the (balance, cut) pair, and the incremental cutsize always matches a
//! full recomputation.

use fgh_hypergraph::{cutsize_cutnet, Hypergraph, Partition};
use fgh_partition::gain::GainBuckets;
use fgh_partition::refine::BisectionState;
use fgh_partition::{ArenaIndex, Substrate};
use fgh_sparse::IndexType;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a random hypergraph as (num_vertices, nets).
fn hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3u32..=24).prop_flat_map(|nv| {
        proptest::collection::vec(
            proptest::collection::btree_set(0..nv, 2..=(nv as usize).min(6)),
            1..=30,
        )
        .prop_map(move |nets| {
            let nets: Vec<Vec<u32>> = nets.into_iter().map(|s| s.into_iter().collect()).collect();
            Hypergraph::from_nets(nv, &nets).expect("pins in range")
        })
    })
}

fn sides_for(hg: &Hypergraph, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..hg.num_vertices())
        .map(|_| rand::Rng::gen_range(&mut rng, 0..2u8))
        .collect()
}

/// `hg`'s structure at index width `I`, net `n` costing
/// `costs[n % costs.len()]`.
fn rebuild<I: IndexType>(hg: &Hypergraph, costs: &[u32]) -> Hypergraph<I> {
    let nets: Vec<Vec<I>> = (0..hg.num_nets())
        .map(|n| {
            hg.pins(n)
                .iter()
                .map(|&p| I::from_index(p as usize))
                .collect()
        })
        .collect();
    let costs = (0..nets.len()).map(|n| costs[n % costs.len()]).collect();
    Hypergraph::from_nets_weighted(
        I::from_index(hg.num_vertices() as usize),
        &nets,
        hg.vertex_weights().to_vec(),
        costs,
    )
    .expect("same pins as a valid hypergraph")
}

/// Cut-net cutsize of the bisection `sides`, from scratch.
fn cut_of<I: IndexType>(hg: &Hypergraph<I>, sides: &[u8]) -> u64 {
    let p = Partition::new(2, sides.iter().map(|&s| s as u32).collect()).expect("sides are 0/1");
    cutsize_cutnet(hg, &p)
}

/// Queues every vertex in a `GainBuckets`, then moves them one at a time
/// in random order the way an FM pass locks and moves a popped vertex.
/// After each move the incremental cut and the gain of every vertex still
/// queued must equal a from-scratch recomputation.
fn drain_checking_gains<I: ArenaIndex>(hg: &Hypergraph<I>, sides: Vec<u8>, seed: u64) {
    let n = sides.len();
    let half = hg.total_vertex_weight() as f64 / 2.0;
    let mut st = BisectionState::new(hg, sides, [half, half], 0.2);
    let mut buckets = GainBuckets::new(n, Substrate::max_gain_bound(hg));
    let mut queued: Vec<I> = (0..n).map(I::from_index).collect();
    for &v in &queued {
        buckets.insert(v, st.gain(v));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    while !queued.is_empty() {
        let v = queued.swap_remove(rand::Rng::gen_range(&mut rng, 0..queued.len()));
        buckets.remove(v);
        st.apply_move(v, Some(&mut buckets));
        let cut = cut_of(hg, st.sides());
        assert_eq!(st.cut(), cut, "cut after moving {v}");
        let mut flipped = st.sides().to_vec();
        for &u in &queued {
            flipped[u.index()] ^= 1;
            let gain = cut as i64 - cut_of(hg, &flipped) as i64;
            flipped[u.index()] ^= 1;
            assert_eq!(buckets.gain(u), gain, "gain of {u} after moving {v}");
        }
    }
    assert!(buckets.is_empty());
}

proptest! {
    /// The gains FM keeps in its buckets, updated incrementally by
    /// `apply_move`'s delta-gain kernel, stay equal to brute-force cut
    /// deltas after every move, on weighted nets at both index widths.
    #[test]
    fn bucket_gains_stay_exact_across_moves(
        hg in hypergraph(),
        costs in proptest::collection::vec(1u32..=3, 1..=4),
        seed in 0u64..500,
    ) {
        let sides = sides_for(&hg, seed);
        drain_checking_gains(&rebuild::<u32>(&hg, &costs), sides.clone(), seed);
        drain_checking_gains(&rebuild::<u64>(&hg, &costs), sides, seed);
    }

    /// The incremental cut in BisectionState equals the metric module's
    /// cut-net cutsize, initially and after arbitrary move sequences.
    #[test]
    fn incremental_cut_matches_metric(hg in hypergraph(), seed in 0u64..500) {
        let sides = sides_for(&hg, seed);
        let half = hg.total_vertex_weight() as f64 / 2.0;
        let mut st = BisectionState::new(&hg, sides, [half, half], 0.2);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..10 {
            let v = rand::Rng::gen_range(&mut rng, 0..hg.num_vertices());
            st.apply_move(v, None);
            let p = Partition::new(
                2,
                st.sides().iter().map(|&s| s as u32).collect(),
            ).expect("sides valid");
            prop_assert_eq!(st.cut(), cutsize_cutnet(&hg, &p));
        }
    }

    /// gain(v) is exactly the cut decrease of moving v.
    #[test]
    fn gain_is_cut_delta(hg in hypergraph(), seed in 0u64..500) {
        let sides = sides_for(&hg, seed);
        let half = hg.total_vertex_weight() as f64 / 2.0;
        let st = BisectionState::new(&hg, sides, [half, half], 0.2);
        for v in 0..hg.num_vertices() {
            let mut st2 = st.clone();
            let before = st2.cut() as i64;
            st2.apply_move(v, None);
            prop_assert_eq!(st.gain(v), before - st2.cut() as i64);
        }
    }

    /// Moving a vertex twice restores the exact state.
    #[test]
    fn move_is_involution(hg in hypergraph(), seed in 0u64..500) {
        let sides = sides_for(&hg, seed);
        let half = hg.total_vertex_weight() as f64 / 2.0;
        let st0 = BisectionState::new(&hg, sides, [half, half], 0.2);
        let mut st = st0.clone();
        let v = hg.num_vertices() / 2;
        st.apply_move(v, None);
        st.apply_move(v, None);
        prop_assert_eq!(st.cut(), st0.cut());
        prop_assert_eq!(st.weights(), st0.weights());
        prop_assert_eq!(st.sides(), st0.sides());
    }

    /// FM refinement never worsens (penalty, cut).
    #[test]
    fn refinement_monotone(hg in hypergraph(), seed in 0u64..200) {
        let half = hg.total_vertex_weight() as f64 / 2.0;
        let sides = sides_for(&hg, seed);
        let mut st = BisectionState::new(&hg, sides, [half, half], 0.2);
        let before = (st.balance_penalty(), st.cut());
        st.refine(&mut SmallRng::seed_from_u64(seed), 4, 0);
        prop_assert!((st.balance_penalty(), st.cut()) <= before);
    }
}
