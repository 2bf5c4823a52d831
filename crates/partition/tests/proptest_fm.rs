//! Property tests of the FM machinery on random hypergraphs: gains match
//! brute-force cut deltas, moves are involutions, passes never worsen the
//! (balance, cut) pair, and the incremental cutsize always matches a full
//! recomputation.

use fgh_hypergraph::{cutsize_cutnet, Hypergraph, Partition};
use fgh_partition::coarsen::FREE;
use fgh_partition::refine::BisectionState;
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

proptest! {
    /// The incremental cut in BisectionState equals the metric module's
    /// cut-net cutsize, initially and after arbitrary move sequences.
    #[test]
    fn incremental_cut_matches_metric(hg in hypergraph(), seed in 0u64..500) {
        let fixed = vec![FREE; hg.num_vertices() as usize];
        let sides = sides_for(&hg, seed);
        let half = hg.total_vertex_weight() as f64 / 2.0;
        let mut st = BisectionState::new(&hg, sides, &fixed, [half, half], 0.2);
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
        let fixed = vec![FREE; hg.num_vertices() as usize];
        let sides = sides_for(&hg, seed);
        let half = hg.total_vertex_weight() as f64 / 2.0;
        let st = BisectionState::new(&hg, sides, &fixed, [half, half], 0.2);
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
        let fixed = vec![FREE; hg.num_vertices() as usize];
        let sides = sides_for(&hg, seed);
        let half = hg.total_vertex_weight() as f64 / 2.0;
        let st0 = BisectionState::new(&hg, sides, &fixed, [half, half], 0.2);
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
        let fixed = vec![FREE; hg.num_vertices() as usize];
        let half = hg.total_vertex_weight() as f64 / 2.0;
        let sides = sides_for(&hg, seed);
        let mut st = BisectionState::new(&hg, sides, &fixed, [half, half], 0.2);
        let before = (st.balance_penalty(), st.cut());
        st.refine(&mut SmallRng::seed_from_u64(seed), 4, 0);
        prop_assert!((st.balance_penalty(), st.cut()) <= before);
    }
}
