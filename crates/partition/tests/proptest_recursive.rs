//! Property test of the eq. 3 invariant: recursive bisection with net
//! splitting makes the per-bisection cut-net cuts sum to the K-way
//! connectivity−1 cutsize of the assembled partition.

use fgh_hypergraph::{cutsize_connectivity, Hypergraph, Partition};
use fgh_partition::{MultilevelDriver, PartitionConfig};
use proptest::prelude::*;

/// Strategy: a random hypergraph with `n` vertices and nets of size 2..=5
/// (pin sets drawn as btree sets for dedup and determinism).
fn hypergraph() -> impl Strategy<Value = Hypergraph> {
    (8u32..=60).prop_flat_map(|n| {
        proptest::collection::vec(
            proptest::collection::btree_set(0..n, 2..=5usize),
            1..=(2 * n as usize),
        )
        .prop_map(move |nets| {
            let nets: Vec<Vec<u32>> = nets.into_iter().map(|s| s.into_iter().collect()).collect();
            Hypergraph::from_nets(n, &nets).expect("valid nets")
        })
    })
}

proptest! {
    /// With net splitting and no K-way post-refinement, the driver's
    /// accumulated bisection cut sum IS the connectivity−1 cutsize.
    #[test]
    fn bisection_cuts_compose_to_connectivity(hg in hypergraph(), seed in 0u64..50) {
        for k in [2u32, 4, 8] {
            let cfg = PartitionConfig {
                kway_refine: false,
                net_splitting: true,
                ..PartitionConfig::with_seed(seed)
            };
            let mut driver = MultilevelDriver::new(cfg);
            let out = driver.partition_recursive(&hg, k);
            let p = Partition::new(k, out.parts).expect("parts in range");
            prop_assert_eq!(
                cutsize_connectivity(&hg, &p),
                out.cut_sum,
                "eq. 3 composition failed for k = {} seed = {}",
                k,
                seed
            );
        }
    }

    /// Without net splitting the sum only bounds the connectivity−1
    /// cutsize from below on cut nets counted once per bisection — the
    /// documented reason the ablation optimizes the wrong objective. Here
    /// we only require the partition itself to stay valid.
    #[test]
    fn no_split_still_yields_valid_partitions(hg in hypergraph(), seed in 0u64..25) {
        let cfg = PartitionConfig {
            kway_refine: false,
            net_splitting: false,
            ..PartitionConfig::with_seed(seed)
        };
        let mut driver = MultilevelDriver::new(cfg);
        let out = driver.partition_recursive(&hg, 4);
        let p = Partition::new(4, out.parts).expect("parts in range");
        prop_assert_eq!(p.len(), hg.num_vertices() as usize);
    }
}
