//! Property-based equivalence: the flat connectivity table
//! ([`NetConnectivity`]) must behave exactly like the scan-based oracle
//! ([`NaiveConnectivity`]) under arbitrary random move sequences —
//! counts, λ, iteration order, and move-error behavior included. Rows
//! that fill to their room, empty and refill are the regression surface
//! this harness exists to sweep.

use fgh_hypergraph::{Hypergraph, Partition};
use fgh_partition::connectivity::{NaiveConnectivity, NetConnectivity};
use proptest::collection::{btree_set, vec as pvec};
use proptest::prelude::*;

/// A random instance: nets over `nv` vertices, an initial k-way part
/// assignment, and a sequence of vertex moves (vertex, destination part).
#[derive(Debug, Clone)]
struct Instance {
    nv: u32,
    k: u32,
    nets: Vec<Vec<u32>>,
    parts: Vec<u32>,
    moves: Vec<(u32, u32)>,
}

fn instance() -> impl Strategy<Value = Instance> {
    // Nets of up to 12 pins against k up to 11: some rows are as wide as
    // k and fill up during the move sequence, others are capped by their
    // pin count.
    (4..30u32, 2..12u32).prop_flat_map(|(nv, k)| {
        let nets = pvec(btree_set(0..nv, 1..=(nv as usize).min(12)), 1..40).prop_map(|sets| {
            sets.into_iter()
                .map(|s| s.into_iter().collect::<Vec<u32>>())
                .collect::<Vec<_>>()
        });
        let parts = pvec(0..k, nv as usize);
        let moves = pvec((0..nv, 0..k), 0..120);
        (nets, parts, moves).prop_map(move |(nets, parts, moves)| Instance {
            nv,
            k,
            nets,
            parts,
            moves,
        })
    })
}

/// Full-table comparison through every accessor.
fn assert_tables_match(
    hg: &Hypergraph<u32>,
    table: &NetConnectivity,
    oracle: &NaiveConnectivity,
    k: u32,
    ctx: &str,
) {
    for n in 0..hg.num_nets() {
        assert_eq!(table.lambda(n), oracle.lambda(n), "{ctx}: lambda(net {n})");
        for p in 0..k {
            assert_eq!(
                table.count(n, p),
                oracle.count(n, p),
                "{ctx}: count(net {n}, part {p})"
            );
        }
        let mut tv: Vec<(u32, u64)> = Vec::new();
        table.for_each_part(n, |p, c| tv.push((p, c)));
        let mut ov: Vec<(u32, u64)> = Vec::new();
        oracle.for_each_part(n, |p, c| ov.push((p, c)));
        assert_eq!(tv, ov, "{ctx}: iteration order (net {n})");
    }
}

proptest! {
    /// Build + arbitrary move sequences: the flat table tracks the
    /// oracle exactly at every step, including iteration order (FM
    /// tie-breaking reads the table in row order, so order is part of
    /// the contract, not an implementation detail).
    #[test]
    fn table_matches_naive_oracle(inst in instance()) {
        let hg = Hypergraph::<u32>::from_nets(inst.nv, &inst.nets).unwrap();
        let mut parts = inst.parts.clone();
        let partition = Partition::new(inst.k, parts.clone()).unwrap();
        let mut table = NetConnectivity::build(&hg, &partition);
        let mut oracle = NaiveConnectivity::build(&hg, &partition);
        assert_tables_match(&hg, &table, &oracle, inst.k, "after build");

        for (step, &(v, to)) in inst.moves.iter().enumerate() {
            let from = parts[v as usize];
            if from == to {
                continue;
            }
            for &n in hg.nets(v) {
                let rt = table.move_pin(n, from, to);
                let ro = oracle.move_pin(n, from, to);
                prop_assert_eq!(
                    rt.is_ok(),
                    ro.is_ok(),
                    "step {}: move_pin disagreement on net {}",
                    step,
                    n
                );
            }
            parts[v as usize] = to;
            assert_tables_match(&hg, &table, &oracle, inst.k, &format!("after move {step}"));
        }

        // End state must also equal a fresh build from the final parts:
        // incremental maintenance drifts from batch construction only
        // through bugs.
        let fresh = NaiveConnectivity::build(
            &hg,
            &Partition::new(inst.k, parts).unwrap(),
        );
        for n in 0..hg.num_nets() {
            prop_assert_eq!(table.lambda(n), fresh.lambda(n), "final lambda(net {})", n);
            for p in 0..inst.k {
                prop_assert_eq!(
                    table.count(n, p),
                    fresh.count(n, p),
                    "final count(net {}, part {})",
                    n,
                    p
                );
            }
        }
    }

    /// Moving a pin out of a part that has none is a typed error on both
    /// implementations, and a failed move must not corrupt the table.
    #[test]
    fn invalid_moves_error_identically(inst in instance()) {
        let hg = Hypergraph::<u32>::from_nets(inst.nv, &inst.nets).unwrap();
        let partition = Partition::new(inst.k, inst.parts.clone()).unwrap();
        let mut table = NetConnectivity::build(&hg, &partition);
        let mut oracle = NaiveConnectivity::build(&hg, &partition);
        for n in 0..hg.num_nets() {
            // A part with zero pins on this net: guaranteed-invalid move.
            let Some(absent) = (0..inst.k).find(|&p| oracle.count(n, p) == 0) else {
                continue;
            };
            prop_assert!(table.move_pin(n, absent, 0).is_err());
            prop_assert!(oracle.move_pin(n, absent, 0).is_err());
        }
        assert_tables_match(&hg, &table, &oracle, inst.k, "after rejected moves");
    }
}
