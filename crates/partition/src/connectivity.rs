//! Per-net part-count tracking for K-way refinement.
//!
//! Every K-way gain computation asks the same two questions per net: "how
//! many pins does net `n` have in part `p`?" and "which parts does `n`
//! touch?" (its connectivity set Λ). [`NetConnectivity`] answers both from
//! one flat layout: net `n` owns a row of `min(|pins(n)|, K)` (part, count)
//! entries, the most parts it can touch, in two parallel arrays addressed
//! by a prefix sum. A row never moves or grows, so a lookup is a scan of
//! one contiguous row with no pointer chase and no allocation.
//!
//! Rows keep the order contract of the scan-based oracle
//! [`NaiveConnectivity`]: a new part is appended, and an entry whose count
//! reaches zero is removed with `swap_remove`. K-way refinement breaks
//! gain ties in the order [`NetConnectivity::for_each_part`] visits parts,
//! so that contract is what keeps recorded partitions bit-for-bit
//! reproducible; see `crates/core/tests/golden_cutsize.rs` and the
//! `proptest_connectivity` equivalence harness.

use std::ops::Range;

use fgh_hypergraph::{Hypergraph, Partition};
use fgh_sparse::IndexType;

use crate::error::PartitionError;

/// Per-net (part, pin-count) table with one fixed row per net. See the
/// module docs for the layout; behaviorally identical to
/// [`NaiveConnectivity`] for destination parts below K.
pub struct NetConnectivity {
    k: u32,
    /// Net `n`'s row is `start[n]..start[n + 1]` of `parts` and `counts`.
    start: Vec<usize>,
    /// Live entries per row; the rest of the row is unused room.
    len: Vec<u32>,
    /// Part ids, row by row.
    parts: Vec<u32>,
    /// Pin counts, parallel to `parts`.
    counts: Vec<u64>,
}

impl NetConnectivity {
    /// Builds the table for `partition` over `hg`'s nets.
    pub fn build<I: IndexType>(hg: &Hypergraph<I>, partition: &Partition) -> Self {
        let nn = hg.num_nets().index();
        let k = partition.k();
        let mut start = Vec::with_capacity(nn + 1);
        let mut room = 0;
        start.push(room);
        for n in 0..nn {
            room += hg.net_size(I::from_index(n)).min(k as usize);
            start.push(room);
        }
        let mut t = NetConnectivity {
            k,
            start,
            len: vec![0; nn],
            parts: vec![0; room],
            counts: vec![0; room],
        };
        for n in 0..nn {
            for &p in hg.pins(I::from_index(n)) {
                t.add_pin(n, partition.part_at(p.index()));
            }
        }
        t
    }

    /// The live entries of net `n`'s row, as indices into `parts`/`counts`.
    // lint: checked-index — n < num_nets is the caller contract; start and len have an entry per net
    fn row(&self, n: usize) -> Range<usize> {
        let s = self.start[n];
        s..s + self.len[n] as usize
    }

    /// Index of `part`'s entry in net `n`'s row, if the row has one.
    // lint: checked-index — row(n) lies inside parts by construction
    fn find(&self, n: usize, part: u32) -> Option<usize> {
        let row = self.row(n);
        let i = self.parts[row.clone()].iter().position(|&q| q == part)?;
        Some(row.start + i)
    }

    /// Adds one pin of `part` to net `n`, appending `part` when the row
    /// lacks it.
    // lint: checked-index — n < num_nets; a row holds distinct parts < K, one pin each at least, so it never outgrows its min(|pins|, K) room and an append lands below start[n + 1]
    fn add_pin(&mut self, n: usize, part: u32) {
        if let Some(i) = self.find(n, part) {
            self.counts[i] += 1;
            return;
        }
        let end = self.row(n).end;
        self.parts[end] = part;
        self.counts[end] = 1;
        self.len[n] += 1;
    }

    /// Pin count of `part` on net `net` (0 when absent).
    // lint: checked-index — find returns an index into the row
    pub fn count<I: IndexType>(&self, net: I, part: u32) -> u64 {
        self.find(net.index(), part).map_or(0, |i| self.counts[i])
    }

    /// Connectivity λ of `net` (number of parts with ≥ 1 pin).
    // lint: checked-index — net < num_nets is the caller contract
    pub fn lambda<I: IndexType>(&self, net: I) -> usize {
        self.len[net.index()] as usize
    }

    /// Visits every (part, count) pair of `net` in row order — the same
    /// order the naive oracle's row would be iterated in.
    // lint: checked-index — row(net) lies inside parts and counts by construction
    pub fn for_each_part<I: IndexType>(&self, net: I, mut visit: impl FnMut(u32, u64)) {
        let row = self.row(net.index());
        for (&p, &c) in self.parts[row.clone()].iter().zip(&self.counts[row]) {
            visit(p, c);
        }
    }

    /// Moves one pin of `net` from part `from` to part `to`. A `to` of K
    /// or more, or a `from` with no pins on `net`, is the typed internal
    /// error and leaves the table unchanged.
    // lint: checked-index — i comes from find and last is the row's final live entry
    pub fn move_pin<I: IndexType>(
        &mut self,
        net: I,
        from: u32,
        to: u32,
    ) -> Result<(), PartitionError> {
        let n = net.index();
        // Corrupt bookkeeping: a typed error, so release builds abort the
        // refinement instead of continuing on a broken table.
        if to >= self.k {
            return Err(PartitionError::internal(format!(
                "net {n} cannot move a pin to part {to}: K is {}",
                self.k
            )));
        }
        let Some(i) = self.find(n, from) else {
            return Err(PartitionError::internal(format!(
                "net {n} has no pins in part {from} to move to part {to}"
            )));
        };
        self.counts[i] -= 1;
        if self.counts[i] == 0 {
            // Mirror the oracle's `swap_remove`: the last entry fills the gap.
            let last = self.row(n).end - 1;
            self.parts[i] = self.parts[last];
            self.counts[i] = self.counts[last];
            self.len[n] -= 1;
        }
        self.add_pin(n, to);
        Ok(())
    }
}

/// The original scan-based table: one `Vec<(part, count)>` per net,
/// linearly searched. Kept as the reference oracle for the
/// `proptest_connectivity` equivalence harness and as the baseline the
/// `phase_kernels` refine microbench measures [`NetConnectivity`] against.
pub struct NaiveConnectivity {
    /// Per-net rows of (part, pin count) pairs with nonzero count.
    pub table: Vec<Vec<(u32, u64)>>,
}

impl NaiveConnectivity {
    /// Builds the table for `partition` over `hg`'s nets.
    pub fn build<I: IndexType>(hg: &Hypergraph<I>, partition: &Partition) -> Self {
        let mut table: Vec<Vec<(u32, u64)>> = vec![Vec::new(); hg.num_nets().index()];
        for (n, row) in table.iter_mut().enumerate() {
            for &p in hg.pins(I::from_index(n)) {
                let part = partition.part_at(p.index());
                match row.iter_mut().find(|(q, _)| *q == part) {
                    Some((_, c)) => *c += 1,
                    None => row.push((part, 1)),
                }
            }
        }
        NaiveConnectivity { table }
    }

    /// Pin count of `part` on net `net` (0 when absent).
    // lint: checked-index — net < num_nets is the caller contract
    pub fn count<I: IndexType>(&self, net: I, part: u32) -> u64 {
        self.table[net.index()]
            .iter()
            .find(|(q, _)| *q == part)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Connectivity λ of `net`.
    // lint: checked-index — net < num_nets is the caller contract
    pub fn lambda<I: IndexType>(&self, net: I) -> usize {
        self.table[net.index()].len()
    }

    /// Visits every (part, count) pair of `net` in row order.
    // lint: checked-index — net < num_nets is the caller contract
    pub fn for_each_part<I: IndexType>(&self, net: I, mut visit: impl FnMut(u32, u64)) {
        for &(p, c) in &self.table[net.index()] {
            visit(p, c);
        }
    }

    /// Moves one pin of `net` from part `from` to part `to`.
    // lint: checked-index — net < num_nets is the caller contract; i is a position returned over the same row
    pub fn move_pin<I: IndexType>(
        &mut self,
        net: I,
        from: u32,
        to: u32,
    ) -> Result<(), PartitionError> {
        let row = &mut self.table[net.index()];
        let Some(i) = row.iter().position(|(q, _)| *q == from) else {
            return Err(PartitionError::internal(format!(
                "net {net} has no pins in part {from} to move to part {to}"
            )));
        };
        row[i].1 -= 1;
        if row[i].1 == 0 {
            row.swap_remove(i);
        }
        match row.iter_mut().find(|(q, _)| *q == to) {
            Some((_, c)) => *c += 1,
            None => row.push((to, 1)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_of(t: &NetConnectivity, net: u32) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        t.for_each_part(net, |p, c| out.push((p, c)));
        out
    }

    #[test]
    fn inline_bookkeeping_matches_oracle() {
        let hg = Hypergraph::from_nets(4u32, &[vec![0, 1, 2, 3]]).unwrap();
        let p = Partition::new(2, vec![0, 0, 1, 1]).unwrap();
        let mut t = NetConnectivity::build(&hg, &p);
        assert_eq!(t.lambda(0u32), 2);
        assert_eq!(t.count(0u32, 0), 2);
        t.move_pin(0u32, 0, 1).unwrap();
        assert_eq!(t.count(0u32, 0), 1);
        assert_eq!(t.count(0u32, 1), 3);
        t.move_pin(0u32, 0, 1).unwrap();
        assert_eq!(t.lambda(0u32), 1);
        // Moving from a part with no pins is the typed internal error.
        assert!(t.move_pin(0u32, 0, 1).is_err());
    }

    #[test]
    fn spill_transition_preserves_row_order_and_counts() {
        // One 8-pin net across 8 parts fills its row to its room.
        let pins: Vec<u32> = (0..8).collect();
        let hg = Hypergraph::from_nets(8u32, &[pins]).unwrap();
        let p = Partition::new(8, (0..8).collect()).unwrap();
        let t = NetConnectivity::build(&hg, &p);
        let o = NaiveConnectivity::build(&hg, &p);
        assert_eq!(t.lambda(0u32), 8);
        assert_eq!(order_of(&t, 0), o.table[0]);
    }

    #[test]
    fn spilled_moves_track_the_oracle_exactly() {
        let pins: Vec<u32> = (0..16).collect();
        let hg = Hypergraph::from_nets(16u32, &[pins]).unwrap();
        let parts: Vec<u32> = (0..16).map(|v| v % 8).collect();
        let p = Partition::new(8, parts).unwrap();
        let mut t = NetConnectivity::build(&hg, &p);
        let mut o = NaiveConnectivity::build(&hg, &p);
        // A deterministic pseudo-random move sequence, including emptying
        // parts (exercises swap_remove order maintenance on both sides).
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let from = ((x >> 33) % 8) as u32;
            let to = ((x >> 17) % 8) as u32;
            if from == to || t.count(0u32, from) == 0 {
                continue;
            }
            t.move_pin(0u32, from, to).unwrap();
            o.move_pin(0u32, from, to).unwrap();
            assert_eq!(order_of(&t, 0), o.table[0], "row order diverged");
            assert_eq!(t.lambda(0u32), o.lambda(0u32));
        }
    }

    #[test]
    fn full_neighbour_rows_track_the_oracle_and_reject_parts_past_k() {
        // Nets 0 and 1 share vertices 4..8 and sit side by side in the
        // flat arrays; at K = 8 each starts with all 8 parts, a full row.
        let k = 8u32;
        let nets = [(0..8).collect::<Vec<u32>>(), (4..12).collect()];
        let hg = Hypergraph::from_nets(12u32, &nets).unwrap();
        let start: Vec<u32> = (0..12).map(|v| v % k).collect();
        let mut parts = start.clone();
        let p = Partition::new(k, parts.clone()).unwrap();
        let mut t = NetConnectivity::build(&hg, &p);
        let mut o = NaiveConnectivity::build(&hg, &p);
        let mut move_vertex = |t: &mut NetConnectivity, parts: &mut [u32], v: u32, to: u32| {
            let from = parts[v as usize];
            for &n in hg.nets(v) {
                t.move_pin(n, from, to).unwrap();
                o.move_pin(n, from, to).unwrap();
            }
            parts[v as usize] = to;
            for n in 0..2u32 {
                assert_eq!(order_of(t, n), o.table[n as usize], "net {n} diverged");
            }
        };
        let mut x = 0x2545f4914f6cdd1du64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((x >> 33) % 12) as u32;
            let to = ((x >> 17) % 8) as u32;
            if parts[v as usize] != to {
                move_vertex(&mut t, &mut parts, v, to);
            }
        }
        // Walk every vertex home so both rows are full again.
        for v in 0..12u32 {
            if parts[v as usize] != start[v as usize] {
                move_vertex(&mut t, &mut parts, v, start[v as usize]);
            }
        }
        assert_eq!((t.lambda(0u32), t.lambda(1u32)), (8, 8));
        // A part past K would land in the neighbouring row; the move is
        // rejected before anything changes.
        let before = (order_of(&t, 0), order_of(&t, 1));
        for n in 0..2u32 {
            let from = order_of(&t, n)[0].0;
            assert!(t.move_pin(n, from, k).is_err());
            assert_eq!((order_of(&t, 0), order_of(&t, 1)), before);
        }
    }
}
