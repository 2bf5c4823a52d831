//! Hybrid per-net part-count tracking for K-way refinement.
//!
//! Every K-way gain computation asks the same two questions per net: "how
//! many pins does net `n` have in part `p`?" and "which parts does `n`
//! touch?" (its connectivity set Λ). The naive answer — one heap-allocated
//! `Vec<(part, count)>` per net, linearly scanned — is what the engine
//! shipped with ([`NaiveConnectivity`], kept as the test oracle and bench
//! baseline). It is cache-hostile twice over: every net lookup chases a
//! separate allocation, and high-λ nets pay O(λ) per query.
//!
//! [`NetConnectivity`] replaces it with a hybrid λ-structure:
//!
//! * **Inline path** — almost all nets of a fine-grain hypergraph touch at
//!   most a handful of parts (λ ≤ 2 for anything produced by recursive
//!   bisection; the K-way sweep only nudges that). Each net owns a fixed
//!   [`INLINE_LAMBDA`]-entry slot in two flat parallel arrays (`parts`,
//!   `counts`), so a lookup is a bounded scan of one cache line with no
//!   pointer chase and no allocation.
//! * **Spill path** — a net whose λ outgrows the inline slot moves to a
//!   [`SpillRow`]: dense per-part counts (O(1) lookup), a presence bitset
//!   (one-load membership tests for the common `count(n, q) == 0` probe),
//!   and the explicit `order`/`pos` pair that preserves the naive row
//!   order exactly.
//!
//! The structure is *behavior-identical* to the naive oracle, including
//! the order in which [`NetConnectivity::for_each_part`] visits parts
//! (first-seen insertion order with `swap_remove` compaction). K-way
//! refinement breaks gain ties by candidate order, so preserving that
//! order is what keeps the rewritten kernel bit-for-bit compatible with
//! recorded partitions — see `crates/core/tests/golden_cutsize.rs` and
//! the `proptest_connectivity` equivalence harness.

use fgh_hypergraph::{Hypergraph, Partition};
use fgh_sparse::IndexType;

use crate::error::PartitionError;

/// Inline capacity: (part, count) entries a net can hold before spilling.
///
/// Four entries keep the hot arrays at 16 B of part ids and 32 B of counts
/// per net while covering every net recursive bisection can produce (λ ≤ 2)
/// plus the first couple of K-way perturbations.
pub const INLINE_LAMBDA: usize = 4;

/// `len` sentinel marking a spilled net; `parts[net][0]` then holds the
/// spill-row index instead of a part id.
const SPILLED: u8 = u8::MAX;

/// Absent marker for [`SpillRow::pos`].
const NO_POS: u32 = u32::MAX;

/// Dense representation for a high-λ net.
struct SpillRow {
    /// Per-part pin counts, indexed by part id.
    counts: Vec<u64>,
    /// Presence bitset: bit `p` set ⇔ `counts[p] > 0`. Lets `count` and
    /// membership probes answer "absent" from a single word load without
    /// touching the (much larger) counts array.
    present: Vec<u64>,
    /// Parts with nonzero count, in the naive oracle's row order
    /// (first-seen insertion order, `swap_remove` on emptying).
    order: Vec<u32>,
    /// part id → index into `order`, [`NO_POS`] when absent.
    pos: Vec<u32>,
}

impl SpillRow {
    fn new(k: u32) -> Self {
        let k = k as usize;
        SpillRow {
            counts: vec![0; k],
            present: vec![0; k.div_ceil(64)],
            order: Vec::new(),
            pos: vec![NO_POS; k],
        }
    }

    // lint: checked-index — part < k is the Partition contract; counts/pos have length k and present has k.div_ceil(64) words
    fn add(&mut self, part: u32, n: u64) {
        let p = part as usize;
        if self.counts[p] == 0 {
            self.present[p / 64] |= 1u64 << (p % 64);
            // lint: checked-cast — order holds distinct parts, at most k, which is u32
            self.pos[p] = self.order.len() as u32;
            self.order.push(part);
        }
        self.counts[p] += n;
    }

    // lint: checked-index — part < k is the Partition contract (see `add`)
    fn count(&self, part: u32) -> u64 {
        let p = part as usize;
        if self.present[p / 64] & (1u64 << (p % 64)) == 0 {
            return 0;
        }
        self.counts[p]
    }

    /// Removes one pin of `part`, replicating the oracle's `swap_remove`
    /// compaction of the order list when the count reaches zero.
    // lint: checked-index — part bounds per `add`; `pos` entries index `order` by construction
    fn remove_one(&mut self, part: u32) -> bool {
        let p = part as usize;
        if self.present[p / 64] & (1u64 << (p % 64)) == 0 {
            return false;
        }
        self.counts[p] -= 1;
        if self.counts[p] == 0 {
            self.present[p / 64] &= !(1u64 << (p % 64));
            let i = self.pos[p] as usize;
            self.order.swap_remove(i);
            if let Some(&moved) = self.order.get(i) {
                // lint: checked-cast — i < order.len() <= k, which is u32
                self.pos[moved as usize] = i as u32;
            }
            self.pos[p] = NO_POS;
        }
        true
    }
}

/// Hybrid per-net (part, pin-count) table. See the module docs for the
/// layout; behaviorally identical to [`NaiveConnectivity`].
pub struct NetConnectivity {
    k: u32,
    /// Inline part ids per net; for spilled nets slot 0 is the spill index.
    parts: Vec<[u32; INLINE_LAMBDA]>,
    /// Inline pin counts per net (unused for spilled nets).
    counts: Vec<[u64; INLINE_LAMBDA]>,
    /// Inline entry count, or [`SPILLED`].
    len: Vec<u8>,
    spill: Vec<SpillRow>,
}

impl NetConnectivity {
    /// Builds the table for `partition` over `hg`'s nets.
    pub fn build<I: IndexType>(hg: &Hypergraph<I>, partition: &Partition) -> Self {
        let nn = hg.num_nets().index();
        let mut t = NetConnectivity {
            k: partition.k(),
            parts: vec![[0; INLINE_LAMBDA]; nn],
            counts: vec![[0; INLINE_LAMBDA]; nn],
            len: vec![0; nn],
            spill: Vec::new(),
        };
        for n in 0..nn {
            for &p in hg.pins(I::from_index(n)) {
                t.add_pin(n, partition.part_at(p.index()));
            }
        }
        t
    }

    /// Adds one pin of `part` to net `n`, spilling on inline overflow.
    // lint: checked-index — n < num_nets for every caller; inline slots are < INLINE_LAMBDA; spill ids index self.spill by construction
    fn add_pin(&mut self, n: usize, part: u32) {
        let len = self.len[n];
        if len == SPILLED {
            let s = self.parts[n][0] as usize;
            self.spill[s].add(part, 1);
            return;
        }
        let row = &mut self.parts[n];
        for (i, &p) in row.iter().enumerate().take(len as usize) {
            if p == part {
                self.counts[n][i] += 1;
                return;
            }
        }
        if (len as usize) < INLINE_LAMBDA {
            row[len as usize] = part;
            self.counts[n][len as usize] = 1;
            self.len[n] = len + 1;
            return;
        }
        // Inline slot full: migrate to a spill row, preserving order.
        let mut s = SpillRow::new(self.k);
        for i in 0..INLINE_LAMBDA {
            s.add(self.parts[n][i], self.counts[n][i]);
        }
        s.add(part, 1);
        // lint: checked-cast — one spill row per net at most; net count is u32
        self.parts[n][0] = self.spill.len() as u32;
        self.len[n] = SPILLED;
        self.spill.push(s);
    }

    /// Pin count of `part` on net `net` (0 when absent).
    // lint: checked-index — net < num_nets is the caller contract; spill ids index self.spill by construction
    pub fn count<I: IndexType>(&self, net: I, part: u32) -> u64 {
        let n = net.index();
        let len = self.len[n];
        if len == SPILLED {
            return self.spill[self.parts[n][0] as usize].count(part);
        }
        for i in 0..len as usize {
            if self.parts[n][i] == part {
                return self.counts[n][i];
            }
        }
        0
    }

    /// Connectivity λ of `net` (number of parts with ≥ 1 pin).
    // lint: checked-index — net < num_nets is the caller contract; spill ids index self.spill by construction
    pub fn lambda<I: IndexType>(&self, net: I) -> usize {
        let n = net.index();
        let len = self.len[n];
        if len == SPILLED {
            return self.spill[self.parts[n][0] as usize].order.len();
        }
        len as usize
    }

    /// Visits every (part, count) pair of `net` in row order — the same
    /// order the naive oracle's row would be iterated in.
    // lint: checked-index — net < num_nets is the caller contract; spill order entries are parts with counts maintained by add/remove_one
    pub fn for_each_part<I: IndexType>(&self, net: I, mut visit: impl FnMut(u32, u64)) {
        let n = net.index();
        let len = self.len[n];
        if len == SPILLED {
            let s = &self.spill[self.parts[n][0] as usize];
            for &p in &s.order {
                visit(p, s.counts[p as usize]);
            }
            return;
        }
        for i in 0..len as usize {
            visit(self.parts[n][i], self.counts[n][i]);
        }
    }

    /// Moves one pin of `net` from part `from` to part `to`.
    // lint: checked-index — net < num_nets is the caller contract; inline compaction indices are < len ≤ INLINE_LAMBDA
    pub fn move_pin<I: IndexType>(
        &mut self,
        net: I,
        from: u32,
        to: u32,
    ) -> Result<(), PartitionError> {
        let n = net.index();
        let corrupt = || {
            // Corrupt bookkeeping: a typed error, so release builds abort
            // the refinement instead of continuing on a broken table.
            PartitionError::internal(format!(
                "net {n} has no pins in part {from} to move to part {to}"
            ))
        };
        if self.len[n] == SPILLED {
            let s = self.parts[n][0] as usize;
            if !self.spill[s].remove_one(from) {
                return Err(corrupt());
            }
            self.spill[s].add(to, 1);
            return Ok(());
        }
        let len = self.len[n] as usize;
        let Some(i) = (0..len).find(|&i| self.parts[n][i] == from) else {
            return Err(corrupt());
        };
        self.counts[n][i] -= 1;
        if self.counts[n][i] == 0 {
            // Mirror the oracle's `swap_remove`: last entry fills the gap.
            self.parts[n][i] = self.parts[n][len - 1];
            self.counts[n][i] = self.counts[n][len - 1];
            self.len[n] = (len - 1) as u8; // lint: checked-cast — len <= INLINE_LAMBDA (4)
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
        // One 8-pin net across 8 parts forces λ past INLINE_LAMBDA.
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
    fn inline_never_allocates_spill_rows_for_low_lambda() {
        let hg = Hypergraph::from_nets(6u32, &[vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let p = Partition::new(4, vec![0, 1, 2, 3, 3, 3]).unwrap();
        let t = NetConnectivity::build(&hg, &p);
        assert!(t.spill.is_empty());
        assert_eq!(t.lambda(0u32), 3);
        assert_eq!(t.lambda(1u32), 1);
    }
}
