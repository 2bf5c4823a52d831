//! K-way vertex partitions and balance queries.

use fgh_invariant::{invariant, InvariantViolation};
use fgh_sparse::IndexType;

use crate::{Hypergraph, HypergraphError, Result};

/// A K-way partition `Π = {P_1, ..., P_K}` of a hypergraph's vertex set,
/// stored as a per-vertex part id in `0..k`.
///
/// Part ids stay `u32` regardless of the hypergraph's index width — K is
/// a processor count, never anywhere near `u32::MAX`. Only vertex *indices*
/// widen, and those are plain `usize` positions into the part vector here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    k: u32,
    parts: Vec<u32>,
}

impl Partition {
    /// Creates a partition from a per-vertex part vector, validating that
    /// every id is `< k`.
    pub fn new(k: u32, parts: Vec<u32>) -> Result<Self> {
        if k == 0 {
            return Err(HypergraphError::InvalidK);
        }
        for (v, &p) in parts.iter().enumerate() {
            if p >= k {
                return Err(HypergraphError::PartOutOfBounds {
                    vertex: v as u64,
                    part: p,
                    k,
                });
            }
        }
        Ok(Partition { k, parts })
    }

    /// The trivial 1-way partition of `n` vertices.
    pub fn trivial(n: u32) -> Self {
        Self::trivial_n(n as usize)
    }

    /// The trivial 1-way partition of `n` vertices, sized by `usize` —
    /// the entry point for index widths whose vertex counts exceed `u32`.
    pub fn trivial_n(n: usize) -> Self {
        Partition {
            k: 1,
            parts: vec![0; n],
        }
    }

    /// Number of parts K.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// `true` when the partition covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Part id of vertex `v`.
    pub fn part(&self, v: u32) -> u32 {
        self.parts[v as usize]
    }

    /// Part id of vertex `v`, addressed by `usize` position — the accessor
    /// for index widths whose vertex ids exceed `u32`.
    pub fn part_at(&self, v: usize) -> u32 {
        self.parts[v]
    }

    /// The raw per-vertex part vector.
    pub fn parts(&self) -> &[u32] {
        &self.parts
    }

    /// Mutable access for refinement algorithms.
    pub fn parts_mut(&mut self) -> &mut [u32] {
        &mut self.parts
    }

    /// Reassigns vertex `v` to `part`.
    pub fn assign(&mut self, v: u32, part: u32) {
        debug_assert!(part < self.k);
        self.parts[v as usize] = part;
    }

    /// Reassigns vertex `v` (a `usize` position) to `part` — the mutator
    /// counterpart of [`Partition::part_at`] for wide index types.
    pub fn assign_at(&mut self, v: usize, part: u32) {
        debug_assert!(part < self.k);
        self.parts[v] = part;
    }

    /// Part weights `W_k = Σ_{v in P_k} w_v` under the hypergraph's vertex
    /// weights.
    pub fn part_weights<I: IndexType>(&self, hg: &Hypergraph<I>) -> Vec<u64> {
        assert_eq!(self.parts.len(), hg.num_vertices().index());
        let mut w = vec![0u64; self.k as usize];
        for (v, &p) in self.parts.iter().enumerate() {
            w[p as usize] += hg.vertex_weights()[v] as u64;
        }
        w
    }

    /// Per-part vertex counts (regardless of weight).
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k as usize];
        for &p in &self.parts {
            s[p as usize] += 1;
        }
        s
    }

    /// Percent load imbalance of the part weights (see
    /// [`imbalance_percent`]).
    pub fn imbalance_percent<I: IndexType>(&self, hg: &Hypergraph<I>) -> f64 {
        imbalance_percent(self.part_weights(hg), self.k as usize)
    }

    /// Checks the balance criterion (eq. 1): every part weight is at most
    /// `W_avg · (1 + epsilon)`.
    pub fn is_balanced<I: IndexType>(&self, hg: &Hypergraph<I>, epsilon: f64) -> bool {
        let w = self.part_weights(hg);
        let total: u64 = w.iter().sum();
        let cap = (total as f64 / self.k as f64) * (1.0 + epsilon);
        w.iter().all(|&x| x as f64 <= cap + 1e-9)
    }

    /// Validates the partition against a hypergraph: length matches and,
    /// when `require_nonempty`, every part has at least one vertex.
    pub fn validate<I: IndexType>(&self, hg: &Hypergraph<I>, require_nonempty: bool) -> Result<()> {
        if self.parts.len() != hg.num_vertices().index() {
            return Err(HypergraphError::PartitionLengthMismatch {
                expected: hg.num_vertices().index(),
                got: self.parts.len(),
            });
        }
        if require_nonempty {
            let sizes = self.part_sizes();
            if let Some(p) = sizes.iter().position(|&s| s == 0) {
                return Err(HypergraphError::EmptyPart { part: p as u32 }); // lint: checked-cast — p < k, a u32
            }
        }
        Ok(())
    }

    /// Structural audit against `hg`, returning the shared
    /// [`InvariantViolation`] type: K is nonzero, the part vector covers
    /// exactly the vertex set, and every part id is in `0..k`.
    /// [`Partition::new`] enforces the id range, but refinement algorithms
    /// mutate the vector through [`Partition::parts_mut`], so this re-checks
    /// it from scratch.
    pub fn validate_invariants<I: IndexType>(
        &self,
        hg: &Hypergraph<I>,
    ) -> std::result::Result<(), InvariantViolation> {
        const S: &str = "Partition";
        invariant!(self.k > 0, S, "k.nonzero", "partition has k = 0 parts");
        invariant!(
            self.parts.len() == hg.num_vertices().index(),
            S,
            "parts.len",
            "part vector covers {} vertices, hypergraph has {}",
            self.parts.len(),
            hg.num_vertices()
        );
        for (v, &p) in self.parts.iter().enumerate() {
            invariant!(
                p < self.k,
                S,
                "parts.in_range",
                "vertex {v} assigned part {p} >= k = {}",
                self.k
            );
        }
        Ok(())
    }
}

/// Percent load imbalance `100 · (W_max − W_avg) / W_avg` of `k` part
/// loads, the measure the paper reports (kept below 3% in all its
/// experiments); `0` when every load is zero. The workspace's one copy of
/// the formula: hypergraph, graph and decomposition balance all use it.
pub fn imbalance_percent(loads: impl IntoIterator<Item = u64>, k: usize) -> f64 {
    let (total, max) = loads
        .into_iter()
        .fold((0u64, 0u64), |(t, m), l| (t + l, m.max(l)));
    if total == 0 {
        return 0.0;
    }
    let avg = total as f64 / k as f64;
    100.0 * (max as f64 - avg) / avg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hg() -> Hypergraph {
        Hypergraph::from_nets_weighted(4, &[vec![0, 1], vec![2, 3]], vec![1, 2, 3, 4], vec![1, 1])
            .unwrap()
    }

    #[test]
    fn part_weights_and_imbalance() {
        let p = Partition::new(2, vec![0, 0, 1, 1]).unwrap();
        let w = p.part_weights(&hg());
        assert_eq!(w, vec![3, 7]);
        // avg = 5, max = 7 -> 40% imbalance.
        assert!((p.imbalance_percent(&hg()) - 40.0).abs() < 1e-9);
        assert!(!p.is_balanced(&hg(), 0.3));
        assert!(p.is_balanced(&hg(), 0.4));
    }

    #[test]
    fn perfect_balance() {
        let p = Partition::new(2, vec![0, 1, 1, 0]).unwrap();
        let w = p.part_weights(&hg());
        assert_eq!(w, vec![5, 5]);
        assert_eq!(p.imbalance_percent(&hg()), 0.0);
        assert!(p.is_balanced(&hg(), 0.0));
    }

    #[test]
    fn invalid_part_rejected() {
        assert!(matches!(
            Partition::new(2, vec![0, 2]).unwrap_err(),
            HypergraphError::PartOutOfBounds { part: 2, .. }
        ));
        assert!(matches!(
            Partition::new(0, vec![]).unwrap_err(),
            HypergraphError::InvalidK
        ));
    }

    #[test]
    fn validate_checks_length_and_empty_parts() {
        let p = Partition::new(2, vec![0, 0, 0, 0]).unwrap();
        assert!(matches!(
            p.validate(&hg(), true).unwrap_err(),
            HypergraphError::EmptyPart { part: 1 }
        ));
        assert!(p.validate(&hg(), false).is_ok());
        let short = Partition::new(2, vec![0, 1]).unwrap();
        assert!(matches!(
            short.validate(&hg(), false).unwrap_err(),
            HypergraphError::PartitionLengthMismatch { .. }
        ));
    }

    #[test]
    fn trivial_partition() {
        let p = Partition::trivial(4);
        assert_eq!(p.k(), 1);
        assert_eq!(p.imbalance_percent(&hg()), 0.0);
        assert_eq!(Partition::trivial_n(4), p);
    }

    #[test]
    fn balance_queries_work_at_u64_width() {
        let hg64 = Hypergraph::<u64>::from_nets_weighted(
            4,
            &[vec![0, 1], vec![2, 3]],
            vec![1, 2, 3, 4],
            vec![1, 1],
        )
        .unwrap();
        let p = Partition::new(2, vec![0, 1, 1, 0]).unwrap();
        assert_eq!(p.part_weights(&hg64), vec![5, 5]);
        assert!(p.validate(&hg64, true).is_ok());
        assert!(p.validate_invariants(&hg64).is_ok());
    }

    #[test]
    fn assign_moves_vertex() {
        let mut p = Partition::new(2, vec![0, 0, 1, 1]).unwrap();
        p.assign(0, 1);
        assert_eq!(p.part(0), 1);
        assert_eq!(p.part_sizes(), vec![1, 3]);
    }
}
