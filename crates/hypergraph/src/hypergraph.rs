//! The core [`Hypergraph`] type: dual-CSR pin/net storage, generic over
//! the index width.

use fgh_invariant::{invariant, InvariantViolation};
use fgh_sparse::IndexType;

use crate::{HypergraphError, Partition, Result};

/// An undirected hypergraph with weighted vertices and costed nets.
///
/// Storage is dual-CSR: `pins[pin_ptr[n] .. pin_ptr[n+1]]` lists the pins of
/// net `n`, and `vnets[vnet_ptr[v] .. vnet_ptr[v+1]]` lists the nets
/// containing vertex `v`. Vertex weights are `u32` (`0` is allowed — the
/// fine-grain model's dummy diagonal vertices carry zero weight); net costs
/// are `u32` (the paper uses unit costs).
///
/// The vertex/net id type `I` is [`u32`] by default (the fast path: half the
/// pin-array footprint and better cache behavior) and [`u64`] for
/// hypergraphs whose vertex, net, or pin counts overflow `u32` — the
/// fine-grain model reaches `2·nnz` pins, which crosses `u32::MAX` around
/// 2.1 billion nonzeros. `I::MAX` is reserved as a sentinel throughout, so
/// usable ids are `0 .. I::MAX` exclusive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph<I: IndexType = u32> {
    pub(crate) num_vertices: I,
    pub(crate) pin_ptr: Vec<usize>,
    pub(crate) pins: Vec<I>,
    pub(crate) vnet_ptr: Vec<usize>,
    pub(crate) vnets: Vec<I>,
    pub(crate) vertex_weights: Vec<u32>,
    pub(crate) net_costs: Vec<u32>,
}

impl<I: IndexType> Hypergraph<I> {
    /// Builds a hypergraph from per-net pin lists, unit weights and costs.
    ///
    /// ```
    /// use fgh_hypergraph::Hypergraph;
    /// let hg = Hypergraph::<u32>::from_nets(4, &[vec![0, 1, 2], vec![2, 3]]).unwrap();
    /// assert_eq!(hg.num_nets(), 2);
    /// assert_eq!(hg.pins(0), &[0, 1, 2]);
    /// assert_eq!(hg.nets(2), &[0, 1]); // vertex 2 pins both nets
    /// ```
    pub fn from_nets(num_vertices: I, nets: &[Vec<I>]) -> Result<Self> {
        let weights = vec![1u32; num_vertices.index()];
        let costs = vec![1u32; nets.len()];
        Self::from_nets_weighted(num_vertices, nets, weights, costs)
    }

    /// Builds a hypergraph from per-net pin lists with explicit vertex
    /// weights and net costs. Pins are validated (in bounds, no duplicates
    /// within a net) and stored sorted.
    pub fn from_nets_weighted(
        num_vertices: I,
        nets: &[Vec<I>],
        vertex_weights: Vec<u32>,
        net_costs: Vec<u32>,
    ) -> Result<Self> {
        if vertex_weights.len() != num_vertices.index() {
            return Err(HypergraphError::WeightLengthMismatch {
                expected: num_vertices.index(),
                got: vertex_weights.len(),
            });
        }
        if net_costs.len() != nets.len() {
            return Err(HypergraphError::CostLengthMismatch {
                expected: nets.len(),
                got: net_costs.len(),
            });
        }
        let total_pins: usize = nets.iter().map(|n| n.len()).sum();
        let mut pin_ptr = Vec::with_capacity(nets.len() + 1);
        let mut pins = Vec::with_capacity(total_pins);
        pin_ptr.push(0);
        for (ni, net) in nets.iter().enumerate() {
            let start = pins.len();
            pins.extend_from_slice(net);
            let slice = &mut pins[start..];
            slice.sort_unstable();
            for w in slice.windows(2) {
                if w[0] == w[1] {
                    return Err(HypergraphError::DuplicatePin {
                        net: ni as u64,
                        pin: w[0].as_u64(),
                    });
                }
            }
            if let Some(&last) = slice.last() {
                if last >= num_vertices {
                    return Err(HypergraphError::PinOutOfBounds {
                        net: ni as u64,
                        pin: last.as_u64(),
                        num_vertices: num_vertices.as_u64(),
                    });
                }
            }
            pin_ptr.push(pins.len());
        }

        // Invert to vertex -> nets.
        let (vnet_ptr, vnets) = invert_pins(num_vertices.index(), &pin_ptr, &pins);

        Ok(Hypergraph {
            num_vertices,
            pin_ptr,
            pins,
            vnet_ptr,
            vnets,
            vertex_weights,
            net_costs,
        })
    }

    /// Builds a hypergraph from an already-flat pin CSR: net `n` owns
    /// `pins[pin_ptr[n] .. pin_ptr[n + 1]]`. Pins must be sorted and
    /// duplicate-free within each net; this is the allocation-lean
    /// constructor contraction uses (no per-net `Vec`). The offsets,
    /// weight/cost vector lengths and pin bounds are validated.
    pub fn from_flat_nets(
        num_vertices: I,
        pin_ptr: Vec<usize>,
        pins: Vec<I>,
        vertex_weights: Vec<u32>,
        net_costs: Vec<u32>,
    ) -> Result<Self> {
        let malformed_at = if pin_ptr.first() != Some(&0) {
            Some(0)
        } else if let Some(n) = pin_ptr.windows(2).position(|w| w[1] < w[0]) {
            Some(n + 1)
        } else {
            (pin_ptr.last() != Some(&pins.len())).then(|| pin_ptr.len() - 1)
        };
        if let Some(at) = malformed_at {
            return Err(HypergraphError::MalformedPinPtr {
                at,
                pins: pins.len(),
            });
        }
        let num_nets = pin_ptr.len() - 1;
        if vertex_weights.len() != num_vertices.index() {
            return Err(HypergraphError::WeightLengthMismatch {
                expected: num_vertices.index(),
                got: vertex_weights.len(),
            });
        }
        if net_costs.len() != num_nets {
            return Err(HypergraphError::CostLengthMismatch {
                expected: num_nets,
                got: net_costs.len(),
            });
        }
        for n in 0..num_nets {
            let net = &pins[pin_ptr[n]..pin_ptr[n + 1]];
            for w in net.windows(2) {
                debug_assert!(w[0] < w[1], "net {n} pins must be sorted and unique");
            }
            if let Some(&last) = net.last() {
                if last >= num_vertices {
                    return Err(HypergraphError::PinOutOfBounds {
                        net: n as u64,
                        pin: last.as_u64(),
                        num_vertices: num_vertices.as_u64(),
                    });
                }
            }
        }

        // Invert to vertex -> nets.
        let (vnet_ptr, vnets) = invert_pins(num_vertices.index(), &pin_ptr, &pins);

        Ok(Hypergraph {
            num_vertices,
            pin_ptr,
            pins,
            vnet_ptr,
            vnets,
            vertex_weights,
            net_costs,
        })
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> I {
        self.num_vertices
    }

    /// Number of nets `|N|`.
    pub fn num_nets(&self) -> I {
        I::from_index(self.pin_ptr.len() - 1)
    }

    /// Total number of pins `Σ |pins[n]|`.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// The pins (vertices) of net `n`, sorted ascending.
    pub fn pins(&self, n: I) -> &[I] {
        &self.pins[self.pin_ptr[n.index()]..self.pin_ptr[n.index() + 1]]
    }

    /// The nets containing vertex `v`, sorted ascending.
    pub fn nets(&self, v: I) -> &[I] {
        &self.vnets[self.vnet_ptr[v.index()]..self.vnet_ptr[v.index() + 1]]
    }

    /// Size (pin count) of net `n`.
    pub fn net_size(&self, n: I) -> usize {
        self.pin_ptr[n.index() + 1] - self.pin_ptr[n.index()]
    }

    /// Degree (net count) of vertex `v`.
    pub fn vertex_degree(&self, v: I) -> usize {
        self.vnet_ptr[v.index() + 1] - self.vnet_ptr[v.index()]
    }

    /// Weight `w_v` of vertex `v`.
    pub fn vertex_weight(&self, v: I) -> u32 {
        self.vertex_weights[v.index()]
    }

    /// All vertex weights.
    pub fn vertex_weights(&self) -> &[u32] {
        &self.vertex_weights
    }

    /// Cost `c_n` of net `n`.
    pub fn net_cost(&self, n: I) -> u32 {
        self.net_costs[n.index()]
    }

    /// All net costs.
    pub fn net_costs(&self) -> &[u32] {
        &self.net_costs
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vertex_weights.iter().map(|&w| w as u64).sum()
    }

    /// Heap footprint of the dual-CSR storage in bytes (capacities, not
    /// lengths — what the allocator actually holds). This is the accounting
    /// primitive behind `Budget::max_bytes` in the partitioning engine.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pin_ptr.capacity() * size_of::<usize>()
            + self.pins.capacity() * size_of::<I>()
            + self.vnet_ptr.capacity() * size_of::<usize>()
            + self.vnets.capacity() * size_of::<I>()
            + self.vertex_weights.capacity() * size_of::<u32>()
            + self.net_costs.capacity() * size_of::<u32>()
    }

    /// Extracts the sub-hypergraph induced by the vertices of `part` under
    /// `partition`, applying **net splitting**: each net keeps only its pins
    /// inside the part, and nets left with fewer than 2 pins are dropped
    /// (they can never be cut again). Net costs are preserved.
    ///
    /// Returns the sub-hypergraph plus the mapping from new vertex ids to
    /// original ids.
    pub fn extract_part(&self, partition: &Partition, part: u32) -> (Hypergraph<I>, Vec<I>) {
        self.extract_part_mode(partition, part, true)
    }

    /// Like [`Hypergraph::extract_part`] but with net splitting optional.
    /// With `split_nets = false`, *cut* nets are dropped entirely instead
    /// of keeping their in-part pins — the classic cut-net-metric
    /// recursive bisection, kept for ablation studies (it under-counts the
    /// connectivity−1 objective and yields worse K-way volumes).
    // Infallible `expect` below: extraction renumbers pins into
    // `0..old_of_new.len()` with sorted, deduped nets — exactly what
    // `from_nets_weighted` validates.
    #[allow(clippy::expect_used)]
    pub fn extract_part_mode(
        &self,
        partition: &Partition,
        part: u32,
        split_nets: bool,
    ) -> (Hypergraph<I>, Vec<I>) {
        let parts = partition.parts();
        let mut old_of_new: Vec<I> = Vec::new();
        let mut new_of_old: Vec<I> = vec![I::MAX; self.num_vertices.index()];
        for v in 0..self.num_vertices.index() {
            if parts[v] == part {
                new_of_old[v] = I::from_index(old_of_new.len());
                old_of_new.push(I::from_index(v));
            }
        }
        let mut nets: Vec<Vec<I>> = Vec::new();
        let mut costs: Vec<u32> = Vec::new();
        for n in 0..self.pin_ptr.len() - 1 {
            let all_pins = &self.pins[self.pin_ptr[n]..self.pin_ptr[n + 1]];
            let mut kept: Vec<I> = all_pins
                .iter()
                .filter_map(|&p| {
                    let np = new_of_old[p.index()];
                    (np != I::MAX).then_some(np)
                })
                .collect();
            if !split_nets && kept.len() != all_pins.len() {
                continue; // cut net: dropped under the cut-net-metric mode
            }
            if kept.len() >= 2 {
                kept.sort_unstable();
                nets.push(kept);
                costs.push(self.net_costs[n]);
            }
        }
        let weights: Vec<u32> = old_of_new
            .iter()
            .map(|&v| self.vertex_weights[v.index()])
            .collect();
        let num_vertices = I::from_index(old_of_new.len());
        let hg = Hypergraph::from_nets_weighted(num_vertices, &nets, weights, costs)
            .expect("extraction preserves validity");
        (hg, old_of_new)
    }

    /// Checks internal invariants (used in tests and after coarsening).
    pub fn validate(&self) -> Result<()> {
        for n in 0..self.pin_ptr.len() - 1 {
            let pins = &self.pins[self.pin_ptr[n]..self.pin_ptr[n + 1]];
            for w in pins.windows(2) {
                if w[0] == w[1] {
                    return Err(HypergraphError::DuplicatePin {
                        net: n as u64,
                        pin: w[0].as_u64(),
                    });
                }
            }
            if let Some(&last) = pins.last() {
                if last >= self.num_vertices {
                    return Err(HypergraphError::PinOutOfBounds {
                        net: n as u64,
                        pin: last.as_u64(),
                        num_vertices: self.num_vertices.as_u64(),
                    });
                }
            }
        }
        // Dual consistency: v in pins[n] <=> n in nets[v].
        debug_assert_eq!(self.pins.len(), self.vnets.len());
        Ok(())
    }

    /// Exhaustive structural audit of the dual-CSR storage, returning a
    /// shared [`InvariantViolation`] rather than a crate-local error.
    ///
    /// Beyond what [`Hypergraph::validate`] checks (sorted unique in-bounds
    /// pins), this verifies both CSR pointer arrays, the weight/cost vector
    /// lengths, and full **dual consistency**: `v ∈ pins[n]` if and only if
    /// `n ∈ nets[v]`, with matching multiplicity. Runs in `O(|pins|)` plus
    /// binary searches; used by proptest harnesses and, behind the
    /// `paranoid` feature of `fgh-partition`, at multilevel checkpoints.
    pub fn validate_invariants(&self) -> std::result::Result<(), InvariantViolation> {
        const S: &str = "Hypergraph";
        invariant!(
            self.pin_ptr.first() == Some(&0),
            S,
            "pin_ptr.origin",
            "pin_ptr[0] = {:?}, expected 0",
            self.pin_ptr.first()
        );
        invariant!(
            self.pin_ptr.last() == Some(&self.pins.len()),
            S,
            "pin_ptr.end",
            "pin_ptr ends at {:?}, expected {} pins",
            self.pin_ptr.last(),
            self.pins.len()
        );
        invariant!(
            self.vnet_ptr.len() == self.num_vertices.index() + 1,
            S,
            "vnet_ptr.len",
            "vnet_ptr has {} entries for {} vertices",
            self.vnet_ptr.len(),
            self.num_vertices
        );
        invariant!(
            self.vnet_ptr.first() == Some(&0) && self.vnet_ptr.last() == Some(&self.vnets.len()),
            S,
            "vnet_ptr.span",
            "vnet_ptr spans {:?}..{:?}, expected 0..{}",
            self.vnet_ptr.first(),
            self.vnet_ptr.last(),
            self.vnets.len()
        );
        invariant!(
            self.pins.len() == self.vnets.len(),
            S,
            "dual.pin_count",
            "{} pins vs {} vertex-net incidences",
            self.pins.len(),
            self.vnets.len()
        );
        invariant!(
            self.vertex_weights.len() == self.num_vertices.index(),
            S,
            "weights.len",
            "{} weights for {} vertices",
            self.vertex_weights.len(),
            self.num_vertices
        );
        invariant!(
            self.net_costs.len() == self.pin_ptr.len() - 1,
            S,
            "costs.len",
            "{} costs for {} nets",
            self.net_costs.len(),
            self.pin_ptr.len() - 1
        );
        for w in self.pin_ptr.windows(2) {
            invariant!(
                w[0] <= w[1],
                S,
                "pin_ptr.monotone",
                "pin_ptr not monotone: {} > {}",
                w[0],
                w[1]
            );
        }
        for w in self.vnet_ptr.windows(2) {
            invariant!(
                w[0] <= w[1],
                S,
                "vnet_ptr.monotone",
                "vnet_ptr not monotone: {} > {}",
                w[0],
                w[1]
            );
        }
        // Forward direction: every pin list sorted, unique, in bounds, and
        // mirrored in the vertex's net list.
        for ni in 0..self.pin_ptr.len() - 1 {
            let n = I::from_index(ni);
            let pins = self.pins(n);
            for w in pins.windows(2) {
                invariant!(
                    w[0] < w[1],
                    S,
                    "pins.sorted_unique",
                    "net {ni} pins not sorted/unique: {} then {}",
                    w[0],
                    w[1]
                );
            }
            for &v in pins {
                invariant!(
                    v < self.num_vertices,
                    S,
                    "pins.in_bounds",
                    "net {ni} pin {v} >= |V| = {}",
                    self.num_vertices
                );
                invariant!(
                    self.nets(v).binary_search(&n).is_ok(),
                    S,
                    "dual.forward",
                    "v{v} ∈ pins[{ni}] but net {ni} ∉ nets[{v}]"
                );
            }
        }
        // Reverse direction: every vertex's net list sorted, unique, in
        // bounds, and mirrored in the net's pin list. Together with the
        // forward pass and the equal incidence counts this proves the two
        // CSRs are exact duals.
        for vi in 0..self.num_vertices.index() {
            let v = I::from_index(vi);
            let nets = self.nets(v);
            for w in nets.windows(2) {
                invariant!(
                    w[0] < w[1],
                    S,
                    "vnets.sorted_unique",
                    "vertex {vi} nets not sorted/unique: {} then {}",
                    w[0],
                    w[1]
                );
            }
            for &n in nets {
                invariant!(
                    n.index() < self.pin_ptr.len() - 1,
                    S,
                    "vnets.in_bounds",
                    "vertex {vi} lists net {n} >= |N| = {}",
                    self.pin_ptr.len() - 1
                );
                invariant!(
                    self.pins(n).binary_search(&v).is_ok(),
                    S,
                    "dual.reverse",
                    "n{n} ∈ nets[{vi}] but vertex {vi} ∉ pins[{n}]"
                );
            }
        }
        Ok(())
    }
}

/// Inverts a net→pin CSR into the dual vertex→net CSR (counting sort).
fn invert_pins<I: IndexType>(
    num_vertices: usize,
    pin_ptr: &[usize],
    pins: &[I],
) -> (Vec<usize>, Vec<I>) {
    let mut vnet_ptr = vec![0usize; num_vertices + 1];
    for &p in pins {
        vnet_ptr[p.index() + 1] += 1;
    }
    for i in 0..num_vertices {
        vnet_ptr[i + 1] += vnet_ptr[i];
    }
    let mut vnets = vec![I::ZERO; pins.len()];
    let mut next = vnet_ptr.clone();
    for n in 0..pin_ptr.len() - 1 {
        let net = I::from_index(n);
        for &p in &pins[pin_ptr[n]..pin_ptr[n + 1]] {
            vnets[next[p.index()]] = net;
            next[p.index()] += 1;
        }
    }
    (vnet_ptr, vnets)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure-1 example hypergraph: nets n_j = {v0, v1, v2} (column) and
    /// m_i = {v3, v4, v5, v0} (row) sharing vertex v0 = v_ij.
    fn figure1_like() -> Hypergraph {
        Hypergraph::from_nets(6, &[vec![0, 1, 2], vec![3, 4, 5, 0]]).unwrap()
    }

    #[test]
    fn construction_and_duals() {
        let hg = figure1_like();
        assert_eq!(hg.num_vertices(), 6);
        assert_eq!(hg.num_nets(), 2);
        assert_eq!(hg.num_pins(), 7);
        assert_eq!(hg.pins(0), &[0, 1, 2]);
        assert_eq!(hg.pins(1), &[0, 3, 4, 5]);
        assert_eq!(hg.nets(0), &[0, 1], "v0 is the shared pin");
        assert_eq!(hg.nets(4), &[1]);
        assert_eq!(hg.net_size(1), 4);
        assert_eq!(hg.vertex_degree(0), 2);
    }

    #[test]
    fn u64_width_construction_and_duals() {
        let hg = Hypergraph::<u64>::from_nets(6, &[vec![0, 1, 2], vec![3, 4, 5, 0]]).unwrap();
        assert_eq!(hg.num_vertices(), 6u64);
        assert_eq!(hg.num_nets(), 2u64);
        assert_eq!(hg.pins(0), &[0u64, 1, 2]);
        assert_eq!(hg.nets(0), &[0u64, 1]);
        assert!(hg.validate_invariants().is_ok());
        // Same structure at both widths, u64 costs twice the pin bytes.
        let hg32 = figure1_like();
        assert!(hg.heap_bytes() > hg32.heap_bytes());
    }

    #[test]
    fn duplicate_pin_rejected() {
        let err = Hypergraph::<u32>::from_nets(3, &[vec![0, 1, 1]]).unwrap_err();
        assert!(matches!(
            err,
            HypergraphError::DuplicatePin { net: 0, pin: 1 }
        ));
    }

    #[test]
    fn out_of_bounds_pin_rejected() {
        let err = Hypergraph::<u32>::from_nets(3, &[vec![0, 5]]).unwrap_err();
        assert!(matches!(
            err,
            HypergraphError::PinOutOfBounds { pin: 5, .. }
        ));
    }

    #[test]
    fn weights_and_costs() {
        let hg: Hypergraph =
            Hypergraph::from_nets_weighted(3, &[vec![0, 1], vec![1, 2]], vec![2, 0, 5], vec![3, 7])
                .unwrap();
        assert_eq!(hg.vertex_weight(1), 0);
        assert_eq!(hg.net_cost(1), 7);
        assert_eq!(hg.total_vertex_weight(), 7);
    }

    #[test]
    fn from_flat_nets_matches_from_nets() {
        let nested: Hypergraph = Hypergraph::from_nets_weighted(
            4,
            &[vec![0, 1, 2], vec![2, 3]],
            vec![1, 2, 3, 4],
            vec![5, 6],
        )
        .unwrap();
        let flat = Hypergraph::from_flat_nets(
            4,
            vec![0, 3, 5],
            vec![0, 1, 2, 2, 3],
            vec![1, 2, 3, 4],
            vec![5, 6],
        )
        .unwrap();
        assert_eq!(nested, flat);
        assert!(
            Hypergraph::<u32>::from_flat_nets(2, vec![0, 1], vec![5], vec![1, 1], vec![1]).is_err()
        );
        assert!(
            Hypergraph::<u32>::from_flat_nets(2, vec![0, 1], vec![0], vec![1], vec![1]).is_err()
        );
        assert!(
            Hypergraph::<u32>::from_flat_nets(2, vec![0, 1], vec![0], vec![1, 1], vec![]).is_err()
        );
    }

    #[test]
    fn from_flat_nets_rejects_malformed_pin_offsets() {
        let flat = |pin_ptr: Vec<usize>, pins: Vec<u32>| {
            let nets = pin_ptr.len().saturating_sub(1);
            Hypergraph::<u32>::from_flat_nets(2, pin_ptr, pins, vec![1, 1], vec![1; nets])
        };
        let malformed = |at, pins| Err(HypergraphError::MalformedPinPtr { at, pins });
        // No leading 0 entry at all, and one that is not 0.
        assert_eq!(flat(vec![], vec![]), malformed(0, 0));
        assert_eq!(flat(vec![1, 2], vec![0, 1]), malformed(0, 2));
        // Decreasing offsets.
        assert_eq!(flat(vec![0, 2, 1], vec![0, 1]), malformed(2, 2));
        // A pin past the last offset, and an offset past the last pin.
        assert_eq!(flat(vec![0, 1], vec![0, 7]), malformed(1, 2));
        assert_eq!(flat(vec![0, 3], vec![0, 1]), malformed(1, 2));
        assert!(flat(vec![0, 1, 2], vec![0, 1]).is_ok());
    }

    #[test]
    fn mismatched_weight_length_rejected() {
        let err = Hypergraph::<u32>::from_nets_weighted(3, &[vec![0, 1]], vec![1, 1], vec![1])
            .unwrap_err();
        assert_eq!(
            err,
            HypergraphError::WeightLengthMismatch {
                expected: 3,
                got: 2
            }
        );
        let err = Hypergraph::<u32>::from_nets_weighted(2, &[vec![0, 1]], vec![1, 1, 1], vec![1])
            .unwrap_err();
        assert_eq!(
            err,
            HypergraphError::WeightLengthMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn mismatched_cost_length_rejected() {
        let err = Hypergraph::<u32>::from_nets_weighted(2, &[vec![0, 1]], vec![1, 1], vec![1, 4])
            .unwrap_err();
        assert_eq!(
            err,
            HypergraphError::CostLengthMismatch {
                expected: 1,
                got: 2
            }
        );
        let err = Hypergraph::<u32>::from_nets_weighted(2, &[vec![0, 1]], vec![1, 1], vec![])
            .unwrap_err();
        assert_eq!(
            err,
            HypergraphError::CostLengthMismatch {
                expected: 1,
                got: 0
            }
        );
    }

    #[test]
    fn empty_net_allowed() {
        let hg: Hypergraph = Hypergraph::from_nets(2, &[vec![], vec![0, 1]]).unwrap();
        assert_eq!(hg.net_size(0), 0);
        assert_eq!(hg.num_pins(), 2);
    }

    #[test]
    fn extract_part_with_net_splitting() {
        // Vertices 0..6; nets: {0,1,2,3}, {2,3,4}, {4,5}.
        let hg: Hypergraph =
            Hypergraph::from_nets(6, &[vec![0, 1, 2, 3], vec![2, 3, 4], vec![4, 5]]).unwrap();
        // Partition: {0,1,2,3} in part 0, {4,5} in part 1.
        let p = Partition::new(2, vec![0, 0, 0, 0, 1, 1]).unwrap();
        let (sub0, map0) = hg.extract_part(&p, 0);
        assert_eq!(map0, vec![0, 1, 2, 3]);
        // Net 0 survives whole; net 1 splits to {2,3}; net 2 vanishes.
        assert_eq!(sub0.num_nets(), 2);
        assert_eq!(sub0.pins(0), &[0, 1, 2, 3]);
        assert_eq!(sub0.pins(1), &[2, 3]);
        let (sub1, map1) = hg.extract_part(&p, 1);
        assert_eq!(map1, vec![4, 5]);
        // Net 1 leaves a single pin (4) -> dropped; net 2 survives.
        assert_eq!(sub1.num_nets(), 1);
        assert_eq!(sub1.pins(0), &[0, 1]);
    }

    #[test]
    fn extract_preserves_weights_and_costs() {
        let hg: Hypergraph =
            Hypergraph::from_nets_weighted(4, &[vec![0, 1, 2, 3]], vec![1, 2, 3, 4], vec![9])
                .unwrap();
        let p = Partition::new(2, vec![0, 1, 1, 0]).unwrap();
        let (sub, map) = hg.extract_part(&p, 1);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.vertex_weights(), &[2, 3]);
        assert_eq!(sub.net_cost(0), 9);
    }

    #[test]
    fn validate_ok() {
        assert!(figure1_like().validate().is_ok());
    }

    #[test]
    fn extract_without_net_splitting_drops_cut_nets() {
        let hg: Hypergraph =
            Hypergraph::from_nets(6, &[vec![0, 1, 2, 3], vec![2, 3, 4], vec![4, 5]]).unwrap();
        let p = Partition::new(2, vec![0, 0, 0, 0, 1, 1]).unwrap();
        let (sub0, _) = hg.extract_part_mode(&p, 0, false);
        // Net 0 is internal (kept); net 1 is cut (dropped, unlike the
        // splitting mode which keeps {2,3}); net 2 has no pins here.
        assert_eq!(sub0.num_nets(), 1);
        assert_eq!(sub0.pins(0), &[0, 1, 2, 3]);
    }
}
