//! The SpGEMM hypergraph model: the paper's one-vertex-per-nonzero idea
//! carried from SpMV to `C = A · B`, following Ballard et al.,
//! *Hypergraph Partitioning for Sparse Matrix-Matrix Multiplication*
//! (arXiv 1603.05627).
//!
//! The elementary work is the scalar multiply task `c_ij += a_ik * b_kj`,
//! one per flop. The model merges the tasks that read one used nonzero
//! `a_ik` — a contiguous range of the canonical task order — into one
//! **vertex**, weighted by its task count so vertex balance stays flop
//! balance. Ballard et al. derive their coarser SpGEMM models the same
//! way, by merging fine-grain task vertices; this grouping has one vertex
//! per used nonzero of `A`, as the paper has one per nonzero for SpMV.
//! Three net families model the data movements of a distributed SpGEMM:
//!
//! * a **B net** per *used* nonzero `b_kj` (column `k` of `A` nonempty),
//!   pinning the groups of the tasks that read it — the *expand* of `B`.
//!   Every group reading row `k` of `B` reads all of it, so the nets of
//!   one row have one pin set and are stored as one net whose cost is
//!   the row's length (per chunk, when the row's groups are split);
//! * a **C net** per structural nonzero `c_ij` of the symbolic product,
//!   pinning the groups of the tasks that produce a partial for it — the
//!   *fold* of `C`;
//! * an **A net** only for a group heavier than four times the mean
//!   group weight: such a group (a dense row of `B` meeting `a_ik`) is
//!   cut into contiguous chunks of near-equal weight, each its own
//!   vertex, and the A net ties the chunks back together — the *expand*
//!   of `A`. Every other `a_ik` lives in one vertex and never moves.
//!
//! The pins of a B or C net are distinct groups by construction: the
//! readers of one `b_kj` differ in `i`, the producers of one `c_ij` in
//! `k`, and either way in the `A` nonzero they read.
//!
//! Decoding gives every task its group's part and assigns each data
//! element to the part of its **first consumer** (`A`, `B`) or **first
//! producer** (`C`) in canonical task order. That owner is by
//! construction in the net's connectivity set Λ, so each net contributes
//! exactly its cost times `λ − 1` words, and an unsplit `a_ik` none,
//! which is its true expand cost. The connectivity−1 cutsize (the paper's eq. 3 applied to
//! this hypergraph) therefore **equals** the total SpGEMM communication
//! volume — the same exactness property the SpMV fine-grain model has,
//! verified here by [`SpgemmCommStats`] and end-to-end by the
//! `fgh-traffic` storage simulator.
//!
//! Everything is keyed to one **canonical task order**: rows of `A` in
//! CSR order, nonzeros `a_ik` within the row in CSR order, and for each
//! the nonzeros of row `k` of `B` in CSR order. [`SpgemmStructure`] is
//! that enumeration reified once, with one index listing every element's
//! tasks, and shared by the model, the exact statistics, and the traffic
//! simulator, so the three can never drift.

use fgh_hypergraph::{Hypergraph, Partition};
use fgh_sparse::{CsrMatrix, IndexType};

use crate::metrics::{charge_phase, loads, CommSummary, ElementIndex, Flow, ProcStats};
use crate::{ModelError, Result};

/// The canonical task enumeration of `C = A · B`: the used elements of
/// `A` and `B`, the structural nonzeros of `C` (row-major, columns sorted
/// per row), the elements every multiply task reads and writes, and the
/// one element index that lists each element's tasks. Task `t` of used
/// `A` element `e` (`a_starts[e] <= t < a_starts[e + 1]`) is
/// `c_ij += a_ik * b_kj` with `(i, k) = a_elems[e]`, `(k, j) =
/// b_elems[task_b[t]]` and `(i, j) = c_elems[task_c[t]]`.
#[derive(Debug, Clone)]
pub struct SpgemmStructure<I: IndexType = u32> {
    /// `(i, k)` of every used `A` nonzero, in `A` CSR order.
    pub a_elems: Vec<(I, I)>,
    /// Tasks of used `A` element `e` are `a_starts[e]..a_starts[e+1]`
    /// (contiguous by construction).
    pub a_starts: Vec<usize>,
    /// `(k, j)` of every used `B` nonzero, in `B` CSR order.
    pub b_elems: Vec<(I, I)>,
    /// `(i, j)` of every structural nonzero of `C`, row-major with
    /// columns ascending within a row.
    pub c_elems: Vec<(I, I)>,
    /// Used-`B`-element id of every task.
    pub task_b: Vec<usize>,
    /// `C`-element id of every task.
    pub task_c: Vec<usize>,
    /// The tasks of every used `B` element.
    b_tasks: ElementIndex,
    /// The tasks of every `C` element.
    c_tasks: ElementIndex,
}

impl<I: IndexType> SpgemmStructure<I> {
    /// Enumerates the canonical structure. The only shape requirement is
    /// the inner dimension: `A` is `m × p`, `B` is `p × n`.
    pub fn build(a: &CsrMatrix<I>, b: &CsrMatrix<I>) -> Result<Self> {
        if a.ncols() != b.nrows() {
            return Err(ModelError::Invalid(format!(
                "SpGEMM inner dimensions disagree: A is {} x {}, B is {} x {}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            )));
        }
        let p = a.ncols().index();
        let nb = b.ncols().index();

        // Used B nonzeros: b_kj participates iff column k of A is
        // nonempty. Precompute the per-position net id in one pass.
        let mut a_col_used = vec![false; p];
        for &k in a.col_idx() {
            a_col_used[k.index()] = true;
        }
        let mut b_elem_of_pos = vec![usize::MAX; b.nnz()];
        let mut b_elems = Vec::new();
        {
            let mut pos = 0usize;
            for (k, &used) in a_col_used.iter().enumerate() {
                let kk = I::from_index(k);
                for &j in b.row_cols(kk) {
                    if used {
                        b_elem_of_pos[pos] = b_elems.len();
                        b_elems.push((kk, j));
                    }
                    pos += 1;
                }
            }
        }

        let mut a_elems = Vec::new();
        let mut a_starts = vec![0usize];
        let mut task_b = Vec::new();
        let mut task_c = Vec::new();
        let mut c_elems: Vec<(I, I)> = Vec::new();

        // Per-row symbolic marker: c_mark[j] holds this row's C-element id
        // for column j once seen (offset by +1; 0 means unseen this row).
        let mut c_mark = vec![0usize; nb];
        let mut c_mark_row = vec![usize::MAX; nb];

        let m = a.nrows().index();
        for iu in 0..m {
            let i = I::from_index(iu);
            // First sweep: the row's structural C columns, sorted, so C
            // elements get row-major ids independent of task order.
            let row_c_base = c_elems.len();
            {
                let mut row_cols: Vec<I> = Vec::new();
                for &k in a.row_cols(i) {
                    for &j in b.row_cols(k) {
                        if c_mark_row[j.index()] != iu {
                            c_mark_row[j.index()] = iu;
                            row_cols.push(j);
                        }
                    }
                }
                row_cols.sort_unstable();
                for (off, &j) in row_cols.iter().enumerate() {
                    c_mark[j.index()] = row_c_base + off + 1;
                    c_elems.push((i, j));
                }
            }
            // Second sweep: the tasks themselves, in canonical order.
            for &k in a.row_cols(i) {
                if b.row_nnz(k) == 0 {
                    continue; // a_ik produces no tasks: not a used element
                }
                let b_base = b.row_ptr()[k.index()];
                for (boff, &j) in b.row_cols(k).iter().enumerate() {
                    task_b.push(b_elem_of_pos[b_base + boff]);
                    task_c.push(c_mark[j.index()] - 1);
                }
                a_elems.push((i, k));
                a_starts.push(task_b.len());
            }
        }

        let b_tasks = ElementIndex::group(b_elems.len(), task_b.iter().copied());
        let c_tasks = ElementIndex::group(c_elems.len(), task_c.iter().copied());
        Ok(SpgemmStructure {
            a_elems,
            a_starts,
            b_elems,
            c_elems,
            task_b,
            task_c,
            b_tasks,
            c_tasks,
        })
    }

    /// Number of multiply tasks (= flops of the numeric product).
    pub fn num_tasks(&self) -> usize {
        self.a_starts.last().copied().unwrap_or(0)
    }

    /// The tasks reading used `B` element `e`, ascending: never empty,
    /// since a used `b_kj` meets every nonzero of column `k` of `A`.
    pub fn b_tasks(&self, e: usize) -> &[usize] {
        self.b_tasks.members(e)
    }

    /// The tasks producing into `C` element `e`, ascending: never empty.
    pub fn c_tasks(&self, e: usize) -> &[usize] {
        self.c_tasks.members(e)
    }
}

/// Counts the multiply tasks of `C = A · B` without materializing the
/// structure — the width-selection probe for the workload API (a `u32`
/// carrier must upgrade before the task count or net count overflows).
pub fn spgemm_flops<I: IndexType>(a: &CsrMatrix<I>, b: &CsrMatrix<I>) -> u64 {
    let mut flops = 0u64;
    for &k in a.col_idx() {
        flops = flops.saturating_add(b.row_nnz(k) as u64);
    }
    flops
}

/// A task group may weigh at most this many times the mean group weight
/// (`⌈flops / used A nonzeros⌉`) before it is split into chunks. The cap
/// is independent of K, so the model is too; it keeps a dense row of `B`
/// from becoming a vertex heavier than a part.
const GROUP_CAP_FACTOR: usize = 4;

/// The SpGEMM hypergraph of a conformable pair `(A, B)`: one vertex per
/// used `A` nonzero's tasks (see the module docs).
///
/// Vertex `v` is the task range `vertex_starts[v]..vertex_starts[v+1]` of
/// the canonical order: a used `A` nonzero's whole range, or one chunk of
/// it when the group is split. Net numbering: the A nets of split groups
/// first (in `A` CSR order), then the B nets in `B` CSR order, then a C
/// net per structural nonzero of the product (row-major). The used
/// `b_kj` of one chunk of row `k` (the whole row unless its groups are
/// split) share one B net whose cost is their count: they are read by
/// the same vertices, so their `λ − 1` words are equal.
#[derive(Debug, Clone)]
pub struct SpgemmModel<I: IndexType = u32> {
    hypergraph: Hypergraph<I>,
    structure: SpgemmStructure<I>,
    vertex_starts: Vec<usize>,
}

impl<I: IndexType> SpgemmModel<I> {
    /// Builds the model from a conformable pair.
    ///
    /// ```
    /// use fgh_core::models::SpgemmModel;
    /// use fgh_sparse::{CooMatrix, CsrMatrix};
    /// let a: CsrMatrix = CsrMatrix::from_coo(CooMatrix::from_triplets(
    ///     2, 2, vec![(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)]).unwrap());
    /// let m = SpgemmModel::build(&a, &a).unwrap();
    /// // Tasks: (0,0,0), (1,0,0), (1,1,0), (1,1,1) — 4 flops in the
    /// // groups of a_00, a_10 and a_11.
    /// assert_eq!(m.structure().num_tasks(), 4);
    /// assert_eq!(m.hypergraph().num_vertices(), 3);
    /// assert_eq!(m.hypergraph().vertex_weights(), &[1, 1, 2]);
    /// // No group is split, so no A nets. B nets: row 0 of B (read by
    /// // a_00 and a_10) and row 1 (2 elements, read by a_11), then the
    /// // 3 structural nonzeros of C.
    /// assert_eq!(m.hypergraph().num_nets(), 5);
    /// assert_eq!(m.hypergraph().net_costs(), &[1, 2, 1, 1, 1]);
    /// // Every group pins one B net, and one C net per task.
    /// assert_eq!(m.hypergraph().num_pins(), 3 + 4);
    /// ```
    pub fn build(a: &CsrMatrix<I>, b: &CsrMatrix<I>) -> Result<Self> {
        let s = SpgemmStructure::build(a, b)?;
        let cap = (GROUP_CAP_FACTOR * s.num_tasks().div_ceil(s.a_elems.len().max(1)))
            .clamp(1, u32::MAX as usize);
        // Vertices: each group, or its near-equal contiguous chunks when
        // it is heavier than `cap`, tied together by an A net.
        let mut vertex_starts = vec![0usize];
        let mut weights: Vec<u32> = Vec::with_capacity(s.a_elems.len());
        let mut pin_ptr = vec![0usize];
        let mut pins: Vec<I> = Vec::new();
        for e in 0..s.a_elems.len() {
            let (lo, hi) = (s.a_starts[e], s.a_starts[e + 1]);
            let chunks = (hi - lo).div_ceil(cap);
            let first = weights.len();
            for c in 1..=chunks {
                let end = lo + (hi - lo) * c / chunks;
                let start = vertex_starts[vertex_starts.len() - 1];
                weights.push((end - start) as u32); // lint: checked-cast — a chunk holds at most cap <= u32::MAX tasks
                vertex_starts.push(end);
            }
            if chunks > 1 {
                pins.extend((first..weights.len()).map(I::from_index));
                pin_ptr.push(pins.len());
            }
        }
        // B nets. The groups reading row k of B read all of it and are cut
        // at the same offsets, so the used b_kj of one chunk of row k are
        // read by the same vertices: one net per chunk, costing its
        // length, prices each b_kj at λ − 1 as a net of its own would.
        let mut chunk_len = vec![0u32; s.b_elems.len()];
        for (v, &w) in weights.iter().enumerate() {
            chunk_len[s.task_b[vertex_starts[v]]] = w;
        }
        let a_nets = pin_ptr.len() - 1;
        let mut costs = vec![1u32; a_nets];
        let mut b_net = vec![usize::MAX; s.b_elems.len()];
        for (b, &len) in chunk_len.iter().enumerate().filter(|&(_, &len)| len > 0) {
            b_net[b] = costs.len();
            costs.push(len);
        }
        let c_base = costs.len();
        costs.resize(c_base + s.c_elems.len(), 1);
        // Count each net's pins, then fill them in vertex order, so every
        // net's pins come out ascending.
        let nets_of = |v: usize| {
            let (lo, hi) = (vertex_starts[v], vertex_starts[v + 1]);
            std::iter::once(b_net[s.task_b[lo]]).chain((lo..hi).map(|t| c_base + s.task_c[t]))
        };
        let mut fill = vec![0usize; costs.len()];
        for v in 0..weights.len() {
            nets_of(v).for_each(|net| fill[net] += 1);
        }
        let mut end = pins.len();
        for slot in &mut fill[a_nets..] {
            let count = *slot;
            *slot = end;
            end += count;
            pin_ptr.push(end);
        }
        pins.resize(end, I::ZERO);
        for v in 0..weights.len() {
            for net in nets_of(v) {
                pins[fill[net]] = I::from_index(v);
                fill[net] += 1;
            }
        }
        let hypergraph = Hypergraph::from_flat_nets(
            I::from_index(weights.len()),
            pin_ptr,
            pins,
            weights,
            costs,
        )?;
        Ok(SpgemmModel {
            hypergraph,
            structure: s,
            vertex_starts,
        })
    }

    /// The underlying hypergraph (|V| = task groups, weighing the flops;
    /// |N| = split groups + row chunks of used B + nnz(C)).
    pub fn hypergraph(&self) -> &Hypergraph<I> {
        &self.hypergraph
    }

    /// The canonical enumeration this model was built over.
    pub fn structure(&self) -> &SpgemmStructure<I> {
        &self.structure
    }

    /// `(i, k)` position in `A` of the nonzero that task group `v` reads:
    /// the row of `C` and the row of `B` the group's flops touch.
    pub fn coords(&self, v: usize) -> (I, I) {
        let s = &self.structure;
        // The group whose task range holds the vertex's first task.
        let e = s.a_starts.partition_point(|&t| t <= self.vertex_starts[v]) - 1;
        s.a_elems[e]
    }

    /// Decodes a partition of the task-group hypergraph into a
    /// [`SpgemmDecomposition`]: every task of group `v` goes to `part[v]`,
    /// and every data element to the part of its first consumer or
    /// producer in canonical task order (guaranteed to be in its net's
    /// connectivity set, which makes the connectivity−1 cutsize exactly
    /// the communication volume).
    pub fn decode(&self, partition: &Partition) -> Result<SpgemmDecomposition> {
        let s = &self.structure;
        let groups = self.vertex_starts.len() - 1;
        if partition.len() != groups {
            return Err(ModelError::Invalid(format!(
                "partition covers {} vertices, model has {groups} task groups",
                partition.len()
            )));
        }
        let mut task_owner = vec![0u32; s.num_tasks()];
        for (v, &part) in partition.parts().iter().enumerate() {
            task_owner[self.vertex_starts[v]..self.vertex_starts[v + 1]].fill(part);
        }
        // First consumer/producer in canonical task order: the head of
        // each element's ascending task list.
        let a_owner = (0..s.a_elems.len())
            .map(|e| task_owner[s.a_starts[e]])
            .collect();
        let b_owner = (0..s.b_elems.len())
            .map(|e| task_owner[s.b_tasks(e)[0]])
            .collect();
        let c_owner = (0..s.c_elems.len())
            .map(|e| task_owner[s.c_tasks(e)[0]])
            .collect();
        Ok(SpgemmDecomposition {
            k: partition.k(),
            task_owner,
            a_owner,
            b_owner,
            c_owner,
        })
    }
}

/// A decoded SpGEMM decomposition: the owner of every multiply task (in
/// canonical order — see [`SpgemmStructure`]), of every used `A` / `B`
/// nonzero, and of every structural nonzero of `C`. Self-describing
/// given `(A, B)`: the coordinate lists are re-derivable from the
/// canonical enumeration, so consumers (the traffic simulator, the serve
/// daemon) carry only the owner arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpgemmDecomposition {
    /// Number of parts K.
    pub k: u32,
    /// Part of every task, canonical order.
    pub task_owner: Vec<u32>,
    /// Part of every used `A` nonzero (holds it in memory; sends it to
    /// every other part with a task reading it).
    pub a_owner: Vec<u32>,
    /// Part of every used `B` nonzero.
    pub b_owner: Vec<u32>,
    /// Part of every structural `C` nonzero (receives the partial sums
    /// and stores the final value).
    pub c_owner: Vec<u32>,
}

impl SpgemmDecomposition {
    /// Checks this decomposition against the canonical structure of
    /// `(A, B)`: array lengths match the enumeration and every owner is a
    /// valid part id.
    pub fn validate<I: IndexType>(&self, a: &CsrMatrix<I>, b: &CsrMatrix<I>) -> Result<()> {
        let s = SpgemmStructure::build(a, b)?;
        self.validate_against(&s)
    }

    /// [`SpgemmDecomposition::validate`] against an already-built
    /// structure.
    pub fn validate_against<I: IndexType>(&self, s: &SpgemmStructure<I>) -> Result<()> {
        if self.k == 0 {
            return Err(ModelError::Invalid("decomposition has K = 0".into()));
        }
        for (name, got, want) in [
            ("task_owner", self.task_owner.len(), s.num_tasks()),
            ("a_owner", self.a_owner.len(), s.a_elems.len()),
            ("b_owner", self.b_owner.len(), s.b_elems.len()),
            ("c_owner", self.c_owner.len(), s.c_elems.len()),
        ] {
            if got != want {
                return Err(ModelError::Invalid(format!(
                    "{name} covers {got} elements, structure has {want}"
                )));
            }
        }
        for arr in [
            &self.task_owner,
            &self.a_owner,
            &self.b_owner,
            &self.c_owner,
        ] {
            if let Some(&bad) = arr.iter().find(|&&o| o >= self.k) {
                return Err(ModelError::Invalid(format!(
                    "owner {bad} out of range for K = {}",
                    self.k
                )));
            }
        }
        Ok(())
    }

    /// Multiply tasks per part — the balance constraint (flop loads).
    pub fn loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.k as usize];
        for &p in &self.task_owner {
            loads[p as usize] += 1;
        }
        loads
    }
}

/// Exact communication requirements of one distributed `C = A · B` under
/// a decomposition — the SpGEMM analogue of [`crate::CommStats`],
/// computed by replaying the canonical enumeration rather than from any
/// model's objective, so it is the same ground truth for every
/// decomposition however produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SpgemmCommStats {
    /// Number of parts K.
    pub k: u32,
    /// Words of `A` moved in the expand phase (each used `a_ik` travels
    /// to every non-owner part with a task reading it).
    pub a_expand_volume: u64,
    /// Words of `B` moved in the expand phase.
    pub b_expand_volume: u64,
    /// Partial-result words of `C` moved in the fold phase.
    pub fold_volume: u64,
    /// Messages in the `A` expand phase (distinct sender→receiver pairs).
    pub a_expand_messages: u64,
    /// Messages in the `B` expand phase.
    pub b_expand_messages: u64,
    /// Messages in the fold phase.
    pub fold_messages: u64,
    /// Per-part breakdown (words, messages, flop load).
    pub per_proc: Vec<ProcStats>,
}

impl SpgemmCommStats {
    /// Computes the exact statistics of decomposition `d` for the product
    /// `A · B`.
    pub fn compute<I: IndexType>(
        a: &CsrMatrix<I>,
        b: &CsrMatrix<I>,
        d: &SpgemmDecomposition,
    ) -> Result<Self> {
        let s = SpgemmStructure::build(a, b)?;
        Self::compute_with(&s, d)
    }

    /// [`SpgemmCommStats::compute`] against an already-built structure.
    pub fn compute_with<I: IndexType>(
        s: &SpgemmStructure<I>,
        d: &SpgemmDecomposition,
    ) -> Result<Self> {
        d.validate_against(s)?;
        let mut per_proc = loads(d.k, &d.task_owner);
        let [a_expand_volume, a_expand_messages] =
            charge_phase(&mut per_proc, Flow::Expand, &d.a_owner, |e| {
                d.task_owner[s.a_starts[e]..s.a_starts[e + 1]]
                    .iter()
                    .copied()
            });
        let [b_expand_volume, b_expand_messages] =
            charge_phase(&mut per_proc, Flow::Expand, &d.b_owner, |e| {
                s.b_tasks(e).iter().map(|&t| d.task_owner[t])
            });
        let [fold_volume, fold_messages] =
            charge_phase(&mut per_proc, Flow::Fold, &d.c_owner, |e| {
                s.c_tasks(e).iter().map(|&t| d.task_owner[t])
            });
        Ok(SpgemmCommStats {
            k: d.k,
            a_expand_volume,
            b_expand_volume,
            fold_volume,
            a_expand_messages,
            b_expand_messages,
            fold_messages,
            per_proc,
        })
    }

    /// Total expand volume (`A` + `B` words).
    pub fn expand_volume(&self) -> u64 {
        self.a_expand_volume + self.b_expand_volume
    }

    /// Total expand messages (`A` + `B` phases).
    pub fn expand_messages(&self) -> u64 {
        self.a_expand_messages + self.b_expand_messages
    }

    /// Total communication volume in words (expand + fold) — the
    /// quantity the model's cutsize predicts exactly.
    pub fn total_volume(&self) -> u64 {
        CommSummary::total_volume(self)
    }

    /// Total messages across all three phases.
    pub fn total_messages(&self) -> u64 {
        CommSummary::total_messages(self)
    }

    /// Maximum messages sent by a single part.
    pub fn max_messages_per_proc(&self) -> u64 {
        CommSummary::max_messages_per_proc(self)
    }

    /// Maximum words sent + received by a single part.
    pub fn max_sent_recv_words(&self) -> u64 {
        CommSummary::max_sent_recv_words(self)
    }

    /// Percent flop imbalance (same formula as the SpMV statistics).
    pub fn load_imbalance_percent(&self) -> f64 {
        CommSummary::load_imbalance_percent(self)
    }
}

impl CommSummary for SpgemmCommStats {
    fn per_proc(&self) -> &[ProcStats] {
        &self.per_proc
    }

    fn volumes(&self) -> [u64; 2] {
        [self.expand_volume(), self.fold_volume]
    }

    fn messages(&self) -> [u64; 2] {
        [self.expand_messages(), self.fold_messages]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_hypergraph::cutsize_connectivity;
    use fgh_sparse::CooMatrix;

    fn mat(nrows: u32, ncols: u32, t: Vec<(u32, u32, f64)>) -> CsrMatrix {
        CsrMatrix::from_coo(CooMatrix::from_triplets(nrows, ncols, t).unwrap())
    }

    /// `(i, k, j)` of every task in canonical order, read off its `A`
    /// group and its `B` element; checks that its `C` element is `(i, j)`.
    fn tasks<I: IndexType>(s: &SpgemmStructure<I>) -> Vec<(I, I, I)> {
        let mut out = Vec::new();
        for (e, &(i, k)) in s.a_elems.iter().enumerate() {
            for t in s.a_starts[e]..s.a_starts[e + 1] {
                let (bk, j) = s.b_elems[s.task_b[t]];
                assert_eq!(bk, k, "task {t} reads row {k} of B");
                assert_eq!(s.c_elems[s.task_c[t]], (i, j), "task {t} writes c_ij");
                out.push((i, k, j));
            }
        }
        assert_eq!(out.len(), s.num_tasks());
        out
    }

    fn sample_a() -> CsrMatrix {
        mat(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 4.0),
            ],
        )
    }

    fn sample_b() -> CsrMatrix {
        mat(
            3,
            2,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0), (2, 0, 5.0)],
        )
    }

    #[test]
    fn structure_enumerates_canonically() {
        let (a, b) = (sample_a(), sample_b());
        let s = SpgemmStructure::build(&a, &b).unwrap();
        // Row 0: a_00 -> (0,0,0),(0,0,1); a_02 -> (0,2,0).
        // Row 1: a_11 -> (1,1,1). Row 2: a_20 -> (2,0,0),(2,0,1); a_22 -> (2,2,0).
        assert_eq!(
            tasks(&s),
            vec![
                (0, 0, 0),
                (0, 0, 1),
                (0, 2, 0),
                (1, 1, 1),
                (2, 0, 0),
                (2, 0, 1),
                (2, 2, 0)
            ]
        );
        assert_eq!(s.a_elems, vec![(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]);
        assert_eq!(s.a_starts, vec![0, 2, 3, 4, 6, 7]);
        // All B rows are reachable (columns 0,1,2 of A are nonempty).
        assert_eq!(s.b_elems, vec![(0, 0), (0, 1), (1, 1), (2, 0)]);
        // C structural: row 0 -> (0,0),(0,1); row 1 -> (1,1); row 2 -> (2,0),(2,1).
        assert_eq!(s.c_elems, vec![(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)]);
        assert_eq!(s.num_tasks() as u64, spgemm_flops(&a, &b));
        // The element index: each B and C element's tasks, ascending.
        let b_tasks: Vec<&[usize]> = (0..4).map(|e| s.b_tasks(e)).collect();
        assert_eq!(b_tasks, [&[0, 4][..], &[1, 5], &[3], &[2, 6]]);
        let c_tasks: Vec<&[usize]> = (0..5).map(|e| s.c_tasks(e)).collect();
        assert_eq!(c_tasks, [&[0, 2][..], &[1], &[3], &[4, 6], &[5]]);
    }

    #[test]
    fn unused_elements_get_no_nets() {
        // B row 1 empty -> a_11 unused; A column 2 empty -> b_2* unused.
        let a = mat(2, 3, vec![(0, 0, 1.0), (1, 1, 1.0)]);
        let b = mat(3, 2, vec![(0, 0, 1.0), (2, 1, 1.0)]);
        let s = SpgemmStructure::build(&a, &b).unwrap();
        assert_eq!(tasks(&s), vec![(0, 0, 0)]);
        assert_eq!(s.a_elems, vec![(0, 0)]);
        assert_eq!(s.b_elems, vec![(0, 0)]);
        assert_eq!(s.c_elems, vec![(0, 0)]);
        let m = SpgemmModel::build(&a, &b).unwrap();
        assert_eq!(m.hypergraph().num_vertices(), 1);
        assert_eq!(m.hypergraph().num_nets(), 2);
        assert_eq!(m.hypergraph().num_pins(), 2);
    }

    #[test]
    fn inner_dimension_mismatch_rejected() {
        let a = mat(2, 3, vec![(0, 0, 1.0)]);
        let b = mat(2, 2, vec![(0, 0, 1.0)]);
        assert!(matches!(
            SpgemmStructure::build(&a, &b),
            Err(ModelError::Invalid(_))
        ));
    }

    #[test]
    fn groups_weigh_their_tasks_and_pin_one_c_net_per_task() {
        let (a, b) = (sample_a(), sample_b());
        let m = SpgemmModel::build(&a, &b).unwrap();
        let (hg, s) = (m.hypergraph(), m.structure());
        hg.validate_invariants().unwrap();
        // One vertex per used A nonzero, none split: no A nets.
        assert_eq!(hg.num_vertices() as usize, s.a_elems.len());
        assert_eq!(hg.total_vertex_weight(), s.num_tasks() as u64);
        // B rows 0, 1 and 2 are one net each, costing their lengths.
        assert_eq!(&hg.net_costs()[..3], &[2, 1, 1]);
        assert_eq!(hg.num_nets() as usize, 3 + s.c_elems.len());
        for v in 0..hg.num_vertices() {
            let tasks = (s.a_starts[v as usize + 1] - s.a_starts[v as usize]) as u32;
            assert_eq!(hg.vertex_weight(v), tasks, "group {v}");
            assert_eq!(hg.vertex_degree(v), 1 + tasks as usize, "group {v}");
            assert_eq!(m.coords(v as usize), s.a_elems[v as usize]);
        }
    }

    #[test]
    fn heavy_group_is_split_and_tied_by_an_a_net() {
        // Row 0 of B is dense (12 entries) and meets a_00 alone; the other
        // groups read one entry each. flops = 12 + 11 over 12 groups, so
        // the cap is 4 * 2 = 8 and a_00's group splits into chunks of 6.
        let n = 12;
        let a = mat(n, n, (0..n).map(|i| (i, i, 1.0)).collect());
        let mut bt: Vec<(u32, u32, f64)> = (0..n).map(|j| (0, j, 1.0)).collect();
        bt.extend((1..n).map(|i| (i, i, 1.0)));
        let b = mat(n, n, bt);
        let m = SpgemmModel::build(&a, &b).unwrap();
        let hg = m.hypergraph();
        hg.validate_invariants().unwrap();
        assert_eq!(hg.num_vertices(), 13);
        assert_eq!(&hg.vertex_weights()[..3], &[6, 6, 1]);
        assert_eq!(hg.pins(0), &[0, 1], "the A net of a_00");
        // Row 0 of B: one B net per chunk.
        assert_eq!(hg.pins(1), &[0]);
        assert_eq!(hg.pins(2), &[1]);
        assert_eq!(&hg.net_costs()[..3], &[1, 6, 6]);
        assert_eq!(m.coords(1), (0, 0));
        // Splitting the chunks costs one A word, and the decode agrees.
        let p = Partition::new(2, (0..13).map(|v| u32::from(v == 1)).collect()).unwrap();
        let d = m.decode(&p).unwrap();
        let stats = SpgemmCommStats::compute(&a, &b, &d).unwrap();
        assert_eq!(stats.a_expand_volume, 1);
        assert_eq!(cutsize_connectivity(hg, &p), stats.total_volume());
    }

    #[test]
    fn cutsize_equals_replayed_volume() {
        // The exactness property: with first-pin owner decode, the
        // connectivity-1 cutsize is the replayed communication volume.
        let (a, b) = (sample_a(), sample_b());
        let m = SpgemmModel::build(&a, &b).unwrap();
        let nv = m.hypergraph().num_vertices() as usize;
        for k in [1u32, 2, 3] {
            for salt in 0..4u32 {
                let parts: Vec<u32> = (0..nv as u32).map(|t| (t * 7 + salt) % k).collect();
                let p = Partition::new(k, parts).unwrap();
                let d = m.decode(&p).unwrap();
                let stats = SpgemmCommStats::compute(&a, &b, &d).unwrap();
                assert_eq!(
                    cutsize_connectivity(m.hypergraph(), &p),
                    stats.total_volume(),
                    "k={k} salt={salt}"
                );
            }
        }
    }

    #[test]
    fn one_part_costs_nothing() {
        let (a, b) = (sample_a(), sample_b());
        let m = SpgemmModel::build(&a, &b).unwrap();
        let p = Partition::trivial(m.hypergraph().num_vertices());
        let d = m.decode(&p).unwrap();
        let stats = SpgemmCommStats::compute(&a, &b, &d).unwrap();
        assert_eq!(stats.total_volume(), 0);
        assert_eq!(stats.total_messages(), 0);
        assert_eq!(d.loads(), vec![m.structure().num_tasks() as u64]);
    }

    #[test]
    fn owners_are_first_consumers() {
        let (a, b) = (sample_a(), sample_b());
        let m = SpgemmModel::build(&a, &b).unwrap();
        let nv = m.hypergraph().num_vertices() as usize;
        let parts: Vec<u32> = (0..nv as u32).map(|t| t % 2).collect();
        let p = Partition::new(2, parts).unwrap();
        let d = m.decode(&p).unwrap();
        let s = m.structure();
        // a_00 is consumed first by task 0 (part 0); c_(0,1) first by task 1.
        assert_eq!(d.a_owner[0], d.task_owner[s.a_starts[0]]);
        for (e, &o) in d.c_owner.iter().enumerate() {
            let first = (0..s.num_tasks()).find(|&t| s.task_c[t] == e).unwrap();
            assert_eq!(o, d.task_owner[first], "c element {e}");
        }
    }

    #[test]
    fn validate_rejects_malformed() {
        let (a, b) = (sample_a(), sample_b());
        let m = SpgemmModel::build(&a, &b).unwrap();
        let p = Partition::trivial(m.hypergraph().num_vertices());
        let mut d = m.decode(&p).unwrap();
        d.validate(&a, &b).unwrap();
        d.task_owner.pop();
        assert!(d.validate(&a, &b).is_err());
        let mut d2 = m.decode(&p).unwrap();
        d2.a_owner[0] = 99;
        assert!(d2.validate(&a, &b).is_err());
    }

    #[test]
    fn wide_structure_matches_narrow() {
        let (a, b) = (sample_a(), sample_b());
        let a64: CsrMatrix<u64> = a.convert_width().unwrap();
        let b64: CsrMatrix<u64> = b.convert_width().unwrap();
        let s32 = SpgemmStructure::build(&a, &b).unwrap();
        let s64 = SpgemmStructure::build(&a64, &b64).unwrap();
        assert_eq!(s32.num_tasks(), s64.num_tasks());
        let widened: Vec<(u64, u64, u64)> = tasks(&s32)
            .iter()
            .map(|&(i, k, j)| (i as u64, k as u64, j as u64))
            .collect();
        assert_eq!(widened, tasks(&s64));
        assert_eq!(s32.task_b, s64.task_b);
        assert_eq!(s32.task_c, s64.task_c);
    }
}
