//! The fine-grain SpGEMM hypergraph model (ROADMAP item 2): the paper's
//! one-vertex-per-task idea extended from SpMV to `C = A · B`, following
//! Ballard et al., *Hypergraph Partitioning for Sparse Matrix-Matrix
//! Multiplication* (arXiv 1603.05627).
//!
//! Each scalar multiply task `c_ij += a_ik * b_kj` becomes a unit-weight
//! vertex, so vertex balance is exactly flop balance. Three net families
//! model the three data movements of a distributed SpGEMM:
//!
//! * an **A net** per *used* nonzero `a_ik` (one with at least one task,
//!   i.e. row `k` of `B` is nonempty), pinning the tasks that read it —
//!   the *expand* of `A`;
//! * a **B net** per used nonzero `b_kj` (column `k` of `A` nonempty),
//!   pinning the tasks that read it — the *expand* of `B`;
//! * a **C net** per structural nonzero `c_ij` of the symbolic product,
//!   pinning the tasks that produce a partial for it — the *fold* of `C`.
//!
//! Decoding assigns each data element to the part of its net's **first
//! pin**. That owner is by construction in the net's connectivity set Λ,
//! so each net contributes exactly `λ − 1` words and the connectivity−1
//! cutsize (the paper's eq. 3 applied to this hypergraph) **equals** the
//! total SpGEMM communication volume — the same exactness property the
//! SpMV fine-grain model has, verified here by [`SpgemmCommStats`] and
//! end-to-end by the `fgh-traffic` storage simulator.
//!
//! Everything is keyed to one **canonical task order**: rows of `A` in
//! CSR order, nonzeros `a_ik` within the row in CSR order, and for each
//! the nonzeros of row `k` of `B` in CSR order. [`SpgemmStructure`] is
//! that enumeration reified once and shared by the model, the exact
//! statistics, and the traffic simulator, so the three can never drift.

use fgh_hypergraph::{Hypergraph, HypergraphBuilder, Partition};
use fgh_sparse::{CsrMatrix, IndexType};

use crate::metrics::{CommSummary, ProcStats};
use crate::{ModelError, Result};

/// The canonical task enumeration of `C = A · B`: every multiply task
/// `(i, k, j)` in canonical order, the used elements of `A` and `B`, and
/// the structural nonzeros of `C` (row-major, columns sorted per row).
#[derive(Debug, Clone)]
pub struct SpgemmStructure<I: IndexType = u32> {
    /// `(i, k, j)` of every task, canonical order.
    pub tasks: Vec<(I, I, I)>,
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

        let mut tasks = Vec::new();
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
                    tasks.push((i, k, j));
                    task_b.push(b_elem_of_pos[b_base + boff]);
                    task_c.push(c_mark[j.index()] - 1);
                }
                a_elems.push((i, k));
                a_starts.push(tasks.len());
            }
        }

        Ok(SpgemmStructure {
            tasks,
            a_elems,
            a_starts,
            b_elems,
            c_elems,
            task_b,
            task_c,
        })
    }

    /// Number of multiply tasks (= flops of the numeric product).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
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

/// The fine-grain SpGEMM hypergraph of a conformable pair `(A, B)`.
///
/// Net numbering: A nets first (ids `0..a_elems.len()`, in `A` CSR order
/// over used elements), then B nets, then C nets (row-major order of the
/// symbolic product). Vertex `t` is task `t` of the canonical order.
#[derive(Debug, Clone)]
pub struct SpgemmModel<I: IndexType = u32> {
    hypergraph: Hypergraph<I>,
    structure: SpgemmStructure<I>,
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
    /// // Tasks: (0,0,0), (1,0,0), (1,1,0), (1,1,1) — 4 flops.
    /// assert_eq!(m.hypergraph().num_vertices(), 4);
    /// // 3 used A nets + 3 used B nets + 3 structural C nonzeros.
    /// assert_eq!(m.hypergraph().num_nets(), 9);
    /// // Every task pins exactly its A, B, and C nets.
    /// assert_eq!(m.hypergraph().num_pins(), 12);
    /// ```
    pub fn build(a: &CsrMatrix<I>, b: &CsrMatrix<I>) -> Result<Self> {
        let s = SpgemmStructure::build(a, b)?;
        let mut builder = HypergraphBuilder::<I>::new();
        for _ in 0..s.tasks.len() {
            builder.add_vertex(1);
        }
        let na = s.a_elems.len();
        let nb = s.b_elems.len();
        // A nets: the tasks of used element e are contiguous.
        for e in 0..na {
            let pins: Vec<I> = (s.a_starts[e]..s.a_starts[e + 1])
                .map(I::from_index)
                .collect();
            builder.add_net(pins);
        }
        // B and C nets: gather scattered pins (canonical task order is
        // preserved inside each net, so pin 0 is the first consumer).
        let mut b_pins: Vec<Vec<I>> = vec![Vec::new(); nb];
        let mut c_pins: Vec<Vec<I>> = vec![Vec::new(); s.c_elems.len()];
        for t in 0..s.tasks.len() {
            b_pins[s.task_b[t]].push(I::from_index(t));
            c_pins[s.task_c[t]].push(I::from_index(t));
        }
        for pins in b_pins {
            builder.add_net(pins);
        }
        for pins in c_pins {
            builder.add_net(pins);
        }
        let hypergraph = builder.build()?;
        Ok(SpgemmModel {
            hypergraph,
            structure: s,
        })
    }

    /// The underlying hypergraph (|V| = flops, |N| = used A + used B +
    /// nnz(C)).
    pub fn hypergraph(&self) -> &Hypergraph<I> {
        &self.hypergraph
    }

    /// The canonical enumeration this model was built over.
    pub fn structure(&self) -> &SpgemmStructure<I> {
        &self.structure
    }

    /// `(row, col)` position of task `t` in the (m × n) product — the
    /// geometric coordinates handed to the partitioner's geometric
    /// initial scheme.
    pub fn coords(&self, t: usize) -> (I, I) {
        let (i, _, j) = self.structure.tasks[t];
        (i, j)
    }

    /// Decodes a partition of the task hypergraph into a
    /// [`SpgemmDecomposition`]: task `t` goes to `part[t]`, and every
    /// data element to the part of its net's first pin (guaranteed to be
    /// in the net's connectivity set, which makes the connectivity−1
    /// cutsize exactly the communication volume).
    pub fn decode(&self, partition: &Partition) -> Result<SpgemmDecomposition> {
        let s = &self.structure;
        if partition.len() != s.tasks.len() {
            return Err(ModelError::Invalid(format!(
                "partition covers {} vertices, model has {} tasks",
                partition.len(),
                s.tasks.len()
            )));
        }
        let task_owner: Vec<u32> = partition.parts().to_vec();
        let a_owner: Vec<u32> = (0..s.a_elems.len())
            .map(|e| task_owner[s.a_starts[e]])
            .collect();
        // First consumer/producer in canonical task order.
        let mut b_owner = vec![u32::MAX; s.b_elems.len()];
        let mut c_owner = vec![u32::MAX; s.c_elems.len()];
        for (t, &owner) in task_owner.iter().enumerate() {
            let be = s.task_b[t];
            if b_owner[be] == u32::MAX {
                b_owner[be] = owner;
            }
            let ce = s.task_c[t];
            if c_owner[ce] == u32::MAX {
                c_owner[ce] = owner;
            }
        }
        debug_assert!(b_owner.iter().all(|&o| o != u32::MAX));
        debug_assert!(c_owner.iter().all(|&o| o != u32::MAX));
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
            ("task_owner", self.task_owner.len(), s.tasks.len()),
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
        let k = d.k as usize;
        let mut per_proc = vec![ProcStats::default(); k];
        for &p in &d.task_owner {
            per_proc[p as usize].load += 1;
        }

        let mut msg = [
            vec![false; k * k], // A expand
            vec![false; k * k], // B expand
            vec![false; k * k], // C fold
        ];
        let mut volumes = [0u64; 3];
        let mut stamp = vec![usize::MAX; k];

        // A expand: element e's consumers are the owners of its
        // (contiguous) tasks; each distinct non-owner part costs a word.
        for (e, &owner) in d.a_owner.iter().enumerate() {
            let owner = owner as usize;
            let tick = e;
            stamp[owner] = tick;
            for t in s.a_starts[e]..s.a_starts[e + 1] {
                let p = d.task_owner[t] as usize;
                if stamp[p] == tick {
                    continue;
                }
                stamp[p] = tick;
                volumes[0] += 1;
                per_proc[owner].sent_words += 1;
                per_proc[p].recv_words += 1;
                msg[0][owner * k + p] = true;
            }
        }

        // B expand and C fold: the tasks of one element are scattered, so
        // group them first, then replay element-at-a-time with the owner
        // pre-stamped (the owner never pays for its own element).
        let mut b_tasks: Vec<Vec<usize>> = vec![Vec::new(); s.b_elems.len()];
        let mut c_tasks: Vec<Vec<usize>> = vec![Vec::new(); s.c_elems.len()];
        for t in 0..s.tasks.len() {
            b_tasks[s.task_b[t]].push(t);
            c_tasks[s.task_c[t]].push(t);
        }
        let mut b_stamp = vec![usize::MAX; k];
        let mut c_stamp = vec![usize::MAX; k];
        for (e, tasks) in b_tasks.iter().enumerate() {
            let owner = d.b_owner[e] as usize;
            b_stamp[owner] = e;
            for &t in tasks {
                let p = d.task_owner[t] as usize;
                if b_stamp[p] == e {
                    continue;
                }
                b_stamp[p] = e;
                volumes[1] += 1;
                per_proc[owner].sent_words += 1;
                per_proc[p].recv_words += 1;
                msg[1][owner * k + p] = true;
            }
        }
        for (e, tasks) in c_tasks.iter().enumerate() {
            let owner = d.c_owner[e] as usize;
            c_stamp[owner] = e;
            for &t in tasks {
                let p = d.task_owner[t] as usize;
                if c_stamp[p] == e {
                    continue;
                }
                c_stamp[p] = e;
                // Fold direction: producer part sends its partial to the
                // owner of c_ij.
                volumes[2] += 1;
                per_proc[p].sent_words += 1;
                per_proc[owner].recv_words += 1;
                msg[2][p * k + owner] = true;
            }
        }

        let mut messages = [0u64; 3];
        for (f, grid) in msg.iter().enumerate() {
            for sr in 0..k {
                for rc in 0..k {
                    if grid[sr * k + rc] {
                        messages[f] += 1;
                        per_proc[sr].sent_messages += 1;
                        per_proc[rc].recv_messages += 1;
                    }
                }
            }
        }

        Ok(SpgemmCommStats {
            k: d.k,
            a_expand_volume: volumes[0],
            b_expand_volume: volumes[1],
            fold_volume: volumes[2],
            a_expand_messages: messages[0],
            b_expand_messages: messages[1],
            fold_messages: messages[2],
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
            s.tasks,
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
    }

    #[test]
    fn unused_elements_get_no_nets() {
        // B row 1 empty -> a_11 unused; A column 2 empty -> b_2* unused.
        let a = mat(2, 3, vec![(0, 0, 1.0), (1, 1, 1.0)]);
        let b = mat(3, 2, vec![(0, 0, 1.0), (2, 1, 1.0)]);
        let s = SpgemmStructure::build(&a, &b).unwrap();
        assert_eq!(s.tasks, vec![(0, 0, 0)]);
        assert_eq!(s.a_elems, vec![(0, 0)]);
        assert_eq!(s.b_elems, vec![(0, 0)]);
        assert_eq!(s.c_elems, vec![(0, 0)]);
        let m = SpgemmModel::build(&a, &b).unwrap();
        assert_eq!(m.hypergraph().num_nets(), 3);
        assert_eq!(m.hypergraph().num_pins(), 3);
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
    fn model_pins_three_nets_per_task() {
        let (a, b) = (sample_a(), sample_b());
        let m = SpgemmModel::build(&a, &b).unwrap();
        let hg = m.hypergraph();
        hg.validate_invariants().unwrap();
        assert_eq!(hg.num_vertices() as usize, m.structure().num_tasks());
        assert_eq!(hg.num_pins(), 3 * m.structure().num_tasks());
        for t in 0..hg.num_vertices() {
            assert_eq!(hg.vertex_degree(t), 3, "task {t}");
            assert_eq!(hg.vertex_weight(t), 1);
        }
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
            let first = (0..s.tasks.len()).find(|&t| s.task_c[t] == e).unwrap();
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
        let widened: Vec<(u64, u64, u64)> = s32
            .tasks
            .iter()
            .map(|&(i, k, j)| (i as u64, k as u64, j as u64))
            .collect();
        assert_eq!(widened, s64.tasks);
        assert_eq!(s32.task_b, s64.task_b);
        assert_eq!(s32.task_c, s64.task_c);
    }
}
