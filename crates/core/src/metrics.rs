//! Exact communication statistics of one parallel SpMV under a
//! decomposition — the quantities Table 2 of the paper reports.
//!
//! Unlike a model's objective function (edge cut, cutsize), these are
//! computed directly from the decoded decomposition, so they are the same
//! ground truth for every model:
//!
//! * **expand** (pre-communication): for each `j`, the owner of `x_j`
//!   sends one word to every *other* processor owning a nonzero of column
//!   `j`;
//! * **fold** (post-communication): for each `i`, every processor owning a
//!   nonzero of row `i` other than the owner of `y_i` sends one partial
//!   result word to that owner.
//!
//! A *message* is a (sender, receiver, phase) triple — two processors
//! exchanging words for many columns in the expand phase still exchange
//! one message. The paper's per-processor message bound is `K − 1` for 1D
//! models (single phase) and `2(K − 1)` for the fine-grain model.
//!
//! Both phases are one rule: a data element moves one word between its
//! owner and each distinct other part that uses it. The crate-private
//! kernel `charge_phase` holds that rule once, over an element's owner,
//! its users' parts and a direction (owner → users for expand, users →
//! owner for fold). [`CommStats`] runs it over columns, then rows, and
//! [`SpgemmCommStats`] over the elements of `A`, `B` and `C`.
//!
//! [`SpgemmCommStats`]: crate::models::SpgemmCommStats

use fgh_hypergraph::partition::imbalance_percent;
use fgh_sparse::{CsrMatrix, IndexType};

use crate::decomp::Decomposition;
use crate::Result;

/// Per-processor communication breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Words this processor sends (expand + fold).
    pub sent_words: u64,
    /// Words this processor receives.
    pub recv_words: u64,
    /// Messages this processor sends.
    pub sent_messages: u64,
    /// Messages this processor receives.
    pub recv_messages: u64,
    /// Scalar multiplies (nonzeros) assigned to this processor.
    pub load: u64,
}

/// Exact communication requirements of one `y = Ax` under a decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct CommStats {
    /// Number of processors.
    pub k: u32,
    /// Matrix order (used for the paper's volume scaling; widened so
    /// `u64`-indexed matrices fit).
    pub n: u64,
    /// Total words moved in the expand (pre-communication) phase.
    pub expand_volume: u64,
    /// Total words moved in the fold (post-communication) phase.
    pub fold_volume: u64,
    /// Total messages in the expand phase.
    pub expand_messages: u64,
    /// Total messages in the fold phase.
    pub fold_messages: u64,
    /// Per-processor breakdown.
    pub per_proc: Vec<ProcStats>,
}

impl CommStats {
    /// Computes the exact statistics for decomposition `d` of matrix `a`.
    pub fn compute<I: IndexType>(a: &CsrMatrix<I>, d: &Decomposition) -> Result<Self> {
        d.validate(a)?;
        let mut per_proc = loads(d.k, &d.nonzero_owner);
        // Expand: owner(x_j) -> each other part with a nonzero in column j.
        let cols = ElementIndex::group(a.ncols().index(), a.col_idx().iter().map(|j| j.index()));
        let [expand_volume, expand_messages] =
            charge_phase(&mut per_proc, Flow::Expand, &d.vec_owner, |j| {
                cols.members(j).iter().map(|&e| d.nonzero_owner[e])
            });
        // Fold: each other part with a nonzero in row i -> owner(y_i).
        let rows = a.row_ptr();
        let [fold_volume, fold_messages] =
            charge_phase(&mut per_proc, Flow::Fold, &d.vec_owner, |i| {
                d.nonzero_owner[rows[i]..rows[i + 1]].iter().copied()
            });
        Ok(CommStats {
            k: d.k,
            n: d.n,
            expand_volume,
            fold_volume,
            expand_messages,
            fold_messages,
            per_proc,
        })
    }

    /// Total communication volume in words (expand + fold) — the paper's
    /// primary metric ("tot", scaled by the matrix order when printed).
    pub fn total_volume(&self) -> u64 {
        CommSummary::total_volume(self)
    }

    /// Maximum words *sent* by a single processor — the paper's "max"
    /// column.
    pub fn max_sent_words(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|p| p.sent_words)
            .max()
            .unwrap_or(0)
    }

    /// Maximum words sent + received by a single processor (extended
    /// metric, not in the paper's table).
    pub fn max_sent_recv_words(&self) -> u64 {
        CommSummary::max_sent_recv_words(self)
    }

    /// Total messages across both phases.
    pub fn total_messages(&self) -> u64 {
        CommSummary::total_messages(self)
    }

    /// Average number of messages *sent* per processor — the paper's
    /// "avg #msgs" column (bounded by `K−1` for 1D models, `2(K−1)` for
    /// the fine-grain model).
    pub fn avg_messages_per_proc(&self) -> f64 {
        self.total_messages() as f64 / self.k as f64
    }

    /// Maximum messages sent by a single processor.
    pub fn max_messages_per_proc(&self) -> u64 {
        CommSummary::max_messages_per_proc(self)
    }

    /// Total volume scaled by the matrix order, as printed in Table 2.
    pub fn scaled_total_volume(&self) -> f64 {
        self.total_volume() as f64 / self.n as f64
    }

    /// Max per-processor sent words scaled by the matrix order.
    pub fn scaled_max_volume(&self) -> f64 {
        self.max_sent_words() as f64 / self.n as f64
    }

    /// Percent computational imbalance (same formula as the paper).
    pub fn load_imbalance_percent(&self) -> f64 {
        CommSummary::load_imbalance_percent(self)
    }
}

impl CommSummary for CommStats {
    fn per_proc(&self) -> &[ProcStats] {
        &self.per_proc
    }

    fn volumes(&self) -> [u64; 2] {
        [self.expand_volume, self.fold_volume]
    }

    fn messages(&self) -> [u64; 2] {
        [self.expand_messages, self.fold_messages]
    }
}

/// The shape both workloads' statistics share: expand and fold totals
/// over a per-processor breakdown. The decompose skeleton, the metrics
/// document, and the serve responses read either workload through it,
/// and it holds the one implementation of the totals, the maxima, and the
/// imbalance. [`CommStats`] and [`SpgemmCommStats`] also expose those as
/// inherent methods of the same names, so callers need not import this
/// trait.
///
/// [`SpgemmCommStats`]: crate::models::SpgemmCommStats
pub trait CommSummary {
    /// Per-processor breakdown, one entry per part.
    fn per_proc(&self) -> &[ProcStats];

    /// `[expand, fold]` words.
    fn volumes(&self) -> [u64; 2];

    /// `[expand, fold]` messages.
    fn messages(&self) -> [u64; 2];

    /// Total words moved.
    fn total_volume(&self) -> u64 {
        self.volumes().iter().sum()
    }

    /// Total messages.
    fn total_messages(&self) -> u64 {
        self.messages().iter().sum()
    }

    /// Maximum messages sent by one part.
    fn max_messages_per_proc(&self) -> u64 {
        self.per_proc()
            .iter()
            .map(|p| p.sent_messages)
            .max()
            .unwrap_or(0)
    }

    /// Maximum words sent + received by one part.
    fn max_sent_recv_words(&self) -> u64 {
        self.per_proc()
            .iter()
            .map(|p| p.sent_words + p.recv_words)
            .max()
            .unwrap_or(0)
    }

    /// Percent load imbalance of the parts.
    fn load_imbalance_percent(&self) -> f64 {
        let per_proc = self.per_proc();
        imbalance_percent(per_proc.iter().map(|p| p.load), per_proc.len())
    }
}

/// Which way a phase's words travel between an element's owner and the
/// other parts that use it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Flow {
    /// The owner sends the element to every other user (expand).
    Expand,
    /// Every other user sends the owner one partial result (fold).
    Fold,
}

/// Per-part statistics with only the loads filled in: `work_owner` holds
/// the part of every unit of work (a nonzero, a multiply task).
pub(crate) fn loads(k: u32, work_owner: &[u32]) -> Vec<ProcStats> {
    let mut per_proc = vec![ProcStats::default(); k as usize];
    for &p in work_owner {
        per_proc[p as usize].load += 1;
    }
    per_proc
}

/// The accounting rule of every workload's statistics, one phase per
/// call. Element `e` is owned by `owners[e]` and used by the parts
/// `users(e)` yields, repeats allowed. Each distinct user other than the
/// owner moves one word between it and the owner, in `flow`'s direction;
/// each distinct (sender, receiver) pair of the phase is one message.
/// Adds the words and messages to `per_proc` and returns the phase's
/// `[words, messages]`.
pub(crate) fn charge_phase<U: IntoIterator<Item = u32>>(
    per_proc: &mut [ProcStats],
    flow: Flow,
    owners: &[u32],
    users: impl Fn(usize) -> U,
) -> [u64; 2] {
    let k = per_proc.len();
    // stamp[p] == e + 1 once part p is counted for element e.
    let mut stamp = vec![0usize; k];
    let mut pairs = vec![false; k * k];
    let mut words = 0u64;
    for (e, &owner) in owners.iter().enumerate() {
        let (owner, tick) = (owner as usize, e + 1);
        stamp[owner] = tick;
        for p in users(e) {
            let p = p as usize;
            if stamp[p] == tick {
                continue;
            }
            stamp[p] = tick;
            let (from, to) = match flow {
                Flow::Expand => (owner, p),
                Flow::Fold => (p, owner),
            };
            words += 1;
            per_proc[from].sent_words += 1;
            per_proc[to].recv_words += 1;
            pairs[from * k + to] = true;
        }
    }
    let mut messages = 0u64;
    for pair in (0..k * k).filter(|&pair| pairs[pair]) {
        messages += 1;
        per_proc[pair / k].sent_messages += 1;
        per_proc[pair % k].recv_messages += 1;
    }
    [words, messages]
}

/// Members grouped by the element they belong to, as flat CSR arrays:
/// the members of element `e` are `members[ptr[e]..ptr[e + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct ElementIndex {
    ptr: Vec<usize>,
    members: Vec<usize>,
}

impl ElementIndex {
    /// Groups members `0, 1, …` by their elements, which `element_of`
    /// yields in member order (each below `elements`). A counting sort,
    /// so every element's members come out ascending.
    pub(crate) fn group(elements: usize, element_of: impl Iterator<Item = usize> + Clone) -> Self {
        let mut ptr = vec![0usize; elements + 1];
        for e in element_of.clone() {
            ptr[e + 1] += 1;
        }
        for e in 0..elements {
            ptr[e + 1] += ptr[e];
        }
        let mut next = ptr[..elements].to_vec();
        let mut members = vec![0usize; ptr[elements]];
        for (m, e) in element_of.enumerate() {
            members[next[e]] = m;
            next[e] += 1;
        }
        ElementIndex { ptr, members }
    }

    /// The members of element `e`, ascending.
    pub(crate) fn members(&self, e: usize) -> &[usize] {
        &self.members[self.ptr[e]..self.ptr[e + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_sparse::CooMatrix;

    /// 4x4 matrix, full diagonal plus (1,0), (3,1), (1,2).
    fn sample() -> CsrMatrix {
        CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                4,
                4,
                vec![
                    (0, 0, 1.0),
                    (1, 1, 1.0),
                    (2, 2, 1.0),
                    (3, 3, 1.0),
                    (1, 0, 1.0),
                    (3, 1, 1.0),
                    (1, 2, 1.0),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn no_communication_for_k1() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 1, vec![0; 4]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        assert_eq!(s.total_volume(), 0);
        assert_eq!(s.total_messages(), 0);
    }

    #[test]
    fn rowwise_has_no_fold() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        assert_eq!(s.fold_volume, 0, "row-wise SpMV folds nothing");
        // Expand: col 0 owned by P0, needed by P1 (row 1) -> 1 word.
        //         col 1 owned by P1, needed by P1 (rows 1,3) only -> 0.
        //         col 2 owned by P0, needed by P1 (row 1) -> 1 word.
        //         col 3 owned by P1, needed by P1 -> 0.
        assert_eq!(s.expand_volume, 2);
        assert_eq!(s.total_volume(), 2);
        // Both words travel P0 -> P1: one expand message.
        assert_eq!(s.expand_messages, 1);
        assert_eq!(s.max_sent_words(), 2);
    }

    #[test]
    fn columnwise_has_no_expand() {
        let a = sample();
        let d = Decomposition::columnwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        assert_eq!(s.expand_volume, 0, "column-wise SpMV expands nothing");
        // Fold: row 1 has nonzeros in cols 0(P0),1(P1),2(P0); y_1 on P1:
        //   P0 sends one partial word -> 1.
        // Row 3: cols 1(P1),3(P1); y_3 on P1 -> 0.
        assert_eq!(s.fold_volume, 1);
        assert_eq!(s.fold_messages, 1);
    }

    #[test]
    fn fine_grain_counts_both_phases() {
        let a = sample();
        // Nonzeros in CSR order: (0,0),(1,0),(1,1),(1,2),(2,2),(3,1),(3,3).
        // Put (1,0) and (1,2) on P1, everything else on P0; vectors on P0.
        let d = Decomposition::general(&a, 2, vec![0, 1, 0, 1, 0, 0, 0], vec![0, 0, 0, 0]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        // Expand: col 0 needed by P0,P1; owner P0 -> 1 word.
        //         col 2 needed by P0 (a_22), P1 (a_12); owner P0 -> 1 word.
        assert_eq!(s.expand_volume, 2);
        // Fold: row 1 computed on P0 (a_11) and P1; y_1 on P0 -> 1 word.
        assert_eq!(s.fold_volume, 1);
        assert_eq!(s.total_volume(), 3);
        // Messages: expand P0->P1 (one message), fold P1->P0 (one message).
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.avg_messages_per_proc(), 1.0);
        assert_eq!(s.per_proc[0].sent_words, 2);
        assert_eq!(s.per_proc[1].sent_words, 1);
        assert_eq!(s.max_sent_recv_words(), 3);
    }

    #[test]
    fn owner_without_local_nonzero_still_sends_to_all() {
        // x_0 owned by P2 which owns no nonzero of column 0: it must send
        // to every part in Λ.
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                3,
                3,
                vec![(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
            )
            .unwrap(),
        );
        let d = Decomposition::general(&a, 3, vec![0, 1, 1, 2], vec![2, 1, 2]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        // Column 0 nonzeros on P0 and P1; owner P2 sends 2 words.
        assert_eq!(s.expand_volume, 2);
        assert!(s.per_proc[2].sent_words >= 2);
    }

    #[test]
    fn loads_match_decomposition() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        let loads: Vec<u64> = s.per_proc.iter().map(|p| p.load).collect();
        assert_eq!(loads, d.loads());
        assert_eq!(s.load_imbalance_percent(), d.load_imbalance_percent());
    }

    #[test]
    fn wide_stats_match_narrow() {
        let a = sample();
        let a64: fgh_sparse::CsrMatrix<u64> = a.convert_width().unwrap();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s32 = CommStats::compute(&a, &d).unwrap();
        let s64 = CommStats::compute(&a64, &d).unwrap();
        assert_eq!(s32, s64, "ground-truth stats must be width-independent");
    }

    #[test]
    fn scaled_metrics() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        assert!((s.scaled_total_volume() - 2.0 / 4.0).abs() < 1e-12);
        assert!((s.scaled_max_volume() - 2.0 / 4.0).abs() < 1e-12);
    }
}
