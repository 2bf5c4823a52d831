//! Communication plan compiled into per-processor local index space, and
//! the single-threaded executing simulator.
//!
//! [`DistributedSpmv::build`] numbers each processor's vector entries
//! locally: an x slot per column its nonzeros touch, a y slot per row
//! they touch, plus a slot for each entry it owns but only sends (x) or
//! only receives partial sums for (y). Nonzeros name slots, and every
//! communicated word is a (sender slot, receiver slot) pair, so one
//! multiply needs one `f64` per slot and never a full-length vector
//! image per processor.

use fgh_core::Decomposition;
use fgh_invariant::{invariant, InvariantViolation};
use fgh_sparse::CsrMatrix;
use fgh_trace::SpanHandle;

use crate::{Result, SpmvError};

/// The local share of one processor: its nonzeros in its own index space.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocalBlock {
    /// Global column of each x slot.
    pub(crate) x_index: Vec<u32>,
    /// Global row of each y slot, ascending.
    pub(crate) y_index: Vec<u32>,
    /// y slot of each local nonzero, in CSR order.
    pub(crate) nz_y: Vec<u32>,
    /// x slot of each local nonzero.
    pub(crate) nz_x: Vec<u32>,
    /// Value of each local nonzero.
    pub(crate) vals: Vec<f64>,
    /// x slots of the columns this processor owns, ascending by column:
    /// loaded from the input vector.
    pub(crate) x_owned: Vec<u32>,
    /// y slots of the rows this processor owns, ascending by row: stored
    /// to the output vector once the fold has summed into them.
    pub(crate) y_owned: Vec<u32>,
}

impl LocalBlock {
    /// Number of local nonzeros (scalar multiplies).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The local nonzeros as global `(row, col, value)` triplets, in CSR
    /// order.
    // lint: checked-index — nonzero slots are in bounds (validate() layout check slot.in_bounds)
    pub fn triplets(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.nz_y
            .iter()
            .zip(&self.nz_x)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (self.y_index[r as usize], self.x_index[c as usize], v))
    }

    /// `ys += A_p · xs` over the local nonzeros, in CSR order.
    // lint: checked-index — nonzero slots are < the slot counts that size xs/ys (validate() layout check slot.in_bounds)
    pub(crate) fn mult(&self, xs: &[f64], ys: &mut [f64]) {
        for ((&r, &c), &v) in self.nz_y.iter().zip(&self.nz_x).zip(&self.vals) {
            let xj = xs[c as usize];
            debug_assert!(
                !xj.is_nan(),
                "multiply reads unreceived x_{}",
                self.x_index[c as usize]
            );
            ys[r as usize] += v * xj;
        }
    }

    /// `xs += A_pᵀ · ys` over the local nonzeros, in CSR order.
    // lint: checked-index — nonzero slots are < the slot counts that size xs/ys (validate() layout check slot.in_bounds)
    pub(crate) fn mult_transpose(&self, ys: &[f64], xs: &mut [f64]) {
        for ((&r, &c), &v) in self.nz_y.iter().zip(&self.nz_x).zip(&self.vals) {
            let yi = ys[r as usize];
            debug_assert!(
                !yi.is_nan(),
                "transpose multiply reads unreceived x_{}",
                self.y_index[r as usize]
            );
            xs[c as usize] += v * yi;
        }
    }
}

/// `local[s] = global[index[s]]` for each owned slot `s`.
// lint: checked-index — owned slots are < index.len() == local.len() and indices < n == global.len() (validate() layout checks owned.slot, slot.index)
pub(crate) fn load(owned: &[u32], index: &[u32], global: &[f64], local: &mut [f64]) {
    for &s in owned {
        local[s as usize] = global[index[s as usize] as usize];
    }
}

/// `global[index[s]] = local[s]` for each owned slot `s`.
// lint: checked-index — owned slots are < index.len() == local.len() and indices < n == global.len() (validate() layout checks owned.slot, slot.index)
pub(crate) fn store(owned: &[u32], index: &[u32], local: &[f64], global: &mut [f64]) {
    for &s in owned {
        global[index[s as usize] as usize] = local[s as usize];
    }
}

/// One directed transfer in a phase: `indices` elements go from `from` to
/// `to` (x indices in the expand phase, y indices in the fold phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Sending processor.
    pub from: u32,
    /// Receiving processor.
    pub to: u32,
    /// Element indices carried by this message.
    pub indices: Vec<u32>,
}

/// The words of one phase as (sender slot, receiver slot) pairs, flat in
/// transfer order: transfer `t` carries `slots[at[t]..at[t + 1]]`,
/// parallel to its `indices`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Words {
    at: Vec<usize>,
    slots: Vec<(u32, u32)>,
}

impl Words {
    /// The words of transfer `t`.
    // lint: checked-index — t < transfers, at has transfers + 1 ascending entries ending at slots.len() (validate() layout check words.at)
    pub(crate) fn of(&self, t: usize) -> &[(u32, u32)] {
        &self.slots[self.at[t]..self.at[t + 1]]
    }

    /// Each of the phase's `transfers` with its words.
    pub(crate) fn with<'a>(
        &'a self,
        transfers: &'a [Transfer],
    ) -> impl Iterator<Item = (&'a Transfer, &'a [(u32, u32)])> + 'a {
        transfers.iter().enumerate().map(|(t, tr)| (tr, self.of(t)))
    }
}

/// Each processor's slot range in a concatenated image, from `k + 1`
/// ascending bases.
// lint: checked-index — windows(2) yields two-element slices
fn ranges(base: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    base.windows(2).map(|w| w[0]..w[1])
}

/// Start of each processor's slots in the concatenated image of all of
/// them: `k + 1` prefix sums of `len`.
fn bases(local: &[LocalBlock], len: impl Fn(&LocalBlock) -> usize) -> Vec<usize> {
    let mut base = Vec::with_capacity(local.len() + 1);
    base.push(0);
    for b in local {
        base.push(base.last().copied().unwrap_or(0) + len(b));
    }
    base
}

/// Words/messages actually moved by one executed SpMV.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeasuredComm {
    /// Words moved in the expand phase.
    pub expand_words: u64,
    /// Words moved in the fold phase.
    pub fold_words: u64,
    /// Messages in the expand phase.
    pub expand_messages: u64,
    /// Messages in the fold phase.
    pub fold_messages: u64,
    /// Words sent per processor (both phases).
    pub sent_words_per_proc: Vec<u64>,
}

impl MeasuredComm {
    /// Total words moved.
    pub fn total_words(&self) -> u64 {
        self.expand_words + self.fold_words
    }

    /// Total messages.
    pub fn total_messages(&self) -> u64 {
        self.expand_messages + self.fold_messages
    }
}

/// A distributed matrix plus the full communication plan of one SpMV.
///
/// Built once per decomposition into local index space (see the module
/// docs); the simulator, the transpose, and the threaded executor all run
/// off this one layout.
#[derive(Debug, Clone)]
pub struct DistributedSpmv {
    k: u32,
    n: u32,
    /// `x_j`/`y_j` owner.
    vec_owner: Vec<u32>,
    /// Per-processor local nonzeros and slot maps.
    local: Vec<LocalBlock>,
    /// Start of each processor's x slots in the concatenated image of all
    /// of them (`k + 1` entries); `y_base` likewise for y slots.
    x_base: Vec<usize>,
    y_base: Vec<usize>,
    /// Expand-phase messages (x words).
    expand: Vec<Transfer>,
    /// Fold-phase messages (partial y words).
    fold: Vec<Transfer>,
    /// Slot pairs of the expand words: owner's x slot → needer's x slot.
    expand_words: Words,
    /// Slot pairs of the fold words: holder's y slot → owner's y slot.
    fold_words: Words,
}

/// One processor's x slot for a column, and the row where the
/// processor's nonzeros first touch that column.
#[derive(Debug, Clone, Copy, Default)]
struct Need {
    j: u32,
    p: u32,
    slot: u32,
    row: u32,
}

/// The processors needing each column, first toucher (in CSR order)
/// first: the needs bucketed by column, each bucket sorted by the row of
/// first touch.
struct Needers {
    at: Vec<usize>,
    needs: Vec<Need>,
}

impl Needers {
    // lint: checked-index — columns are < n, so at has a bucket for each; a bucket's fill stays below the next bucket's start
    fn by_column(n: usize, needs: Vec<Need>) -> Self {
        let mut at = vec![0usize; n + 1];
        for nd in &needs {
            at[nd.j as usize + 1] += 1;
        }
        for j in 0..n {
            at[j + 1] += at[j];
        }
        let mut fill = at[..n].to_vec();
        let mut sorted = vec![Need::default(); needs.len()];
        for nd in needs {
            sorted[fill[nd.j as usize]] = nd;
            fill[nd.j as usize] += 1;
        }
        for w in at.windows(2) {
            let bucket = &mut sorted[w[0]..w[1]];
            if bucket.len() > 1 {
                bucket.sort_by_key(|nd| nd.row);
            }
        }
        Needers { at, needs: sorted }
    }

    /// Needers of column `j`, first toucher first.
    // lint: checked-index — j < n, and at has n + 1 entries
    fn of(&self, j: u32) -> &[Need] {
        &self.needs[self.at[j as usize]..self.at[j as usize + 1]]
    }
}

/// Collects one phase's words, sender by sender, into one transfer per
/// (sender, receiver) pair: transfers ordered by sender, then by each
/// receiver's first word.
struct PhaseBuilder {
    transfers: Vec<Transfer>,
    slots: Vec<Vec<(u32, u32)>>,
    /// Per receiver: the sender and index of its latest transfer.
    open: Vec<(u32, usize)>,
}

impl PhaseBuilder {
    fn new(k: usize) -> Self {
        PhaseBuilder {
            transfers: Vec::new(),
            slots: Vec::new(),
            open: vec![(u32::MAX, 0); k],
        }
    }

    /// Adds the word carrying element `index` from `from`'s slot `src` to
    /// `to`'s slot `dst`. All of one sender's words arrive together.
    // lint: checked-index — to < k == open.len(); open holds indices of pushed transfers
    fn word(&mut self, from: u32, to: u32, index: u32, (src, dst): (u32, u32)) {
        let t = match self.open[to as usize] {
            (sender, t) if sender == from => t,
            _ => {
                self.open[to as usize] = (from, self.transfers.len());
                self.transfers.push(Transfer {
                    from,
                    to,
                    indices: Vec::new(),
                });
                self.slots.push(Vec::new());
                self.transfers.len() - 1
            }
        };
        self.transfers[t].indices.push(index);
        self.slots[t].push((src, dst));
    }

    fn finish(self) -> (Vec<Transfer>, Words) {
        let mut words = Words {
            at: Vec::with_capacity(self.slots.len() + 1),
            slots: Vec::with_capacity(self.slots.iter().map(Vec::len).sum()),
        };
        words.at.push(0);
        for s in self.slots {
            words.slots.extend(s);
            words.at.push(words.slots.len());
        }
        (self.transfers, words)
    }
}

/// Next free slot of a slot list: a processor has at most one slot per
/// row or column, so fewer than `n <= u32::MAX`.
fn next_slot(index: &[u32]) -> u32 {
    index.len() as u32 // lint: checked-cast — at most one slot per index < n, a u32
}

impl DistributedSpmv {
    /// Builds the distributed matrix and communication plan for
    /// decomposition `d` of matrix `a`, compiled into local index space.
    ///
    /// A row-major pass gives each processor its y slots through a
    /// per-processor row stamp; a processor-major pass gives its x slots
    /// through a per-column stamp and records who needs each column. The
    /// expand transfers then follow each owner's columns in order and the
    /// fold transfers each holder's rows: grouped by sender, receivers in
    /// order of their first word, needers of a column in CSR order.
    // lint: checked-index — p < k and i, j < n by Decomposition::validate; e < nnz walks row_ptr; slots index the lists they were pushed to
    pub fn build(a: &CsrMatrix, d: &Decomposition) -> Result<Self> {
        d.validate(a)
            .map_err(|e| SpmvError::BadDecomposition(e.to_string()))?;
        let k = d.k;
        // `d.validate(a)` guaranteed `d.n == a.nrows()`, so the order fits
        // the matrix's u32 indices even though `Decomposition` carries u64.
        let n = a.nrows();
        let owner = &d.vec_owner;

        let mut local = vec![LocalBlock::default(); k as usize];
        let mut counts = vec![0usize; k as usize];
        for &p in &d.nonzero_owner {
            counts[p as usize] += 1;
        }
        for (b, &c) in local.iter_mut().zip(&counts) {
            b.nz_y.reserve_exact(c);
            b.nz_x.reserve_exact(c);
            b.vals.reserve_exact(c);
        }

        // Pass 1, row by row: a stamp per processor gives its y slots. The
        // nonzeros keep their global columns until pass 2.
        let mut row_mark = vec![u32::MAX; k as usize];
        let mut row_slot = vec![0u32; k as usize];
        // The owner's y slot of each row some other processor holds: where
        // the fold delivers.
        let mut fold_slot = vec![0u32; n as usize];
        let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
        for i in 0..n {
            let o = owner[i as usize];
            let mut shared = false;
            for e in row_ptr[i as usize]..row_ptr[i as usize + 1] {
                let p = d.nonzero_owner[e];
                let b = &mut local[p as usize];
                if row_mark[p as usize] != i {
                    row_mark[p as usize] = i;
                    row_slot[p as usize] = next_slot(&b.y_index);
                    b.y_index.push(i);
                    shared |= p != o;
                }
                b.nz_y.push(row_slot[p as usize]);
                b.nz_x.push(col_idx[e]);
                b.vals.push(values[e]);
            }
            let ob = &mut local[o as usize];
            if shared && row_mark[o as usize] != i {
                // The owner holds none of row i but receives its partials.
                row_mark[o as usize] = i;
                row_slot[o as usize] = next_slot(&ob.y_index);
                ob.y_index.push(i);
            }
            if row_mark[o as usize] == i {
                fold_slot[i as usize] = row_slot[o as usize];
                ob.y_owned.push(row_slot[o as usize]);
            }
        }

        // Pass 2, processor by processor: a stamp per column gives its x
        // slots and finds each column's needers.
        let mut col_mark = vec![u32::MAX; n as usize];
        let mut col_slot = vec![0u32; n as usize];
        let mut needs = Vec::new();
        for (p, b) in (0..k).zip(local.iter_mut()) {
            for (x, &r) in b.nz_x.iter_mut().zip(&b.nz_y) {
                let j = *x as usize;
                if col_mark[j] != p {
                    col_mark[j] = p;
                    col_slot[j] = next_slot(&b.x_index);
                    b.x_index.push(*x);
                    let row = b.y_index[r as usize];
                    needs.push(Need {
                        j: *x,
                        p,
                        slot: col_slot[j],
                        row,
                    });
                }
                *x = col_slot[j];
            }
        }
        let needers = Needers::by_column(n as usize, needs);

        // Expand: each owner, column by column, sends x_j from its slot to
        // every other needer's slot, in first-touch order.
        let mut owned_at = vec![0usize; k as usize + 1];
        for &o in owner {
            owned_at[o as usize + 1] += 1;
        }
        for p in 0..k as usize {
            owned_at[p + 1] += owned_at[p];
        }
        let mut fill = owned_at.clone();
        let mut owned = vec![0u32; n as usize];
        for (j, &o) in owner.iter().enumerate() {
            owned[fill[o as usize]] = j as u32; // lint: checked-cast — j < n, a u32
            fill[o as usize] += 1;
        }
        let mut expand = PhaseBuilder::new(k as usize);
        for o in 0..k {
            for &j in &owned[owned_at[o as usize]..owned_at[o as usize + 1]] {
                let nds = needers.of(j);
                let mut src = nds.iter().find(|nd| nd.p == o).map(|nd| nd.slot);
                let needed = nds.iter().any(|nd| nd.p != o);
                let ob = &mut local[o as usize];
                if src.is_none() && needed {
                    // The owner touches none of column j but sends x_j.
                    let s = next_slot(&ob.x_index);
                    ob.x_index.push(j);
                    src = Some(s);
                }
                let Some(src) = src else { continue };
                ob.x_owned.push(src);
                for nd in nds.iter().filter(|nd| nd.p != o) {
                    expand.word(o, nd.p, j, (src, nd.slot));
                }
            }
        }

        // Fold: each holder, row by row, sends its partial y_i to the
        // owner's slot.
        let mut fold = PhaseBuilder::new(k as usize);
        for (h, b) in (0..k).zip(&local) {
            for (s, &i) in (0..).zip(&b.y_index) {
                let o = owner[i as usize];
                if o != h {
                    fold.word(h, o, i, (s, fold_slot[i as usize]));
                }
            }
        }

        let x_base = bases(&local, |b| b.x_index.len());
        let y_base = bases(&local, |b| b.y_index.len());
        let (expand, expand_words) = expand.finish();
        let (fold, fold_words) = fold.finish();
        let plan = DistributedSpmv {
            k,
            n,
            vec_owner: owner.clone(),
            local,
            x_base,
            y_base,
            expand,
            fold,
            expand_words,
            fold_words,
        };
        debug_assert!(plan.validate().is_ok(), "{:?}", plan.validate());
        Ok(plan)
    }

    /// Number of processors.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Matrix order.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Owner of `x_j`/`y_j`.
    pub fn vec_owner(&self) -> &[u32] {
        &self.vec_owner
    }

    /// Local nonzeros of processor `p`.
    // lint: checked-index — p < k == local.len() is the caller contract
    pub fn local(&self, p: u32) -> &LocalBlock {
        &self.local[p as usize]
    }

    /// Expand-phase transfers.
    pub fn expand_transfers(&self) -> &[Transfer] {
        &self.expand
    }

    /// Fold-phase transfers.
    pub fn fold_transfers(&self) -> &[Transfer] {
        &self.fold
    }

    /// Slot pairs of the expand words, parallel to
    /// [`DistributedSpmv::expand_transfers`].
    pub(crate) fn expand_words(&self) -> &Words {
        &self.expand_words
    }

    /// Slot pairs of the fold words, parallel to
    /// [`DistributedSpmv::fold_transfers`].
    pub(crate) fn fold_words(&self) -> &Words {
        &self.fold_words
    }

    /// Static communication cost of the plan (what *will* move, each
    /// SpMV): identical to what [`DistributedSpmv::multiply`] measures.
    // lint: checked-index — transfer endpoints are < k == sent_words_per_proc.len() (validate() layout check transfer.endpoints)
    pub fn planned_comm(&self) -> MeasuredComm {
        let mut m = MeasuredComm {
            sent_words_per_proc: vec![0; self.k as usize],
            ..Default::default()
        };
        for t in &self.expand {
            m.expand_words += t.indices.len() as u64;
            m.expand_messages += 1;
            m.sent_words_per_proc[t.from as usize] += t.indices.len() as u64;
        }
        for t in &self.fold {
            m.fold_words += t.indices.len() as u64;
            m.fold_messages += 1;
            m.sent_words_per_proc[t.from as usize] += t.indices.len() as u64;
        }
        m
    }

    /// Checks the plan and its compiled layout, in release builds too:
    ///
    /// * vector owners in range, every transfer nonempty with distinct
    ///   in-range endpoints and in-bounds element indices;
    /// * every slot index in bounds, every slot naming an in-range global
    ///   index, owned-slot lists naming slots the processor owns;
    /// * every expand word reading the sender's slot of an `x_j` it owns
    ///   into the receiver's slot of `x_j`, and every x slot written
    ///   exactly once per multiply: an owned slot by the load, any other
    ///   by exactly one expand word;
    /// * every fold word reading a row its sender holds into the owner's
    ///   slot of that row, and every y slot leaving exactly once: an owned
    ///   slot to the output, any other as exactly one fold word.
    ///
    /// Together these make the plan complete: no processor reads a value
    /// it neither owns nor received, in [`DistributedSpmv::multiply`] or
    /// [`DistributedSpmv::multiply_transpose`].
    // lint: checked-index — every index is range-checked by the invariant just before it is used
    pub fn validate(&self) -> std::result::Result<(), InvariantViolation> {
        const S: &str = "DistributedSpmv";
        let k = self.k as usize;
        invariant!(self.k > 0, S, "k.nonzero", "plan has k = 0 processors");
        invariant!(
            self.vec_owner.len() == self.n as usize,
            S,
            "vec_owner.len",
            "{} vector owners for order {}",
            self.vec_owner.len(),
            self.n
        );
        for (j, &p) in self.vec_owner.iter().enumerate() {
            invariant!(
                p < self.k,
                S,
                "vec_owner.in_range",
                "x_{j}/y_{j} owned by processor {p} >= k = {}",
                self.k
            );
        }
        invariant!(
            self.local.len() == k && self.x_base.len() == k + 1 && self.y_base.len() == k + 1,
            S,
            "local.len",
            "{} local blocks and {}/{} slot bases for {} processors",
            self.local.len(),
            self.x_base.len(),
            self.y_base.len(),
            self.k
        );
        let windows = self.x_base.windows(2).zip(self.y_base.windows(2));
        for ((p, b), (xw, yw)) in (0..self.k).zip(&self.local).zip(windows) {
            invariant!(
                xw[1].checked_sub(xw[0]) == Some(b.x_index.len())
                    && yw[1].checked_sub(yw[0]) == Some(b.y_index.len()),
                S,
                "slot.base",
                "processor {p} slot bases disagree with its {} x / {} y slots",
                b.x_index.len(),
                b.y_index.len()
            );
            invariant!(
                b.nz_y.len() == b.nz_x.len() && b.nz_x.len() == b.vals.len(),
                S,
                "local.parallel",
                "processor {p} block has nz_y/nz_x/vals lengths {}/{}/{}",
                b.nz_y.len(),
                b.nz_x.len(),
                b.vals.len()
            );
            for &g in b.x_index.iter().chain(&b.y_index) {
                invariant!(
                    g < self.n,
                    S,
                    "slot.index",
                    "processor {p} has a slot for index {g} outside order {}",
                    self.n
                );
            }
            for (&r, &c) in b.nz_y.iter().zip(&b.nz_x) {
                invariant!(
                    (r as usize) < b.y_index.len() && (c as usize) < b.x_index.len(),
                    S,
                    "slot.in_bounds",
                    "processor {p} nonzero names slots (y {r}, x {c}) of {}/{}",
                    b.y_index.len(),
                    b.x_index.len()
                );
            }
            for (owned, index) in [(&b.x_owned, &b.x_index), (&b.y_owned, &b.y_index)] {
                for &s in owned {
                    invariant!(
                        index
                            .get(s as usize)
                            .is_some_and(|&g| self.vec_owner[g as usize] == p),
                        S,
                        "owned.slot",
                        "processor {p} lists slot {s} as owned, but does not own it"
                    );
                }
            }
        }

        // Writes per x slot and departures per y slot, over all processors.
        let mut x_writes = vec![0u32; self.x_base[k]];
        let mut y_leaves = vec![0u32; self.y_base[k]];
        for (b, (&xb, &yb)) in self.local.iter().zip(self.x_base.iter().zip(&self.y_base)) {
            for &s in &b.x_owned {
                x_writes[xb + s as usize] += 1;
            }
            for &s in &b.y_owned {
                y_leaves[yb + s as usize] += 1;
            }
        }
        for (phase, expand, transfers, words) in [
            ("expand", true, &self.expand, &self.expand_words),
            ("fold", false, &self.fold, &self.fold_words),
        ] {
            invariant!(
                words.at.len() == transfers.len() + 1
                    && words.at.first() == Some(&0)
                    && words.at.last() == Some(&words.slots.len()),
                S,
                "words.at",
                "{phase} has {} word offsets for {} transfers",
                words.at.len(),
                transfers.len()
            );
            for (t, span) in transfers.iter().zip(words.at.windows(2)) {
                let slots = words.slots.get(span[0]..span[1]).unwrap_or(&[]);
                invariant!(
                    t.from < self.k && t.to < self.k && t.from != t.to,
                    S,
                    "transfer.endpoints",
                    "{phase} transfer {} -> {} invalid for k = {}",
                    t.from,
                    t.to,
                    self.k
                );
                invariant!(
                    !t.indices.is_empty(),
                    S,
                    "transfer.nonempty",
                    "{phase} transfer {} -> {} carries no words",
                    t.from,
                    t.to
                );
                invariant!(
                    slots.len() == t.indices.len(),
                    S,
                    "words.at",
                    "{phase} transfer {} -> {} has {} indices but {} slot pairs",
                    t.from,
                    t.to,
                    t.indices.len(),
                    slots.len()
                );
                let (from, to) = (&self.local[t.from as usize], &self.local[t.to as usize]);
                for (&g, &(s, d)) in t.indices.iter().zip(slots) {
                    invariant!(
                        g < self.n,
                        S,
                        "transfer.in_bounds",
                        "{phase} transfer {} -> {} carries element {g} >= n = {}",
                        t.from,
                        t.to,
                        self.n
                    );
                    // Expand moves x_g from its owner; fold moves y_g to it.
                    let (slots_from, slots_to, owner) = if expand {
                        (&from.x_index, &to.x_index, t.from)
                    } else {
                        (&from.y_index, &to.y_index, t.to)
                    };
                    invariant!(
                        self.vec_owner[g as usize] == owner,
                        S,
                        "transfer.owner",
                        "{phase} transfer {} -> {} carries element {g} owned by {}",
                        t.from,
                        t.to,
                        self.vec_owner[g as usize]
                    );
                    invariant!(
                        slots_from.get(s as usize) == Some(&g)
                            && slots_to.get(d as usize) == Some(&g),
                        S,
                        "words.slots",
                        "{phase} word for element {g} moves slot {s} of {} to slot {d} of {}, \
                         which hold {:?} and {:?}",
                        t.from,
                        t.to,
                        slots_from.get(s as usize),
                        slots_to.get(d as usize)
                    );
                    if expand {
                        x_writes[self.x_base[t.to as usize] + d as usize] += 1;
                    } else {
                        y_leaves[self.y_base[t.from as usize] + s as usize] += 1;
                    }
                }
            }
        }
        for (p, (xb, yb)) in self.x_base.iter().zip(&self.y_base).take(k).enumerate() {
            for (s, &c) in x_writes[*xb..self.x_base[p + 1]].iter().enumerate() {
                invariant!(
                    c == 1,
                    S,
                    "x.coverage",
                    "processor {p} x slot {s} (x_{}) is written {c} times per multiply",
                    self.local[p].x_index[s]
                );
            }
            for (s, &c) in y_leaves[*yb..self.y_base[p + 1]].iter().enumerate() {
                invariant!(
                    c == 1,
                    S,
                    "y.coverage",
                    "processor {p} y slot {s} (y_{}) leaves {c} times per multiply",
                    self.local[p].y_index[s]
                );
            }
        }
        Ok(())
    }

    /// Cross-checks the paper's headline identity against an *executed*
    /// SpMV: replays one `y = Ax` with a deterministic input and verifies
    /// that the words actually moved equal both the static
    /// [`DistributedSpmv::planned_comm`] cost and `cutsize` — the
    /// connectivity−1 objective the partitioner reported. For consistent
    /// models (fine-grain and both 1D hypergraph variants) the equality is
    /// exact (eq. 3 of the paper); a mismatch means either the plan or the
    /// cutsize bookkeeping is wrong.
    pub fn validate_cutsize(&self, cutsize: u64) -> std::result::Result<(), InvariantViolation> {
        const S: &str = "DistributedSpmv";
        self.validate()?;
        let x: Vec<f64> = (0..self.n).map(|j| j as f64 * 0.5 + 1.0).collect();
        let measured = match self.multiply(&x) {
            Ok((_, m)) => m,
            Err(e) => {
                return Err(InvariantViolation::new(
                    S,
                    "replay.failed",
                    format!("plan replay aborted: {e}"),
                ))
            }
        };
        let planned = self.planned_comm();
        invariant!(
            planned == measured,
            S,
            "plan.vs_replay",
            "planned {} words / {} messages, replay moved {} words / {} messages",
            planned.total_words(),
            planned.total_messages(),
            measured.total_words(),
            measured.total_messages()
        );
        invariant!(
            measured.total_words() == cutsize,
            S,
            "cutsize.vs_volume",
            "connectivity-1 cutsize {cutsize} != replayed volume {} \
             (expand {} + fold {})",
            measured.total_words(),
            measured.expand_words,
            measured.fold_words
        );
        Ok(())
    }

    fn check_len(&self, x: &[f64]) -> Result<()> {
        if x.len() != self.n as usize {
            return Err(SpmvError::DimensionMismatch {
                expected: self.n as usize,
                got: x.len(),
            });
        }
        Ok(())
    }

    /// Executes one `y = Aᵀx` sequentially using the *same* communication
    /// plan with the transfer roles swapped: the transpose's expand
    /// follows the fold transfers in reverse (owner of `x_i` → holders of
    /// row `i`), and its fold follows the expand transfers in reverse.
    ///
    /// A consequence of symmetric partitioning the paper's consistency
    /// condition buys: `Ax` and `Aᵀx` cost exactly the same communication
    /// under one decomposition — handy for BiCG-type solvers that need
    /// both.
    // lint: checked-index — processors < k index the k + 1 bases; word slots are < their processor's slot count (validate() layout check words.slots)
    pub fn multiply_transpose(&self, x: &[f64]) -> Result<(Vec<f64>, MeasuredComm)> {
        self.check_len(x)?;
        let k = self.k as usize;
        let mut measured = MeasuredComm {
            sent_words_per_proc: vec![0; k],
            ..Default::default()
        };

        // The input lives in the y slots: owners load x_i, holders receive.
        let mut ys = vec![f64::NAN; self.y_base[k]];
        for (b, r) in self.local.iter().zip(ranges(&self.y_base)) {
            load(&b.y_owned, &b.y_index, x, &mut ys[r]);
        }

        // Transpose expand: reverse of the fold plan (owner -> row holders).
        for (t, words) in self.fold_words.with(&self.fold) {
            let (holder, owner) = (self.y_base[t.from as usize], self.y_base[t.to as usize]);
            for &(s, d) in words {
                let v = ys[owner + d as usize];
                debug_assert!(!v.is_nan(), "transpose expand from non-owner {}", t.to);
                ys[holder + s as usize] = v;
            }
            measured.expand_words += words.len() as u64;
            measured.expand_messages += 1;
            measured.sent_words_per_proc[t.to as usize] += words.len() as u64;
        }

        // Local multiply with (i, j) swapped, into the x slots.
        let mut xs = vec![0.0; self.x_base[k]];
        for ((b, xr), yr) in self
            .local
            .iter()
            .zip(ranges(&self.x_base))
            .zip(ranges(&self.y_base))
        {
            b.mult_transpose(&ys[yr], &mut xs[xr]);
        }

        // Transpose fold: reverse of the expand plan (column holders -> owner).
        for (t, words) in self.expand_words.with(&self.expand) {
            let (owner, needer) = (self.x_base[t.from as usize], self.x_base[t.to as usize]);
            for &(s, d) in words {
                let v = xs[needer + d as usize];
                xs[owner + s as usize] += v;
            }
            measured.fold_words += words.len() as u64;
            measured.fold_messages += 1;
            measured.sent_words_per_proc[t.to as usize] += words.len() as u64;
        }

        let mut y = vec![0.0; self.n as usize];
        for (b, r) in self.local.iter().zip(ranges(&self.x_base)) {
            store(&b.x_owned, &b.x_index, &xs[r], &mut y);
        }
        Ok((y, measured))
    }

    /// Executes one `y = Ax` sequentially, phase by phase, moving values
    /// exactly as the plan prescribes, and returns `(y, measured
    /// communication)`.
    ///
    /// Every processor reads *only* its own slots, which hold values it
    /// owns or received: [`DistributedSpmv::validate`] proves every slot
    /// is filled, and debug builds also poison unfilled slots. So the
    /// result being equal to the serial SpMV certifies the plan is
    /// complete. Each `y_i` sums the owner's own partial first, then the
    /// fold contributions in transfer order.
    pub fn multiply(&self, x: &[f64]) -> Result<(Vec<f64>, MeasuredComm)> {
        self.multiply_traced(x, &SpanHandle::noop())
    }

    /// [`DistributedSpmv::multiply`] recording the three phases as
    /// `expand` / `local-mult` / `fold` child spans of `parent`, with
    /// `words` and `messages` counters on the communication phases and a
    /// `nonzeros` counter on the multiply. Under a no-op handle this is
    /// exactly [`DistributedSpmv::multiply`].
    // lint: checked-index — processors < k index the k + 1 bases; word slots are < their processor's slot count (validate() layout check words.slots)
    pub fn multiply_traced(
        &self,
        x: &[f64],
        parent: &SpanHandle,
    ) -> Result<(Vec<f64>, MeasuredComm)> {
        self.check_len(x)?;
        let k = self.k as usize;
        let mut measured = MeasuredComm {
            sent_words_per_proc: vec![0; k],
            ..Default::default()
        };

        // Every processor's x slots, concatenated: owned entries loaded,
        // the rest poisoned until received.
        let mut xs = vec![f64::NAN; self.x_base[k]];
        for (b, r) in self.local.iter().zip(ranges(&self.x_base)) {
            load(&b.x_owned, &b.x_index, x, &mut xs[r]);
        }

        // Phase 1: expand.
        {
            let espan = parent.child("expand");
            for (t, words) in self.expand_words.with(&self.expand) {
                let (owner, needer) = (self.x_base[t.from as usize], self.x_base[t.to as usize]);
                for &(s, d) in words {
                    let v = xs[owner + s as usize];
                    debug_assert!(!v.is_nan(), "expand from non-owner {}", t.from);
                    xs[needer + d as usize] = v;
                }
                measured.expand_words += words.len() as u64;
                measured.expand_messages += 1;
                measured.sent_words_per_proc[t.from as usize] += words.len() as u64;
            }
            if espan.is_enabled() {
                espan.counter("words", measured.expand_words);
                espan.counter("messages", measured.expand_messages);
            }
        }

        // Phase 2: local multiply into per-processor partial y.
        let mut ys = vec![0.0; self.y_base[k]];
        {
            let mspan = parent.child("local-mult");
            for ((b, xr), yr) in self
                .local
                .iter()
                .zip(ranges(&self.x_base))
                .zip(ranges(&self.y_base))
            {
                b.mult(&xs[xr], &mut ys[yr]);
            }
            if mspan.is_enabled() {
                mspan.counter("nonzeros", self.local.iter().map(|b| b.nnz() as u64).sum());
            }
        }

        // Phase 3: fold partial results into the owners' slots.
        {
            let fspan = parent.child("fold");
            for (t, words) in self.fold_words.with(&self.fold) {
                let (holder, owner) = (self.y_base[t.from as usize], self.y_base[t.to as usize]);
                for &(s, d) in words {
                    let v = ys[holder + s as usize];
                    ys[owner + d as usize] += v;
                }
                measured.fold_words += words.len() as u64;
                measured.fold_messages += 1;
                measured.sent_words_per_proc[t.from as usize] += words.len() as u64;
            }
            if fspan.is_enabled() {
                fspan.counter("words", measured.fold_words);
                fspan.counter("messages", measured.fold_messages);
            }
        }

        // Assemble the global y from each owner.
        let mut y = vec![0.0; self.n as usize];
        for (b, r) in self.local.iter().zip(ranges(&self.y_base)) {
            store(&b.y_owned, &b.y_index, &ys[r], &mut y);
        }
        Ok((y, measured))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_core::{
        decompose_workload, CommStats, DecomposeConfig, Model, Workload, WorkloadOutcome,
    };
    use fgh_sparse::gen::{self, ValueMode};
    use fgh_sparse::CooMatrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> CsrMatrix {
        CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                4,
                4,
                vec![
                    (0, 0, 2.0),
                    (1, 1, 3.0),
                    (2, 2, 4.0),
                    (3, 3, 5.0),
                    (1, 0, 1.0),
                    (3, 1, -1.0),
                    (1, 2, 0.5),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn simulated_spmv_matches_serial() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let plan = DistributedSpmv::build(&a, &d).unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let (y, _) = plan.multiply(&x).unwrap();
        assert_eq!(y, a.spmv(&x).unwrap());
    }

    #[test]
    fn measured_comm_matches_commstats_for_all_models() {
        let a = gen::grid5(
            12,
            12,
            1.0,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(3),
        );
        for model in [
            Model::Graph1D,
            Model::Hypergraph1DColNet,
            Model::Hypergraph1DRowNet,
            Model::FineGrain2D,
        ] {
            let out = decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(model, 4))
                .and_then(WorkloadOutcome::into_spmv)
                .unwrap();
            let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
            let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 * 0.25 + 1.0).collect();
            let (y, m) = plan.multiply(&x).unwrap();

            // Numerics: distributed result equals serial result.
            let y_serial = a.spmv(&x).unwrap();
            for (ya, yb) in y.iter().zip(&y_serial) {
                assert!((ya - yb).abs() < 1e-9, "{model:?}");
            }

            // Measured words/messages equal the analytic CommStats.
            let s = CommStats::compute(&a, &out.decomposition).unwrap();
            assert_eq!(m.expand_words, s.expand_volume, "{model:?} expand words");
            assert_eq!(m.fold_words, s.fold_volume, "{model:?} fold words");
            assert_eq!(
                m.expand_messages, s.expand_messages,
                "{model:?} expand msgs"
            );
            assert_eq!(m.fold_messages, s.fold_messages, "{model:?} fold msgs");
            for p in 0..4usize {
                assert_eq!(
                    m.sent_words_per_proc[p], s.per_proc[p].sent_words,
                    "{model:?} proc {p} sent words"
                );
            }

            // And the plan's static cost equals the measured cost.
            assert_eq!(plan.planned_comm(), m);
        }
    }

    #[test]
    fn cutsize_equals_measured_volume_fine_grain() {
        // The paper's headline identity, end to end: connectivity−1
        // cutsize == words actually moved.
        let a = gen::scale_free(
            150,
            2.5,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(9),
        );
        let out = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 8),
        )
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
        let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
        let x = vec![1.0; a.ncols() as usize];
        let (_, m) = plan.multiply(&x).unwrap();
        assert_eq!(out.objective, m.total_words());
    }

    #[test]
    fn random_decompositions_still_compute_correctly() {
        // Any valid decomposition — even a terrible random one — must give
        // the right numeric answer.
        let a = sample();
        let mut rng = SmallRng::seed_from_u64(1);
        for k in [1u32, 2, 3, 5] {
            let nz: Vec<u32> = (0..a.nnz()).map(|_| rng.gen_range(0..k)).collect();
            let vo: Vec<u32> = (0..4).map(|_| rng.gen_range(0..k)).collect();
            let d = Decomposition::general(&a, k, nz, vo).unwrap();
            let plan = DistributedSpmv::build(&a, &d).unwrap();
            let x = vec![0.5, -1.0, 2.0, 7.0];
            let (y, _) = plan.multiply(&x).unwrap();
            let y_serial = a.spmv(&x).unwrap();
            for (ya, yb) in y.iter().zip(&y_serial) {
                assert!((ya - yb).abs() < 1e-12, "k={k}");
            }
        }
    }

    #[test]
    fn transpose_multiply_matches_serial_transpose() {
        let a = gen::scale_free(
            120,
            2.0,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(8),
        );
        let at = a.transpose();
        let out = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 5),
        )
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
        let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
        let x: Vec<f64> = (0..a.nrows())
            .map(|i| (i as f64 * 0.11).sin() + 2.0)
            .collect();
        let (y, _) = plan.multiply_transpose(&x).unwrap();
        let y_serial = at.spmv(&x).unwrap();
        for (a_, b_) in y.iter().zip(&y_serial) {
            assert!((a_ - b_).abs() < 1e-9, "transpose numeric mismatch");
        }
    }

    #[test]
    fn transpose_costs_the_same_communication() {
        // Symmetric partitioning makes Ax and Aᵀx equally expensive: same
        // total words, same message count (phases swap roles).
        let a = gen::scale_free(
            150,
            2.5,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(3),
        );
        let out = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 6),
        )
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
        let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
        let x = vec![1.0; a.nrows() as usize];
        let (_, m_fwd) = plan.multiply(&x).unwrap();
        let (_, m_t) = plan.multiply_transpose(&x).unwrap();
        assert_eq!(m_fwd.total_words(), m_t.total_words());
        assert_eq!(m_fwd.total_messages(), m_t.total_messages());
        // Phase volumes swap exactly.
        assert_eq!(m_fwd.expand_words, m_t.fold_words);
        assert_eq!(m_fwd.fold_words, m_t.expand_words);
    }

    #[test]
    fn transpose_on_nonsymmetric_pattern() {
        // A strictly triangular (very nonsymmetric) matrix with dummy
        // diagonal handling via the fine-grain model.
        let a = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                4,
                4,
                vec![(1, 0, 2.0), (2, 0, 3.0), (2, 1, 4.0), (3, 2, 5.0)],
            )
            .unwrap(),
        );
        let out = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 2),
        )
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
        let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let (y, _) = plan.multiply_transpose(&x).unwrap();
        assert_eq!(y, a.transpose().spmv(&x).unwrap());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let plan = DistributedSpmv::build(&a, &d).unwrap();
        assert!(plan.multiply(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn local_blocks_partition_the_nonzeros() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let plan = DistributedSpmv::build(&a, &d).unwrap();
        let mut all: Vec<(u32, u32, f64)> = (0..2).flat_map(|p| plan.local(p).triplets()).collect();
        all.sort_by_key(|&(i, j, _)| (i, j));
        assert_eq!(all, a.iter().collect::<Vec<_>>());
        // Row-wise: every local nonzero's row is owned by that processor.
        for p in 0..2u32 {
            for (i, _, _) in plan.local(p).triplets() {
                assert_eq!(plan.vec_owner()[i as usize], p);
            }
        }
    }

    #[test]
    fn slots_cover_only_touched_and_owned_entries() {
        // Processor 2 holds no nonzero but owns x_1/y_1 and x_3/y_3: it
        // gets slots only for the entries it must send or sum.
        let a = sample();
        let d = Decomposition::general(&a, 3, vec![0, 1, 0, 1, 0, 1, 0], vec![0, 2, 1, 2]).unwrap();
        let plan = DistributedSpmv::build(&a, &d).unwrap();
        plan.validate().unwrap();
        let idle = plan.local(2);
        assert_eq!(idle.nnz(), 0);
        assert_eq!(idle.x_index, vec![1, 3]);
        assert_eq!(idle.y_index, vec![1, 3]);
        for p in 0..3 {
            let b = plan.local(p);
            let (mut rows, mut cols): (Vec<u32>, Vec<u32>) =
                b.triplets().map(|(i, j, _)| (i, j)).unzip();
            rows.sort_unstable();
            rows.dedup();
            cols.sort_unstable();
            cols.dedup();
            assert!(rows.len() <= b.y_index.len() && cols.len() <= b.x_index.len());
        }
        let x = vec![0.5, -1.0, 2.0, 7.0];
        let (y, m) = plan.multiply(&x).unwrap();
        assert_eq!(y, a.spmv(&x).unwrap());
        assert_eq!(m, plan.planned_comm());
        let (yt, _) = plan.multiply_transpose(&x).unwrap();
        assert_eq!(yt, a.transpose().spmv(&x).unwrap());
    }

    /// A fine-grain plan with traffic in both phases.
    fn busy_plan() -> DistributedSpmv {
        let a = gen::scale_free(
            60,
            2.5,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(5),
        );
        let out = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 4),
        )
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
        let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
        assert!(!plan.expand.is_empty() && !plan.fold.is_empty());
        plan.validate().unwrap();
        plan
    }

    fn rule_of(plan: &DistributedSpmv) -> &'static str {
        plan.validate()
            .expect_err("corrupted layout must fail")
            .rule()
    }

    #[test]
    fn corrupted_layouts_fail_validate() {
        // A nonzero naming a slot past its processor's slots.
        let mut plan = busy_plan();
        let p = (0..4).find(|&p| plan.local[p].nnz() > 0).unwrap();
        plan.local[p].nz_x[0] = plan.local[p].x_index.len() as u32;
        assert_eq!(rule_of(&plan), "slot.in_bounds");

        // An expand word delivering into a slot that holds another column.
        let mut plan = busy_plan();
        let to = plan.expand[0].to as usize;
        let (_, d) = plan.expand_words.slots[0];
        let other = (0..plan.local[to].x_index.len() as u32)
            .find(|&s| s != d)
            .unwrap();
        plan.expand_words.slots[0].1 = other;
        assert_eq!(rule_of(&plan), "words.slots");

        // A non-owned x slot that nothing writes: an expand word dropped.
        let mut plan = busy_plan();
        let t = plan
            .expand
            .iter()
            .position(|t| t.indices.len() > 1)
            .unwrap();
        let last = plan.expand[t].indices.len() - 1;
        plan.expand[t].indices.pop();
        let at = plan.expand_words.at[t] + last;
        plan.expand_words.slots.remove(at);
        for end in &mut plan.expand_words.at[t + 1..] {
            *end -= 1;
        }
        assert_eq!(rule_of(&plan), "x.coverage");

        // An owned x slot that is never loaded.
        let mut plan = busy_plan();
        let p = (0..4).find(|&p| !plan.local[p].x_owned.is_empty()).unwrap();
        plan.local[p].x_owned.pop();
        assert_eq!(rule_of(&plan), "x.coverage");

        // A fold word reading a slot of a row its sender does not hold.
        let mut plan = busy_plan();
        let from = plan.fold[0].from as usize;
        let (s, _) = plan.fold_words.slots[0];
        let other = (0..plan.local[from].y_index.len() as u32)
            .find(|&r| r != s)
            .unwrap();
        plan.fold_words.slots[0].0 = other;
        assert_eq!(rule_of(&plan), "words.slots");

        // A partial y that is folded twice.
        let mut plan = busy_plan();
        let p = (0..4).find(|&p| !plan.local[p].y_owned.is_empty()).unwrap();
        let s = plan.local[p].y_owned[0];
        plan.local[p].y_owned.push(s);
        assert_eq!(rule_of(&plan), "y.coverage");
    }
}
