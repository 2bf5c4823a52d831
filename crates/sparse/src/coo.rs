//! Coordinate (triplet) format — the mutable construction format.

use fgh_invariant::{invariant, InvariantViolation};

use crate::index::IndexType;
use crate::{Result, SparseError};

/// How duplicate `(row, col)` entries are resolved when a COO matrix is
/// compressed or converted to CSR.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DedupPolicy {
    /// Duplicates are an error ([`SparseError::DuplicateEntry`]).
    Error,
    /// Duplicate values are summed (the classical COO semantics; default).
    #[default]
    Sum,
    /// The last-pushed value wins.
    LastWins,
}

/// A sparse matrix in coordinate (COO / triplet) format, generic over the
/// index width `I` ([`IndexType`]; `u32` by default, `u64` for instances
/// beyond 32-bit addressing).
///
/// Entries are stored as `(row, col, value)` triplets in arbitrary order and
/// may contain duplicates until [`CooMatrix::compress`] is called. This is
/// the format every generator and the Matrix Market reader produce; convert
/// to [`crate::CsrMatrix`] for analysis. The [`DedupPolicy`] attached to the
/// matrix decides what duplicates mean — summed (default), last-wins, or a
/// hard error via [`crate::CsrMatrix::try_from_coo`].
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<I: IndexType = u32> {
    nrows: I,
    ncols: I,
    rows: Vec<I>,
    cols: Vec<I>,
    vals: Vec<f64>,
    dedup_policy: DedupPolicy,
}

impl<I: IndexType> CooMatrix<I> {
    /// Creates an empty `nrows x ncols` matrix.
    pub fn new(nrows: I, ncols: I) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            dedup_policy: DedupPolicy::default(),
        }
    }

    /// Creates an empty matrix with room for `cap` entries.
    pub fn with_capacity(nrows: I, ncols: I, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
            dedup_policy: DedupPolicy::default(),
        }
    }

    /// The duplicate-resolution policy applied on compression.
    pub fn dedup_policy(&self) -> DedupPolicy {
        self.dedup_policy
    }

    /// Sets the duplicate-resolution policy (builder style).
    pub fn with_dedup_policy(mut self, policy: DedupPolicy) -> Self {
        self.dedup_policy = policy;
        self
    }

    /// Sets the duplicate-resolution policy in place.
    pub fn set_dedup_policy(&mut self, policy: DedupPolicy) {
        self.dedup_policy = policy;
    }

    /// Number of rows.
    pub fn nrows(&self) -> I {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> I {
        self.ncols
    }

    /// Number of stored entries (including not-yet-compressed duplicates).
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends an entry. Returns an error if the coordinates are out of
    /// bounds. Duplicates are allowed and later summed by [`compress`].
    ///
    /// [`compress`]: CooMatrix::compress
    pub fn push(&mut self, row: I, col: I, val: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row: row.as_u64(),
                col: col.as_u64(),
                nrows: self.nrows.as_u64(),
                ncols: self.ncols.as_u64(),
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Builds a matrix from triplet slices, validating bounds.
    pub fn from_triplets(
        nrows: I,
        ncols: I,
        triplets: impl IntoIterator<Item = (I, I, f64)>,
    ) -> Result<Self> {
        let mut m = CooMatrix::new(nrows, ncols);
        for (r, c, v) in triplets {
            m.push(r, c, v)?;
        }
        Ok(m)
    }

    /// Iterates over the raw (possibly duplicated) entries.
    pub fn iter(&self) -> impl Iterator<Item = (I, I, f64)> + '_ {
        (0..self.rows.len()).map(move |i| (self.rows[i], self.cols[i], self.vals[i]))
    }

    /// Sorts entries into row-major order and sums duplicates in place
    /// (equivalent to [`CooMatrix::compress_with`] under
    /// [`DedupPolicy::Sum`], regardless of the attached policy).
    /// Entries whose summed value is exactly `0.0` are *kept* (explicit
    /// zeros are structurally meaningful for decomposition: they are
    /// nonzeros of the pattern).
    pub fn compress(&mut self) {
        // Sum never fails, so the error arm is unreachable.
        let _ = self.compress_with(DedupPolicy::Sum);
    }

    /// Sorts entries into row-major order, resolving duplicates according
    /// to `policy`. Under [`DedupPolicy::Error`] the matrix is left
    /// untouched when a duplicate exists and the offending coordinate is
    /// reported.
    pub fn compress_with(&mut self, policy: DedupPolicy) -> Result<()> {
        let n = self.rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        // The index tiebreak keeps duplicates in push order, which is what
        // gives `LastWins` its meaning.
        order.sort_unstable_by_key(|&i| (self.rows[i], self.cols[i], i));

        if policy == DedupPolicy::Error {
            for w in order.windows(2) {
                let (a, b) = (w[0], w[1]);
                if self.rows[a] == self.rows[b] && self.cols[a] == self.cols[b] {
                    return Err(SparseError::DuplicateEntry {
                        row: self.rows[a].as_u64(),
                        col: self.cols[a].as_u64(),
                    });
                }
            }
        }

        let mut rows: Vec<I> = Vec::with_capacity(n);
        let mut cols: Vec<I> = Vec::with_capacity(n);
        let mut vals: Vec<f64> = Vec::with_capacity(n);
        for &i in &order {
            let (r, c, v) = (self.rows[i], self.cols[i], self.vals[i]);
            if let Some(last) = vals.last_mut() {
                if rows[rows.len() - 1] == r && cols[cols.len() - 1] == c {
                    match policy {
                        DedupPolicy::Sum => *last += v,
                        DedupPolicy::LastWins => *last = v,
                        // Checked above; duplicates cannot reach here.
                        DedupPolicy::Error => {}
                    }
                    continue;
                }
            }
            rows.push(r);
            cols.push(c);
            vals.push(v);
        }
        self.rows = rows;
        self.cols = cols;
        self.vals = vals;
        Ok(())
    }

    /// Compresses using the matrix's attached [`DedupPolicy`].
    pub fn compress_policy(&mut self) -> Result<()> {
        self.compress_with(self.dedup_policy)
    }

    /// Consumes the matrix and returns `(nrows, ncols, rows, cols, vals)`.
    pub fn into_parts(self) -> (I, I, Vec<I>, Vec<I>, Vec<f64>) {
        (self.nrows, self.ncols, self.rows, self.cols, self.vals)
    }

    /// Transposes in place (swaps row/column coordinates and dimensions).
    pub fn transpose(&mut self) {
        std::mem::swap(&mut self.rows, &mut self.cols);
        std::mem::swap(&mut self.nrows, &mut self.ncols);
    }

    /// Checks the structural invariants: the three triplet arrays are
    /// parallel and every coordinate is inside the declared dimensions.
    /// Every public mutating operation preserves these (proptested);
    /// a violation therefore indicates a defect, not bad user input.
    pub fn validate(&self) -> std::result::Result<(), InvariantViolation> {
        const S: &str = "CooMatrix";
        invariant!(
            self.rows.len() == self.cols.len() && self.cols.len() == self.vals.len(),
            S,
            "triplets.parallel",
            "rows/cols/vals have lengths {}/{}/{}",
            self.rows.len(),
            self.cols.len(),
            self.vals.len()
        );
        for (e, (&r, &c)) in self.rows.iter().zip(&self.cols).enumerate() {
            invariant!(
                r < self.nrows && c < self.ncols,
                S,
                "entry.in_bounds",
                "entry {e} at ({r}, {c}) outside {} x {}",
                self.nrows,
                self.ncols
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iter_roundtrip() {
        let mut m: CooMatrix = CooMatrix::new(3, 4);
        m.push(0, 1, 2.0).unwrap();
        m.push(2, 3, -1.0).unwrap();
        assert_eq!(m.nnz(), 2);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 1, 2.0), (2, 3, -1.0)]);
    }

    #[test]
    fn push_out_of_bounds_is_rejected() {
        let mut m: CooMatrix = CooMatrix::new(2, 2);
        assert!(m.push(2, 0, 1.0).is_err());
        assert!(m.push(0, 2, 1.0).is_err());
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn compress_sums_duplicates_and_sorts() {
        let mut m: CooMatrix = CooMatrix::from_triplets(
            3,
            3,
            vec![(2, 2, 1.0), (0, 0, 1.0), (2, 2, 3.0), (0, 1, 5.0)],
        )
        .unwrap();
        m.compress();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 1.0), (0, 1, 5.0), (2, 2, 4.0)]);
    }

    #[test]
    fn compress_keeps_explicit_zero_sum() {
        let mut m: CooMatrix =
            CooMatrix::from_triplets(2, 2, vec![(1, 1, 2.0), (1, 1, -2.0)]).unwrap();
        m.compress();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.iter().next(), Some((1, 1, 0.0)));
    }

    #[test]
    fn dedup_policy_error_reports_coordinate_and_preserves_matrix() {
        let mut m: CooMatrix =
            CooMatrix::from_triplets(3, 3, vec![(1, 2, 1.0), (0, 0, 2.0), (1, 2, 3.0)])
                .unwrap()
                .with_dedup_policy(DedupPolicy::Error);
        assert_eq!(m.dedup_policy(), DedupPolicy::Error);
        match m.compress_policy() {
            Err(SparseError::DuplicateEntry { row: 1, col: 2 }) => {}
            other => panic!("expected DuplicateEntry(1,2), got {other:?}"),
        }
        assert_eq!(m.nnz(), 3, "failed compression must not mutate");
    }

    #[test]
    fn dedup_policy_last_wins() {
        let mut m: CooMatrix =
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 9.0), (1, 1, 5.0)]).unwrap();
        m.compress_with(DedupPolicy::LastWins).unwrap();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 9.0), (1, 1, 5.0)]);
    }

    #[test]
    fn dedup_policy_error_accepts_unique_entries() {
        let mut m: CooMatrix =
            CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        m.compress_with(DedupPolicy::Error).unwrap();
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut m: CooMatrix = CooMatrix::from_triplets(2, 3, vec![(0, 2, 7.0)]).unwrap();
        m.transpose();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.iter().next(), Some((2, 0, 7.0)));
    }

    #[test]
    fn empty_matrix() {
        let m: CooMatrix = CooMatrix::new(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn u64_width_accepts_indices_beyond_u32() {
        let big = (1u64 << 33) + 5;
        let mut m: CooMatrix<u64> = CooMatrix::new(1 << 34, 1 << 34);
        m.push(big, 3, 1.5).unwrap();
        assert_eq!(m.iter().next(), Some((big, 3, 1.5)));
    }
}
