//! Compressed sparse row format — the primary analysis/compute format.

use fgh_invariant::{invariant, InvariantViolation};

use crate::index::IndexType;
use crate::{CooMatrix, CscMatrix, Result, SparseError};

/// A sparse matrix in compressed sparse row (CSR) format, generic over the
/// index width `I` ([`IndexType`]; `u32` by default).
///
/// Row `i`'s entries occupy `col_idx[row_ptr[i] .. row_ptr[i + 1]]` (and the
/// parallel range of `values`). Column indices within each row are sorted
/// ascending and unique. The pointer array is `usize` at either width.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<I: IndexType = u32> {
    nrows: I,
    ncols: I,
    row_ptr: Vec<usize>,
    col_idx: Vec<I>,
    values: Vec<f64>,
}

impl<I: IndexType> CsrMatrix<I> {
    /// Builds a CSR matrix from a COO matrix, summing duplicates (the
    /// historical behavior, equal to [`crate::coo::DedupPolicy::Sum`]).
    /// Use [`CsrMatrix::try_from_coo`] to honor the COO matrix's attached
    /// dedup policy — including rejecting duplicates outright.
    pub fn from_coo(mut coo: CooMatrix<I>) -> Self {
        coo.compress();
        let row_ptr = vec![0usize; coo.nrows().index() + 1];
        Self::from_compressed(coo, row_ptr)
    }

    /// Builds a CSR matrix from a COO matrix, resolving duplicates with
    /// the COO matrix's [`crate::coo::DedupPolicy`]. Fails with
    /// [`SparseError::DuplicateEntry`] under the `Error` policy when a
    /// duplicate coordinate exists, and with [`SparseError::Io`] when the
    /// allocator refuses the row pointer array — the row count may come
    /// from an untrusted header, which must not abort the process.
    pub fn try_from_coo(mut coo: CooMatrix<I>) -> Result<Self> {
        coo.compress_policy()?;
        let len = coo.nrows().index() + 1;
        let mut row_ptr = Vec::new();
        row_ptr.try_reserve_exact(len).map_err(|e| {
            SparseError::Io(format!(
                "row pointers for {} rows: {e}",
                coo.nrows().as_u64()
            ))
        })?;
        row_ptr.resize(len, 0);
        Ok(Self::from_compressed(coo, row_ptr))
    }

    /// CSR assembly from an already-compressed (row-major, duplicate-free)
    /// COO matrix into `row_ptr`, which arrives as nrows+1 zeros.
    // lint: checked-index — row_ptr has nrows+1 slots and every COO row id was bounds-checked at insert
    fn from_compressed(coo: CooMatrix<I>, mut row_ptr: Vec<usize>) -> Self {
        let (nrows, ncols, rows, cols, vals) = coo.into_parts();
        let nnz = rows.len();
        for &r in &rows {
            row_ptr[r.index() + 1] += 1;
        }
        for i in 0..nrows.index() {
            row_ptr[i + 1] += row_ptr[i];
        }
        debug_assert_eq!(row_ptr[nrows.index()], nnz);
        // `compress` already sorted row-major, so cols/vals are in final order.
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx: cols,
            values: vals,
        }
    }

    /// Builds directly from raw CSR arrays, validating the invariants
    /// (monotone `row_ptr`, in-bounds sorted unique column indices).
    // lint: checked-index — row_ptr.len() == nrows+1 is checked before any row_ptr[i] access
    pub fn from_raw(
        nrows: I,
        ncols: I,
        row_ptr: Vec<usize>,
        col_idx: Vec<I>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows.index() + 1 {
            // Widen before adding one: `nrows + 1` overflows the index type
            // (and panics under overflow-checks) when nrows == I::MAX.
            return Err(SparseError::Parse(format!(
                "row_ptr length {} != nrows + 1 = {}",
                row_ptr.len(),
                nrows.as_u64() + 1
            )));
        }
        if row_ptr[0] != 0 || row_ptr[nrows.index()] != col_idx.len() {
            return Err(SparseError::Parse("row_ptr endpoints invalid".into()));
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::Parse(
                "col_idx / values length mismatch".into(),
            ));
        }
        for i in 0..nrows.index() {
            if row_ptr[i] > row_ptr[i + 1] || row_ptr[i + 1] > col_idx.len() {
                return Err(SparseError::Parse(format!(
                    "row_ptr not monotone at row {i}"
                )));
            }
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Parse(format!(
                        "row {i} columns not sorted/unique"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    // Exact widening conversions, not narrowing casts: the
                    // error reports coordinates as u64 at either width.
                    return Err(SparseError::IndexOutOfBounds {
                        row: i as u64,
                        col: last.as_u64(),
                        nrows: nrows.as_u64(),
                        ncols: ncols.as_u64(),
                    });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: I) -> Self {
        let row_ptr = (0..=n.index()).collect();
        let col_idx = (0..n.index()).map(I::from_index).collect();
        let values = vec![1.0; n.index()];
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> I {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> I {
        self.ncols
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// `true` for square matrices.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// The raw row pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column index array (length `nnz`).
    pub fn col_idx(&self) -> &[I] {
        &self.col_idx
    }

    /// The raw value array (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices of row `i`, sorted ascending.
    // lint: checked-index — i < nrows is the documented caller contract; row_ptr has nrows+1 entries
    pub fn row_cols(&self, i: I) -> &[I] {
        &self.col_idx[self.row_ptr[i.index()]..self.row_ptr[i.index() + 1]]
    }

    /// Values of row `i`, parallel to [`CsrMatrix::row_cols`].
    // lint: checked-index — i < nrows is the documented caller contract; row_ptr has nrows+1 entries
    pub fn row_vals(&self, i: I) -> &[f64] {
        &self.values[self.row_ptr[i.index()]..self.row_ptr[i.index() + 1]]
    }

    /// Number of nonzeros in row `i`.
    // lint: checked-index — i < nrows is the documented caller contract; row_ptr has nrows+1 entries
    pub fn row_nnz(&self, i: I) -> usize {
        self.row_ptr[i.index() + 1] - self.row_ptr[i.index()]
    }

    /// Looks up entry `(i, j)` by binary search over row `i`.
    // lint: checked-index — p comes from binary_search over the parallel row slice
    pub fn get(&self, i: I, j: I) -> Option<f64> {
        let cols = self.row_cols(i);
        cols.binary_search(&j).ok().map(|p| self.row_vals(i)[p])
    }

    /// `true` if entry `(i, j)` is structurally present.
    pub fn contains(&self, i: I, j: I) -> bool {
        self.row_cols(i).binary_search(&j).is_ok()
    }

    /// Iterates over all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (I, I, f64)> + '_ {
        (0..self.nrows.index()).flat_map(move |i| {
            let i = I::from_index(i);
            self.row_cols(i)
                .iter()
                .zip(self.row_vals(i))
                .map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Heap bytes held by the three CSR arrays (capacity, not length) —
    /// the working-set accounting `Budget::max_bytes` consumes.
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.capacity() * std::mem::size_of::<usize>()
            + self.col_idx.capacity() * std::mem::size_of::<I>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// The transpose as a new CSR matrix.
    // lint: checked-index — counting-sort slots: every column id < ncols by the CSR invariant, next[j] < nnz
    pub fn transpose(&self) -> CsrMatrix<I> {
        let nnz = self.nnz();
        let mut row_ptr = vec![0usize; self.ncols.index() + 1];
        for &j in &self.col_idx {
            row_ptr[j.index() + 1] += 1;
        }
        for i in 0..self.ncols.index() {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![I::ZERO; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut next = row_ptr.clone();
        for i in 0..self.nrows.index() {
            let i = I::from_index(i);
            for (&j, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                let slot = next[j.index()];
                col_idx[slot] = i;
                values[slot] = v;
                next[j.index()] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts to compressed sparse column format.
    pub fn to_csc(&self) -> CscMatrix<I> {
        let t = self.transpose();
        // The CSR of Aᵀ holds exactly the CSC arrays of A.
        CscMatrix::from_transposed_csr(t)
    }

    /// Converts back to COO format.
    // Infallible: `iter` yields indices already validated at construction,
    // so they are in bounds for a matrix of the same shape.
    #[allow(clippy::expect_used)]
    pub fn to_coo(&self) -> CooMatrix<I> {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (i, j, v) in self.iter() {
            coo.push(i, j, v).expect("CSR entries are in bounds");
        }
        coo
    }

    /// Re-expresses the matrix under another index width, with a typed
    /// [`SparseError::TooLarge`] when narrowing does not fit. Widening
    /// (`u32` → `u64`) always succeeds — this is how the forced-width
    /// parity tests feed one matrix to both engine paths.
    pub fn convert_width<J: IndexType>(&self) -> Result<CsrMatrix<J>> {
        let nrows = J::checked(self.nrows.as_u64(), "row count")?;
        let ncols = J::checked(self.ncols.as_u64(), "column count")?;
        let col_idx = self
            .col_idx
            .iter()
            .map(|&j| J::checked(j.as_u64(), "column index"))
            .collect::<Result<Vec<J>>>()?;
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx,
            values: self.values.clone(),
        })
    }

    /// Serial sparse matrix-vector multiply `y = A x`.
    // lint: checked-index — x.len() == ncols is checked up front; column ids < ncols by the CSR invariant
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols.index() {
            return Err(SparseError::DimensionMismatch(format!(
                "x has length {}, expected {}",
                x.len(),
                self.ncols
            )));
        }
        let mut y = vec![0.0f64; self.nrows.index()];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            let iv = I::from_index(i);
            for (&j, &v) in self.row_cols(iv).iter().zip(self.row_vals(iv)) {
                acc += v * x[j.index()];
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// `true` if every diagonal entry `a_ii` is structurally present
    /// (requires square).
    pub fn has_full_diagonal(&self) -> bool {
        self.is_square()
            && (0..self.nrows.index()).all(|i| {
                let i = I::from_index(i);
                self.contains(i, i)
            })
    }

    /// Indices `i` with no structural `a_ii` (square matrices).
    pub fn missing_diagonal(&self) -> Vec<I> {
        if !self.is_square() {
            return Vec::new();
        }
        (0..self.nrows.index())
            .map(I::from_index)
            .filter(|&i| !self.contains(i, i))
            .collect()
    }

    /// `true` if the *pattern* is symmetric (values ignored).
    pub fn pattern_symmetric(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        let t = self.transpose();
        self.row_ptr == t.row_ptr && self.col_idx == t.col_idx
    }

    /// Checks the structural invariants of the compressed layout: pointer
    /// array shape, monotonicity, parallel index/value arrays, and sorted,
    /// unique, in-bounds column indices per row. Construction enforces all
    /// of these, so a violation indicates a defect (or corruption), not
    /// bad user input.
    // lint: checked-index — row_ptr has nrows+1 entries; windows(2) yields exactly two elements
    pub fn validate(&self) -> std::result::Result<(), InvariantViolation> {
        const S: &str = "CsrMatrix";
        invariant!(
            self.row_ptr.len() == self.nrows.index() + 1,
            S,
            "row_ptr.len",
            "row_ptr has {} entries for {} rows",
            self.row_ptr.len(),
            self.nrows
        );
        invariant!(
            self.row_ptr.first() == Some(&0),
            S,
            "row_ptr.origin",
            "row_ptr[0] = {:?}, expected 0",
            self.row_ptr.first()
        );
        invariant!(
            self.row_ptr.last() == Some(&self.col_idx.len()),
            S,
            "row_ptr.end",
            "row_ptr ends at {:?}, expected nnz = {}",
            self.row_ptr.last(),
            self.col_idx.len()
        );
        invariant!(
            self.col_idx.len() == self.values.len(),
            S,
            "arrays.parallel",
            "col_idx/values have lengths {}/{}",
            self.col_idx.len(),
            self.values.len()
        );
        for i in 0..self.nrows.index() {
            invariant!(
                self.row_ptr[i] <= self.row_ptr[i + 1],
                S,
                "row_ptr.monotone",
                "row_ptr not monotone at row {i}: {} > {}",
                self.row_ptr[i],
                self.row_ptr[i + 1]
            );
            let row = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
            for w in row.windows(2) {
                invariant!(
                    w[0] < w[1],
                    S,
                    "cols.sorted_unique",
                    "row {i} columns not sorted/unique: {} then {}",
                    w[0],
                    w[1]
                );
            }
            if let Some(&last) = row.last() {
                invariant!(
                    last < self.ncols,
                    S,
                    "cols.in_bounds",
                    "row {i} has column {last} >= ncols = {}",
                    self.ncols
                );
            }
        }
        Ok(())
    }

    /// `true` if the matrix is numerically symmetric.
    pub fn numerically_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.iter().all(|(i, j, v)| match self.get(j, i) {
            Some(w) => (v - w).abs() <= tol,
            None => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                3,
                3,
                vec![
                    (0, 0, 1.0),
                    (0, 2, 2.0),
                    (1, 1, 3.0),
                    (2, 0, 4.0),
                    (2, 2, 5.0),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn from_coo_layout() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(m.row_cols(0), &[0, 2]);
        assert_eq!(m.row_vals(2), &[4.0, 5.0]);
    }

    #[test]
    fn get_and_contains() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(0, 1), None);
        assert!(m.contains(2, 0));
        assert!(!m.contains(1, 0));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(0, 2), Some(4.0));
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let y = m.spmv(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn spmv_dimension_check() {
        let m = sample();
        assert!(m.spmv(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn diagonal_queries() {
        let m = sample();
        assert!(m.has_full_diagonal());
        let m2: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap(),
        );
        assert!(!m2.has_full_diagonal());
        assert_eq!(m2.missing_diagonal(), vec![0, 1]);
    }

    #[test]
    fn symmetry_checks() {
        let sym: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(2, 2, vec![(0, 1, 2.0), (1, 0, 2.0)]).unwrap(),
        );
        assert!(sym.pattern_symmetric());
        assert!(sym.numerically_symmetric(0.0));
        let asym: CsrMatrix =
            CsrMatrix::from_coo(CooMatrix::from_triplets(2, 2, vec![(0, 1, 2.0)]).unwrap());
        assert!(!asym.pattern_symmetric());
    }

    #[test]
    fn identity_is_identity() {
        let i: CsrMatrix = CsrMatrix::identity(4);
        assert!(i.has_full_diagonal());
        let y = i.spmv(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_raw_validation() {
        assert!(
            CsrMatrix::<u32>::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok()
        );
        // unsorted columns in a row
        assert!(CsrMatrix::<u32>::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // column out of bounds
        assert!(CsrMatrix::<u32>::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // bad row_ptr
        assert!(
            CsrMatrix::<u32>::from_raw(2, 2, vec![0, 3, 2], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
    }

    #[test]
    fn empty_rows_are_fine() {
        let m: CsrMatrix =
            CsrMatrix::from_coo(CooMatrix::from_triplets(3, 3, vec![(1, 1, 1.0)]).unwrap());
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.row_nnz(2), 0);
    }

    #[test]
    fn u64_width_layout_and_queries() {
        // Note CSR's row pointer is dense in nrows, so a u64-width test
        // keeps the order modest; addressing beyond u32 is exercised on
        // the (fully sparse) COO side and by the BigPattern arithmetic.
        let n = 50_000u64;
        let m: CsrMatrix<u64> = CsrMatrix::from_coo(
            CooMatrix::from_triplets(n, n, vec![(0, 0, 1.0), (n - 1, 3, 2.0)]).unwrap(),
        );
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(n - 1, 3), Some(2.0));
        assert_eq!(m.row_nnz(17), 0);
    }

    #[test]
    fn convert_width_roundtrip() {
        let m = sample();
        let wide: CsrMatrix<u64> = m.convert_width().unwrap();
        assert_eq!(wide.nnz(), m.nnz());
        assert_eq!(wide.get(0, 2), Some(2.0));
        let back: CsrMatrix<u32> = wide.convert_width().unwrap();
        assert_eq!(m, back);

        let big: CsrMatrix<u64> = CsrMatrix::from_coo(CooMatrix::new(2, 1 << 40));
        assert!(matches!(
            big.convert_width::<u32>(),
            Err(SparseError::TooLarge { .. })
        ));
    }
}
