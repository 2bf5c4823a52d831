//! Property tests of the runtime invariant validators: `validate()` must
//! hold after every public mutating operation on [`CooMatrix`], and the
//! CSR/CSC structural validators must accept everything the conversion
//! pipeline produces.

use fgh_sparse::{CooMatrix, CscMatrix, CsrMatrix};
use proptest::prelude::*;

/// Dimensions plus a list of in-bounds (possibly duplicate) triplets.
fn triplets() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, f64)>)> {
    (1u32..=12, 1u32..=12).prop_flat_map(|(nr, nc)| {
        proptest::collection::vec((0..nr, 0..nc, 0u32..100), 0..=40).prop_map(move |ts| {
            let ts = ts
                .into_iter()
                .map(|(i, j, v)| (i, j, v as f64 * 0.25 - 5.0))
                .collect();
            (nr, nc, ts)
        })
    })
}

proptest! {
    /// `CooMatrix::validate` holds after construction and after every
    /// `push`, `compress`, and `transpose` call.
    #[test]
    fn coo_valid_after_every_mutation((nr, nc, ts) in triplets()) {
        let mut coo = CooMatrix::new(nr, nc);
        coo.validate().expect("empty matrix");
        for &(i, j, v) in &ts {
            coo.push(i, j, v).expect("in bounds");
            coo.validate().expect("after push");
        }

        let mut summed = coo.clone();
        summed.compress();
        summed.validate().expect("after compress");
        prop_assert!(summed.nnz() <= ts.len());

        let mut t = coo.clone();
        t.transpose();
        t.validate().expect("after transpose");
        prop_assert_eq!(t.nrows(), nc);
        prop_assert_eq!(t.ncols(), nr);
        t.transpose();
        t.validate().expect("after double transpose");
    }

    /// The CSR/CSC structural validators accept every matrix the
    /// conversion pipeline can produce, in both directions.
    #[test]
    fn csr_csc_conversions_stay_valid((nr, nc, ts) in triplets()) {
        let coo = CooMatrix::from_triplets(nr, nc, ts).expect("in bounds");
        let a = CsrMatrix::from_coo(coo);
        a.validate().expect("CSR from COO");

        let t = a.transpose();
        t.validate().expect("CSR transpose");
        prop_assert_eq!(t.nnz(), a.nnz());

        let csc = CscMatrix::from_csr(&a);
        csc.validate().expect("CSC from CSR");
        prop_assert_eq!(csc.nnz(), a.nnz());

        let back = CsrMatrix::from_coo(a.to_coo());
        back.validate().expect("CSR -> COO -> CSR");
        prop_assert_eq!(back.nnz(), a.nnz());

        // Round trip through raw parts exercises from_raw's checks.
        let rebuilt = CsrMatrix::from_raw(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().to_vec(),
        )
        .expect("raw arrays of a valid matrix");
        rebuilt.validate().expect("CSR from raw");
    }

    /// Validators reject corrupted structures: an out-of-bounds column
    /// index or a non-monotone row pointer must not pass.
    #[test]
    fn csr_validator_rejects_corruption((nr, nc, ts) in triplets()) {
        let coo = CooMatrix::from_triplets(nr, nc, ts).expect("in bounds");
        let a = CsrMatrix::from_coo(coo);
        if a.nnz() == 0 {
            return Ok(());
        }
        // Corrupt a column index out of range.
        let mut cols = a.col_idx().to_vec();
        cols[0] = a.ncols();
        prop_assert!(CsrMatrix::from_raw(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            cols,
            a.values().to_vec(),
        )
        .is_err());
    }
}
