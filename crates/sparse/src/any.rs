//! The width-erased matrix carrier.
//!
//! [`crate::IndexWidth::select`] picks an index width from a parsed Matrix
//! Market header *at runtime*, but `CsrMatrix<I>` is a width-*generic*
//! type. [`AnyCsrMatrix`] bridges the two worlds: it is "a CSR matrix at
//! whichever width the input needed", and callers either dispatch on the
//! variant or use the width-agnostic accessors below. The width-erased
//! Matrix Market readers return it, and `fgh-core`'s
//! `decompose_workload_any` consumes it, so the CLI never names an index
//! width.

use crate::index::{IndexType, IndexWidth};
use crate::{CsrMatrix, Result};

/// A CSR matrix at either index width.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyCsrMatrix {
    /// 32-bit indices (fast path).
    U32(CsrMatrix<u32>),
    /// 64-bit indices (big path).
    U64(CsrMatrix<u64>),
}

impl AnyCsrMatrix {
    /// The index width of the carried matrix.
    pub fn width(&self) -> IndexWidth {
        match self {
            AnyCsrMatrix::U32(_) => IndexWidth::U32,
            AnyCsrMatrix::U64(_) => IndexWidth::U64,
        }
    }

    /// Number of rows, widened to `u64`.
    pub fn nrows(&self) -> u64 {
        match self {
            AnyCsrMatrix::U32(m) => m.nrows().as_u64(),
            AnyCsrMatrix::U64(m) => m.nrows().as_u64(),
        }
    }

    /// Number of columns, widened to `u64`.
    pub fn ncols(&self) -> u64 {
        match self {
            AnyCsrMatrix::U32(m) => m.ncols().as_u64(),
            AnyCsrMatrix::U64(m) => m.ncols().as_u64(),
        }
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        match self {
            AnyCsrMatrix::U32(m) => m.nnz(),
            AnyCsrMatrix::U64(m) => m.nnz(),
        }
    }

    /// `true` for square matrices.
    pub fn is_square(&self) -> bool {
        self.nrows() == self.ncols()
    }

    /// Heap bytes held by the CSR arrays at the carried width.
    pub fn heap_bytes(&self) -> usize {
        match self {
            AnyCsrMatrix::U32(m) => m.heap_bytes(),
            AnyCsrMatrix::U64(m) => m.heap_bytes(),
        }
    }

    /// The `u32` matrix, if that is the carried width.
    pub fn as_u32(&self) -> Option<&CsrMatrix<u32>> {
        match self {
            AnyCsrMatrix::U32(m) => Some(m),
            AnyCsrMatrix::U64(_) => None,
        }
    }

    /// The `u64` matrix, if that is the carried width.
    pub fn as_u64(&self) -> Option<&CsrMatrix<u64>> {
        match self {
            AnyCsrMatrix::U32(_) => None,
            AnyCsrMatrix::U64(m) => Some(m),
        }
    }

    /// Re-expresses the matrix at an explicit width (typed
    /// [`crate::SparseError::TooLarge`] when narrowing does not fit).
    pub fn convert_width(&self, width: IndexWidth) -> Result<AnyCsrMatrix> {
        Ok(match (self, width) {
            (AnyCsrMatrix::U32(m), IndexWidth::U32) => AnyCsrMatrix::U32(m.clone()),
            (AnyCsrMatrix::U32(m), IndexWidth::U64) => AnyCsrMatrix::U64(m.convert_width()?),
            (AnyCsrMatrix::U64(m), IndexWidth::U32) => AnyCsrMatrix::U32(m.convert_width()?),
            (AnyCsrMatrix::U64(m), IndexWidth::U64) => AnyCsrMatrix::U64(m.clone()),
        })
    }
}

impl From<CsrMatrix<u32>> for AnyCsrMatrix {
    fn from(m: CsrMatrix<u32>) -> Self {
        AnyCsrMatrix::U32(m)
    }
}

impl From<CsrMatrix<u64>> for AnyCsrMatrix {
    fn from(m: CsrMatrix<u64>) -> Self {
        AnyCsrMatrix::U64(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn csr32() -> CsrMatrix<u32> {
        CsrMatrix::from_coo(
            CooMatrix::from_triplets(3, 3, vec![(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)]).unwrap(),
        )
    }

    #[test]
    fn width_accessors() {
        let any = AnyCsrMatrix::from(csr32());
        assert_eq!(any.width(), IndexWidth::U32);
        assert_eq!(any.nrows(), 3);
        assert_eq!(any.nnz(), 3);
    }

    #[test]
    fn into_csr_preserves_width() {
        let csr = AnyCsrMatrix::from(csr32());
        assert_eq!(csr.width(), IndexWidth::U32);
        assert!(csr.as_u32().is_some());
        assert!(csr.as_u64().is_none());
        assert_eq!(csr.nnz(), 3);
        assert!(csr.is_square());
        assert!(csr.heap_bytes() > 0);
    }

    #[test]
    fn convert_width_roundtrip() {
        let any = AnyCsrMatrix::from(csr32());
        let wide = any.convert_width(IndexWidth::U64).unwrap();
        assert_eq!(wide.width(), IndexWidth::U64);
        let back = wide.convert_width(IndexWidth::U32).unwrap();
        assert_eq!(back, any);
    }

    #[test]
    fn narrowing_out_of_range_errors() {
        let mut big: CooMatrix<u64> = CooMatrix::new(1, 1 << 40);
        big.push(0, 1 << 35, 1.0).unwrap();
        let any = AnyCsrMatrix::from(CsrMatrix::from_coo(big));
        assert!(any.convert_width(IndexWidth::U32).is_err());
    }
}
