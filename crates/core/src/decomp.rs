//! The common decomposition vocabulary shared by all models.

use fgh_sparse::{CsrMatrix, IndexType};

use crate::{ModelError, Result};

/// A complete 2D decomposition of a square sparse matrix for parallel
/// `y = Ax`:
///
/// * `nonzero_owner[e]` — the processor that stores nonzero `e` and
///   performs its scalar multiply, where `e` indexes nonzeros in the
///   matrix's CSR iteration order ([`CsrMatrix::iter`]),
/// * `vec_owner[j]` — the processor owning both `x_j` and `y_j`
///   (conformal *symmetric partitioning*, as iterative solvers require).
///
/// 1D row-wise and column-wise decompositions are special cases where
/// every nonzero of a row (resp. column) shares its row's (column's)
/// owner.
///
/// The struct itself is width-erased: owners are part ids (always `u32` —
/// K never approaches the index range) and the order is carried as `u64`,
/// so one decomposition type serves matrices at either index width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Number of processors K.
    pub k: u32,
    /// Matrix order M (widened so `u64`-indexed matrices fit).
    pub n: u64,
    /// Owner of each nonzero, in CSR iteration order.
    pub nonzero_owner: Vec<u32>,
    /// Owner of `x_j` and `y_j` for each `j`.
    pub vec_owner: Vec<u32>,
}

impl Decomposition {
    /// Builds a row-wise 1D decomposition: row `i` (all its nonzeros, plus
    /// `x_i`/`y_i`) lives on `row_owner[i]`.
    pub fn rowwise<I: IndexType>(a: &CsrMatrix<I>, k: u32, row_owner: Vec<u32>) -> Result<Self> {
        if !a.is_square() {
            return Err(ModelError::NotSquare {
                nrows: a.nrows().as_u64(),
                ncols: a.ncols().as_u64(),
            });
        }
        if row_owner.len() != a.nrows().index() {
            return Err(ModelError::Invalid(format!(
                "row_owner has {} entries for a {}-row matrix",
                row_owner.len(),
                a.nrows()
            )));
        }
        let mut nonzero_owner = Vec::with_capacity(a.nnz());
        for (i, _, _) in a.iter() {
            nonzero_owner.push(row_owner[i.index()]);
        }
        let d = Decomposition {
            k,
            n: a.nrows().as_u64(),
            nonzero_owner,
            vec_owner: row_owner,
        };
        d.validate(a)?;
        Ok(d)
    }

    /// Builds a column-wise 1D decomposition: column `j` lives on
    /// `col_owner[j]`.
    pub fn columnwise<I: IndexType>(a: &CsrMatrix<I>, k: u32, col_owner: Vec<u32>) -> Result<Self> {
        if !a.is_square() {
            return Err(ModelError::NotSquare {
                nrows: a.nrows().as_u64(),
                ncols: a.ncols().as_u64(),
            });
        }
        if col_owner.len() != a.ncols().index() {
            return Err(ModelError::Invalid(format!(
                "col_owner has {} entries for a {}-column matrix",
                col_owner.len(),
                a.ncols()
            )));
        }
        let mut nonzero_owner = Vec::with_capacity(a.nnz());
        for (_, j, _) in a.iter() {
            nonzero_owner.push(col_owner[j.index()]);
        }
        let d = Decomposition {
            k,
            n: a.nrows().as_u64(),
            nonzero_owner,
            vec_owner: col_owner,
        };
        d.validate(a)?;
        Ok(d)
    }

    /// Builds a fully general (2D) decomposition from explicit owners.
    pub fn general<I: IndexType>(
        a: &CsrMatrix<I>,
        k: u32,
        nonzero_owner: Vec<u32>,
        vec_owner: Vec<u32>,
    ) -> Result<Self> {
        if !a.is_square() {
            return Err(ModelError::NotSquare {
                nrows: a.nrows().as_u64(),
                ncols: a.ncols().as_u64(),
            });
        }
        let d = Decomposition {
            k,
            n: a.nrows().as_u64(),
            nonzero_owner,
            vec_owner,
        };
        d.validate(a)?;
        Ok(d)
    }

    /// Validates shape and ownership ranges against a matrix.
    pub fn validate<I: IndexType>(&self, a: &CsrMatrix<I>) -> Result<()> {
        // A rectangular matrix fails the order check, which follows the
        // K check.
        if self.k != 0 && !a.is_square() {
            return Err(self.order_mismatch(a.nrows(), a.ncols()));
        }
        self.validate_shape(a.nrows().as_u64(), a.nnz())
    }

    /// Validates shape and ownership ranges against a square matrix known
    /// only by its order and nonzero count — [`validate`](Self::validate)
    /// without the matrix.
    pub fn validate_shape(&self, order: u64, nnz: usize) -> Result<()> {
        if self.k == 0 {
            return Err(ModelError::Invalid("K must be >= 1".into()));
        }
        if self.n != order {
            return Err(self.order_mismatch(order, order));
        }
        if self.nonzero_owner.len() != nnz {
            return Err(ModelError::Invalid(format!(
                "{} nonzero owners for {nnz} nonzeros",
                self.nonzero_owner.len(),
            )));
        }
        if self.vec_owner.len() as u64 != self.n {
            return Err(ModelError::Invalid(format!(
                "{} vector owners for order {}",
                self.vec_owner.len(),
                self.n
            )));
        }
        if let Some(&p) = self.nonzero_owner.iter().find(|&&p| p >= self.k) {
            return Err(ModelError::Invalid(format!(
                "nonzero owner {p} >= K = {}",
                self.k
            )));
        }
        if let Some(&p) = self.vec_owner.iter().find(|&&p| p >= self.k) {
            return Err(ModelError::Invalid(format!(
                "vector owner {p} >= K = {}",
                self.k
            )));
        }
        Ok(())
    }

    fn order_mismatch(
        &self,
        nrows: impl std::fmt::Display,
        ncols: impl std::fmt::Display,
    ) -> ModelError {
        ModelError::Invalid(format!(
            "decomposition order {} does not match matrix {nrows}x{ncols}",
            self.n
        ))
    }

    /// Number of nonzeros (scalar multiplies) per processor — the
    /// computational loads the balance constraint controls.
    pub fn loads(&self) -> Vec<u64> {
        let mut l = vec![0u64; self.k as usize];
        for &p in &self.nonzero_owner {
            l[p as usize] += 1;
        }
        l
    }

    /// Percent computational imbalance `100 (L_max − L_avg) / L_avg`.
    pub fn load_imbalance_percent(&self) -> f64 {
        fgh_hypergraph::partition::imbalance_percent(self.loads(), self.k as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_sparse::CooMatrix;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                3,
                3,
                vec![
                    (0, 0, 1.0),
                    (0, 2, 1.0),
                    (1, 1, 1.0),
                    (2, 0, 1.0),
                    (2, 2, 1.0),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn rowwise_owners_follow_rows() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0]).unwrap();
        // CSR order: (0,0),(0,2),(1,1),(2,0),(2,2).
        assert_eq!(d.nonzero_owner, vec![0, 0, 1, 0, 0]);
        assert_eq!(d.vec_owner, vec![0, 1, 0]);
        assert_eq!(d.loads(), vec![4, 1]);
    }

    #[test]
    fn columnwise_owners_follow_columns() {
        let a = sample();
        let d = Decomposition::columnwise(&a, 2, vec![1, 0, 1]).unwrap();
        assert_eq!(d.nonzero_owner, vec![1, 1, 0, 1, 1]);
    }

    #[test]
    fn validation_catches_errors() {
        let a = sample();
        assert!(Decomposition::rowwise(&a, 2, vec![0, 1]).is_err());
        assert!(Decomposition::rowwise(&a, 2, vec![0, 1, 5]).is_err());
        assert!(Decomposition::general(&a, 2, vec![0; 4], vec![0; 3]).is_err());
        assert!(Decomposition::general(&a, 0, vec![0; 5], vec![0; 3]).is_err());
    }

    #[test]
    fn validate_shape_rejects_each_malformed_shape() {
        let a = sample();
        let rect: CsrMatrix =
            CsrMatrix::from_coo(CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]).unwrap());
        let good = Decomposition::rowwise(&a, 2, vec![0, 1, 0]).unwrap();
        good.validate_shape(3, 5).unwrap();
        let with = |f: fn(&mut Decomposition)| {
            let mut d = good.clone();
            f(&mut d);
            d
        };
        // Each case with the message `validate` has always given for it.
        let cases = [
            (with(|d| d.k = 0), &a, "K must be >= 1"),
            (with(|d| d.k = 0), &rect, "K must be >= 1"),
            (
                good.clone(),
                &rect,
                "decomposition order 3 does not match matrix 2x3",
            ),
            (
                with(|d| d.n = 4),
                &a,
                "decomposition order 4 does not match matrix 3x3",
            ),
            (
                with(|d| d.nonzero_owner.truncate(4)),
                &a,
                "4 nonzero owners for 5 nonzeros",
            ),
            (
                with(|d| d.vec_owner.truncate(2)),
                &a,
                "2 vector owners for order 3",
            ),
            (
                with(|d| d.nonzero_owner[4] = 2),
                &a,
                "nonzero owner 2 >= K = 2",
            ),
            (with(|d| d.vec_owner[0] = 7), &a, "vector owner 7 >= K = 2"),
        ];
        for (d, m, want) in cases {
            let want = format!("invalid decomposition: {want}");
            assert_eq!(d.validate(m).unwrap_err().to_string(), want);
            if m.is_square() {
                let shape = d.validate_shape(m.nrows().as_u64(), m.nnz());
                assert_eq!(shape.unwrap_err().to_string(), want);
            }
        }
    }

    #[test]
    fn rectangular_rejected() {
        let a: CsrMatrix =
            CsrMatrix::from_coo(CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]).unwrap());
        assert!(Decomposition::rowwise(&a, 1, vec![0, 0]).is_err());
    }

    #[test]
    fn load_imbalance() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0]).unwrap();
        // loads 4 and 1: avg 2.5, max 4 -> 60%.
        assert!((d.load_imbalance_percent() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn wide_matrix_decomposes_identically() {
        let a = sample();
        let a64: CsrMatrix<u64> = a.convert_width().unwrap();
        let d32 = Decomposition::rowwise(&a, 2, vec![0, 1, 0]).unwrap();
        let d64 = Decomposition::rowwise(&a64, 2, vec![0, 1, 0]).unwrap();
        assert_eq!(d32, d64, "a width-erased decomposition must not differ");
        // Cross-width validation works because the struct is width-erased.
        d32.validate(&a64).unwrap();
        d64.validate(&a).unwrap();
    }
}
