//! Diagonal rescaling to unit diagonal.
//!
//! The paper's analysis (Setup and Notation; "Non-Unit Diagonal" in
//! Section 3) assumes `A` has a unit diagonal and notes this is "easily
//! accomplished using re-scaling": given SPD `B` with positive diagonal, the
//! matrix `A = D B D` with `D = diag(B_ii^{-1/2})` has unit diagonal, and the
//! iterates of unit-diagonal Randomized Gauss-Seidel on `A x = D z` relate to
//! the general iteration (3) on `B y = z` via `y = D x` with
//! `||x_j - x*||_A = ||y_j - y*||_B`.
//!
//! This module implements that transformation and the mappings between the
//! two coordinate systems.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::op::{first_nonfinite_in_rows, LinearOperator, RowAccess};

/// The result of rescaling an SPD matrix `B` to unit diagonal.
///
/// Holds `A = D B D` with `D = diag(B_ii^{-1/2})`, plus `D`'s diagonal so
/// solutions and right-hand sides can be mapped between the systems:
///
/// * `B y = z`  ⇔  `A x = D z`, with `y = D x`.
#[derive(Debug, Clone)]
pub struct UnitDiagonal {
    /// The rescaled matrix `A = D B D` (unit diagonal).
    pub a: CsrMatrix,
    /// The diagonal of `D`, i.e. `d[i] = B_ii^{-1/2}`.
    pub d: Vec<f64>,
}

impl UnitDiagonal {
    /// Rescale an SPD matrix `B` to unit diagonal.
    ///
    /// Returns an error if `B` is not square or has a non-positive diagonal
    /// entry (which would contradict positive definiteness).
    pub fn from_spd(b: &CsrMatrix) -> Result<Self> {
        if !b.is_square() {
            return Err(SparseError::NotSquare {
                n_rows: b.n_rows(),
                n_cols: b.n_cols(),
            });
        }
        let diag = b.diag();
        let mut d = Vec::with_capacity(diag.len());
        for (i, &v) in diag.iter().enumerate() {
            if v <= 0.0 {
                return Err(SparseError::NonPositiveDiagonal { index: i, value: v });
            }
            d.push(1.0 / v.sqrt());
        }
        let mut a = b.clone();
        // A_ij = d_i * B_ij * d_j; walk rows in place.
        let n = a.n_rows();
        for i in 0..n {
            let lo = a.row_ptr()[i];
            let hi = a.row_ptr()[i + 1];
            let di = d[i];
            // Split borrows: col indices are read-only, values mutated.
            let cols: Vec<usize> = a.col_idx()[lo..hi].to_vec();
            let vals = &mut a.values_mut()[lo..hi];
            for (v, c) in vals.iter_mut().zip(cols) {
                *v *= di * d[c];
            }
        }
        Ok(UnitDiagonal { a, d })
    }

    /// Map a right-hand side of `B y = z` to the unit-diagonal system:
    /// returns `D z`.
    pub fn rhs_to_unit(&self, z: &[f64]) -> Vec<f64> {
        scale_entrywise("rhs_to_unit", &self.d, z)
    }

    /// Map a unit-diagonal solution `x` back to the original system:
    /// returns `y = D x`.
    pub fn solution_to_original(&self, x: &[f64]) -> Vec<f64> {
        scale_entrywise("solution_to_original", &self.d, x)
    }

    /// Map an original-system solution `y` to unit-diagonal coordinates:
    /// returns `x = D^{-1} y`.
    pub fn solution_to_unit(&self, y: &[f64]) -> Vec<f64> {
        unscale_entrywise("solution_to_unit", &self.d, y)
    }
}

/// `v` scaled entrywise by `d` (the `D v` map both rescaling types use).
fn scale_entrywise(label: &str, d: &[f64], v: &[f64]) -> Vec<f64> {
    assert_eq!(v.len(), d.len(), "{label}: length mismatch");
    v.iter().zip(d).map(|(vi, di)| vi * di).collect()
}

/// `v` divided entrywise by `d` (the `D^{-1} v` map).
fn unscale_entrywise(label: &str, d: &[f64], v: &[f64]) -> Vec<f64> {
    assert_eq!(v.len(), d.len(), "{label}: length mismatch");
    v.iter().zip(d).map(|(vi, di)| vi / di).collect()
}

/// Check that every diagonal entry of `a` equals 1 to within `tol`.
pub fn has_unit_diagonal(a: &CsrMatrix, tol: f64) -> bool {
    a.is_square() && a.diag().iter().all(|&v| (v - 1.0).abs() <= tol)
}

/// A **zero-copy** view of `A = D B D` with `D = diag(B_ii^{-1/2})`: the
/// unit-diagonal rescaling of Section 3 without materializing the scaled
/// matrix.
///
/// Only the `n`-vector `d` is stored; every row access and matrix-vector
/// product scales `B`'s entries on the fly as `A_ij = d_i * B_ij * d_j`.
/// The arithmetic matches [`UnitDiagonal::from_spd`] exactly (same products
/// in the same order), so solvers driven through the view produce bitwise
/// the same iterates as solvers on the materialized rescaled matrix.
#[derive(Debug, Clone)]
pub struct UnitDiagonalView<'a> {
    b: &'a CsrMatrix,
    d: Vec<f64>,
}

impl<'a> UnitDiagonalView<'a> {
    /// Wrap an SPD matrix `B`, validating that its diagonal is positive.
    pub fn new(b: &'a CsrMatrix) -> Result<Self> {
        if !b.is_square() {
            return Err(SparseError::NotSquare {
                n_rows: b.n_rows(),
                n_cols: b.n_cols(),
            });
        }
        let diag = b.diag();
        let mut d = Vec::with_capacity(diag.len());
        for (i, &v) in diag.iter().enumerate() {
            if v <= 0.0 {
                return Err(SparseError::NonPositiveDiagonal { index: i, value: v });
            }
            d.push(1.0 / v.sqrt());
        }
        Ok(UnitDiagonalView { b, d })
    }

    /// The wrapped matrix `B`.
    pub fn inner(&self) -> &CsrMatrix {
        self.b
    }

    /// The diagonal of `D`, i.e. `d[i] = B_ii^{-1/2}`.
    pub fn scaling(&self) -> &[f64] {
        &self.d
    }

    /// Map a right-hand side of `B y = z` to the unit-diagonal system:
    /// returns `D z`.
    pub fn rhs_to_unit(&self, z: &[f64]) -> Vec<f64> {
        scale_entrywise("rhs_to_unit", &self.d, z)
    }

    /// Map a unit-diagonal solution `x` back to the original system:
    /// returns `y = D x`.
    pub fn solution_to_original(&self, x: &[f64]) -> Vec<f64> {
        scale_entrywise("solution_to_original", &self.d, x)
    }

    /// Map an original-system solution `y` to unit-diagonal coordinates:
    /// returns `x = D^{-1} y`.
    pub fn solution_to_unit(&self, y: &[f64]) -> Vec<f64> {
        unscale_entrywise("solution_to_unit", &self.d, y)
    }
}

impl LinearOperator for UnitDiagonalView<'_> {
    fn n_rows(&self) -> usize {
        self.b.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.b.n_cols()
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols(), "matvec: x length mismatch");
        assert_eq!(y.len(), self.n_rows(), "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.row_dot(i, x);
        }
    }

    fn diag(&self) -> Vec<f64> {
        // D B D has a unit diagonal by construction; compute it with the
        // same arithmetic as the materialized rescaling (B_ii * d_i^2 is 1
        // only up to roundoff) so both paths stay bitwise interchangeable.
        self.b
            .diag()
            .iter()
            .zip(&self.d)
            .map(|(&v, &di)| v * (di * di))
            .collect()
    }

    fn first_nonfinite(&self) -> Option<(usize, f64)> {
        // The rescaled values, not `b`'s: `b_ij * d_i * d_j` can overflow.
        first_nonfinite_in_rows(self)
    }
}

impl RowAccess for UnitDiagonalView<'_> {
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, mut f: F) {
        let di = self.d[i];
        let (cols, vals) = self.b.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            // Same product order as `UnitDiagonal::from_spd`, so iterates
            // driven through the view match the materialized matrix bitwise.
            f(c, v * (di * self.d[c]));
        }
    }

    fn row_nnz(&self, i: usize) -> usize {
        self.b.row_nnz(i)
    }

    fn row_entry(&self, i: usize, j: usize) -> f64 {
        // Same product order as `visit_row`, so point queries stay bitwise
        // consistent with row iteration.
        let v = self.b.get(i, j);
        if v == 0.0 {
            0.0
        } else {
            v * (self.d[i] * self.d[j])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd() -> CsrMatrix {
        // [ 4 -1  0 ]
        // [-1  9 -2 ]
        // [ 0 -2 16 ]
        CsrMatrix::from_dense(3, 3, &[4.0, -1.0, 0.0, -1.0, 9.0, -2.0, 0.0, -2.0, 16.0])
    }

    #[test]
    fn rescaled_has_unit_diagonal() {
        let u = UnitDiagonal::from_spd(&spd()).unwrap();
        assert!(has_unit_diagonal(&u.a, 1e-15));
        assert!(u.a.is_symmetric(1e-15));
    }

    #[test]
    fn rescaled_entries_correct() {
        let u = UnitDiagonal::from_spd(&spd()).unwrap();
        // A_01 = B_01 / (sqrt(4) * sqrt(9)) = -1/6
        assert!((u.a.get(0, 1) + 1.0 / 6.0).abs() < 1e-15);
        // A_12 = -2 / (3 * 4)
        assert!((u.a.get(1, 2) + 2.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn solution_mapping_roundtrip() {
        let b = spd();
        let u = UnitDiagonal::from_spd(&b).unwrap();
        let y_star = vec![1.0, -2.0, 0.5];
        let z = b.matvec(&y_star);
        // Solve the unit-diagonal system exactly via the relationship:
        // x* = D^{-1} y*, and A x* should equal D z.
        let x_star = u.solution_to_unit(&y_star);
        let ax = u.a.matvec(&x_star);
        let dz = u.rhs_to_unit(&z);
        for (a, b) in ax.iter().zip(&dz) {
            assert!((a - b).abs() < 1e-12);
        }
        // Map back.
        let y_back = u.solution_to_original(&x_star);
        for (a, b) in y_back.iter().zip(&y_star) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn a_norm_preserved() {
        // ||x - x*||_A == ||y - y*||_B with y = D x (paper Section 3).
        let b = spd();
        let u = UnitDiagonal::from_spd(&b).unwrap();
        let x = vec![0.3, 0.7, -0.1];
        let x_star = vec![1.0, 1.0, 1.0];
        let diff_x: Vec<f64> = x.iter().zip(&x_star).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = u.solution_to_original(&x);
        let y_star: Vec<f64> = u.solution_to_original(&x_star);
        let diff_y: Vec<f64> = y.iter().zip(&y_star).map(|(a, b)| a - b).collect();
        let na = u.a.a_norm(&diff_x);
        let nb = b.a_norm(&diff_y);
        assert!((na - nb).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_square() {
        let m = CsrMatrix::from_dense(2, 3, &[1.0; 6]);
        assert!(matches!(
            UnitDiagonal::from_spd(&m),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_non_positive_diagonal() {
        let m = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        assert!(matches!(
            UnitDiagonal::from_spd(&m),
            Err(SparseError::NonPositiveDiagonal { index: 1, .. })
        ));
        // Structurally missing diagonal entry reads as 0.0.
        let m = CsrMatrix::from_dense(2, 2, &[1.0, 1.0, 1.0, 0.0]);
        assert!(UnitDiagonal::from_spd(&m).is_err());
    }

    #[test]
    fn identity_is_fixed_point() {
        let id = CsrMatrix::identity(5);
        let u = UnitDiagonal::from_spd(&id).unwrap();
        assert_eq!(u.a, id);
        assert!(u.d.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn view_matches_materialized_bitwise() {
        let b = spd();
        let materialized = UnitDiagonal::from_spd(&b).unwrap();
        let view = UnitDiagonalView::new(&b).unwrap();
        assert_eq!(view.scaling(), &materialized.d[..]);
        // Row entries, diagonal, and matvec all agree bitwise.
        for i in 0..3 {
            let (cols, vals) = materialized.a.row(i);
            let mut got = Vec::new();
            view.visit_row(i, |c, v| got.push((c, v)));
            let want: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
            assert_eq!(got, want);
        }
        assert_eq!(LinearOperator::diag(&view), materialized.a.diag());
        let x = vec![0.25, -1.5, 3.0];
        assert_eq!(LinearOperator::matvec(&view, &x), materialized.a.matvec(&x));
    }

    #[test]
    fn view_mappings_match_materialized() {
        let b = spd();
        let u = UnitDiagonal::from_spd(&b).unwrap();
        let view = UnitDiagonalView::new(&b).unwrap();
        let z = vec![1.0, -2.0, 0.5];
        assert_eq!(view.rhs_to_unit(&z), u.rhs_to_unit(&z));
        assert_eq!(view.solution_to_original(&z), u.solution_to_original(&z));
        assert_eq!(view.solution_to_unit(&z), u.solution_to_unit(&z));
        assert_eq!(view.inner().nnz(), b.nnz());
    }

    #[test]
    fn view_rejects_bad_inputs() {
        let rect = CsrMatrix::from_dense(2, 3, &[1.0; 6]);
        assert!(matches!(
            UnitDiagonalView::new(&rect),
            Err(SparseError::NotSquare { .. })
        ));
        let neg = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        assert!(matches!(
            UnitDiagonalView::new(&neg),
            Err(SparseError::NonPositiveDiagonal { index: 1, .. })
        ));
    }
}
