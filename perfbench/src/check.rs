//! The benchmark's own correctness check: recompute ‖b − Ax‖/‖b‖ with
//! the public `matvec` for every returned x.

use asyrgs::prelude::{CsrMatrix, SolveError, SolveReport};

/// Relative slack on the tolerance, for summation-order differences
/// between the solver's residual and this recomputation.
const SLACK: f64 = 1e-6;

pub fn rel_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.matvec(x);
    let (mut rr, mut bb) = (0.0, 0.0);
    for (&bi, &axi) in b.iter().zip(&ax) {
        rr += (bi - axi) * (bi - axi);
        bb += bi * bi;
    }
    (rr / bb).sqrt()
}

/// A solve passes when it returned `Ok`, x is finite, and the recomputed
/// relative residual meets `tol`.
pub fn passes(
    result: &Result<SolveReport, SolveError>,
    a: &CsrMatrix,
    b: &[f64],
    x: &[f64],
    tol: f64,
) -> bool {
    result.is_ok()
        && x.iter().all(|v| v.is_finite())
        && rel_residual(a, b, x) <= tol * (1.0 + SLACK)
}
