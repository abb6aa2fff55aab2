//! `RowAccess` backend conformance: for the same logical matrix, the CSR,
//! dense `RowMajorMat`, and zero-copy `UnitDiagonalView` backends must
//! agree **bitwise** on every trait surface the solvers touch —
//! `visit_row`, `row_nnz`, `row_dot`, `row_entry`, `is_symmetric` and
//! `first_nonfinite` — including the
//! ragged, empty-row, and single-entry shapes the generators never emit
//! but callers can.
//!
//! Bitwise (not approximate) agreement is what lets the session layer and
//! the delay-model executors swap backends without changing a single
//! iterate; the scenario matrix relies on it.

mod common;

use asyrgs::sparse::{
    CooBuilder, CsrMatrix, LinearOperator, RowAccess, RowMajorMat, SellMatrix, UnitDiagonal,
    UnitDiagonalView,
};

/// Deterministic dense probe vector with mixed signs and magnitudes.
fn probe(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (((i * 29) % 13) as f64 - 6.0) * 0.37 + ((i % 3) as f64) * 1e-3)
        .collect()
}

/// Assert full `RowAccess` agreement between two backends.
fn assert_conformant<A: RowAccess, B: RowAccess>(a: &A, b: &B, label: &str) {
    assert_eq!(a.n_rows(), b.n_rows(), "{label}: row count");
    assert_eq!(a.n_cols(), b.n_cols(), "{label}: col count");
    let x = probe(a.n_cols());
    for i in 0..a.n_rows() {
        assert_eq!(a.row_nnz(i), b.row_nnz(i), "{label}: row_nnz({i})");
        let mut ea: Vec<(usize, f64)> = Vec::new();
        a.visit_row(i, |c, v| ea.push((c, v)));
        let mut eb: Vec<(usize, f64)> = Vec::new();
        b.visit_row(i, |c, v| eb.push((c, v)));
        // Bitwise: compare the f64 bit patterns, not approximate values.
        assert_eq!(ea.len(), eb.len(), "{label}: visit_row({i}) length");
        for ((ca, va), (cb, vb)) in ea.iter().zip(&eb) {
            assert_eq!(ca, cb, "{label}: visit_row({i}) column order");
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{label}: visit_row({i}) value {va} vs {vb}"
            );
        }
        assert_eq!(
            a.row_dot(i, &x).to_bits(),
            b.row_dot(i, &x).to_bits(),
            "{label}: row_dot({i})"
        );
        for j in 0..a.n_cols() {
            assert_eq!(
                a.row_entry(i, j).to_bits(),
                b.row_entry(i, j).to_bits(),
                "{label}: row_entry({i},{j})"
            );
        }
    }
    let bits = |e: Option<(usize, f64)>| e.map(|(i, v)| (i, v.to_bits()));
    assert_eq!(
        bits(a.first_nonfinite()),
        bits(b.first_nonfinite()),
        "{label}: first_nonfinite"
    );
    for tol in [0.0, 1e-12, 1.0] {
        assert_eq!(
            a.is_symmetric(tol),
            b.is_symmetric(tol),
            "{label}: is_symmetric({tol})"
        );
    }
}

/// A ragged general matrix: empty rows, single-entry rows, a full row,
/// values spanning signs and magnitudes. No explicitly stored zeros (the
/// dense backend, by construction, cannot represent those).
fn ragged() -> CsrMatrix {
    let mut coo = CooBuilder::new(7, 5);
    // Row 0: empty.
    // Row 1: single entry, negative.
    coo.push(1, 3, -2.5).unwrap();
    // Row 2: full row.
    for j in 0..5 {
        coo.push(2, j, (j as f64 + 1.0) * 0.1).unwrap();
    }
    // Row 3: two entries at the edges.
    coo.push(3, 0, 1e-8).unwrap();
    coo.push(3, 4, 1e8).unwrap();
    // Row 4: empty.
    // Row 5: single entry on the last column.
    coo.push(5, 4, 3.75).unwrap();
    // Row 6: a couple of mid-row entries.
    coo.push(6, 1, -0.125).unwrap();
    coo.push(6, 2, 0.5).unwrap();
    coo.to_csr()
}

#[test]
fn csr_and_dense_agree_on_ragged_shapes() {
    let m = ragged();
    let d = RowMajorMat::from_vec(m.n_rows(), m.n_cols(), m.to_dense());
    assert_conformant(&m, &d, "ragged csr-vs-dense");
    // Empty rows really are empty on both backends.
    assert_eq!(RowAccess::row_nnz(&m, 0), 0);
    assert_eq!(RowAccess::row_nnz(&d, 0), 0);
    assert_eq!(
        RowAccess::row_dot(&m, 4, &probe(5)).to_bits(),
        0.0f64.to_bits()
    );
}

#[test]
fn csr_and_dense_agree_on_single_entry_matrix() {
    let mut coo = CooBuilder::new(1, 1);
    coo.push(0, 0, -7.25).unwrap();
    let m = coo.to_csr();
    let d = RowMajorMat::from_vec(1, 1, m.to_dense());
    assert_conformant(&m, &d, "1x1");
    assert_eq!(m.row_entry(0, 0), -7.25);
}

#[test]
fn csr_and_dense_agree_on_spd_workloads() {
    let (a, _, _) = common::laplace_problem(6);
    let d = RowMajorMat::from_vec(a.n_rows(), a.n_cols(), a.to_dense());
    assert_conformant(&a, &d, "laplace2d csr-vs-dense");
    let (s, _) = common::spd_problem(40);
    let sd = RowMajorMat::from_vec(40, 40, s.to_dense());
    assert_conformant(&s, &sd, "diag_dominant csr-vs-dense");
}

#[test]
fn view_materialized_and_dense_triple_agree() {
    // Three backends of the *rescaled* system D B D: the zero-copy view
    // over B, the materialized CSR, and the dense copy of the
    // materialized CSR — all bitwise identical.
    let (b_mat, _) = common::spd_problem(30);
    let u = UnitDiagonal::from_spd(&b_mat).expect("SPD");
    let view = UnitDiagonalView::new(&b_mat).expect("SPD");
    assert_conformant(&view, &u.a, "view-vs-materialized");
    let dense = RowMajorMat::from_vec(30, 30, u.a.to_dense());
    assert_conformant(&view, &dense, "view-vs-dense");
}

#[test]
fn reference_delegation_is_transparent() {
    // `&T` must forward every RowAccess method unchanged.
    let m = ragged();
    assert_conformant(&m, &&m, "csr-vs-&csr");
}

#[test]
fn csr_and_sell_agree_on_ragged_shapes() {
    // SELL storage permutes rows into sorted chunks internally, but the
    // logical RowAccess surface must be bitwise indistinguishable from CSR.
    let m = ragged();
    let s = SellMatrix::from(&m);
    assert_conformant(&m, &s, "ragged csr-vs-sell");
    assert_eq!(s.nnz(), m.nnz(), "sell preserves nnz");
}

#[test]
fn csr_and_sell_agree_on_spd_workloads() {
    let (a, _, _) = common::laplace_problem(6);
    assert_conformant(&a, &SellMatrix::from(&a), "laplace2d csr-vs-sell");
    let (spd, _) = common::spd_problem(40);
    assert_conformant(&spd, &SellMatrix::from(&spd), "diag_dominant csr-vs-sell");
}

#[test]
fn sell_solves_match_csr_solves_bitwise() {
    // End to end: a single-thread AsyRGS solve over the SELL backend must
    // produce the same iterate bits as the CSR backend, because every
    // row_dot along the trajectory is bitwise identical.
    let (a, b, _) = common::laplace_problem(5);
    let u = UnitDiagonal::from_spd(&a).expect("SPD");
    let sell = SellMatrix::from(&u.a);
    let opts = asyrgs::core::asyrgs::AsyRgsOptions {
        seed: 41,
        term: asyrgs::core::driver::Termination::sweeps(30),
        threads: 1,
        ..Default::default()
    };
    let mut x_csr = vec![0.0; b.len()];
    let mut x_sell = vec![0.0; b.len()];
    asyrgs::core::asyrgs::try_asyrgs_solve(&u.a, &b, &mut x_csr, None, &opts).expect("csr solve");
    asyrgs::core::asyrgs::try_asyrgs_solve(&sell, &b, &mut x_sell, None, &opts)
        .expect("sell solve");
    for (c, s) in x_csr.iter().zip(&x_sell) {
        assert_eq!(c.to_bits(), s.to_bits(), "iterate bits diverge");
    }
}

#[test]
fn scenario_backends_conform() {
    // The corpus's own backend pairs: every small square scenario must
    // hand out conformant CSR/view (and, where present, dense) backends.
    for sc in asyrgs::workloads::scenarios::smoke_scenarios() {
        let built = sc.build();
        if !built.a.is_square() {
            continue;
        }
        let view = built.unit_view().expect("square SPD scenario");
        let u = UnitDiagonal::from_spd(&built.a).expect("SPD scenario");
        assert_conformant(&view, &u.a, sc.name);
        if let Some(dense) = built.dense() {
            assert_conformant(&built.a, &dense, sc.name);
        }
    }
}

#[test]
fn every_backend_reports_the_same_non_finite_entry() {
    let mut coo = CooBuilder::new(4, 4);
    for i in 0..4 {
        coo.push(i, i, 4.0).unwrap();
    }
    coo.push(1, 2, f64::INFINITY).unwrap();
    coo.push(2, 1, f64::NAN).unwrap();
    coo.push(3, 0, f64::NAN).unwrap();
    let m = coo.to_csr();
    let d = RowMajorMat::from_vec(4, 4, m.to_dense());
    assert_conformant(&m, &d, "non-finite csr-vs-dense");
    assert_conformant(&m, &SellMatrix::from(&m), "non-finite csr-vs-sell");
    assert_conformant(&m, &&m, "non-finite csr-vs-&csr");
    let (row, value) = m.first_nonfinite().expect("stored NaN/Inf");
    assert_eq!((row, value), (1, f64::INFINITY));
}

#[test]
fn view_reports_values_that_overflow_when_rescaled() {
    // B is finite, but d = 1/sqrt(diag) ~ 3e154 makes the rescaled
    // off-diagonal b_01 * d_0 * d_1 overflow: the view must report the
    // value solvers would actually read.
    let tiny = 1e-310;
    let b = CsrMatrix::from_dense(2, 2, &[tiny, 1.0, 1.0, tiny]);
    assert_eq!(b.first_nonfinite(), None);
    let view = UnitDiagonalView::new(&b).expect("positive diagonal");
    assert_eq!(view.first_nonfinite(), Some((0, f64::INFINITY)));
}
