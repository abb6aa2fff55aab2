//! Error-path coverage: one test per [`SolveError`] variant per solver
//! family, asserting (a) the exact variant, and (b) that the output
//! iterate is left **bitwise untouched** on rejection — the contract that
//! makes the fallible API safe to use as a service boundary (a rejected
//! request must not corrupt a caller-owned buffer).

mod common;

use asyrgs::prelude::*;
use common::{untouched, SENTINEL};

/// Strongly dominant SPD fixture (shared with the other suites through
/// `tests/common`).
fn spd(n: usize) -> (CsrMatrix, Vec<f64>) {
    common::spd_problem(n)
}

/// A square matrix with a zero diagonal entry (violates both the
/// positive-diagonal and nonzero-diagonal requirements).
fn zero_diag_matrix() -> CsrMatrix {
    CsrMatrix::from_dense(3, 3, &[2.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2.0])
}

/// A square matrix with a negative diagonal entry (violates the
/// positive-diagonal requirement but not the nonzero one).
fn negative_diag_matrix() -> CsrMatrix {
    CsrMatrix::from_dense(2, 2, &[1.0, 0.5, 0.5, -2.0])
}

fn empty_matrix() -> CsrMatrix {
    CsrMatrix::from_dense(0, 0, &[])
}

fn lsq_op() -> (LsqOperator, Vec<f64>) {
    let p = asyrgs::workloads::random_lsq(&asyrgs::workloads::LsqParams {
        rows: 30,
        cols: 10,
        nnz_per_col: 3,
        noise: 0.0,
        seed: 5,
    });
    (LsqOperator::new(p.a), p.b)
}

// ---------------------------------------------------------------------------
// DimensionMismatch
// ---------------------------------------------------------------------------

#[test]
fn dimension_mismatch_every_family() {
    let (a, _) = spd(6);
    let bad_b = vec![1.0; 5];
    macro_rules! case {
        ($err:expr) => {{
            let err = $err;
            assert!(
                matches!(err, SolveError::DimensionMismatch { .. }),
                "{err:?}"
            );
        }};
    }
    let mut x = vec![SENTINEL; 6];
    case!(try_rgs_solve(&a, &bad_b, &mut x, None, &RgsOptions::default()).unwrap_err());
    assert!(untouched(&x));
    case!(try_asyrgs_solve(&a, &bad_b, &mut x, None, &AsyRgsOptions::default()).unwrap_err());
    assert!(untouched(&x));
    case!(try_jacobi_solve(&a, &bad_b, &mut x, None, &JacobiOptions::default()).unwrap_err());
    assert!(untouched(&x));
    case!(try_async_jacobi_solve(&a, &bad_b, &mut x, None, &JacobiOptions::default()).unwrap_err());
    assert!(untouched(&x));
    case!(try_partitioned_solve(&a, &bad_b, &mut x, &PartitionedOptions::default()).unwrap_err());
    assert!(untouched(&x));
    case!(try_cg_solve(&a, &bad_b, &mut x, &CgOptions::default()).unwrap_err());
    assert!(untouched(&x));
    case!(try_fcg_solve(&a, &bad_b, &mut x, &IdentityPrecond, &FcgOptions::default()).unwrap_err());
    assert!(untouched(&x));

    let (op, _) = lsq_op();
    let mut y = vec![SENTINEL; 10];
    case!(try_rcd_solve(&op, &vec![1.0; 29], &mut y, &LsqSolveOptions::default()).unwrap_err());
    assert!(untouched(&y));
    case!(
        try_async_rcd_solve(&op, &vec![1.0; 29], &mut y, &LsqSolveOptions::default()).unwrap_err()
    );
    assert!(untouched(&y));
}

#[test]
fn dimension_mismatch_partitioned_too_many_blocks() {
    let (a, b) = spd(3);
    let mut x = vec![SENTINEL; 3];
    let err = try_partitioned_solve(
        &a,
        &b,
        &mut x,
        &PartitionedOptions {
            threads: 5,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, SolveError::DimensionMismatch { .. }));
    assert!(err.to_string().contains("more blocks than unknowns"));
    assert!(untouched(&x));
}

// ---------------------------------------------------------------------------
// ZeroDiagonal
// ---------------------------------------------------------------------------

#[test]
fn zero_diagonal_gauss_seidel_family_requires_positive() {
    // The SPD families reject non-positive diagonals.
    let neg = negative_diag_matrix();
    let b = vec![1.0; 2];
    let mut x = vec![SENTINEL; 2];
    for err in [
        try_rgs_solve(&neg, &b, &mut x, None, &RgsOptions::default()).unwrap_err(),
        try_asyrgs_solve(&neg, &b, &mut x, None, &AsyRgsOptions::default()).unwrap_err(),
        try_partitioned_solve(
            &neg,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap_err(),
    ] {
        assert_eq!(
            err,
            SolveError::ZeroDiagonal {
                index: 1,
                value: -2.0,
                needs_positive: true
            }
        );
    }
    assert!(untouched(&x));
}

#[test]
fn zero_diagonal_jacobi_family_requires_nonzero() {
    // Jacobi only needs invertibility: a negative diagonal is fine, an
    // exactly-zero one is not.
    let neg = negative_diag_matrix();
    let zero = zero_diag_matrix();
    let b2 = vec![1.0; 2];
    let b3 = vec![1.0; 3];
    let mut x2 = vec![0.0; 2];
    assert!(try_jacobi_solve(&neg, &b2, &mut x2, None, &JacobiOptions::default()).is_ok());

    let mut x3 = vec![SENTINEL; 3];
    for err in [
        try_jacobi_solve(&zero, &b3, &mut x3, None, &JacobiOptions::default()).unwrap_err(),
        try_async_jacobi_solve(&zero, &b3, &mut x3, None, &JacobiOptions::default()).unwrap_err(),
    ] {
        assert_eq!(
            err,
            SolveError::ZeroDiagonal {
                index: 1,
                value: 0.0,
                needs_positive: false
            }
        );
    }
    assert!(untouched(&x3));
}

// ---------------------------------------------------------------------------
// InvalidBeta
// ---------------------------------------------------------------------------

#[test]
fn invalid_beta_every_stepped_family() {
    let (a, b) = spd(4);
    for bad in [0.0, 2.0, -0.5, f64::NAN] {
        let mut x = vec![SENTINEL; 4];
        let err = try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                beta: bad,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, SolveError::InvalidBeta { .. }),
            "{bad}: {err:?}"
        );
        let err = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                beta: bad,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::InvalidBeta { .. }));
        let err = try_partitioned_solve(
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                beta: bad,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::InvalidBeta { .. }));
        assert!(untouched(&x));
    }

    let (op, bl) = lsq_op();
    let mut y = vec![SENTINEL; 10];
    for err in [
        try_rcd_solve(
            &op,
            &bl,
            &mut y,
            &LsqSolveOptions {
                beta: 2.5,
                ..Default::default()
            },
        )
        .unwrap_err(),
        try_async_rcd_solve(
            &op,
            &bl,
            &mut y,
            &LsqSolveOptions {
                beta: 2.5,
                ..Default::default()
            },
        )
        .unwrap_err(),
    ] {
        assert_eq!(err, SolveError::InvalidBeta { beta: 2.5 });
    }
    assert!(untouched(&y));
}

// ---------------------------------------------------------------------------
// InvalidDamping
// ---------------------------------------------------------------------------

#[test]
fn invalid_damping_jacobi_family() {
    let (a, b) = spd(4);
    for bad in [0.0, 1.5, -1.0] {
        let opts = JacobiOptions {
            damping: bad,
            ..Default::default()
        };
        let mut x = vec![SENTINEL; 4];
        for err in [
            try_jacobi_solve(&a, &b, &mut x, None, &opts).unwrap_err(),
            try_async_jacobi_solve(&a, &b, &mut x, None, &opts).unwrap_err(),
        ] {
            assert_eq!(err, SolveError::InvalidDamping { damping: bad });
        }
        assert!(untouched(&x));
    }
}

// ---------------------------------------------------------------------------
// ZeroThreads
// ---------------------------------------------------------------------------

#[test]
fn zero_threads_every_parallel_family() {
    let (a, b) = spd(4);
    let mut x = vec![SENTINEL; 4];
    let err = try_asyrgs_solve(
        &a,
        &b,
        &mut x,
        None,
        &AsyRgsOptions {
            threads: 0,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, SolveError::ZeroThreads);
    let err = try_async_jacobi_solve(
        &a,
        &b,
        &mut x,
        None,
        &JacobiOptions {
            threads: 0,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, SolveError::ZeroThreads);
    let err = try_partitioned_solve(
        &a,
        &b,
        &mut x,
        &PartitionedOptions {
            threads: 0,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, SolveError::ZeroThreads);
    assert!(untouched(&x));

    let (op, bl) = lsq_op();
    let mut y = vec![SENTINEL; 10];
    let err = try_async_rcd_solve(
        &op,
        &bl,
        &mut y,
        &LsqSolveOptions {
            threads: 0,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, SolveError::ZeroThreads);
    assert!(untouched(&y));
}

// ---------------------------------------------------------------------------
// EmptySystem
// ---------------------------------------------------------------------------

#[test]
fn empty_system_every_square_family() {
    let a = empty_matrix();
    let b: Vec<f64> = vec![];
    let mut x: Vec<f64> = vec![];
    macro_rules! is_empty_err {
        ($e:expr) => {
            assert!(matches!($e, SolveError::EmptySystem { .. }), "{:?}", $e)
        };
    }
    is_empty_err!(try_rgs_solve(&a, &b, &mut x, None, &RgsOptions::default()).unwrap_err());
    is_empty_err!(try_asyrgs_solve(&a, &b, &mut x, None, &AsyRgsOptions::default()).unwrap_err());
    is_empty_err!(try_jacobi_solve(&a, &b, &mut x, None, &JacobiOptions::default()).unwrap_err());
    is_empty_err!(
        try_async_jacobi_solve(&a, &b, &mut x, None, &JacobiOptions::default()).unwrap_err()
    );
    is_empty_err!(try_cg_solve(&a, &b, &mut x, &CgOptions::default()).unwrap_err());
    is_empty_err!(
        try_fcg_solve(&a, &b, &mut x, &IdentityPrecond, &FcgOptions::default()).unwrap_err()
    );
    // Partitioned rejects threads > n first (2 blocks, 0 unknowns), which
    // is also a typed error; with one block the empty check fires.
    is_empty_err!(try_partitioned_solve(
        &a,
        &b,
        &mut x,
        &PartitionedOptions {
            threads: 1,
            ..Default::default()
        }
    )
    .unwrap_err());
}

// ---------------------------------------------------------------------------
// Policy admission (`SolverBuilder::auto` / `SolveJob::auto`) surfaces the
// same typed errors — an input no policy-selectable solver could accept is
// rejected at profiling time, before any probe or solve touches state.
// ---------------------------------------------------------------------------

#[test]
fn auto_builder_rejects_with_the_existing_variants() {
    // Underdetermined (wide) rectangular input: no registered solver
    // handles rows < cols.
    let wide = CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 1.0, 3.0]);
    assert!(matches!(
        SolverBuilder::auto(&wide).unwrap_err(),
        SolveError::DimensionMismatch { .. }
    ));
    // Zero diagonal: structural profiling reports the entry exactly, and
    // `needs_positive: false` (the policy itself never requires an SPD
    // diagonal — that is per-family knowledge).
    assert_eq!(
        SolverBuilder::auto(&zero_diag_matrix()).unwrap_err(),
        SolveError::ZeroDiagonal {
            index: 1,
            value: 0.0,
            needs_positive: false
        }
    );
    // Non-finite entries are rejected before any probe could smear NaNs
    // through a power iteration.
    let nan = CsrMatrix::from_dense(2, 2, &[2.0, f64::NAN, 1.0, 2.0]);
    assert!(matches!(
        SolverBuilder::auto(&nan).unwrap_err(),
        SolveError::NonFiniteInput { .. }
    ));
    assert!(matches!(
        SolverBuilder::auto(&empty_matrix()).unwrap_err(),
        SolveError::EmptySystem { .. }
    ));
}

#[test]
fn auto_scheduler_rejections_leave_the_iterate_untouched() {
    use asyrgs_serve::{Scheduler, SchedulerConfig, SolveJob, SubmitError};
    use std::sync::Arc;

    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        ..SchedulerConfig::default()
    });
    type ErrorCheck = fn(&SolveError) -> bool;
    let bad: [(CsrMatrix, ErrorCheck); 2] = [
        (zero_diag_matrix(), |e| {
            matches!(e, SolveError::ZeroDiagonal { .. })
        }),
        (
            CsrMatrix::from_dense(
                3,
                3,
                &[2.0, 0.0, 0.0, 0.0, f64::INFINITY, 0.0, 0.0, 0.0, 2.0],
            ),
            |e| matches!(e, SolveError::NonFiniteInput { .. }),
        ),
    ];
    for (a, is_expected) in bad {
        let n = a.n_rows();
        let job = SolveJob::auto(Arc::new(a), vec![1.0; n]).with_x0(vec![SENTINEL; n]);
        let Err(err) = sched.submit(job) else {
            panic!("an unservable auto job must be rejected at admission");
        };
        match err {
            SubmitError::Rejected { error, job } => {
                assert!(is_expected(&error), "{error:?}");
                // The rejected job hands the caller's iterate back bitwise.
                assert!(untouched(job.x0()), "rejected auto job mutated x0");
            }
            _ => panic!("expected SubmitError::Rejected"),
        }
    }
    // No probe was charged for any of the rejected inputs.
    assert_eq!(sched.registry_stats().policy_probes, 0);
}

// ---------------------------------------------------------------------------
// Session layer surfaces the same typed errors
// ---------------------------------------------------------------------------

#[test]
fn session_surfaces_the_same_variants() {
    let (a, b) = spd(4);
    // Build-time: InvalidBeta / InvalidDamping / ZeroThreads.
    assert!(matches!(
        SolverBuilder::new(SolverFamily::Rgs).beta(9.0).build(),
        Err(SolveError::InvalidBeta { .. })
    ));
    // Solve-time: DimensionMismatch, ZeroDiagonal, EmptySystem.
    let mut session = SolverBuilder::new(SolverFamily::Rgs).build().unwrap();
    let mut x = vec![SENTINEL; 4];
    assert!(matches!(
        session.solve(&a, &[1.0; 3], &mut x).unwrap_err(),
        SolveError::DimensionMismatch { .. }
    ));
    assert!(untouched(&x));
    let mut x2 = vec![SENTINEL; 2];
    assert!(matches!(
        session
            .solve(&negative_diag_matrix(), &[1.0; 2], &mut x2)
            .unwrap_err(),
        SolveError::ZeroDiagonal { .. }
    ));
    assert!(untouched(&x2));
    let mut x0: Vec<f64> = vec![];
    assert!(matches!(
        session
            .solve(&empty_matrix(), &Vec::<f64>::new(), &mut x0)
            .unwrap_err(),
        SolveError::EmptySystem { .. }
    ));
    let _ = b;
}

// ---------------------------------------------------------------------------
// A NaN matrix gets one verdict on every entry point
// ---------------------------------------------------------------------------

/// 3x3 SPD matrices with a non-finite stored value, and the row that
/// holds it: NaN at the mirrored pair (0,1)/(1,0), and +Inf on the
/// diagonal at (2,2). The symmetry admission check lets NaN through (it
/// compares with `>`), so the family's finite-input check must reject it.
fn non_finite_matrices() -> [(CsrMatrix, usize); 2] {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    [
        (
            CsrMatrix::from_dense(3, 3, &[4.0, nan, 0.0, nan, 4.0, 1.0, 0.0, 1.0, 4.0]),
            0,
        ),
        (
            CsrMatrix::from_dense(3, 3, &[4.0, 1.0, 0.0, 1.0, 4.0, 1.0, 0.0, 1.0, inf]),
            2,
        ),
    ]
}

#[test]
fn non_finite_matrix_is_non_finite_input_on_solve_and_solve_many() {
    let b = vec![1.0; 3];
    for (a, row) in non_finite_matrices() {
        for family in SolverFamily::ALL.into_iter().filter(|f| !f.is_lsq()) {
            let mut session = SolverBuilder::new(family)
                .threads(1)
                .term(Termination::sweeps(20).with_target(1e-8))
                .build()
                .unwrap();
            let mut x = vec![SENTINEL; 3];
            let err = session.solve(&a, &b, &mut x).unwrap_err();
            assert!(
                matches!(err, SolveError::NonFiniteInput { index, .. } if index == row),
                "{} solve: {err:?}",
                family.name()
            );
            assert!(untouched(&x), "{} solve: x was written", family.name());

            let (mut x1, mut x2) = (vec![SENTINEL; 3], vec![SENTINEL; 3]);
            let err = session
                .solve_many(&a, &[&b, &b], &mut [&mut x1, &mut x2])
                .unwrap_err();
            assert!(
                matches!(err, SolveError::NonFiniteInput { index, .. } if index == row),
                "{} solve_many: {err:?}",
                family.name()
            );
            assert!(
                untouched(&x1) && untouched(&x2),
                "{} solve_many: x was written",
                family.name()
            );
        }
    }
}
