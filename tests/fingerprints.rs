//! Bitwise fingerprints of every deterministic (single-worker) fixed-seed
//! solver path, pinned to the values `examples/fingerprint.rs` prints.
//!
//! Each path is reached through its `*_solve_in` entry point. A refactor
//! of the kernels, the parallel runtime or the admission checks that
//! moves any iterate by one ulp changes a hash here.

use asyrgs::core::asyrgs::{asyrgs_solve_block_in, asyrgs_solve_in, ReadMode};
use asyrgs::core::jacobi::{async_jacobi_solve_in, jacobi_solve_in};
use asyrgs::core::lsq::{async_rcd_solve_in, rcd_solve_in};
use asyrgs::core::partitioned::partitioned_solve_in;
use asyrgs::core::rgs::{rgs_solve_block_in, rgs_solve_in, RowSampling};
use asyrgs::krylov::{cg_solve_in, fcg_solve_in};
use asyrgs::parallel::WorkerPool;
use asyrgs::prelude::*;
use asyrgs::workloads::{diag_dominant, laplace2d, random_lsq, LsqParams};

/// The hashes `examples/fingerprint.rs` prints, in its order.
const PINNED: [(&str, u64); 15] = [
    ("rgs", 0xed19f5f244d15c88),
    ("rgs_weighted", 0x10ec00482c7d9dcb),
    ("asyrgs_t1", 0xed19f5f244d15c88),
    ("asyrgs_t1_epoch2", 0xed19f5f244d15c88),
    ("asyrgs_t1_locked", 0xed19f5f244d15c88),
    ("asyrgs_t1_target", 0x92ea054a2558558f),
    ("asyrgs_block_t1", 0x3b323c6c3c51decc),
    ("rgs_block", 0x7112c7728483e83e),
    ("jacobi", 0x5b824d14fbaff45c),
    ("async_jacobi_t1", 0x6dc6ebe2965205c7),
    ("partitioned_t1", 0xd7020db1ec751b2a),
    ("rcd", 0x93c0e7d5f76facc8),
    ("async_rcd_t1", 0x2f9e6914cbd34dc4),
    ("cg", 0x3cf1f5e2421b7e6a),
    ("fcg", 0x70bc84e0017c04d8),
];

/// FNV-style xor/multiply over the raw bit patterns (the example's hash).
fn hash(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Run every pinned path once, in the example's order.
fn fingerprints() -> Vec<(&'static str, u64)> {
    let pool = WorkerPool::new(1);
    let a = laplace2d(12, 12);
    let n = a.n_rows();
    let x_star: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 / 17.0).collect();
    let b = a.matvec(&x_star);
    let dd = diag_dominant(150, 5, 2.0, 7);
    let bd = dd.matvec(&vec![1.0; 150]);
    let mut out = Vec::new();

    let rgs = |x_star: Option<&[f64]>, opts: RgsOptions| {
        let mut x = vec![0.0; n];
        rgs_solve_in(&mut SolveWorkspace::new(), &a, &b, &mut x, x_star, &opts).unwrap();
        hash(&x)
    };
    out.push((
        "rgs",
        rgs(
            Some(&x_star),
            RgsOptions {
                term: Termination::sweeps(9),
                ..Default::default()
            },
        ),
    ));
    out.push((
        "rgs_weighted",
        rgs(
            None,
            RgsOptions {
                sampling: RowSampling::DiagonalWeighted,
                term: Termination::sweeps(9),
                ..Default::default()
            },
        ),
    ));

    let asyrgs = |a: &CsrMatrix, b: &[f64], x_star: Option<&[f64]>, opts: AsyRgsOptions| {
        let mut x = vec![0.0; a.n_rows()];
        asyrgs_solve_in(
            &pool,
            &mut SolveWorkspace::new(),
            a,
            b,
            &mut x,
            x_star,
            &opts,
        )
        .unwrap();
        hash(&x)
    };
    let t1 = |term: Termination| AsyRgsOptions {
        threads: 1,
        term,
        ..Default::default()
    };
    out.push((
        "asyrgs_t1",
        asyrgs(&a, &b, Some(&x_star), t1(Termination::sweeps(9))),
    ));
    out.push((
        "asyrgs_t1_epoch2",
        asyrgs(
            &a,
            &b,
            None,
            AsyRgsOptions {
                epoch_sweeps: Some(2),
                ..t1(Termination::sweeps(9))
            },
        ),
    ));
    out.push((
        "asyrgs_t1_locked",
        asyrgs(
            &a,
            &b,
            None,
            AsyRgsOptions {
                read_mode: ReadMode::LockedConsistent,
                ..t1(Termination::sweeps(9))
            },
        ),
    ));
    out.push((
        "asyrgs_t1_target",
        asyrgs(
            &dd,
            &bd,
            None,
            t1(Termination::sweeps(500).with_target(1e-6)),
        ),
    ));

    {
        let mut b_blk = RowMajorMat::zeros(n, 2);
        b_blk.set_col(0, &b);
        b_blk.set_col(1, &vec![1.0; n]);
        let mut x_blk = RowMajorMat::zeros(n, 2);
        let opts = t1(Termination::sweeps(7));
        asyrgs_solve_block_in(
            &pool,
            &mut SolveWorkspace::new(),
            &a,
            &b_blk,
            &mut x_blk,
            &opts,
        )
        .unwrap();
        out.push(("asyrgs_block_t1", hash(x_blk.as_slice())));
    }
    {
        let k = 3;
        let mut b_blk = RowMajorMat::zeros(n, k);
        for t in 0..k {
            let col: Vec<f64> = (0..n).map(|i| ((i + t) % 5) as f64).collect();
            b_blk.set_col(t, &col);
        }
        let mut x_blk = RowMajorMat::zeros(n, k);
        let opts = RgsOptions {
            term: Termination::sweeps(7),
            ..Default::default()
        };
        rgs_solve_block_in(&mut SolveWorkspace::new(), &a, &b_blk, &mut x_blk, &opts).unwrap();
        out.push(("rgs_block", hash(x_blk.as_slice())));
    }

    {
        let mut x = vec![0.0; n];
        let opts = JacobiOptions {
            term: Termination::sweeps(30),
            ..Default::default()
        };
        jacobi_solve_in(&mut SolveWorkspace::new(), &a, &b, &mut x, None, &opts).unwrap();
        out.push(("jacobi", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        let opts = JacobiOptions {
            threads: 1,
            term: Termination::sweeps(30),
            ..Default::default()
        };
        async_jacobi_solve_in(
            &pool,
            &mut SolveWorkspace::new(),
            &a,
            &b,
            &mut x,
            None,
            &opts,
        )
        .unwrap();
        out.push(("async_jacobi_t1", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        let opts = PartitionedOptions {
            threads: 1,
            term: Termination::sweeps(40),
            ..Default::default()
        };
        partitioned_solve_in(&pool, &mut SolveWorkspace::new(), &a, &b, &mut x, &opts).unwrap();
        out.push(("partitioned_t1", hash(&x)));
    }
    {
        let p = random_lsq(&LsqParams {
            rows: 240,
            cols: 60,
            nnz_per_col: 6,
            noise: 0.0,
            seed: 5,
        });
        let op = LsqOperator::new(p.a);
        let opts = LsqSolveOptions {
            threads: 1,
            term: Termination::sweeps(10),
            record: Recording::end_only(),
            ..Default::default()
        };
        let mut x_seq = vec![0.0; op.n_cols()];
        rcd_solve_in(&mut SolveWorkspace::new(), &op, &p.b, &mut x_seq, &opts).unwrap();
        out.push(("rcd", hash(&x_seq)));
        let mut x_async = vec![0.0; op.n_cols()];
        async_rcd_solve_in(
            &pool,
            &mut SolveWorkspace::new(),
            &op,
            &p.b,
            &mut x_async,
            &opts,
        )
        .unwrap();
        out.push(("async_rcd_t1", hash(&x_async)));
    }
    {
        let mut x = vec![0.0; n];
        let opts = CgOptions {
            term: Termination::sweeps(25),
            ..Default::default()
        };
        cg_solve_in(&mut SolveWorkspace::new(), &a, &b, &mut x, &opts).unwrap();
        out.push(("cg", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        let opts = FcgOptions {
            term: Termination::sweeps(25),
            ..Default::default()
        };
        fcg_solve_in(
            &mut SolveWorkspace::new(),
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &opts,
        )
        .unwrap();
        out.push(("fcg", hash(&x)));
    }
    out
}

#[test]
fn solver_fingerprints_are_pinned() {
    let fmt = |v: &[(&str, u64)]| -> Vec<String> {
        v.iter()
            .map(|(name, h)| format!("{name:<24} {h:016x}"))
            .collect()
    };
    assert_eq!(fmt(&fingerprints()), fmt(&PINNED));
}
