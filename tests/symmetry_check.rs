//! The CSR symmetry check (`CsrMatrix::is_symmetric`, a single cursor
//! pass) against the generic `RowAccess::is_symmetric` default walk, which
//! pairs every stored entry with a `row_entry` lookup of its mirror. The
//! two must agree on every input and every tolerance: seeded random
//! near-symmetric matrices, plus the shapes and boundary values a cursor
//! pass could get wrong.

use asyrgs::sparse::{CsrMatrix, LinearOperator, RowAccess};

/// The same matrix behind only `visit_row` and `row_entry`, so that
/// `is_symmetric` runs the trait's default body: the reference.
struct Generic<'a>(&'a CsrMatrix);

impl LinearOperator for Generic<'_> {
    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.0.n_cols()
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.0.matvec_into(x, y)
    }

    fn diag(&self) -> Vec<f64> {
        self.0.diag()
    }
}

impl RowAccess for Generic<'_> {
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, f: F) {
        RowAccess::visit_row(self.0, i, f)
    }

    fn row_entry(&self, i: usize, j: usize) -> f64 {
        self.0.get(i, j)
    }
}

/// Tolerances probed on every matrix, including the degenerate ones
/// (negative: even a diagonal entry fails; NaN: nothing fails).
const TOLS: [f64; 7] = [0.0, 1e-12, 0.25, 0.5, f64::INFINITY, -1.0, f64::NAN];

/// The cursor pass's verdict, after asserting it matches the reference.
fn checked(a: &CsrMatrix, tol: f64) -> bool {
    let fast = a.is_symmetric(tol);
    assert_eq!(
        fast,
        Generic(a).is_symmetric(tol),
        "cursor pass and generic walk disagree at tol {tol} on {a:?}"
    );
    fast
}

fn agree_at_all_tols(a: &CsrMatrix) {
    for tol in TOLS {
        checked(a, tol);
    }
}

/// Build from `(row, col, value)` entries; explicit zeros stay stored.
fn from_entries(n_rows: usize, n_cols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut sorted = entries.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut row_ptr = vec![0usize; n_rows + 1];
    for &(r, _, _) in &sorted {
        row_ptr[r + 1] += 1;
    }
    for r in 0..n_rows {
        row_ptr[r + 1] += row_ptr[r];
    }
    let col_idx = sorted.iter().map(|e| e.1).collect();
    let vals = sorted.iter().map(|e| e.2).collect();
    CsrMatrix::from_raw_parts(n_rows, n_cols, row_ptr, col_idx, vals).unwrap()
}

/// SplitMix64: a tiny seeded generator, enough for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A random square matrix that is symmetric except for seeded defects:
/// dropped mirrors, mirrors off by about the probed tolerances, explicit
/// zeros, NaN, and whole empty rows.
fn near_symmetric(rng: &mut Rng) -> CsrMatrix {
    let n = rng.below(24);
    let mut dense: Vec<Option<f64>> = vec![None; n * n];
    for i in 0..n {
        if rng.chance(80) {
            dense[i * n + i] = Some(1.0 + rng.below(8) as f64);
        }
        for j in 0..i {
            if rng.chance(25) {
                let v = rng.below(9) as f64 * 0.25 - 1.0;
                dense[i * n + j] = Some(v);
                dense[j * n + i] = Some(v);
            }
        }
    }
    let defects = rng.below(4);
    for _ in 0..defects {
        if n == 0 {
            break;
        }
        let (i, j) = (rng.below(n), rng.below(n));
        dense[i * n + j] = match rng.below(6) {
            0 => None,
            1 => Some(0.0),
            2 => Some(f64::NAN),
            3 => dense[i * n + j].map(|v| v + 0.25),
            4 => dense[i * n + j].map(|v| v + 0.5),
            _ => Some(rng.below(5) as f64 * 0.25),
        };
    }
    if n > 0 && rng.chance(20) {
        let r = rng.below(n);
        dense[r * n..(r + 1) * n].fill(None);
    }
    let entries: Vec<(usize, usize, f64)> = (0..n * n)
        .filter_map(|k| dense[k].map(|v| (k / n, k % n, v)))
        .collect();
    from_entries(n, n, &entries)
}

#[test]
fn cursor_pass_matches_generic_walk_on_random_matrices() {
    let mut rng = Rng(0x5eed_0001);
    let mut verdicts = [0usize; 2];
    for _ in 0..3000 {
        let a = near_symmetric(&mut rng);
        agree_at_all_tols(&a);
        verdicts[a.is_symmetric(0.0) as usize] += 1;
    }
    // The generator must exercise both outcomes, or agreement is vacuous.
    assert!(verdicts[0] > 300 && verdicts[1] > 300, "{verdicts:?}");
}

#[test]
fn absent_mirror_is_compared_with_zero() {
    let tol: f64 = 0.5;
    let above = f64::from_bits(tol.to_bits() + 1);
    for (r, c) in [(0, 2), (2, 0)] {
        let at = from_entries(3, 3, &[(0, 0, 1.0), (r, c, tol), (2, 2, 1.0)]);
        assert!(checked(&at, tol), "|v| = tol at ({r},{c})");
        let over = from_entries(3, 3, &[(0, 0, 1.0), (r, c, above), (2, 2, 1.0)]);
        assert!(!checked(&over, tol), "|v| just above tol at ({r},{c})");
        let negative = from_entries(3, 3, &[(r, c, -above)]);
        assert!(!checked(&negative, tol));
        agree_at_all_tols(&over);
    }
}

#[test]
fn mirrors_differing_by_exactly_tol() {
    let a = from_entries(2, 2, &[(0, 1, 1.0), (1, 0, 1.5)]);
    assert!(checked(&a, 0.5));
    assert!(!checked(&a, f64::from_bits(0.5f64.to_bits() - 1)));
    agree_at_all_tols(&a);
}

#[test]
fn explicit_zeros_pair_like_absent_entries() {
    let lone = from_entries(3, 3, &[(2, 0, 0.0), (1, 1, 2.0), (0, 2, 0.0)]);
    assert!(checked(&lone, 0.0));
    let one_sided = from_entries(3, 3, &[(1, 0, 0.0), (0, 2, 0.0)]);
    assert!(checked(&one_sided, 0.0));
    let against_value = from_entries(2, 2, &[(0, 1, 0.0), (1, 0, 0.25)]);
    assert!(!checked(&against_value, 0.0));
    assert!(checked(&against_value, 0.25));
}

#[test]
fn empty_and_diagonal_only_rows() {
    let a = from_entries(5, 5, &[(0, 3, 2.0), (1, 1, 4.0), (3, 0, 2.0), (4, 4, 1.0)]);
    assert!(checked(&a, 0.0));
    let diag = from_entries(4, 4, &[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0), (3, 3, 4.0)]);
    assert!(checked(&diag, 0.0));
    let empty = from_entries(4, 4, &[]);
    assert!(checked(&empty, 0.0));
    // An unpaired entry past every row's diagonal, in the last row.
    let tail = from_entries(3, 3, &[(1, 1, 1.0), (1, 2, 3.0)]);
    assert!(!checked(&tail, 1.0));
    agree_at_all_tols(&tail);
}

#[test]
fn zero_and_one_row_matrices() {
    assert!(checked(&from_entries(0, 0, &[]), 0.0));
    assert!(checked(&from_entries(1, 1, &[]), 0.0));
    assert!(checked(&from_entries(1, 1, &[(0, 0, -3.0)]), 0.0));
}

#[test]
fn rectangular_is_never_symmetric() {
    for (r, c) in [(2, 3), (3, 2), (0, 1), (1, 0)] {
        let a = from_entries(r, c, &[]);
        assert!(!checked(&a, f64::INFINITY), "{r} x {c}");
    }
    let a = CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
    assert!(!checked(&a, f64::INFINITY));
}

#[test]
fn nan_entries_never_fail_the_check() {
    let nan = f64::NAN;
    let paired = from_entries(2, 2, &[(0, 0, 1.0), (0, 1, nan), (1, 0, nan), (1, 1, 1.0)]);
    assert!(checked(&paired, 0.0));
    let against_value = from_entries(2, 2, &[(0, 1, nan), (1, 0, 7.0)]);
    assert!(checked(&against_value, 0.0));
    let unpaired = from_entries(3, 3, &[(0, 2, nan), (1, 1, nan)]);
    assert!(checked(&unpaired, 0.0));
    // NaN does not hide a real violation elsewhere.
    let mixed = from_entries(3, 3, &[(0, 1, nan), (1, 0, nan), (2, 0, 1.0)]);
    assert!(!checked(&mixed, 0.5));
}
