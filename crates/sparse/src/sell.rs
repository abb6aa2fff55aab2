//! SELL-style sorted, chunked row storage ([`SellMatrix`]).
//!
//! The Sliced ELLPACK family (SELL-C-σ: Kreutzer et al., SIAM J. Sci.
//! Comput. 2014) packs rows into fixed-height chunks of `C` rows stored
//! column-major, after sorting rows by length inside windows of `σ` rows so
//! chunk-mates have similar lengths and padding stays small. The chunk
//! kernel then streams `C` output accumulators down unit-stride value/index
//! arrays — the layout SIMD SpMV wants — while ragged CSR walks gather all
//! over the row arrays.
//!
//! Two properties matter for this workspace:
//! * **Logical rows are untouched.** Sorting permutes *storage slots*, not
//!   row identities: `visit_row(i)` still yields row `i`'s entries in
//!   increasing column order, so [`SellMatrix`] is drop-in conformant with
//!   [`CsrMatrix`] across the whole [`RowAccess`] surface (the
//!   `rowaccess_conformance` integration tests pin this bitwise).
//! * **Bitwise parity.** Every kernel keeps one accumulator per output
//!   entry and visits nonzeros in column order, so `row_dot` and `matvec`
//!   agree bitwise with their CSR counterparts — the format is opt-in
//!   purely as a layout/performance choice.

use crate::csr::CsrMatrix;
use crate::op::{first_nonfinite_in_rows, LinearOperator, RowAccess};

/// Chunk height `C`: rows per SELL chunk (one AVX-512-of-f64 / two
/// NEON-of-f64 lanes' worth of output accumulators).
pub const SELL_CHUNK: usize = 8;

/// Sort window `σ`: rows are length-sorted within disjoint windows of this
/// many rows (a multiple of [`SELL_CHUNK`]), bounding both padding and how
/// far storage order can drift from logical order.
pub const SELL_SIGMA: usize = 256;

/// Documented upper bound on the single-row gather penalty:
/// `SellMatrix::row_dot` may run at most this many times slower than
/// `CsrMatrix::row_dot` on the benchmark's reference system (n = 2048,
/// ~8 nnz/row, random row order).
///
/// The penalty is structural, not a bug: SELL stores a row's entries
/// `SELL_CHUNK` slots apart (with 8-byte values, one cache line per
/// entry), so a random single-row dot touches `len` cache lines where
/// CSR's contiguous row walk touches `⌈len/8⌉`. The measured ratio after
/// the strided walk was tightened (single upfront bounds check, 4-way
/// unroll) is ~1.39×; this bound leaves headroom for noise, and the
/// smoke-bench CI gate fails if the measured ratio drifts past it.
///
/// **Advisory:** choose [`SellMatrix`] for full-matrix traversal
/// (`matvec`/SpMV, where the column-major chunk layout is the point) and
/// keep [`CsrMatrix`] for row_dot-dominated access such as the AsyRGS
/// per-update row gather. The crossover is documented with measurements
/// in `ARCHITECTURE.md`.
pub const SELL_ROW_DOT_PENALTY_BOUND: f64 = 1.6;

/// A sparse matrix in SELL-`C`-`σ` (sliced ELLPACK) storage.
///
/// Build one with [`SellMatrix::from_csr`] or the [`From`] impl. See the
/// module docs for layout and parity guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Logical row stored in each slot (`slot = chunk * C + lane`);
    /// `usize::MAX` marks the padded slots of a final partial chunk.
    perm: Vec<usize>,
    /// Storage slot of each logical row (inverse of `perm`).
    slot_of: Vec<usize>,
    /// Stored entries per logical row.
    lens: Vec<usize>,
    /// Start of each chunk's entries in `cols`/`vals` (length
    /// `n_chunks + 1`); chunk `ch` spans `chunk_ptr[ch]..chunk_ptr[ch+1]`,
    /// laid out column-major: entry `s` of lane `l` sits at
    /// `chunk_ptr[ch] + s * C + l`.
    chunk_ptr: Vec<usize>,
    /// Column indices (padding slots hold `0`).
    cols: Vec<usize>,
    /// Values (padding slots hold `0.0` and are never read by kernels).
    vals: Vec<f64>,
}

impl SellMatrix {
    /// Convert a CSR matrix using the default chunk height
    /// ([`SELL_CHUNK`]) and sort window ([`SELL_SIGMA`]).
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let n_rows = a.n_rows();
        let n_cols = a.n_cols();
        let lens: Vec<usize> = (0..n_rows).map(|i| a.row_nnz(i)).collect();

        // Stable length-sort (descending) inside disjoint σ-windows:
        // chunk-mates get similar lengths, ties and near-ties keep logical
        // order, and no row moves more than σ slots from home.
        let mut perm: Vec<usize> = (0..n_rows).collect();
        for window in perm.chunks_mut(SELL_SIGMA) {
            window.sort_by_key(|&i| std::cmp::Reverse(lens[i]));
        }

        let n_chunks = n_rows.div_ceil(SELL_CHUNK);
        let mut slot_of = vec![0usize; n_rows];
        for (slot, &row) in perm.iter().enumerate() {
            slot_of[row] = slot;
        }

        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        chunk_ptr.push(0usize);
        for ch in 0..n_chunks {
            let width = (ch * SELL_CHUNK..((ch + 1) * SELL_CHUNK).min(n_rows))
                .map(|slot| lens[perm[slot]])
                .max()
                .unwrap_or(0);
            chunk_ptr.push(chunk_ptr[ch] + width * SELL_CHUNK);
        }

        let total = *chunk_ptr.last().unwrap_or(&0);
        let mut cols = vec![0usize; total];
        let mut vals = vec![0.0f64; total];
        for (ch, &base) in chunk_ptr.iter().take(n_chunks).enumerate() {
            for lane in 0..SELL_CHUNK {
                let slot = ch * SELL_CHUNK + lane;
                if slot >= n_rows {
                    continue;
                }
                let (rcols, rvals) = a.row(perm[slot]);
                for (s, (&c, &v)) in rcols.iter().zip(rvals).enumerate() {
                    cols[base + s * SELL_CHUNK + lane] = c;
                    vals[base + s * SELL_CHUNK + lane] = v;
                }
            }
        }

        // Pad the permutation out to whole chunks with sentinel slots so
        // kernels can iterate lanes unconditionally.
        perm.resize(n_chunks * SELL_CHUNK, usize::MAX);

        SellMatrix {
            n_rows,
            n_cols,
            perm,
            slot_of,
            lens,
            chunk_ptr,
            cols,
            vals,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of *stored* (logical) entries, excluding chunk padding.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Number of allocated entry slots including chunk padding; the SELL
    /// fill overhead is `padded_nnz() as f64 / nnz() as f64`.
    #[inline]
    pub fn padded_nnz(&self) -> usize {
        self.cols.len()
    }

    /// Base offset and stride-start for logical row `i`: the row's entry
    /// `s` lives at `base + s * SELL_CHUNK`.
    #[inline]
    fn row_base(&self, i: usize) -> usize {
        let slot = self.slot_of[i];
        self.chunk_ptr[slot / SELL_CHUNK] + slot % SELL_CHUNK
    }
}

impl From<&CsrMatrix> for SellMatrix {
    fn from(a: &CsrMatrix) -> Self {
        SellMatrix::from_csr(a)
    }
}

impl LinearOperator for SellMatrix {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Chunked SpMV: `SELL_CHUNK` output accumulators walk each chunk's
    /// column-major entries with unit stride. One accumulator per row in
    /// column order — bitwise identical to [`CsrMatrix::matvec_into`].
    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "matvec: y length mismatch");
        let n_chunks = self.chunk_ptr.len() - 1;
        for ch in 0..n_chunks {
            let base = self.chunk_ptr[ch];
            let width = (self.chunk_ptr[ch + 1] - base) / SELL_CHUNK;
            let lanes = &self.perm[ch * SELL_CHUNK..(ch + 1) * SELL_CHUNK];
            let mut acc = [0.0f64; SELL_CHUNK];
            for s in 0..width {
                let row = &self.cols[base + s * SELL_CHUNK..base + (s + 1) * SELL_CHUNK];
                let val = &self.vals[base + s * SELL_CHUNK..base + (s + 1) * SELL_CHUNK];
                for l in 0..SELL_CHUNK {
                    // Guard against both chunk padding (short lanes) and
                    // the sentinel lanes of a final partial chunk.
                    if lanes[l] != usize::MAX && s < self.lens[lanes[l]] {
                        acc[l] += val[l] * x[row[l]];
                    }
                }
            }
            for (l, &row) in lanes.iter().enumerate() {
                if row != usize::MAX {
                    y[row] = acc[l];
                }
            }
        }
    }

    fn diag(&self) -> Vec<f64> {
        assert!(self.is_square(), "diag: matrix must be square");
        (0..self.n_rows).map(|i| self.row_entry(i, i)).collect()
    }

    fn first_nonfinite(&self) -> Option<(usize, f64)> {
        first_nonfinite_in_rows(self)
    }
}

impl RowAccess for SellMatrix {
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, mut f: F) {
        let base = self.row_base(i);
        for s in 0..self.lens[i] {
            let k = base + s * SELL_CHUNK;
            f(self.cols[k], self.vals[k]);
        }
    }

    fn row_nnz(&self, i: usize) -> usize {
        self.lens[i]
    }

    /// Strided single-accumulator walk in column order — bitwise identical
    /// to [`CsrMatrix::row_dot`] on the same logical row.
    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        self.row_dot_with(i, |c| x[c])
    }

    fn row_dot_with<L: FnMut(usize) -> f64>(&self, i: usize, mut load: L) -> f64 {
        let len = self.lens[i];
        if len == 0 {
            return 0.0;
        }
        let base = self.row_base(i);
        // One bounds proof for the whole strided walk, then unchecked
        // loads: per-entry bounds checks on a stride-8 index defeated the
        // optimizer and made this walk 2.4× slower than the CSR one.
        let last = base + (len - 1) * SELL_CHUNK;
        assert!(last < self.vals.len() && last < self.cols.len());
        let mut acc = 0.0;
        let mut k = base;
        let mut s = 0;
        // 4-way unrolled with a single accumulator in column order —
        // still bitwise identical to the CSR walk.
        unsafe {
            while s + 4 <= len {
                acc += *self.vals.get_unchecked(k) * load(*self.cols.get_unchecked(k));
                acc += *self.vals.get_unchecked(k + SELL_CHUNK)
                    * load(*self.cols.get_unchecked(k + SELL_CHUNK));
                acc += *self.vals.get_unchecked(k + 2 * SELL_CHUNK)
                    * load(*self.cols.get_unchecked(k + 2 * SELL_CHUNK));
                acc += *self.vals.get_unchecked(k + 3 * SELL_CHUNK)
                    * load(*self.cols.get_unchecked(k + 3 * SELL_CHUNK));
                k += 4 * SELL_CHUNK;
                s += 4;
            }
            while s < len {
                acc += *self.vals.get_unchecked(k) * load(*self.cols.get_unchecked(k));
                k += SELL_CHUNK;
                s += 1;
            }
        }
        acc
    }

    fn row_entry(&self, i: usize, j: usize) -> f64 {
        let base = self.row_base(i);
        for s in 0..self.lens[i] {
            let k = base + s * SELL_CHUNK;
            if self.cols[k] == j {
                return self.vals[k];
            }
            if self.cols[k] > j {
                break; // columns are sorted within the row
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;

    /// A deterministic pseudo-random square CSR matrix with ragged rows.
    fn random_csr(seed: u64, n: usize) -> CsrMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            let nnz = (next() % 9) as usize; // 0..=8, some rows empty
            for _ in 0..nnz {
                let j = (next() % n as u64) as usize;
                let v = ((next() % 2000) as f64 - 1000.0) / 64.0;
                b.push(i, j, v).unwrap();
            }
        }
        b.to_csr()
    }

    #[test]
    fn converter_preserves_shape_and_nnz() {
        let a = random_csr(1, 100);
        let s = SellMatrix::from_csr(&a);
        assert_eq!(s.n_rows(), a.n_rows());
        assert_eq!(s.n_cols(), a.n_cols());
        assert_eq!(s.nnz(), a.nnz());
        assert!(s.padded_nnz() >= s.nnz());
        let via_from: SellMatrix = (&a).into();
        assert_eq!(via_from, s);
    }

    #[test]
    fn matvec_matches_csr_bitwise() {
        for seed in 0..8 {
            for n in [1usize, 7, 8, 9, 64, 257] {
                let a = random_csr(seed, n);
                let s = SellMatrix::from_csr(&a);
                let x: Vec<f64> = (0..n)
                    .map(|i| ((i * 37) % 19) as f64 * 0.21 - 1.7)
                    .collect();
                let ya = a.matvec(&x);
                let ys = LinearOperator::matvec(&s, &x);
                for (i, (va, vs)) in ya.iter().zip(&ys).enumerate() {
                    assert_eq!(va.to_bits(), vs.to_bits(), "seed {seed} n {n} row {i}");
                }
            }
        }
    }

    #[test]
    fn row_surface_matches_csr_bitwise() {
        let a = random_csr(3, 77);
        let s = SellMatrix::from_csr(&a);
        let x: Vec<f64> = (0..77).map(|i| (i as f64 * 0.61).cos()).collect();
        for i in 0..77 {
            assert_eq!(RowAccess::row_nnz(&s, i), a.row_nnz(i));
            assert_eq!(
                RowAccess::row_dot(&s, i, &x).to_bits(),
                a.row_dot(i, &x).to_bits()
            );
            let mut ea = Vec::new();
            RowAccess::visit_row(&a, i, |c, v| ea.push((c, v.to_bits())));
            let mut es = Vec::new();
            RowAccess::visit_row(&s, i, |c, v| es.push((c, v.to_bits())));
            assert_eq!(ea, es, "row {i}");
        }
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let a = CooBuilder::new(5, 3).to_csr();
        let s = SellMatrix::from_csr(&a);
        assert_eq!(s.nnz(), 0);
        assert_eq!(LinearOperator::matvec(&s, &[1.0, 2.0, 3.0]), vec![0.0; 5]);
        assert_eq!(RowAccess::row_nnz(&s, 4), 0);
    }

    #[test]
    fn sigma_window_sorting_keeps_logical_rows() {
        // A matrix whose row lengths strictly increase: sorting must
        // reorder storage (longest row first in each window) while row i
        // still reads back as row i.
        let n = 24;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            for j in 0..=i.min(n - 1) {
                b.push(i, j, (i * n + j) as f64 + 0.5).unwrap();
            }
        }
        let a = b.to_csr();
        let s = SellMatrix::from_csr(&a);
        for i in 0..n {
            assert_eq!(RowAccess::row_nnz(&s, i), i + 1);
            assert_eq!(
                RowAccess::row_entry(&s, i, i).to_bits(),
                a.get(i, i).to_bits()
            );
        }
    }

    #[test]
    fn diag_matches_csr() {
        let a = random_csr(9, 40);
        let s = SellMatrix::from_csr(&a);
        assert_eq!(LinearOperator::diag(&s), a.diag());
    }
}
