//! Dense, row-major matrices and the small set of BLAS-like kernels the
//! Gaussian-process stack needs.
//!
//! The matrices involved in crowd-tuning are moderate (a few hundred to a
//! couple of thousand rows: one row per collected performance sample), so a
//! straightforward cache-friendly row-major layout with blocked matmul is
//! both simple and fast enough. All storage is `f64`.

use rayon::prelude::*;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Minimum number of fused multiply-adds before a kernel goes parallel.
///
/// Below this, thread spawn/join overhead (a few µs per region with the
/// scoped-thread pool) swamps any speedup. The cutoff keeps small-n
/// callers — the vast majority of GP updates early in a tuning run —
/// on the exact serial code path.
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 17;

/// Split `n` items into at most `pieces` contiguous, near-equal ranges.
pub(crate) fn row_chunks(n: usize, pieces: usize) -> Vec<std::ops::Range<usize>> {
    let pieces = pieces.clamp(1, n.max(1));
    let base = n / pieces;
    let extra = n % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for p in 0..pieces {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>12.5e}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap an already row-major buffer without copying.
    pub(crate) fn from_raw(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// The `n x n` identity matrix.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build a matrix from nested row slices.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix-matrix product `self * rhs`.
    ///
    /// Large products are computed row-parallel; every output row is
    /// produced by exactly the same instruction sequence as
    /// [`Matrix::matmul_serial`], so the result is bitwise identical
    /// for any thread count.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let flops = self.rows * self.cols * rhs.cols;
        let threads = rayon::current_num_threads();
        if flops < PAR_MIN_FLOPS || threads <= 1 || self.rows < 2 {
            return self.matmul_serial(rhs);
        }
        let blocks: Vec<Vec<f64>> = row_chunks(self.rows, threads)
            .into_par_iter()
            .map(|range| self.matmul_rows(rhs, range))
            .collect();
        let data: Vec<f64> = blocks.into_iter().flatten().collect();
        Matrix {
            rows: self.rows,
            cols: rhs.cols,
            data,
        }
    }

    /// Serial reference matmul (simple ikj loop order that keeps the
    /// inner loop streaming over contiguous rows). Public so benches and
    /// determinism tests can compare against the parallel path.
    fn matmul_serial(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let data = self.matmul_rows(rhs, 0..self.rows);
        Matrix {
            rows: self.rows,
            cols: rhs.cols,
            data,
        }
    }

    /// Rows `range` of `self * rhs` as a row-major buffer.
    fn matmul_rows(&self, rhs: &Matrix, range: std::ops::Range<usize>) -> Vec<f64> {
        let mut out = vec![0.0; range.len() * rhs.cols];
        for (oi, i) in range.enumerate() {
            let a_row = self.row(i);
            let o_row = &mut out[oi * rhs.cols..(oi + 1) * rhs.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`, row-parallel above the flop
    /// cutoff (each entry is an independent dot product, so the result
    /// is thread-count invariant).
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        let threads = rayon::current_num_threads();
        if self.rows * self.cols < PAR_MIN_FLOPS || threads <= 1 || self.rows < 2 {
            return self.matvec_serial(v);
        }
        let blocks: Vec<Vec<f64>> = row_chunks(self.rows, threads)
            .into_par_iter()
            .map(|range| range.map(|i| dot(self.row(i), v)).collect::<Vec<f64>>())
            .collect();
        blocks.into_iter().flatten().collect()
    }

    /// Serial reference matvec.
    fn matvec_serial(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(self.row(i), v);
        }
        out
    }

    /// Transposed matrix-vector product `self^T * v`, column-parallel
    /// above the flop cutoff. Every output entry accumulates over rows
    /// in ascending order with the same zero-skip as the serial sweep,
    /// so results are thread-count invariant.
    pub fn tr_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "tr_matvec dimension mismatch");
        let threads = rayon::current_num_threads();
        if self.rows * self.cols < PAR_MIN_FLOPS || threads <= 1 || self.cols < 2 {
            return self.tr_matvec_serial(v);
        }
        let blocks: Vec<Vec<f64>> = row_chunks(self.cols, threads)
            .into_par_iter()
            .map(|range| {
                let mut out = vec![0.0; range.len()];
                for (i, &vi) in v.iter().enumerate() {
                    if vi == 0.0 {
                        continue;
                    }
                    let row = &self.row(i)[range.clone()];
                    for (o, &a) in out.iter_mut().zip(row.iter()) {
                        *o += vi * a;
                    }
                }
                out
            })
            .collect();
        blocks.into_iter().flatten().collect()
    }

    /// Serial reference transposed matvec.
    fn tr_matvec_serial(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "tr_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i).iter()) {
                *o += vi * a;
            }
        }
        out
    }

    /// `self^T * self`, the Gram matrix, computed exploiting symmetry.
    ///
    /// Large grams are parallel over output rows; each output row `i`
    /// accumulates over data rows in the same ascending order as the
    /// serial sweep, so the result is thread-count invariant.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let threads = rayon::current_num_threads();
        // Work is ~rows * n^2 / 2.
        if self.rows * n * n / 2 < PAR_MIN_FLOPS || threads <= 1 || n < 2 {
            return self.gram_serial();
        }
        let blocks: Vec<Vec<f64>> = row_chunks(n, threads * 4)
            .into_par_iter()
            .map(|range| {
                // Upper-triangular part of rows `range` of the gram.
                let mut out = vec![0.0; range.len() * n];
                for r in 0..self.rows {
                    let row = self.row(r);
                    for (oi, i) in range.clone().enumerate() {
                        let ri = row[i];
                        if ri == 0.0 {
                            continue;
                        }
                        let o_row = &mut out[oi * n..(oi + 1) * n];
                        for j in i..n {
                            o_row[j] += ri * row[j];
                        }
                    }
                }
                out
            })
            .collect();
        let data: Vec<f64> = blocks.into_iter().flatten().collect();
        let mut g = Matrix {
            rows: n,
            cols: n,
            data,
        };
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Serial reference gram.
    fn gram_serial(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Symmetrize in place: `self = (self + self^T) / 2`.
    pub fn symmetrize_mut(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

/// Dot product of two slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Four-way unrolled accumulation: helps the optimizer vectorize and
    // reduces the sequential dependency chain of the additions. Exact
    // chunks let the compiler drop the per-element bounds checks.
    let b = &b[..a.len()];
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let (ca, cb) = (a.chunks_exact(4), b.chunks_exact(4));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `(dot(a, c), dot(b, c))` in one pass over `c`: each result runs
/// exactly the accumulation of [`dot`] (same bits), and the two
/// independent chains overlap.
#[inline]
pub(crate) fn dot2(a: &[f64], b: &[f64], c: &[f64]) -> (f64, f64) {
    let b = &b[..a.len()];
    let c = &c[..a.len()];
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let (mut t0, mut t1, mut t2, mut t3) = (0.0, 0.0, 0.0, 0.0);
    let (ca, cb, cc) = (a.chunks_exact(4), b.chunks_exact(4), c.chunks_exact(4));
    let (ra, rb, rc) = (ca.remainder(), cb.remainder(), cc.remainder());
    for ((x, y), z) in ca.zip(cb).zip(cc) {
        s0 += x[0] * z[0];
        s1 += x[1] * z[1];
        s2 += x[2] * z[2];
        s3 += x[3] * z[3];
        t0 += y[0] * z[0];
        t1 += y[1] * z[1];
        t2 += y[2] * z[2];
        t3 += y[3] * z[3];
    }
    let (mut tail_a, mut tail_b) = (0.0, 0.0);
    for ((x, y), z) in ra.iter().zip(rb).zip(rc) {
        tail_a += x * z;
        tail_b += y * z;
    }
    (
        (s0 + s1) + (s2 + s3) + tail_a,
        (t0 + t1) + (t2 + t3) + tail_b,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let c = a.matmul(&Matrix::identity(3));
        assert_eq!(c, a);
    }

    #[test]
    fn matvec_and_transposed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.tr_matvec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let expect = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn dot_unrolled_matches_naive() {
        let a: Vec<f64> = (0..13).map(|i| i as f64 * 0.7 - 3.0).collect();
        let b: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot2_is_two_dots_bitwise() {
        for n in 0..=40 {
            let v = |i: usize, k: f64| (i as f64 * 1.3 + k).sin() / (k + 0.1);
            let a: Vec<f64> = (0..n).map(|i| v(i, 1.0)).collect();
            let b: Vec<f64> = (0..n).map(|i| v(i, 2.0)).collect();
            let c: Vec<f64> = (0..n).map(|i| v(i, 3.0)).collect();
            let (x, y) = dot2(&a, &b, &c);
            assert_eq!(x.to_bits(), dot(&a, &c).to_bits(), "n = {n}");
            assert_eq!(y.to_bits(), dot(&b, &c).to_bits(), "n = {n}");
        }
    }

    #[test]
    fn symmetrize() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        m.symmetrize_mut();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }
}
