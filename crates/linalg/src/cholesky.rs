//! Cholesky factorization with automatic jitter escalation.
//!
//! Gaussian-process covariance matrices are symmetric positive definite in
//! exact arithmetic but frequently lose definiteness to rounding when two
//! sample points nearly coincide. The standard remedy — and the one GPTune
//! itself uses — is to add a small multiple of the identity ("jitter") and
//! retry, growing the jitter geometrically until the factorization succeeds.

use crate::matrix::{dot, dot2, row_chunks, Matrix};
use crowdtune_obs as obs;
use rayon::prelude::*;

/// Error raised when a matrix cannot be factorized even with the maximum
/// permitted jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Jitter level at which the factorization was abandoned.
    pub max_jitter_tried: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (jitter up to {:.3e} tried)",
            self.max_jitter_tried
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// A lower-triangular Cholesky factor `L` with `L * L^T = A + jitter * I`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// The jitter that had to be added for the factorization to succeed
    /// (0.0 when the matrix was positive definite as given).
    pub jitter: f64,
}

impl Cholesky {
    /// Factorize a symmetric positive definite matrix without jitter.
    pub fn new(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        Self::with_jitter(a, 0.0, 0.0)
    }

    /// Factorize, escalating jitter from `initial_jitter` (or a scale-aware
    /// default when 0) by 10x per attempt up to `max_jitter`.
    ///
    /// A `max_jitter` of 0 allows a single attempt with `initial_jitter`.
    pub fn with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_jitter: f64,
    ) -> Result<Self, NotPositiveDefinite> {
        assert!(a.is_square(), "Cholesky requires a square matrix");
        let n = a.rows();
        // Scale-aware default starting jitter: machine epsilon times the
        // mean diagonal magnitude.
        let diag_scale = if n == 0 {
            1.0
        } else {
            (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64
        };
        let mut jitter = if initial_jitter > 0.0 {
            initial_jitter
        } else {
            0.0
        };
        let fallback_start = 1e-12 * diag_scale.max(1e-300);
        let mut attempts: u64 = 0;
        loop {
            attempts += 1;
            match try_factor(a, jitter) {
                Some(l) => {
                    if attempts > 1 {
                        // The matrix was indefinite as given and was silently
                        // rescued by jitter: surface the recovery.
                        obs::count(obs::names::CTR_JITTER_ESCALATIONS, 1);
                        obs::record_with(|| obs::Event::Jitter {
                            dim: n as u64,
                            jitter,
                            attempts,
                            recovered: true,
                        });
                    }
                    return Ok(Cholesky { l, jitter });
                }
                None => {
                    let next = if jitter == 0.0 {
                        fallback_start
                    } else {
                        jitter * 10.0
                    };
                    if next > max_jitter || !next.is_finite() {
                        if attempts > 1 {
                            obs::count(obs::names::CTR_JITTER_EXHAUSTED, 1);
                            obs::record_with(|| obs::Event::Jitter {
                                dim: n as u64,
                                jitter,
                                attempts,
                                recovered: false,
                            });
                        }
                        return Err(NotPositiveDefinite {
                            max_jitter_tried: jitter,
                        });
                    }
                    jitter = next;
                }
            }
        }
    }

    /// Factorize with the default escalation policy used throughout the GP
    /// stack: start at eps-scale jitter, give up past `1e-4 * diag`.
    pub fn robust(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        let n = a.rows();
        let diag_scale = if n == 0 {
            1.0
        } else {
            (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64
        };
        Self::with_jitter(a, 0.0, 1e-4 * diag_scale.max(1e-12))
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` using the factor (forward then backward substitution).
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        solve_lower_in_place(&self.l, &mut y);
        solve_lower_transpose_in_place(&self.l, &mut y);
        y
    }

    /// Solve `A X = B` column by column.
    ///
    /// Columns are independent, so large systems are solved
    /// column-parallel; each column runs exactly the substitutions of
    /// [`Cholesky::solve_vec`], making the result bitwise identical at
    /// any thread count.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim());
        let n = b.rows();
        let m = b.cols();
        let solve_col = |c: usize| -> Vec<f64> {
            let mut col: Vec<f64> = (0..n).map(|r| b[(r, c)]).collect();
            solve_lower_in_place(&self.l, &mut col);
            solve_lower_transpose_in_place(&self.l, &mut col);
            col
        };
        self.assemble_columns(m, solve_col, 2 * n * n * m)
    }

    /// The log-determinant of `A`: `2 * sum(log(L_ii))`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// The inverse of `A`, `L⁻ᵀ L⁻¹`; used for gradient computations
    /// where `A⁻¹` itself is required (trace terms of the
    /// marginal-likelihood gradient).
    ///
    /// Entry `(i, j)` is the dot of columns `i` and `j` of `L⁻¹` over the
    /// rows `k ≥ max(i, j)` where both can be nonzero. The upper triangle
    /// is formed in `TILE_R × PANEL` tiles, each an outer-product
    /// accumulation over rows of two column panels of `L⁻¹` held in
    /// registers ([`gram_tile`]), and mirrored, so the result is exactly
    /// symmetric. Every entry sums its `k` terms in ascending order from
    /// a start that depends only on `n` and the tile, and tile rows are
    /// independent, so the parallel split by tile rows is bitwise
    /// identical at any thread count.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let (buf, offsets) = self.inverse_lower_panels();
        let panel = |p: usize| &buf[offsets[p]..offsets[p + 1]];
        let fill_rows = |tiles: std::ops::Range<usize>| -> Vec<f64> {
            let i_start = tiles.start * TILE_R;
            let i_end = (tiles.end * TILE_R).min(n);
            let mut out = vec![0.0; (i_end - i_start) * n];
            for i0 in (i_start..i_end).step_by(TILE_R) {
                let rows = TILE_R.min(n - i0);
                let pi = i0 / PANEL;
                for pj in pi..offsets.len() - 1 {
                    let j0 = pj * PANEL;
                    let k0 = i0.max(j0);
                    let acc = gram_tile(
                        &panel(pi)[(k0 - pi * PANEL) * PANEL..],
                        i0 % PANEL,
                        &panel(pj)[(k0 - j0) * PANEL..],
                    );
                    for (r, acc_r) in acc.iter().enumerate().take(rows) {
                        let i = i0 + r;
                        let row = &mut out[(i - i_start) * n..(i - i_start + 1) * n];
                        for (c, &v) in acc_r.iter().enumerate() {
                            let j = j0 + c;
                            if j >= i && j < n {
                                row[j] = v;
                            }
                        }
                    }
                }
            }
            out
        };
        let tile_rows = n.div_ceil(TILE_R);
        let threads = rayon::current_num_threads();
        let parallel =
            threads > 1 && tile_rows >= 2 && n * n * n / 3 >= crate::matrix::PAR_MIN_FLOPS;
        let data = if parallel {
            // Extra pieces balance the triangular row costs.
            row_chunks(tile_rows, threads * 4)
                .into_par_iter()
                .map(fill_rows)
                .collect::<Vec<_>>()
                .concat()
        } else {
            fill_rows(0..tile_rows)
        };
        let mut out = Matrix::from_raw(n, n, data);
        for i in 0..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// Explicit inverse of the lower factor, `L⁻¹` (lower triangular,
    /// row-major).
    ///
    /// Built row by row from `row_i(L⁻¹) = −(1/L_ii) Σ_{k<i} L_ik ·
    /// row_k(L⁻¹)` (diagonal `1/L_ii`), one `PANEL`-wide column panel at
    /// a time ([`inverse_lower_panel`]): a panel's running sums stay in
    /// registers for the whole `k` loop and its finished rows are one
    /// contiguous stream. The whole factor costs ~`n³/6` flops. Panels
    /// depend only on `L`, so large inverses compute them in parallel;
    /// every element sums its `k` terms in ascending order whatever the
    /// split, making the result bitwise identical at any thread count.
    /// Having `L⁻¹` materialized turns each posterior variance
    /// `‖L⁻¹ k*‖²` into independent contiguous dot products instead of a
    /// loop-carried triangular solve.
    pub fn inverse_lower(&self) -> Matrix {
        let n = self.dim();
        let (buf, offsets) = self.inverse_lower_panels();
        let mut out = Matrix::zeros(n, n);
        for (p, w) in offsets.windows(2).enumerate() {
            let c0 = p * PANEL;
            let width = PANEL.min(n - c0);
            for (r, row) in buf[w[0]..w[1]].chunks_exact(PANEL).enumerate() {
                out.row_mut(c0 + r)[c0..c0 + width].copy_from_slice(&row[..width]);
            }
        }
        out
    }

    /// Every column panel of `L⁻¹` ([`inverse_lower_panel`]) back to
    /// back in one buffer, panel `p` at `offsets[p]..offsets[p + 1]`; in
    /// parallel above the flop cutoff.
    fn inverse_lower_panels(&self) -> (Vec<f64>, Vec<usize>) {
        let n = self.dim();
        let count = n.div_ceil(PANEL);
        let offsets: Vec<usize> = (0..=count)
            .scan(0, |off, p| {
                let start = *off;
                *off += n.saturating_sub(p * PANEL) * PANEL;
                Some(start)
            })
            .collect();
        let fill = |ps: std::ops::Range<usize>| -> Vec<f64> {
            let base = offsets[ps.start];
            let mut buf = vec![0.0; offsets[ps.end] - base];
            for p in ps {
                let out = &mut buf[offsets[p] - base..offsets[p + 1] - base];
                inverse_lower_panel(&self.l, p, out);
            }
            buf
        };
        let threads = rayon::current_num_threads();
        let buf = if threads <= 1 || count < 2 || n * n * n / 6 < crate::matrix::PAR_MIN_FLOPS {
            fill(0..count)
        } else {
            // Earlier panels carry more rows: extra pieces balance them.
            row_chunks(count, threads * 4)
                .into_par_iter()
                .map(fill)
                .collect::<Vec<_>>()
                .concat()
        };
        (buf, offsets)
    }

    /// Extend the factor with one new row/column in O(n²).
    ///
    /// Given the current factor of an `n × n` matrix `A` and the new
    /// covariance column `k_new = A⁺[0..n, n]` plus diagonal
    /// `k_diag = A⁺[n, n]` of the grown matrix `A⁺`, this appends the row
    /// `[l₂₁ᵀ, λ]` with
    ///
    /// ```text
    /// L l₂₁ = k_new          (forward substitution, O(n²))
    /// λ     = sqrt(k_diag + jitter - ‖l₂₁‖²)
    /// ```
    ///
    /// so that `L⁺ L⁺ᵀ = A⁺ + jitter·I` continues to hold. The existing
    /// `self.jitter` is applied to the new diagonal for consistency with
    /// the factored block. When the pivot is non-positive the appended
    /// diagonal escalates extra jitter through the same 10× ladder as
    /// [`Cholesky::with_jitter`] (eps-scale start, capped at
    /// `max_jitter`), journaling the recovery; the extra jitter lands on
    /// the appended diagonal only, so a caller that needs a uniform-jitter
    /// factor should refactorize from scratch — the GP layer's scheduled
    /// full refits do exactly that. Returns an error when the ladder is
    /// exhausted (the appended point makes the matrix numerically
    /// indefinite), leaving the factor untouched.
    pub fn append_row(
        &mut self,
        k_new: &[f64],
        k_diag: f64,
        max_jitter: f64,
    ) -> Result<(), NotPositiveDefinite> {
        let n = self.dim();
        assert_eq!(
            k_new.len(),
            n,
            "append_row needs one entry per factored row"
        );
        let mut l21 = k_new.to_vec();
        solve_lower_in_place(&self.l, &mut l21);
        let norm_sq: f64 = l21.iter().map(|v| v * v).sum();
        // The pivot is a scalar, so "retry at higher jitter" is pure
        // arithmetic — same ladder as the full factorization, no O(n²)
        // work repeated.
        let fallback_start = 1e-12 * k_diag.abs().max(1e-300);
        let mut extra = 0.0f64;
        let mut attempts: u64 = 0;
        let pivot = loop {
            attempts += 1;
            let d = k_diag + self.jitter + extra - norm_sq;
            if d > 0.0 && d.is_finite() {
                break d;
            }
            let next = if extra == 0.0 {
                fallback_start
            } else {
                extra * 10.0
            };
            if next > max_jitter || !next.is_finite() {
                obs::count(obs::names::CTR_JITTER_EXHAUSTED, 1);
                obs::record_with(|| obs::Event::Jitter {
                    dim: (n + 1) as u64,
                    jitter: self.jitter + extra,
                    attempts,
                    recovered: false,
                });
                return Err(NotPositiveDefinite {
                    max_jitter_tried: self.jitter + extra,
                });
            }
            extra = next;
        };
        if attempts > 1 {
            obs::count(obs::names::CTR_JITTER_ESCALATIONS, 1);
            obs::record_with(|| obs::Event::Jitter {
                dim: (n + 1) as u64,
                jitter: self.jitter + extra,
                attempts,
                recovered: true,
            });
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            grown.row_mut(i)[..=i].copy_from_slice(&self.l.row(i)[..=i]);
        }
        grown.row_mut(n)[..n].copy_from_slice(&l21);
        grown[(n, n)] = pivot.sqrt();
        self.l = grown;
        // Report the largest diagonal jitter present in the factor.
        self.jitter = self.jitter.max(self.jitter + extra);
        Ok(())
    }

    /// Run `solve_col` for every column index in `0..m` — in parallel
    /// when `work` (a flop estimate) crosses the cutoff — and pack the
    /// results into a row-major matrix.
    fn assemble_columns<F>(&self, m: usize, solve_col: F, work: usize) -> Matrix
    where
        F: Fn(usize) -> Vec<f64> + Sync,
    {
        let n = self.dim();
        let threads = rayon::current_num_threads();
        let cols: Vec<Vec<f64>> = if threads > 1 && m >= 2 && work >= crate::matrix::PAR_MIN_FLOPS {
            (0..m).into_par_iter().map(solve_col).collect()
        } else {
            (0..m).map(solve_col).collect()
        };
        let mut out = Matrix::zeros(n, m);
        for (c, col) in cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                out[(r, c)] = v;
            }
        }
        out
    }
}

/// Width of the column panels the tile kernels stream through, and the
/// column count of a [`gram_tile`].
const PANEL: usize = 8;

/// Row count of a [`gram_tile`].
const TILE_R: usize = 4;

/// Column panel `p` of `L⁻¹` (columns `p·PANEL..(p+1)·PANEL`) into the
/// zeroed `out`: its rows `p·PANEL..n`, `PANEL` values each, zero right
/// of the diagonal and past column `n`. Built by the row recurrence of
/// [`Cholesky::inverse_lower`]: entry `(i, j)` sums `L_ik · L⁻¹_kj` in
/// ascending `k` from the panel's first column; the terms with `k < j`
/// multiply structural zeros and leave the `+0.0` running sum unchanged,
/// so the bits equal those of the plain per-element recurrence.
fn inverse_lower_panel(l: &Matrix, p: usize, out: &mut [f64]) {
    let n = l.rows();
    let c0 = p * PANEL;
    let w = PANEL.min(n - c0);
    for i in c0..n {
        let li = l.row(i);
        let (done, rest) = out.split_at_mut((i - c0) * PANEL);
        let mut acc = [0.0f64; PANEL];
        for (row, &lik) in done.chunks_exact(PANEL).zip(&li[c0..i]) {
            let row: &[f64; PANEL] = row.try_into().unwrap();
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += lik * v;
            }
        }
        let inv = 1.0 / li[i];
        for (t, (o, &a)) in rest.iter_mut().zip(&acc).enumerate().take(w) {
            let c = c0 + t;
            if c < i {
                *o = -a * inv;
            } else if c == i {
                *o = inv;
            }
        }
    }
}

/// One `TILE_R × PANEL` tile of a Gram product over the rows of two
/// column panels (row-major, `PANEL` values per row, positioned at the
/// first row to sum): `acc[r][c] = Σ_k a[k][a_off + r] · b[k][c]` over
/// every row of `b`, summed in ascending `k` into one register
/// accumulator per entry. `a` holds at least as many rows as `b`.
#[inline]
fn gram_tile(a: &[f64], a_off: usize, b: &[f64]) -> [[f64; PANEL]; TILE_R] {
    let mut acc = [[0.0f64; PANEL]; TILE_R];
    for (ra, rb) in a.chunks_exact(PANEL).zip(b.chunks_exact(PANEL)) {
        let x: &[f64; TILE_R] = ra[a_off..a_off + TILE_R].try_into().unwrap();
        let y: &[f64; PANEL] = rb.try_into().unwrap();
        for (acc_r, &xr) in acc.iter_mut().zip(x) {
            for (v, &yc) in acc_r.iter_mut().zip(y) {
                *v += xr * yc;
            }
        }
    }
    acc
}

/// Row-oriented (Cholesky–Banachiewicz) factorization: row `i` of `L`
/// is finished before row `i + 2` starts, each entry one contiguous
/// multi-accumulator [`dot`] against an earlier row. Rows are taken in
/// pairs: left of column `i`, rows `i` and `i + 1` depend only on
/// earlier rows, so one pass over row `j` ([`dot2`]) serves both and
/// their two chains overlap. Every entry keeps the accumulation of a
/// lone `dot`, so the pairing changes the speed, never the bits.
///
/// This is the only factorization. A blocked right-looking variant with
/// a 64-column panel and row-parallel panel solve and trailing update
/// was slower at every size measured on dense kernel matrices (2-vCPU
/// Xeon, one thread: n = 200 0.88 vs 0.59 ms, n = 1000 149 vs 104 ms;
/// two threads: n = 1000 139 vs 102 ms), so it was removed; one path
/// also means one rounding at every size.
fn try_factor(a: &Matrix, jitter: f64) -> Option<Matrix> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    let diag = |l: &mut Matrix, i: usize| -> Option<()> {
        let li = &l.row(i)[..i];
        let d = a[(i, i)] + jitter - dot(li, li);
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        l[(i, i)] = d.sqrt();
        Some(())
    };
    let mut i = 0;
    while i < n {
        let paired = i + 1 < n;
        for j in 0..i {
            let ljj = l[(j, j)];
            if paired {
                let (s0, s1) = dot2(&l.row(i)[..j], &l.row(i + 1)[..j], &l.row(j)[..j]);
                l[(i, j)] = (a[(i, j)] - s0) / ljj;
                l[(i + 1, j)] = (a[(i + 1, j)] - s1) / ljj;
            } else {
                let s = a[(i, j)] - dot(&l.row(i)[..j], &l.row(j)[..j]);
                l[(i, j)] = s / ljj;
            }
        }
        diag(&mut l, i)?;
        if paired {
            let s = a[(i + 1, i)] - dot(&l.row(i + 1)[..i], &l.row(i)[..i]);
            l[(i + 1, i)] = s / l[(i, i)];
            diag(&mut l, i + 1)?;
        }
        i += if paired { 2 } else { 1 };
    }
    Some(l)
}

/// Extend a precomputed `L⁻¹` to match a factor just grown by
/// [`Cholesky::append_row`] (or any rank-1 append), in O(n²).
///
/// With `L⁺ = [[L, 0], [l₂₁ᵀ, λ]]`, the inverse grows as
///
/// ```text
/// L⁺⁻¹ = [[L⁻¹, 0], [-(1/λ)·(l₂₁ᵀ L⁻¹), 1/λ]]
/// ```
///
/// — the existing rows are unchanged and the new row is one
/// vector-matrix product against the old inverse, summed over ascending
/// `i` with zero `l₂₁[i]` skipped. `linv` must be the inverse of the
/// factor *before* the append (`linv.rows() == l21.len()`).
pub fn extend_inverse_lower(linv: &Matrix, l21: &[f64], lambda: f64) -> Matrix {
    let n = l21.len();
    assert_eq!(
        linv.rows(),
        n,
        "linv must invert the factor before the append"
    );
    let mut out = Matrix::zeros(n + 1, n + 1);
    for i in 0..n {
        out.row_mut(i)[..=i].copy_from_slice(&linv.row(i)[..=i]);
    }
    // new_row[j] = -(1/λ) Σ_i l₂₁[i]·L⁻¹[i][j]; L⁻¹ is lower
    // triangular, so row i only contributes to columns j ≤ i.
    let new_row = out.row_mut(n);
    for (i, &li) in l21.iter().enumerate() {
        if li != 0.0 {
            let src = &linv.row(i)[..=i];
            for (o, &s) in new_row.iter_mut().zip(src.iter()) {
                *o += li * s;
            }
        }
    }
    let inv_lambda = 1.0 / lambda;
    for v in new_row[..n].iter_mut() {
        *v = -*v * inv_lambda;
    }
    new_row[n] = inv_lambda;
    out
}

/// Solve `L y = b` in place for lower-triangular `L`.
fn solve_lower_in_place(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    assert_eq!(b.len(), n);
    for i in 0..n {
        let row = l.row(i);
        let mut s = b[i];
        for k in 0..i {
            s -= row[k] * b[k];
        }
        b[i] = s / row[i];
    }
}

/// Solve `L^T y = b` in place for lower-triangular `L`.
fn solve_lower_transpose_in_place(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    assert_eq!(b.len(), n);
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * b[k];
        }
        b[i] = s / l[(i, i)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn spd_3x3() -> Matrix {
        // A = B^T B + I for a fixed B, guaranteed SPD.
        let b = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 1.0]]);
        let mut a = b.gram();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_3x3();
        let ch = Cholesky::new(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose());
        assert!(recon.max_abs_diff(&a) < 1e-10);
        assert_eq!(ch.jitter, 0.0);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd_3x3();
        let ch = Cholesky::new(&a).unwrap();
        let b = [1.0, -2.0, 0.25];
        let x = ch.solve_vec(&b);
        let ax = a.matvec(&x);
        for (got, want) in ax.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_matrix_identity_gives_inverse() {
        let a = spd_3x3();
        let ch = Cholesky::new(&a).unwrap();
        let inv = ch.inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        let det: f64 = 4.0 * 3.0 - 1.0;
        assert!((ch.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_rejected_without_jitter() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 PSD matrix: singular, needs jitter.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let ch = Cholesky::robust(&a).unwrap();
        assert!(ch.jitter > 0.0);
        let recon = ch.l().matmul(&ch.l().transpose());
        // Reconstruction matches A up to the added jitter.
        assert!(recon.max_abs_diff(&a) < ch.jitter * 2.0 + 1e-12);
    }

    #[test]
    fn strongly_indefinite_fails_even_robust() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[10.0, 1.0]]);
        assert!(Cholesky::robust(&a).is_err());
    }

    #[test]
    fn forward_substitution_lower() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let mut b = vec![4.0, 11.0];
        solve_lower_in_place(&l, &mut b);
        assert!((b[0] - 2.0).abs() < 1e-14);
        assert!((b[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn backward_substitution_lower_transpose() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        // L^T = [[2,1],[0,3]]; solve L^T y = [4, 9] => y = [(4-3)/2, 3] = [0.5, 3]
        let mut b = vec![4.0, 9.0];
        solve_lower_transpose_in_place(&l, &mut b);
        assert!((b[0] - 0.5).abs() < 1e-14);
        assert!((b[1] - 3.0).abs() < 1e-14);
    }

    /// Well-conditioned banded SPD matrix of any size.
    fn spd_large(n: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            let d = i.abs_diff(j) as f64;
            (-d * d / (2.0 * 9.0)).exp()
        });
        for i in 0..n {
            a[(i, i)] += 0.5;
        }
        a
    }

    #[test]
    fn large_factor_reconstructs() {
        let n = 233;
        let a = spd_large(n);
        let ch = Cholesky::new(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose());
        assert!(
            recon.max_abs_diff(&a) < 1e-10,
            "diff {}",
            recon.max_abs_diff(&a)
        );
        // Strictly lower-triangular result.
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(ch.l()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn paired_rows_match_single_row_factor_bitwise() {
        // One row at a time, each entry a lone `dot`: the order the
        // paired factor must reproduce bit for bit.
        let single = |a: &Matrix| {
            let n = a.rows();
            let mut l = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..i {
                    let s = a[(i, j)] - dot(&l.row(i)[..j], &l.row(j)[..j]);
                    l[(i, j)] = s / l[(j, j)];
                }
                let li = &l.row(i)[..i];
                l[(i, i)] = (a[(i, i)] - dot(li, li)).sqrt();
            }
            l
        };
        for n in [1, 2, 3, 10, 33, 200] {
            let a = spd_large(n);
            let got = super::try_factor(&a, 0.0).unwrap();
            assert_eq!(got.as_slice(), single(&a).as_slice(), "n = {n}");
        }
    }

    #[test]
    fn factor_detects_late_indefiniteness() {
        // Poison a late diagonal entry so failure surfaces after many
        // rows have been factored, in both rows of a pair.
        for n in [205, 206] {
            let mut a = spd_large(n);
            a[(n - 2, n - 2)] = -50.0;
            a.symmetrize_mut();
            assert!(super::try_factor(&a, 0.0).is_none(), "n = {n}");
        }
    }

    #[test]
    fn large_solve_and_inverse_consistent() {
        let n = 201;
        let a = spd_large(n);
        let ch = Cholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = ch.solve_vec(&b);
        let ax = a.matvec(&x);
        for (got, want) in ax.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
        let inv = ch.inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(n)) < 1e-9);
    }

    #[test]
    fn inverse_matches_solve_against_identity() {
        // The structured inverse (zero-skipping forward phase) must
        // agree with the dense identity solve to rounding noise.
        let a = spd_3x3();
        let ch = Cholesky::new(&a).unwrap();
        let dense = ch.solve_matrix(&Matrix::identity(3));
        assert!(ch.inverse().max_abs_diff(&dense) < 1e-14);
        // And on a size that crosses the parallel work cutoff.
        let a = spd_large(80);
        let ch = Cholesky::new(&a).unwrap();
        let dense = ch.solve_matrix(&Matrix::identity(80));
        assert!(ch.inverse().max_abs_diff(&dense) < 1e-11);
    }

    #[test]
    fn inverse_lower_inverts_the_factor() {
        let a = spd_large(50);
        let ch = Cholesky::new(&a).unwrap();
        let prod = ch.l().matmul(&ch.inverse_lower());
        assert!(prod.max_abs_diff(&Matrix::identity(50)) < 1e-12);
    }

    /// Largest entry of `a - b` relative to the largest entry of `b`.
    fn rel_diff(a: &Matrix, b: &Matrix) -> f64 {
        let scale = b.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        a.max_abs_diff(b) / scale
    }

    #[test]
    fn inverse_lower_is_an_inverse_at_large_sizes() {
        for n in [127, 200] {
            let ch = Cholesky::new(&spd_large(n)).unwrap();
            let prod = ch.l().matmul(&ch.inverse_lower());
            let err = prod.max_abs_diff(&Matrix::identity(n));
            assert!(err < 1e-12, "n = {n}: ‖L·L⁻¹ − I‖ = {err}");
        }
    }

    /// The plain row recurrence `row_i(L⁻¹) = −(1/L_ii) Σ_{k<i} L_ik ·
    /// row_k(L⁻¹)`, one running sum per element in ascending `k` from
    /// `k = j`: the reference the panel kernel must match bit for bit.
    fn inverse_lower_reference(l: &Matrix) -> Matrix {
        let n = l.rows();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            let inv = 1.0 / l[(i, i)];
            for j in 0..i {
                let mut s = 0.0;
                for k in j..i {
                    s += l[(i, k)] * out[(k, j)];
                }
                out[(i, j)] = -s * inv;
            }
            out[(i, i)] = inv;
        }
        out
    }

    #[test]
    fn inverse_lower_matches_row_recurrence_bitwise() {
        for n in [1, 7, 8, 9, 127, 133, 200] {
            let ch = Cholesky::new(&spd_large(n)).unwrap();
            let want = inverse_lower_reference(ch.l());
            assert_eq!(ch.inverse_lower().as_slice(), want.as_slice(), "n = {n}");
            // Force the parallel panel split whatever the size.
            let count = n.div_ceil(super::PANEL);
            for pieces in [2, 3, 8] {
                let panels: Vec<Vec<f64>> = crate::matrix::row_chunks(count, pieces)
                    .into_par_iter()
                    .map(|ps| {
                        ps.map(|p| {
                            let mut out = vec![0.0; (n - p * super::PANEL) * super::PANEL];
                            super::inverse_lower_panel(ch.l(), p, &mut out);
                            out
                        })
                        .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
                    .concat();
                for (p, panel) in panels.iter().enumerate() {
                    for (r, row) in panel.chunks_exact(super::PANEL).enumerate() {
                        let i = p * super::PANEL + r;
                        for (c, v) in row.iter().enumerate() {
                            let j = p * super::PANEL + c;
                            let w = if j < n { want[(i, j)] } else { 0.0 };
                            assert_eq!(v.to_bits(), w.to_bits(), "n = {n}: ({i}, {j})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_matches_identity_solves_and_is_symmetric() {
        for n in [1, 5, 8, 9, 64, 127, 133, 200] {
            let ch = Cholesky::new(&spd_large(n)).unwrap();
            let inv = ch.inverse();
            let dense = ch.solve_matrix(&Matrix::identity(n));
            let rel = rel_diff(&inv, &dense);
            assert!(rel < 1e-12, "n = {n}: relative difference {rel}");
            for i in 0..n {
                for j in 0..i {
                    assert_eq!(inv[(i, j)].to_bits(), inv[(j, i)].to_bits());
                }
            }
        }
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[9.0]]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.l()[(0, 0)] - 3.0).abs() < 1e-15);
        assert_eq!(ch.solve_vec(&[18.0]), vec![2.0]);
    }

    /// Leading principal submatrix of `a`.
    fn leading(a: &Matrix, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| a[(i, j)])
    }

    #[test]
    fn append_row_matches_from_scratch_factor() {
        let n = 40;
        let a = spd_large(n);
        let mut ch = Cholesky::new(&leading(&a, n - 5)).unwrap();
        for m in (n - 5)..n {
            let k_new: Vec<f64> = (0..m).map(|i| a[(i, m)]).collect();
            ch.append_row(&k_new, a[(m, m)], 1e-4).unwrap();
        }
        let full = Cholesky::new(&a).unwrap();
        assert!(ch.l().max_abs_diff(full.l()) < 1e-11);
        assert_eq!(ch.jitter, 0.0);
    }

    #[test]
    fn extend_inverse_lower_matches_recomputed() {
        let n = 30;
        let a = spd_large(n);
        let mut ch = Cholesky::new(&leading(&a, n - 1)).unwrap();
        let linv = ch.inverse_lower();
        let k_new: Vec<f64> = (0..n - 1).map(|i| a[(i, n - 1)]).collect();
        ch.append_row(&k_new, a[(n - 1, n - 1)], 1e-4).unwrap();
        let lrow = ch.l().row(n - 1);
        let extended = extend_inverse_lower(&linv, &lrow[..n - 1], lrow[n - 1]);
        assert!(extended.max_abs_diff(&ch.inverse_lower()) < 1e-11);
        let prod = ch.l().matmul(&extended);
        assert!(prod.max_abs_diff(&Matrix::identity(n)) < 1e-11);
    }

    #[test]
    fn append_jitter_rescues_duplicate_point() {
        // Appending an exact duplicate row makes the grown matrix
        // singular; the escalation ladder must rescue the pivot.
        let a = spd_3x3();
        let mut ch = Cholesky::new(&a).unwrap();
        let dup: Vec<f64> = (0..3).map(|i| a[(i, 0)]).collect();
        ch.append_row(&dup, a[(0, 0)], 1e-4).unwrap();
        assert!(ch.jitter > 0.0, "escalation must be recorded");
        assert_eq!(ch.dim(), 4);
        // The factor stays usable: L L^T matches the grown matrix up to
        // the appended-diagonal jitter.
        let mut grown = Matrix::from_fn(4, 4, |i, j| a[(i.min(2), j.min(2))]);
        grown[(3, 3)] = a[(0, 0)];
        for i in 0..3 {
            grown[(i, 3)] = a[(i, 0)];
            grown[(3, i)] = a[(0, i)];
        }
        let recon = ch.l().matmul(&ch.l().transpose());
        assert!(recon.max_abs_diff(&grown) < ch.jitter * 2.0 + 1e-10);
    }

    #[test]
    fn append_exhaustion_leaves_factor_untouched() {
        let a = spd_3x3();
        let mut ch = Cholesky::new(&a).unwrap();
        let l_before = ch.l().clone();
        // A wildly inconsistent column: no small jitter can fix a
        // pivot this negative.
        let bad = vec![100.0, 100.0, 100.0];
        assert!(ch.append_row(&bad, 1.0, 1e-4).is_err());
        assert_eq!(ch.dim(), 3);
        assert_eq!(ch.l().max_abs_diff(&l_before), 0.0);
    }
}
