//! Cholesky factorization with automatic jitter escalation.
//!
//! Gaussian-process covariance matrices are symmetric positive definite in
//! exact arithmetic but frequently lose definiteness to rounding when two
//! sample points nearly coincide. The standard remedy — and the one GPTune
//! itself uses — is to add a small multiple of the identity ("jitter") and
//! retry, growing the jitter geometrically until the factorization succeeds.

use crate::matrix::{dot, row_chunks, Matrix};
use crowdtune_obs as obs;
use rayon::prelude::*;

/// Matrices at least this large are factored with the blocked
/// right-looking algorithm. The dispatch depends on the matrix size
/// ONLY — never on the thread count — because the blocked and unblocked
/// factorizations accumulate in different orders and therefore round
/// differently; tying the choice to size keeps results reproducible
/// across machines with different core counts.
const BLOCKED_MIN_DIM: usize = 128;

/// Panel width of the blocked factorization. 64 columns keeps the
/// panel plus a stripe of the trailing matrix resident in L2 cache.
const CHOL_BLOCK: usize = 64;

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

    /// Solve `L y = b` only (forward substitution).
    pub fn solve_lower_vec(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        solve_lower_in_place(&self.l, &mut y);
        y
    }

    /// Solve `L Y = B` only (forward substitution, column by column),
    /// column-parallel for large systems. Column `c` of the result is
    /// bitwise identical to `solve_lower_vec` applied to column `c`
    /// of `b`.
    pub fn solve_lower_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim());
        let n = b.rows();
        let m = b.cols();
        let solve_col = |c: usize| -> Vec<f64> {
            let mut col: Vec<f64> = (0..n).map(|r| b[(r, c)]).collect();
            solve_lower_in_place(&self.l, &mut col);
            col
        };
        self.assemble_columns(m, solve_col, n * n * m)
    }

    /// The log-determinant of `A`: `2 * sum(log(L_ii))`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// The inverse of `A`, assembled by solving against identity
    /// columns; used for gradient computations where `A^{-1}` itself is
    /// required (trace terms of the marginal-likelihood gradient).
    ///
    /// Exploits the structure of `e_c`: the forward substitution
    /// `L y = e_c` yields `y[0..c] = 0`, so it starts at row `c`,
    /// halving the forward phase on average versus a dense solve.
    /// Columns run in parallel and each is computed with the same
    /// operation order at any thread count.
    pub fn inverse(&self) -> Matrix {
        // `A⁻¹ = L⁻ᵀ L⁻¹`, assembled as a symmetric product of the
        // explicit inverse factor: entry `(i, j)` with `i ≤ j` is the
        // dot of columns `i` and `j` of `L⁻¹` over rows `k ≥ j` (both
        // columns are structurally zero above their index). Costs
        // ~`n³/6` for the factor plus ~`n³/6` for the product —
        // roughly 3× cheaper than solving against a dense identity,
        // and every dot is an independent contiguous reduction.
        let n = self.dim();
        let u = self.inverse_lower().transpose();
        let threads = rayon::current_num_threads();
        let flops = n * n * n / 3;
        let fill_rows = |range: std::ops::Range<usize>| -> Vec<f64> {
            let mut buf = Vec::with_capacity(range.len() * n);
            for i in range {
                buf.extend(std::iter::repeat_n(0.0, i));
                let ui = u.row(i);
                for j in i..n {
                    buf.push(dot(&ui[j..], &u.row(j)[j..]));
                }
            }
            buf
        };
        let chunks = if threads > 1 && n >= 2 && flops >= crate::matrix::PAR_MIN_FLOPS {
            // Extra pieces balance the triangular row costs.
            row_chunks(n, threads * 4)
                .into_par_iter()
                .map(fill_rows)
                .collect::<Vec<_>>()
        } else {
            vec![fill_rows(0..n)]
        };
        let data: Vec<f64> = chunks.into_iter().flatten().collect();
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
    /// row_k(L⁻¹)` (diagonal `1/L_ii`): each step is a contiguous axpy
    /// whose elements accumulate independently, so the loop is limited
    /// by throughput rather than by the latency of one running sum. The
    /// whole factor costs ~`n³/6` flops. Column blocks of `L⁻¹` depend
    /// only on themselves, so large inverses split into column blocks
    /// run in parallel; every element still sums its `k` terms in
    /// ascending order, making the result bitwise identical at any
    /// thread count. Having `L⁻¹` materialized turns each posterior
    /// variance `‖L⁻¹ k*‖²` into independent contiguous dot products
    /// instead of a loop-carried triangular solve.
    pub fn inverse_lower(&self) -> Matrix {
        let n = self.dim();
        let threads = rayon::current_num_threads();
        if threads <= 1 || n < 2 || n * n * n / 6 < crate::matrix::PAR_MIN_FLOPS {
            return Matrix::from_raw(n, n, inverse_lower_block(&self.l, 0..n));
        }
        // Earlier column blocks carry more rows: extra pieces balance them.
        let blocks = row_chunks(n, threads * 4);
        let bufs: Vec<Vec<f64>> = blocks
            .clone()
            .into_par_iter()
            .map(|cols| inverse_lower_block(&self.l, cols))
            .collect();
        let mut out = Matrix::zeros(n, n);
        for (cols, buf) in blocks.iter().zip(&bufs) {
            let w = cols.len();
            for (r, row) in buf.chunks_exact(w).enumerate() {
                out.row_mut(cols.start + r)[cols.clone()].copy_from_slice(row);
            }
        }
        out
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

    /// Extend a precomputed `L⁻¹` to match a factor just grown by
    /// [`Cholesky::append_row`], in O(n²).
    ///
    /// With `L⁺ = [[L, 0], [l₂₁ᵀ, λ]]`, the inverse grows as
    ///
    /// ```text
    /// L⁺⁻¹ = [[L⁻¹, 0], [-(1/λ)·(l₂₁ᵀ L⁻¹), 1/λ]]
    /// ```
    ///
    /// — the existing rows are unchanged and the new row is one
    /// vector-matrix product against the old inverse. `linv` must be the
    /// inverse of the factor *before* the append (`linv.rows() + 1 ==
    /// self.dim()`).
    pub fn extend_inverse_lower(&self, linv: &Matrix) -> Matrix {
        let n1 = self.dim();
        assert!(n1 >= 1, "extend_inverse_lower needs an appended factor");
        let n = n1 - 1;
        assert_eq!(
            linv.rows(),
            n,
            "linv must invert the factor before the append"
        );
        let lrow = self.l.row(n);
        let lambda = lrow[n];
        let mut out = Matrix::zeros(n1, n1);
        for i in 0..n {
            out.row_mut(i)[..=i].copy_from_slice(&linv.row(i)[..=i]);
        }
        // new_row[j] = -(1/λ) Σ_i l₂₁[i]·L⁻¹[i][j]; L⁻¹ is lower
        // triangular, so row i only contributes to columns j ≤ i.
        let new_row = out.row_mut(n);
        for (i, &li) in lrow.iter().enumerate().take(n) {
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

/// Rows `cols.start..n` of the column block `cols` of `L⁻¹`, packed
/// row-major (`cols.len()` values per row), by the row recurrence of
/// [`Cholesky::inverse_lower`]. Entry `(i, j)` sums `L_ik · L⁻¹_kj` over
/// `j ≤ k < i` in ascending `k` whatever the block, so any column split
/// reproduces the unsplit result bitwise.
fn inverse_lower_block(l: &Matrix, cols: std::ops::Range<usize>) -> Vec<f64> {
    let n = l.rows();
    let (c0, w) = (cols.start, cols.len());
    let mut buf = vec![0.0; (n - c0) * w];
    for i in c0..n {
        let li = l.row(i);
        let (done, rest) = buf.split_at_mut((i - c0) * w);
        let out = &mut rest[..w];
        for k in c0..i {
            let lik = li[k];
            // Row k of L⁻¹ is zero right of its diagonal.
            let len = (k + 1 - c0).min(w);
            let src = &done[(k - c0) * w..(k - c0) * w + len];
            for (o, &v) in out.iter_mut().zip(src) {
                *o += lik * v;
            }
        }
        let inv = 1.0 / li[i];
        for v in out[..(i - c0).min(w)].iter_mut() {
            *v = -*v * inv;
        }
        if i < cols.end {
            out[i - c0] = inv;
        }
    }
    buf
}

fn try_factor(a: &Matrix, jitter: f64) -> Option<Matrix> {
    // Size-only dispatch: see `BLOCKED_MIN_DIM`.
    if a.rows() < BLOCKED_MIN_DIM {
        try_factor_unblocked(a, jitter)
    } else {
        try_factor_blocked(a, jitter)
    }
}

/// Row-oriented (Cholesky–Banachiewicz) factorization: row `i` of `L`
/// is finished before row `i + 1` starts, each entry one contiguous
/// multi-accumulator [`dot`] against an earlier row.
fn try_factor_unblocked(a: &Matrix, jitter: f64) -> Option<Matrix> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            let s = a[(i, j)] - dot(&l.row(i)[..j], &l.row(j)[..j]);
            l[(i, j)] = s / l[(j, j)];
        }
        let li = &l.row(i)[..i];
        let d = a[(i, i)] + jitter - dot(li, li);
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        l[(i, i)] = d.sqrt();
    }
    Some(l)
}

/// Blocked right-looking Cholesky: factor a `CHOL_BLOCK`-wide panel,
/// triangular-solve the rows below it, then downdate the trailing
/// submatrix with the panel's outer product. The panel solve and the
/// trailing update are row-parallel; every row is produced by the same
/// instruction sequence no matter how rows are split across threads,
/// so the factor is bitwise identical at any thread count.
fn try_factor_blocked(a: &Matrix, jitter: f64) -> Option<Matrix> {
    let n = a.rows();
    let threads = rayon::current_num_threads();
    // Copy the lower triangle (plus jitter on the diagonal) and factor
    // it in place, block column by block column.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        let src = &a.row(i)[..=i];
        let dst = &mut l.row_mut(i)[..=i];
        dst.copy_from_slice(src);
        dst[i] += jitter;
    }
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + CHOL_BLOCK).min(n);
        let nb = j1 - j0;
        // 1. Factor the diagonal block in place (unblocked). It has
        //    already absorbed every previous panel's trailing update,
        //    so only within-block corrections remain.
        for j in j0..j1 {
            let mut d = l[(j, j)];
            for k in j0..j {
                let v = l[(j, k)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return None;
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..j1 {
                let mut s = l[(i, j)];
                for k in j0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        if j1 == n {
            break;
        }
        // 2. Panel solve: L21 satisfies L21 * L11^T = A21. One
        //    independent forward substitution per row below the block.
        let panel_rows = n - j1;
        let chunks = row_chunks(panel_rows, threads);
        let panel: Vec<Vec<f64>> = chunks
            .clone()
            .into_par_iter()
            .map(|range| {
                let mut buf = vec![0.0; range.len() * nb];
                for (bi, r) in range.enumerate() {
                    let i = j1 + r;
                    let li = l.row(i);
                    let out = &mut buf[bi * nb..(bi + 1) * nb];
                    for (jj, j) in (j0..j1).enumerate() {
                        let lj = &l.row(j)[j0..j];
                        let mut s = li[j];
                        for (k, &ljk) in lj.iter().enumerate() {
                            s -= out[k] * ljk;
                        }
                        out[jj] = s / l[(j, j)];
                    }
                }
                buf
            })
            .collect();
        for (chunk, buf) in chunks.iter().zip(panel.iter()) {
            for (bi, r) in chunk.clone().enumerate() {
                l.row_mut(j1 + r)[j0..j1].copy_from_slice(&buf[bi * nb..(bi + 1) * nb]);
            }
        }
        // 3. Trailing update: A22 -= L21 * L21^T (lower triangle only),
        //    row-parallel. Extra chunks smooth out the triangular load.
        let chunks = row_chunks(panel_rows, threads * 4);
        let updates: Vec<Vec<f64>> = chunks
            .clone()
            .into_par_iter()
            .map(|range| {
                let mut buf = Vec::with_capacity(range.clone().map(|r| r + 1).sum());
                for r in range {
                    let i = j1 + r;
                    let pi = &l.row(i)[j0..j1];
                    for j in j1..=i {
                        let pj = &l.row(j)[j0..j1];
                        let mut acc = 0.0;
                        for (x, y) in pi.iter().zip(pj.iter()) {
                            acc += x * y;
                        }
                        buf.push(l[(i, j)] - acc);
                    }
                }
                buf
            })
            .collect();
        for (chunk, buf) in chunks.iter().zip(updates.iter()) {
            let mut pos = 0;
            for r in chunk.clone() {
                let i = j1 + r;
                let len = i - j1 + 1;
                l.row_mut(i)[j1..=i].copy_from_slice(&buf[pos..pos + len]);
                pos += len;
            }
        }
        j0 = j1;
    }
    Some(l)
}

/// Solve `L y = b` in place for lower-triangular `L`.
pub fn solve_lower_in_place(l: &Matrix, b: &mut [f64]) {
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
pub fn solve_lower_transpose_in_place(l: &Matrix, b: &mut [f64]) {
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

    /// Well-conditioned SPD matrix large enough to cross `BLOCKED_MIN_DIM`.
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
    fn blocked_factor_reconstructs() {
        let n = super::BLOCKED_MIN_DIM + 33; // odd tail block
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
    fn blocked_matches_unblocked_within_tolerance() {
        let n = super::BLOCKED_MIN_DIM;
        let a = spd_large(n);
        let blocked = super::try_factor_blocked(&a, 0.0).unwrap();
        let unblocked = super::try_factor_unblocked(&a, 0.0).unwrap();
        assert!(blocked.max_abs_diff(&unblocked) < 1e-11);
    }

    #[test]
    fn blocked_detects_indefiniteness() {
        let n = super::BLOCKED_MIN_DIM + 5;
        let mut a = spd_large(n);
        // Poison a late diagonal entry so failure surfaces in a
        // trailing block, after several successful panels.
        a[(n - 2, n - 2)] = -50.0;
        a.symmetrize_mut();
        assert!(super::try_factor_blocked(&a, 0.0).is_none());
    }

    #[test]
    fn large_solve_and_inverse_consistent() {
        let n = super::BLOCKED_MIN_DIM + 1;
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
    fn unblocked_and_blocked_agree_around_the_dispatch_size() {
        for n in [super::BLOCKED_MIN_DIM - 1, super::BLOCKED_MIN_DIM] {
            let a = spd_large(n);
            let blocked = super::try_factor_blocked(&a, 0.0).unwrap();
            let unblocked = super::try_factor_unblocked(&a, 0.0).unwrap();
            let rel = rel_diff(&unblocked, &blocked);
            assert!(rel < 1e-12, "n = {n}: relative difference {rel}");
        }
    }

    #[test]
    fn inverse_lower_is_an_inverse_at_dispatch_sizes() {
        for n in [super::BLOCKED_MIN_DIM - 1, super::BLOCKED_MIN_DIM] {
            let ch = Cholesky::new(&spd_large(n)).unwrap();
            let prod = ch.l().matmul(&ch.inverse_lower());
            let err = prod.max_abs_diff(&Matrix::identity(n));
            assert!(err < 1e-12, "n = {n}: ‖L·L⁻¹ − I‖ = {err}");
        }
    }

    #[test]
    fn inverse_lower_column_blocks_match_unsplit_bitwise() {
        // The parallel path assembles column blocks; any split must give
        // exactly the single-block result.
        let n = 97;
        let ch = Cholesky::new(&spd_large(n)).unwrap();
        let whole = super::inverse_lower_block(ch.l(), 0..n);
        for pieces in [2, 3, 8] {
            for cols in crate::matrix::row_chunks(n, pieces) {
                let block = super::inverse_lower_block(ch.l(), cols.clone());
                for (r, row) in block.chunks_exact(cols.len()).enumerate() {
                    let i = cols.start + r;
                    for (c, v) in row.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            whole[i * n + cols.start + c].to_bits(),
                            "pieces {pieces}: entry ({i}, {})",
                            cols.start + c
                        );
                    }
                }
            }
        }
        assert_eq!(ch.inverse_lower().as_slice(), &whole[..]);
    }

    #[test]
    fn solve_lower_matrix_matches_vec() {
        let a = spd_3x3();
        let ch = Cholesky::new(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 4.0], &[-2.0, 5.0], &[0.25, -6.0]]);
        let ym = ch.solve_lower_matrix(&b);
        for c in 0..2 {
            let col: Vec<f64> = (0..3).map(|r| b[(r, c)]).collect();
            let yv = ch.solve_lower_vec(&col);
            for r in 0..3 {
                // Bitwise: same substitutions in the same order.
                assert_eq!(ym[(r, c)], yv[r]);
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
    fn append_row_crosses_blocked_boundary() {
        // Grow an unblocked-size factor past BLOCKED_MIN_DIM; appended
        // rows must stay consistent with the blocked from-scratch path.
        let n = super::BLOCKED_MIN_DIM + 3;
        let a = spd_large(n);
        let start = super::BLOCKED_MIN_DIM - 2;
        let mut ch = Cholesky::new(&leading(&a, start)).unwrap();
        for m in start..n {
            let k_new: Vec<f64> = (0..m).map(|i| a[(i, m)]).collect();
            ch.append_row(&k_new, a[(m, m)], 1e-4).unwrap();
        }
        let full = Cholesky::new(&a).unwrap();
        assert!(ch.l().max_abs_diff(full.l()) < 1e-10);
    }

    #[test]
    fn extend_inverse_lower_matches_recomputed() {
        let n = 30;
        let a = spd_large(n);
        let mut ch = Cholesky::new(&leading(&a, n - 1)).unwrap();
        let linv = ch.inverse_lower();
        let k_new: Vec<f64> = (0..n - 1).map(|i| a[(i, n - 1)]).collect();
        ch.append_row(&k_new, a[(n - 1, n - 1)], 1e-4).unwrap();
        let extended = ch.extend_inverse_lower(&linv);
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
