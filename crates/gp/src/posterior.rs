//! The two data layouts behind the exact-GP posterior ([`crate::Gp`]'s
//! `predict`, `predict_batch` and `update`):
//!
//! - [`DimsMajor`] — the training inputs stored one dimension after
//!   another, so the cross-covariance `k*` is built one dimension at a
//!   time over all `n` training points;
//! - [`BlockedLinv`] — the inverse Cholesky factor `L⁻¹` stored in
//!   panels of [`ROWS`] rows, column-major inside a panel, so the
//!   variance `‖L⁻¹k*‖²` sweeps a panel with [`ROWS`] independent
//!   register accumulators.
//!
//! Both change only the loop nesting. Every scalar they produce is the
//! same sequence of roundings as the per-point kernel loop and the
//! row-by-row triangular product they replace, so predictions are
//! bitwise unchanged.

use crate::kernel::{DimKind, Kernel, KernelParams};
use crowdtune_linalg::Matrix;

/// Training inputs stored dims-major (`data[dim * n + i]`), with a
/// per-dimension categorical mask.
#[derive(Debug, Clone)]
pub(crate) struct DimsMajor {
    n: usize,
    data: Vec<f64>,
    categorical: Vec<bool>,
}

impl DimsMajor {
    pub(crate) fn new(x: &[Vec<f64>], dims: &[DimKind]) -> Self {
        let data = (0..dims.len())
            .flat_map(|d| x.iter().map(move |xi| xi[d]))
            .collect();
        let categorical = dims.iter().map(|&k| k == DimKind::Categorical).collect();
        DimsMajor {
            n: x.len(),
            data,
            categorical,
        }
    }

    /// Append one training point (O(n·d)).
    pub(crate) fn push(&mut self, xnew: &[f64]) {
        let mut data = Vec::with_capacity(self.data.len() + xnew.len());
        for (col, &v) in self.data.chunks_exact(self.n).zip(xnew) {
            data.extend_from_slice(col);
            data.push(v);
        }
        self.data = data;
        self.n += 1;
    }

    /// `out[i] = k(xstar, x_i)` for every training point. `r²` builds up
    /// one dimension at a time over all points: each point still sums
    /// its dimensions in ascending order with the products of
    /// [`Kernel::eval_params`], and the categorical indicator is a
    /// compare-and-select rather than a branch. One pass then applies
    /// the base correlation and the signal variance.
    pub(crate) fn kstar(&self, kernel: &Kernel, p: &KernelParams, xstar: &[f64], out: &mut [f64]) {
        assert!(
            xstar.len() >= self.categorical.len(),
            "query point has fewer coordinates than the kernel has dimensions"
        );
        debug_assert_eq!(out.len(), self.n);
        out.fill(0.0);
        let dims = self
            .data
            .chunks_exact(self.n)
            .zip(xstar)
            .zip(&p.inv_ls2)
            .zip(&self.categorical);
        for (((col, &xd), &inv), &categorical) in dims {
            if categorical {
                for (r2, &xi) in out.iter_mut().zip(col) {
                    let ind = if (xd - xi).abs() > 1e-12 { 1.0 } else { 0.0 };
                    *r2 += ind * inv;
                }
            } else {
                for (r2, &xi) in out.iter_mut().zip(col) {
                    let dd = xd - xi;
                    *r2 += dd * dd * inv;
                }
            }
        }
        for k in out.iter_mut() {
            *k = p.sf2 * kernel.base(*k);
        }
    }
}

/// Rows per panel of [`BlockedLinv`]: one panel sweep keeps this many
/// `v_i` accumulators in registers.
const ROWS: usize = 8;

/// The lower-triangular `L⁻¹` in panels of [`ROWS`] rows. Panel `b`
/// holds rows `b·ROWS .. b·ROWS + ROWS` over columns
/// `0 .. min(b·ROWS + ROWS, n)`; inside a panel, column `k` is the
/// [`ROWS`] contiguous values `L⁻¹[b·ROWS + r][k]`. Entries right of the
/// diagonal, and the rows of the last panel past `n`, are stored zeros.
#[derive(Debug, Clone)]
pub(crate) struct BlockedLinv {
    n: usize,
    data: Vec<f64>,
}

impl BlockedLinv {
    /// Start of panel `b`: the panels before it hold `1, 2, …, b`
    /// column groups of `ROWS × ROWS` values.
    fn offset(b: usize) -> usize {
        ROWS * ROWS * b * (b + 1) / 2
    }

    fn index(i: usize, k: usize) -> usize {
        Self::offset(i / ROWS) + k * ROWS + i % ROWS
    }

    /// Re-lay the lower triangle of a row-major `L⁻¹`.
    pub(crate) fn from_lower(linv: &Matrix) -> Self {
        let n = linv.rows();
        let panels = n.div_ceil(ROWS);
        let len = if panels == 0 {
            0
        } else {
            Self::offset(panels - 1) + ROWS * n
        };
        let mut data = vec![0.0; len];
        for i in 0..n {
            for (k, &v) in linv.row(i)[..=i].iter().enumerate() {
                data[Self::index(i, k)] = v;
            }
        }
        BlockedLinv { n, data }
    }

    /// `L⁻¹[i][k]` for `k <= i`.
    fn get(&self, i: usize, k: usize) -> f64 {
        debug_assert!(k <= i && i < self.n);
        self.data[Self::index(i, k)]
    }

    /// The quadratic forms `‖L⁻¹k*_c‖²` of `C` candidates at once, with
    /// `kt[k·C + c] = k*_c[k]`. A panel's `ROWS · C` values
    /// `v_i = L⁻¹[i,:]·k*_c` are independent accumulators, each summed over
    /// ascending `k`, and each result adds `v_i²` in ascending `i`:
    /// exactly the row-by-row sums. The panel's diagonal columns are swept
    /// whole, so rows left of their diagonal add `0·k*[k]`, an exact zero:
    /// an accumulator starts at `+0` and is never `−0`, so adding `±0`
    /// leaves it unchanged. (A non-finite `k*[k]` instead makes this
    /// `qf` and the row-by-row one both non-finite, through the
    /// diagonal entry of row `k`, and the variance clamps to 0 either
    /// way.) Padding rows past `n` are never added to `qf`.
    pub(crate) fn quad_forms<const C: usize>(&self, kt: &[f64]) -> [f64; C] {
        debug_assert_eq!(kt.len(), self.n * C);
        let mut qf = [0.0; C];
        for b in 0..self.n.div_ceil(ROWS) {
            let row0 = b * ROWS;
            let rows = (self.n - row0).min(ROWS);
            let panel = &self.data[Self::offset(b)..][..ROWS * (row0 + rows)];
            let mut v = [[0.0f64; ROWS]; C];
            for (col, s) in panel.chunks_exact(ROWS).zip(kt.chunks_exact(C)) {
                let col: &[f64; ROWS] = col.try_into().expect("chunks_exact yields ROWS values");
                for (vc, &sc) in v.iter_mut().zip(s) {
                    for (acc, &l) in vc.iter_mut().zip(col) {
                        *acc += l * sc;
                    }
                }
            }
            for (q, vc) in qf.iter_mut().zip(&v) {
                for &vi in &vc[..rows] {
                    *q += vi * vi;
                }
            }
        }
        qf
    }

    /// Grow `L⁻¹` in place after a rank-1 append whose new factor row is
    /// `[l21, λ]`: the new row is `[-(1/λ)·(l21ᵀ L⁻¹), 1/λ]`, each entry
    /// summed over ascending `i` with zero `l21[i]` skipped — the
    /// arithmetic of [`crowdtune_linalg::cholesky::extend_inverse_lower`].
    pub(crate) fn push_row(&mut self, l21: &[f64], lambda: f64) {
        let n = self.n;
        debug_assert_eq!(l21.len(), n);
        let inv_lambda = 1.0 / lambda;
        let new_row: Vec<f64> = (0..n)
            .map(|j| {
                let mut s = 0.0;
                for (i, &li) in l21.iter().enumerate().skip(j) {
                    if li != 0.0 {
                        s += li * self.get(i, j);
                    }
                }
                -s * inv_lambda
            })
            .collect();
        if n.is_multiple_of(ROWS) {
            // Open a panel: n + 1 columns of ROWS values.
            self.data.resize(self.data.len() + ROWS * (n + 1), 0.0);
        } else {
            // Widen the last panel by the new diagonal column.
            self.data.resize(self.data.len() + ROWS, 0.0);
        }
        self.n = n + 1;
        for (j, v) in new_row.into_iter().enumerate() {
            self.data[Self::index(n, j)] = v;
        }
        self.data[Self::index(n, n)] = inv_lambda;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_linalg::Cholesky;

    /// A kernel matrix over random points in the unit cube (no
    /// subnormal factor entries).
    fn spd(n: usize) -> Matrix {
        let pts: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let t = i as f64;
                [
                    (t * 0.618_034).fract(),
                    (t * 0.414_214).fract(),
                    (t * 0.732_051).fract(),
                ]
            })
            .collect();
        Matrix::from_fn(n, n, |i, j| {
            let d2: f64 = pts[i]
                .iter()
                .zip(&pts[j])
                .map(|(a, b)| (a - b).powi(2))
                .sum();
            (-d2 / 0.5).exp() + if i == j { 1e-2 } else { 0.0 }
        })
    }

    fn leading(a: &Matrix, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| a[(i, j)])
    }

    #[test]
    fn layout_round_trips_the_lower_triangle() {
        for n in [1, 7, 8, 9, 17, 40] {
            let linv = Cholesky::new(&spd(n)).unwrap().inverse_lower();
            let blocked = BlockedLinv::from_lower(&linv);
            for i in 0..n {
                for k in 0..=i {
                    assert_eq!(blocked.get(i, k).to_bits(), linv[(i, k)].to_bits());
                }
            }
        }
    }

    #[test]
    fn push_row_matches_extend_inverse_lower_bitwise() {
        // Appends that fill a panel, open the next one and widen it.
        let a = spd(20);
        let mut chol = Cholesky::new(&leading(&a, 6)).unwrap();
        let mut linv = chol.inverse_lower();
        let mut blocked = BlockedLinv::from_lower(&linv);
        for n in 6..20 {
            let k_new: Vec<f64> = (0..n).map(|i| a[(i, n)]).collect();
            chol.append_row(&k_new, a[(n, n)], 1e-4).unwrap();
            let lrow = chol.l().row(n);
            linv = crowdtune_linalg::cholesky::extend_inverse_lower(&linv, &lrow[..n], lrow[n]);
            blocked.push_row(&lrow[..n], lrow[n]);
            let fresh = BlockedLinv::from_lower(&linv);
            assert_eq!(blocked.n, fresh.n);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&blocked.data), bits(&fresh.data), "n = {}", n + 1);
        }
    }
}
