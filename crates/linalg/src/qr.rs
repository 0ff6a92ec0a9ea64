//! Householder QR factorization and linear least squares.
//!
//! Used by the `WeightedSum(dynamic)` TLA algorithm, whose per-iteration
//! weight fit is a small dense least-squares problem, and as the
//! well-conditioned backend for unconstrained regression throughout the
//! tuner. QR (rather than normal equations) keeps the fit stable when the
//! regressors — differences of GP posterior means — are nearly collinear.

use crate::matrix::Matrix;

/// Compact Householder QR factorization of an `m x n` matrix with `m >= n`.
///
/// `R` is stored in the upper triangle of `qr`; the Householder vectors
/// (with implicit unit leading entry) in the lower triangle plus `beta`.
#[derive(Debug, Clone)]
pub struct Qr {
    qr: Matrix,
    beta: Vec<f64>,
}

/// Error for rank-deficient or mis-shaped least squares problems.
#[derive(Debug, Clone, PartialEq)]
pub enum QrError {
    /// More columns than rows: the system is underdetermined.
    Underdetermined {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// `R` had a (near-)zero diagonal entry: columns are linearly dependent.
    RankDeficient {
        /// Column index at which rank deficiency was detected.
        column: usize,
    },
}

impl std::fmt::Display for QrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QrError::Underdetermined { rows, cols } => {
                write!(f, "QR least squares needs rows >= cols, got {rows}x{cols}")
            }
            QrError::RankDeficient { column } => {
                write!(f, "matrix is rank deficient at column {column}")
            }
        }
    }
}

impl std::error::Error for QrError {}

impl Qr {
    /// Factorize `a` (consumed) with Householder reflections.
    pub fn new(a: Matrix) -> Result<Self, QrError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(QrError::Underdetermined { rows: m, cols: n });
        }
        let mut qr = a;
        let mut beta = vec![0.0; n];
        for k in 0..n {
            // Build the Householder vector for column k below the diagonal.
            let mut norm_sq = 0.0;
            for i in k..m {
                norm_sq += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                beta[k] = 0.0;
                continue;
            }
            let akk = qr[(k, k)];
            let alpha = if akk >= 0.0 { -norm } else { norm };
            let v0 = akk - alpha;
            // v = [v0, a[k+1..m, k]]; normalize so v[0] = 1.
            let v_norm_sq = v0 * v0 + (norm_sq - akk * akk);
            if v_norm_sq == 0.0 {
                beta[k] = 0.0;
                qr[(k, k)] = alpha;
                continue;
            }
            beta[k] = 2.0 * v0 * v0 / v_norm_sq;
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            qr[(k, k)] = alpha;
            // Apply the reflector to the trailing columns.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= beta[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(Qr { qr, beta })
    }

    /// Apply `Q^T` to a vector in place.
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        assert_eq!(b.len(), m);
        for k in 0..n {
            if self.beta[k] == 0.0 {
                continue;
            }
            let mut s = b[k];
            for (i, &bi) in b.iter().enumerate().take(m).skip(k + 1) {
                s += self.qr[(i, k)] * bi;
            }
            s *= self.beta[k];
            b[k] -= s;
            for (i, bi) in b.iter_mut().enumerate().take(m).skip(k + 1) {
                *bi -= s * self.qr[(i, k)];
            }
        }
    }

    /// Solve the least squares problem `min ||A x - b||_2`.
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, QrError> {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        assert_eq!(b.len(), m, "rhs length mismatch");
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back-substitute R x = y[0..n].
        let mut x = vec![0.0; n];
        let scale = self
            .qr
            .as_slice()
            .iter()
            .fold(0.0f64, |a, &v| a.max(v.abs()));
        let tol = 1e-12 * scale.max(1.0);
        for i in (0..n).rev() {
            let mut s = y[i];
            for (q, xj) in self.qr.row(i)[i + 1..].iter().zip(&x[i + 1..]) {
                s -= q * xj;
            }
            let rii = self.qr[(i, i)];
            if rii.abs() <= tol {
                return Err(QrError::RankDeficient { column: i });
            }
            x[i] = s / rii;
        }
        Ok(x)
    }
}

/// One-shot least squares `min ||A x - b||`, ridge-regularized fallback.
///
/// When `a` is rank deficient the problem is re-solved as
/// `(A^T A + lambda I) x = A^T b` with a small `lambda`, which is what the
/// dynamic-weight regression wants: a usable (if not unique) weight vector
/// rather than an error.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Vec<f64> {
    if a.rows() >= a.cols() {
        if let Ok(qr) = Qr::new(a.clone()) {
            if let Ok(x) = qr.solve(b) {
                return x;
            }
        }
    }
    ridge(a, b, 1e-8)
}

/// Ridge regression `(A^T A + lambda I) x = A^T b` via Cholesky.
pub fn ridge(a: &Matrix, b: &[f64], lambda: f64) -> Vec<f64> {
    let mut g = a.gram();
    let scale = (0..g.rows())
        .map(|i| g[(i, i)])
        .fold(0.0f64, f64::max)
        .max(1.0);
    for i in 0..g.rows() {
        g[(i, i)] += lambda * scale;
    }
    let rhs = a.tr_matvec(b);
    match crate::cholesky::Cholesky::robust(&g) {
        Ok(ch) => ch.solve_vec(&rhs),
        Err(_) => vec![0.0; a.cols()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_solves_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = [1.0, -2.0];
        let b = a.matvec(&x_true);
        let qr = Qr::new(a).unwrap();
        let x = qr.solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn qr_least_squares_overdetermined() {
        // Fit y = 2x + 1 through noisy points; exact fit on consistent data.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = Qr::new(a).unwrap().solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qr_residual_is_orthogonal_to_columns() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0],
            &[3.0, -1.0],
            &[0.5, 4.0],
            &[-2.0, 1.0],
            &[1.5, 0.0],
        ]);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = Qr::new(a.clone()).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let atr = a.tr_matvec(&r);
        for v in atr {
            assert!(v.abs() < 1e-10, "residual not orthogonal: {v}");
        }
    }

    #[test]
    fn underdetermined_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert!(matches!(Qr::new(a), Err(QrError::Underdetermined { .. })));
    }

    #[test]
    fn rank_deficient_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = Qr::new(a).unwrap();
        assert!(matches!(
            qr.solve(&[1.0, 2.0, 3.0]),
            Err(QrError::RankDeficient { .. })
        ));
    }

    #[test]
    fn lstsq_falls_back_on_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let x = lstsq(&a, &[1.0, 2.0, 3.0]);
        // Any solution with x0 + 2 x1 = 1 fits perfectly; ridge returns the
        // minimum-norm-ish one. Check the fit itself.
        let fit = a.matvec(&x);
        for (f, b) in fit.iter().zip([1.0, 2.0, 3.0]) {
            assert!((f - b).abs() < 1e-3);
        }
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let b = [1.0, 1.0];
        let x_small = ridge(&a, &b, 1e-12);
        let x_large = ridge(&a, &b, 10.0);
        assert!(x_small[0] > 0.99);
        assert!(x_large[0] < 0.5);
    }
}
