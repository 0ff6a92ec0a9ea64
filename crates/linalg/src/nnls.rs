//! Non-negative least squares (Lawson–Hanson active set method).
//!
//! `WeightedSum(dynamic)` fits per-task weights by regressing observed
//! improvement gaps onto predicted gaps (paper §V-C). Unconstrained least
//! squares can return negative task weights, which flip the sign of a
//! source surrogate's contribution and destabilize the acquisition
//! function; solving the regression under `w >= 0` keeps every surrogate's
//! influence additive. This is the classic Lawson–Hanson algorithm
//! (*Solving Least Squares Problems*, 1974, Ch. 23).

use crate::matrix::Matrix;
use crate::qr::lstsq;

/// Tolerance on the dual vector for declaring optimality; coordinates at
/// or below it are clipped to zero.
const TOL: f64 = 1e-10;

/// Solve `min ||A x - b||_2 subject to x >= 0`.
///
/// Returns the solution vector; always well-defined (falls back to the zero
/// vector when no positive coordinate improves the fit).
pub fn nnls(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(b.len(), m, "rhs length mismatch");
    // Ten times the customary `3 n` outer iterations.
    let max_iter = 3 * n.max(1) * 10;

    let mut x = vec![0.0; n];
    let mut passive: Vec<bool> = vec![false; n];
    // Residual r = b - A x (x = 0 initially).
    let mut residual: Vec<f64> = b.to_vec();

    for _ in 0..max_iter {
        // Dual vector w = A^T r, restricted to the active (zero) set.
        let w = a.tr_matvec(&residual);
        let mut best = None;
        for j in 0..n {
            if !passive[j] && w[j] > TOL {
                match best {
                    Some((_, wv)) if wv >= w[j] => {}
                    _ => best = Some((j, w[j])),
                }
            }
        }
        let Some((j_enter, _)) = best else {
            break; // KKT conditions satisfied.
        };
        passive[j_enter] = true;

        // Inner loop: solve the unconstrained subproblem on the passive set,
        // clipping back any coordinates that would go negative.
        loop {
            let pset: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let sub = submatrix_cols(a, &pset);
            let z = lstsq(&sub, b);
            if z.iter().all(|&v| v > 0.0) {
                for (k, &j) in pset.iter().enumerate() {
                    x[j] = z[k];
                }
                break;
            }
            // Step from x towards z, stopping at the first boundary.
            let mut alpha = f64::INFINITY;
            for (k, &j) in pset.iter().enumerate() {
                if z[k] <= 0.0 {
                    let step = x[j] / (x[j] - z[k]);
                    if step < alpha {
                        alpha = step;
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (k, &j) in pset.iter().enumerate() {
                x[j] += alpha * (z[k] - x[j]);
                if x[j] <= TOL {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
            if pset.iter().all(|&j| !passive[j]) {
                // Everything got clipped; the entering variable cannot help.
                break;
            }
        }

        // Refresh the residual.
        let ax = a.matvec(&x);
        for i in 0..m {
            residual[i] = b[i] - ax[i];
        }
    }
    x
}

fn submatrix_cols(a: &Matrix, cols: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), cols.len());
    for r in 0..a.rows() {
        for (k, &c) in cols.iter().enumerate() {
            out[(r, k)] = a[(r, c)];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_optimum_already_nonnegative() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let b = [1.0, 2.0, 3.0];
        let x = nnls(&a, &b);
        // Unconstrained solution is exactly (1, 2): consistent system.
        assert!((x[0] - 1.0).abs() < 1e-8);
        assert!((x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn negative_coordinate_clamped_to_zero() {
        // min ||x1 - (-1)||^2 + ||x2 - 1||^2 s.t. x >= 0 => x = (0, 1).
        let a = Matrix::identity(2);
        let b = [-1.0, 1.0];
        let x = nnls(&a, &b);
        assert_eq!(x[0], 0.0);
        assert!((x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn all_negative_target_gives_zero_vector() {
        let a = Matrix::identity(3);
        let b = [-1.0, -5.0, -0.1];
        let x = nnls(&a, &b);
        assert_eq!(x, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn solution_satisfies_kkt() {
        let a = Matrix::from_rows(&[
            &[0.5, 2.0, 1.0],
            &[2.0, 0.5, 1.0],
            &[1.0, 1.0, 2.0],
            &[0.1, 0.7, 0.3],
        ]);
        let b = [1.0, 2.0, -0.5, 0.3];
        let x = nnls(&a, &b);
        // KKT: x >= 0, and gradient g = A^T(Ax - b) satisfies
        // g_j >= 0 for x_j = 0 and g_j ~= 0 for x_j > 0.
        let ax = a.matvec(&x);
        let r: Vec<f64> = ax.iter().zip(b.iter()).map(|(axi, bi)| axi - bi).collect();
        let g = a.tr_matvec(&r);
        for j in 0..3 {
            assert!(x[j] >= 0.0);
            if x[j] > 1e-10 {
                assert!(g[j].abs() < 1e-6, "interior gradient not ~0: {}", g[j]);
            } else {
                assert!(g[j] > -1e-6, "active gradient negative: {}", g[j]);
            }
        }
    }

    #[test]
    fn never_worse_than_zero_vector() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[-2.0, 1.0], &[0.5, 0.5]]);
        let b = [1.0, -1.0, 0.25];
        let x = nnls(&a, &b);
        let ax = a.matvec(&x);
        let res: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum();
        let zero_res: f64 = b.iter().map(|q| q * q).sum();
        assert!(res <= zero_res + 1e-12);
    }
}
