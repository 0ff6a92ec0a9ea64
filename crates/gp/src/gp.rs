//! Single-task Gaussian-process regression with marginal-likelihood
//! hyperparameter optimization.
//!
//! This is the surrogate model behind the non-transfer tuner (`NoTLA`),
//! the per-task models of the weighted-sum TLA algorithms, and the
//! residual models of the Vizier-style stacking algorithm.

use crate::kernel::{DimKind, Kernel, KernelKind, KernelParams, SqDists};
use crowdtune_linalg::{lbfgs, Bounds, Cholesky, LbfgsOptions, LbfgsResult, Matrix};
use crowdtune_obs as obs;
use rand::Rng;
use rayon::prelude::*;

/// Hyperparameter bounds in log space (sane for y standardized to unit
/// variance over the unit cube).
const LOG_LS_MIN: f64 = -4.6; // ls >= 0.01
const LOG_LS_MAX: f64 = 2.31; // ls <= 10
const LOG_SF2_MIN: f64 = -9.2; // sf2 >= 1e-4
const LOG_SF2_MAX: f64 = 4.6; // sf2 <= 100
const LOG_NOISE_MIN: f64 = -18.4; // sn2 >= 1e-8
const LOG_NOISE_MAX: f64 = 0.0; // sn2 <= 1

/// Candidates per block in [`Gp::predict_batch`]: sized so the `V` and
/// `K*` working set (`2 · n · block · 8` bytes at typical `n`) stays
/// cache-resident during the triangular sweep.
const PREDICT_BLOCK: usize = 256;

/// Noise-variance treatment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseModel {
    /// Noise variance fixed at the given value (in standardized-y units).
    Fixed(f64),
    /// Noise variance estimated by maximum marginal likelihood, starting
    /// from the given value.
    Estimated(f64),
}

/// Configuration for fitting a [`Gp`].
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Kernel family.
    pub kernel: KernelKind,
    /// Per-dimension kinds (continuous vs categorical distance).
    pub dims: Vec<DimKind>,
    /// Noise model.
    pub noise: NoiseModel,
    /// Number of random restarts beyond the default start.
    pub restarts: usize,
    /// L-BFGS iteration cap per restart.
    pub max_opt_iter: usize,
    /// Run restarts in parallel. The result is bitwise identical to the
    /// sequential path at any thread count: all starts are drawn from
    /// the RNG up front and the winner is reduced in start order.
    pub parallel: bool,
}

impl GpConfig {
    /// Reasonable defaults: Matérn 5/2, estimated noise, two restarts.
    pub fn new(dims: Vec<DimKind>) -> Self {
        GpConfig {
            kernel: KernelKind::Matern52,
            dims,
            noise: NoiseModel::Estimated(1e-2),
            restarts: 2,
            max_opt_iter: 60,
            parallel: true,
        }
    }

    /// All-continuous convenience constructor.
    pub fn continuous(dim: usize) -> Self {
        Self::new(vec![DimKind::Continuous; dim])
    }
}

/// Errors from GP fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// No training points were provided.
    EmptyTrainingSet,
    /// A training target was NaN or infinite.
    NonFiniteTarget,
    /// Input dimensionality differed from the configuration.
    DimensionMismatch {
        /// Dimension the configuration expects.
        expected: usize,
        /// Dimension found in the data.
        got: usize,
    },
    /// The covariance matrix could not be factorized at any jitter level.
    NumericalFailure,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::EmptyTrainingSet => write!(f, "GP requires at least one training point"),
            GpError::NonFiniteTarget => write!(f, "GP training targets must be finite"),
            GpError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "GP input dimension mismatch: expected {expected}, got {got}"
                )
            }
            GpError::NumericalFailure => write!(f, "GP covariance factorization failed"),
        }
    }
}

impl std::error::Error for GpError {}

/// A fitted Gaussian process.
#[derive(Debug, Clone)]
pub struct Gp {
    kernel: Kernel,
    log_noise: f64,
    x: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    chol: Cholesky,
    /// `L^{-1}`, precomputed at fit time so the posterior variance is
    /// `sf2 - ||L^{-1} k*||^2` — independent triangular dot products
    /// that pipeline, instead of a loop-carried triangular solve per
    /// query point.
    linv: Matrix,
    /// Standardized training targets, kept so incremental updates can
    /// re-solve `alpha` in O(n²) and recompute the NLL in closed form.
    ys: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    lml: f64,
}

/// A posterior prediction: mean and standard deviation of the latent
/// function (noise-free), in original y units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior standard deviation of the latent function.
    pub std: f64,
}

impl Gp {
    /// Fit a GP to `(x, y)` where each `x[i]` lives in the unit cube.
    ///
    /// Hyperparameters are chosen by maximizing the log marginal
    /// likelihood with analytic gradients, multi-start L-BFGS.
    pub fn fit<R: Rng>(
        x: &[Vec<f64>],
        y: &[f64],
        config: &GpConfig,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        Self::fit_with_starts(x, y, config, rng, &[])
    }

    /// [`Gp::fit`] with extra L-BFGS starts prepended before the default
    /// start — the warm-start entry point for incremental refits. Each
    /// extra start must have the fit's θ layout
    /// (`[kernel hypers..., log_noise?]`); mismatched lengths are
    /// skipped. The multistart winner is still reduced in start order,
    /// so determinism at any thread count is unchanged.
    pub fn fit_with_starts<R: Rng>(
        x: &[Vec<f64>],
        y: &[f64],
        config: &GpConfig,
        rng: &mut R,
        extra_starts: &[Vec<f64>],
    ) -> Result<Self, GpError> {
        let fit_span = obs::span(obs::names::SPAN_GP_FIT);
        let n = x.len();
        if n == 0 {
            return Err(GpError::EmptyTrainingSet);
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteTarget);
        }
        let d = config.dims.len();
        for xi in x {
            if xi.len() != d {
                return Err(GpError::DimensionMismatch {
                    expected: d,
                    got: xi.len(),
                });
            }
        }

        // Standardize the targets.
        let y_mean = crowdtune_linalg::stats::mean(y);
        let mut y_std = crowdtune_linalg::stats::std_dev(y);
        if y_std.is_nan() || y_std <= 1e-12 {
            y_std = 1.0;
        }
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        let kernel0 = Kernel::new(config.kernel, config.dims.clone());
        let (fixed_noise, init_log_noise) = match config.noise {
            NoiseModel::Fixed(v) => (true, v.max(1e-12).ln()),
            NoiseModel::Estimated(v) => (false, v.max(1e-12).ln()),
        };

        // theta layout: [kernel hypers..., log_noise?]
        let n_kernel = kernel0.n_hyper();
        let theta_len = n_kernel + usize::from(!fixed_noise);

        // Pairwise squared distances are θ-independent: compute them once
        // per fit and share them across every objective evaluation of
        // every restart.
        let sq = kernel0.precompute_sq_dists(x);

        let objective = |theta: &[f64]| -> (f64, Vec<f64>) {
            let mut kern = kernel0.clone();
            kern.unpack(&theta[..n_kernel]);
            let log_noise = if fixed_noise {
                init_log_noise
            } else {
                theta[n_kernel]
            };
            if out_of_bounds(theta, n_kernel, fixed_noise) {
                return (f64::INFINITY, vec![0.0; theta.len()]);
            }
            match nlml_with_grad(&kern, log_noise, &sq, &ys) {
                Some((nlml, mut grad)) => {
                    if fixed_noise {
                        grad.truncate(n_kernel);
                    }
                    (nlml, grad)
                }
                None => (f64::INFINITY, vec![0.0; theta.len()]),
            }
        };

        // Multi-start: warm starts (if any), the default start, then
        // `restarts` random starts.
        let mut starts: Vec<Vec<f64>> =
            Vec::with_capacity(extra_starts.len() + config.restarts + 1);
        starts.extend(
            extra_starts
                .iter()
                .filter(|s| s.len() == theta_len)
                .cloned(),
        );
        let mut default_start = vec![0.0; theta_len];
        // Default lengthscale ~ 0.3 of the cube, sf2 = 1.
        for ls in default_start.iter_mut().take(d) {
            *ls = (0.3f64).ln();
        }
        default_start[d] = 0.0;
        if !fixed_noise {
            default_start[n_kernel] = init_log_noise;
        }
        starts.push(default_start);
        for _ in 0..config.restarts {
            let mut s = vec![0.0; theta_len];
            for (i, si) in s.iter_mut().enumerate() {
                *si = if i < d {
                    rng.gen_range(LOG_LS_MIN * 0.5..LOG_LS_MAX * 0.5)
                } else if i == d {
                    rng.gen_range(-2.0..2.0)
                } else {
                    rng.gen_range(LOG_NOISE_MIN * 0.5..LOG_NOISE_MAX)
                };
            }
            starts.push(s);
        }

        let opts = LbfgsOptions {
            max_iter: config.max_opt_iter,
            ..Default::default()
        };
        let Some(LbfgsResult {
            f: nlml, x: theta, ..
        }) = run_multistart(&starts, objective, &opts, None, config.parallel)
        else {
            obs::count(obs::names::CTR_FIT_FALLBACKS, 1);
            obs::record_with(|| obs::Event::Fit {
                model: "gp".to_string(),
                points: n as u64,
                restarts: starts.len() as u64,
                nll: None,
                duration_us: fit_span.elapsed_ns() / 1_000,
                fallback: true,
            });
            return Err(GpError::NumericalFailure);
        };
        obs::record_with(|| obs::Event::Fit {
            model: "gp".to_string(),
            points: n as u64,
            restarts: starts.len() as u64,
            nll: obs::finite(nlml),
            duration_us: fit_span.elapsed_ns() / 1_000,
            fallback: false,
        });

        let mut kernel = kernel0;
        kernel.unpack(&theta[..n_kernel]);
        let log_noise = if fixed_noise {
            init_log_noise
        } else {
            theta[n_kernel]
        };
        let k = build_covariance(&kernel, log_noise, x);
        let chol = Cholesky::robust(&k).map_err(|_| GpError::NumericalFailure)?;
        let alpha = chol.solve_vec(&ys);
        let linv = chol.inverse_lower();

        Ok(Gp {
            kernel,
            log_noise,
            x: x.to_vec(),
            alpha,
            chol,
            linv,
            ys,
            y_mean,
            y_std,
            lml: -nlml,
        })
    }

    /// Construct a GP with explicitly-given hyperparameters (no
    /// optimization). Used for pseudo-sample surrogates and in tests.
    pub fn with_hypers(
        kernel: Kernel,
        log_noise: f64,
        x: &[Vec<f64>],
        y: &[f64],
    ) -> Result<Self, GpError> {
        if x.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteTarget);
        }
        let y_mean = crowdtune_linalg::stats::mean(y);
        let mut y_std = crowdtune_linalg::stats::std_dev(y);
        if y_std.is_nan() || y_std <= 1e-12 {
            y_std = 1.0;
        }
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
        let k = build_covariance(&kernel, log_noise, x);
        let chol = Cholesky::robust(&k).map_err(|_| GpError::NumericalFailure)?;
        let alpha = chol.solve_vec(&ys);
        let linv = chol.inverse_lower();
        let n = x.len() as f64;
        let lml = -0.5 * crowdtune_linalg::dot(&ys, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();
        Ok(Gp {
            kernel,
            log_noise,
            x: x.to_vec(),
            alpha,
            chol,
            linv,
            ys,
            y_mean,
            y_std,
            lml,
        })
    }

    /// Absorb one new observation with a rank-1 Cholesky append instead
    /// of a full refit: O(n²) total (forward substitution for the new
    /// factor row, inverse-factor extension, and an `alpha` re-solve)
    /// versus the O(n³) rebuild.
    ///
    /// Hyperparameters and the target standardization stay **frozen** at
    /// their last-fit values, so the updated model is exactly the model
    /// a full rebuild at the current θ would produce (see
    /// [`Gp::refit_at_current_hypers`]) up to rounding. The caller is
    /// expected to schedule genuine refits; on numerical failure of the
    /// append (jitter ladder exhausted) the model is left unchanged and
    /// the caller should fall back to a full refit.
    pub fn update(&mut self, xnew: &[f64], ynew: f64) -> Result<(), GpError> {
        if !ynew.is_finite() {
            return Err(GpError::NonFiniteTarget);
        }
        let d = self.kernel.dim();
        if xnew.len() != d {
            return Err(GpError::DimensionMismatch {
                expected: d,
                got: xnew.len(),
            });
        }
        let params = self.kernel.params();
        let sn2 = self.log_noise.exp();
        let mut k_new = vec![0.0; self.x.len()];
        for (k, xi) in k_new.iter_mut().zip(self.x.iter()) {
            *k = self.kernel.eval_params(xnew, xi, &params);
        }
        let k_diag = self.kernel.eval_params(xnew, xnew, &params) + sn2;
        // Same jitter ceiling policy as `Cholesky::robust`, scaled by the
        // appended diagonal.
        let max_jitter = 1e-4 * k_diag.abs().max(1e-12);
        let mut chol = self.chol.clone();
        chol.append_row(&k_new, k_diag, max_jitter)
            .map_err(|_| GpError::NumericalFailure)?;
        self.linv = chol.extend_inverse_lower(&self.linv);
        self.chol = chol;
        self.x.push(xnew.to_vec());
        self.ys.push((ynew - self.y_mean) / self.y_std);
        self.alpha = self.chol.solve_vec(&self.ys);
        let n = self.ys.len() as f64;
        self.lml = -0.5 * crowdtune_linalg::dot(&self.ys, &self.alpha)
            - 0.5 * self.chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();
        Ok(())
    }

    /// Rebuild the covariance, factor, and `alpha` from scratch at the
    /// **current** hyperparameters and the current (frozen) target
    /// standardization. This is the reference the incremental append
    /// path is equivalent to, and the fallback when an append fails.
    pub fn refit_at_current_hypers(&mut self) -> Result<(), GpError> {
        let k = build_covariance(&self.kernel, self.log_noise, &self.x);
        let chol = Cholesky::robust(&k).map_err(|_| GpError::NumericalFailure)?;
        self.alpha = chol.solve_vec(&self.ys);
        self.linv = chol.inverse_lower();
        let n = self.ys.len() as f64;
        self.lml = -0.5 * crowdtune_linalg::dot(&self.ys, &self.alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();
        self.chol = chol;
        Ok(())
    }

    /// Negative log marginal likelihood in **raw** (unstandardized) y
    /// units: `-lml + n·ln(y_std)`. Comparable across models fitted with
    /// different target standardizations, which the incremental refit
    /// schedule needs when it weighs a frozen-standardization model
    /// against a freshly restandardized fit.
    pub fn nll_raw(&self) -> f64 {
        -self.lml + self.ys.len() as f64 * self.y_std.ln()
    }

    /// The fit's θ vector (`[kernel hypers..., log_noise?]`), suitable as
    /// a warm start for [`Gp::fit_with_starts`] under the same noise
    /// model. Pass `fixed_noise = true` to omit the noise coordinate.
    pub fn pack_theta(&self, fixed_noise: bool) -> Vec<f64> {
        let mut theta = self.kernel.pack();
        if !fixed_noise {
            theta.push(self.log_noise);
        }
        theta
    }

    /// Posterior prediction at a unit-cube point.
    pub fn predict(&self, xstar: &[f64]) -> Prediction {
        let params = self.kernel.params();
        let mut kstar = vec![0.0; self.x.len()];
        self.fill_kstar(xstar, &params, &mut kstar);
        self.posterior_from_kstar(&kstar, &params)
    }

    /// Batch prediction: hoists the θ-dependent kernel constants once,
    /// assembles the cross-covariance block-wise, and computes all
    /// variances with one triangular axpy sweep per block (`V = L⁻¹K*`
    /// vectorized across candidates). Entry `j` is bitwise identical to
    /// `self.predict(&xs[j])`: every scalar result accumulates in the
    /// same order as the per-point path.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        let m = xs.len();
        if m == 0 {
            return Vec::new();
        }
        let n = self.x.len();
        let params = self.kernel.params();
        let threads = rayon::current_num_threads();
        let process_block = |block: &[Vec<f64>]| -> Vec<Prediction> {
            let b = block.len();
            let mut kt = Matrix::zeros(n, b);
            let mut means = vec![0.0; b];
            let mut kstar = vec![0.0; n];
            for (j, x) in block.iter().enumerate() {
                self.fill_kstar(x, &params, &mut kstar);
                means[j] = crowdtune_linalg::dot(&kstar, &self.alpha);
                for (k, &ks) in kstar.iter().enumerate() {
                    kt[(k, j)] = ks;
                }
            }
            // V[i][j] accumulates L⁻¹[i][k]·k*[k][j] over ascending k,
            // exactly the per-point order, but the inner axpy runs
            // across the whole candidate block.
            let mut v = Matrix::zeros(n, b);
            for i in 0..n {
                let li = self.linv.row(i);
                let vi = v.row_mut(i);
                for (k, &c) in li.iter().enumerate().take(i + 1) {
                    for (o, &s) in vi.iter_mut().zip(kt.row(k)) {
                        *o += c * s;
                    }
                }
            }
            let mut qf = vec![0.0; b];
            for i in 0..n {
                for (q, &val) in qf.iter_mut().zip(v.row(i)) {
                    *q += val * val;
                }
            }
            means
                .iter()
                .zip(&qf)
                .map(|(&mean_s, &q)| {
                    let var_s = (params.sf2 - q).max(0.0);
                    Prediction {
                        mean: self.y_mean + self.y_std * mean_s,
                        std: self.y_std * var_s.sqrt(),
                    }
                })
                .collect()
        };
        // Candidate blocks keep V and K* resident in cache; blocks are
        // independent, so thread count never changes any result.
        let blocks: Vec<&[Vec<f64>]> = xs.chunks(PREDICT_BLOCK).collect();
        let per_block: Vec<Vec<Prediction>> =
            if threads > 1 && blocks.len() >= 2 && m * n * n >= 1 << 16 {
                blocks.par_iter().map(|blk| process_block(blk)).collect()
            } else {
                blocks.iter().map(|blk| process_block(blk)).collect()
            };
        per_block.into_iter().flatten().collect()
    }

    /// Cross-covariance vector `k* = K(xstar, X)` with hoisted params.
    #[inline]
    fn fill_kstar(&self, xstar: &[f64], params: &KernelParams, kstar: &mut [f64]) {
        for (k, xi) in kstar.iter_mut().zip(self.x.iter()) {
            *k = self.kernel.eval_params(xstar, xi, params);
        }
    }

    /// Posterior mean/std from an assembled `k*`. The variance is
    /// `sf2 - ||L^{-1} k*||^2` computed against the precomputed inverse
    /// factor: independent per-row reductions instead of a loop-carried
    /// triangular solve, at half the flops of a `K^{-1}` quadratic
    /// form. Each `v_i` uses a single accumulator over ascending `k` so
    /// the result is bitwise identical to the blocked axpy sweep in
    /// [`Gp::predict_batch`].
    #[inline]
    fn posterior_from_kstar(&self, kstar: &[f64], params: &KernelParams) -> Prediction {
        let mean_s = crowdtune_linalg::dot(kstar, &self.alpha);
        let mut qf = 0.0;
        for i in 0..kstar.len() {
            let li = &self.linv.row(i)[..=i];
            let mut vi = 0.0;
            for (a, b) in li.iter().zip(&kstar[..=i]) {
                vi += a * b;
            }
            qf += vi * vi;
        }
        let var_s = (params.sf2 - qf).max(0.0);
        Prediction {
            mean: self.y_mean + self.y_std * mean_s,
            std: self.y_std * var_s.sqrt(),
        }
    }

    /// Draw one joint sample of the latent function at the query points
    /// (the "samples drawn from the trained surrogate model" of the
    /// paper's Sobol description; also the primitive behind Thompson
    /// sampling). Returns one value per query point, in original y units.
    pub fn sample_joint<R: Rng>(&self, xs: &[Vec<f64>], rng: &mut R) -> Vec<f64> {
        let m = xs.len();
        if m == 0 {
            return Vec::new();
        }
        // Posterior mean and covariance at the query points.
        let n = self.x.len();
        let mut kstar = Matrix::zeros(n, m);
        for (j, xq) in xs.iter().enumerate() {
            for (i, xi) in self.x.iter().enumerate() {
                kstar[(i, j)] = self.kernel.eval(xq, xi);
            }
        }
        let mut mean = vec![0.0; m];
        for (j, mj) in mean.iter_mut().enumerate() {
            let col = kstar.col(j);
            *mj = crowdtune_linalg::dot(&col, &self.alpha);
        }
        // Cov = K(X*,X*) - V^T V with V = L^{-1} K(X, X*).
        let mut v = Matrix::zeros(n, m);
        let mut colbuf = vec![0.0; n];
        for j in 0..m {
            for i in 0..n {
                colbuf[i] = kstar[(i, j)];
            }
            let solved = self.chol.solve_lower_vec(&colbuf);
            for i in 0..n {
                v[(i, j)] = solved[i];
            }
        }
        let mut cov = Matrix::zeros(m, m);
        for a in 0..m {
            for b in a..m {
                let mut kab = self.kernel.eval(&xs[a], &xs[b]);
                for i in 0..n {
                    kab -= v[(i, a)] * v[(i, b)];
                }
                cov[(a, b)] = kab;
                cov[(b, a)] = kab;
            }
        }
        // Sample z ~ N(0, I), return mean + L_cov z (jitter-robust).
        let z: Vec<f64> = (0..m)
            .map(|_| {
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        let sample_s = match Cholesky::robust(&cov) {
            Ok(ch) => {
                let l = ch.l();
                (0..m)
                    .map(|a| {
                        let mut s = mean[a];
                        for b in 0..=a {
                            s += l[(a, b)] * z[b];
                        }
                        s
                    })
                    .collect::<Vec<f64>>()
            }
            // Degenerate covariance: fall back to independent marginals.
            Err(_) => (0..m)
                .map(|a| mean[a] + cov[(a, a)].max(0.0).sqrt() * z[a])
                .collect(),
        };
        sample_s
            .into_iter()
            .map(|s| self.y_mean + self.y_std * s)
            .collect()
    }

    /// The log marginal likelihood of the fitted model (standardized y).
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The fitted log noise variance (standardized-y units).
    pub fn log_noise(&self) -> f64 {
        self.log_noise
    }

    /// Training inputs.
    pub fn train_x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the GP has no training data (never constructible; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

fn out_of_bounds(theta: &[f64], n_kernel: usize, fixed_noise: bool) -> bool {
    let d = n_kernel - 1;
    for (i, &t) in theta.iter().enumerate() {
        let (lo, hi) = if i < d {
            (LOG_LS_MIN, LOG_LS_MAX)
        } else if i == d {
            (LOG_SF2_MIN, LOG_SF2_MAX)
        } else if !fixed_noise {
            (LOG_NOISE_MIN, LOG_NOISE_MAX)
        } else {
            continue;
        };
        if t < lo || t > hi {
            return true;
        }
    }
    false
}

/// Build `K = K_f + sn2 I`.
pub(crate) fn build_covariance(kernel: &Kernel, log_noise: f64, x: &[Vec<f64>]) -> Matrix {
    let n = x.len();
    let sn2 = log_noise.exp();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = kernel.eval(&x[i], &x[j]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] += sn2;
    }
    k
}

/// Run L-BFGS from every start — in parallel when requested and more
/// than one thread is available — and pick the winner exactly as the
/// sequential loop would: scan results in start order, keeping the
/// first strictly-better finite objective. Each restart is independent
/// and internally deterministic, so the parallel and sequential paths
/// return bitwise-identical winners. `bounds` is forwarded to every
/// L-BFGS run.
pub(crate) fn run_multistart<F>(
    starts: &[Vec<f64>],
    objective: F,
    opts: &LbfgsOptions,
    bounds: Option<&Bounds>,
    parallel: bool,
) -> Option<LbfgsResult>
where
    F: Fn(&[f64]) -> (f64, Vec<f64>) + Sync,
{
    let run = |s: &Vec<f64>| lbfgs(s, &objective, opts, bounds);
    let results: Vec<LbfgsResult> =
        if parallel && rayon::current_num_threads() > 1 && starts.len() > 1 {
            starts.par_iter().map(run).collect()
        } else {
            starts.iter().map(run).collect()
        };
    obs::count(obs::names::CTR_FIT_RESTARTS, results.len() as u64);
    if obs::journal_active() {
        // Journaled on the calling thread, in start order, so parallel and
        // sequential paths produce identical event sequences.
        for (index, res) in results.iter().enumerate() {
            obs::record_with(|| obs::Event::Restart {
                index: index as u64,
                nll: obs::finite(res.f),
                iterations: res.iterations as u64,
                stop: res.stop.as_str().to_string(),
            });
        }
    }
    let mut best: Option<LbfgsResult> = None;
    for res in results {
        if res.f.is_finite() {
            match &best {
                Some(b) if b.f <= res.f => {}
                _ => best = Some(res),
            }
        }
    }
    best
}

/// Negative log marginal likelihood and its gradient with respect to
/// `[kernel log-hypers..., log noise]`, evaluated from the fit-lifetime
/// distance cache. Returns `None` on factorization failure (treated as
/// an infeasible hyperparameter point).
fn nlml_with_grad(
    kernel: &Kernel,
    log_noise: f64,
    sq: &SqDists,
    ys: &[f64],
) -> Option<(f64, Vec<f64>)> {
    let n = sq.n();
    let p_kernel = kernel.n_hyper();
    let sn2 = log_noise.exp();
    let params = kernel.params();

    // Covariance and per-pair hyperparameter gradients, from cached
    // distances: no per-pair allocation, no per-pair hyperparameter exp.
    let mut k = Matrix::zeros(n, n);
    let mut dk: Vec<Matrix> = (0..p_kernel).map(|_| Matrix::zeros(n, n)).collect();
    let mut grad_buf = vec![0.0; p_kernel];
    for i in 0..n {
        for j in i..n {
            let v = kernel.eval_with_grad_precomputed(sq.pair(i, j), &params, &mut grad_buf);
            k[(i, j)] = v;
            k[(j, i)] = v;
            for (p, &g) in grad_buf.iter().enumerate() {
                dk[p][(i, j)] = g;
                dk[p][(j, i)] = g;
            }
        }
        k[(i, i)] += sn2;
    }

    let chol = Cholesky::robust(&k).ok()?;
    let alpha = chol.solve_vec(ys);
    let nlml = 0.5 * crowdtune_linalg::dot(ys, &alpha)
        + 0.5 * chol.log_det()
        + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

    // W = alpha alpha^T - K^{-1}; dNLML/dtheta_p = -0.5 tr(W dK/dtheta_p).
    // Materializing W once turns every trace into a single fused dot over
    // contiguous buffers instead of an O(n^2) recomputation per parameter.
    let mut w = chol.inverse();
    for i in 0..n {
        let ai = alpha[i];
        let row = w.row_mut(i);
        for (wj, &aj) in row.iter_mut().zip(alpha.iter()) {
            *wj = ai * aj - *wj;
        }
    }
    let mut grad = vec![0.0; p_kernel + 1];
    for (p, dkp) in dk.iter().enumerate() {
        grad[p] = -0.5 * crowdtune_linalg::dot(w.as_slice(), dkp.as_slice());
    }
    // Noise gradient: dK/d log sn2 = sn2 I.
    let mut tr = 0.0;
    for i in 0..n {
        tr += w[(i, i)];
    }
    grad[p_kernel] = -0.5 * sn2 * tr;

    Some((nlml, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen::<f64>()]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|xi| (2.0 * std::f64::consts::PI * xi[0]).sin() * 3.0 + 5.0)
            .collect();
        (x, y)
    }

    #[test]
    fn interpolates_noise_free_data() {
        let (x, y) = toy_data(20, 1);
        let mut config = GpConfig::continuous(1);
        config.noise = NoiseModel::Fixed(1e-8);
        let mut rng = StdRng::seed_from_u64(2);
        let gp = Gp::fit(&x, &y, &config, &mut rng).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let p = gp.predict(xi);
            assert!((p.mean - yi).abs() < 0.05, "pred {} vs {}", p.mean, yi);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.4], vec![0.5], vec![0.6]];
        let y = vec![1.0, 1.2, 0.9];
        let mut rng = StdRng::seed_from_u64(3);
        let gp = Gp::fit(&x, &y, &GpConfig::continuous(1), &mut rng).unwrap();
        let near = gp.predict(&[0.5]);
        let far = gp.predict(&[0.0]);
        assert!(far.std > near.std, "far {} vs near {}", far.std, near.std);
    }

    #[test]
    fn prediction_reasonable_between_points() {
        let (x, y) = toy_data(40, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let gp = Gp::fit(&x, &y, &GpConfig::continuous(1), &mut rng).unwrap();
        // True function at untrained points.
        for &t in &[0.15, 0.35, 0.77] {
            let truth = (2.0 * std::f64::consts::PI * t).sin() * 3.0 + 5.0;
            let p = gp.predict(&[t]);
            assert!(
                (p.mean - truth).abs() < 0.5,
                "at {t}: {} vs {truth}",
                p.mean
            );
        }
    }

    #[test]
    fn empty_training_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Gp::fit(&[], &[], &GpConfig::continuous(1), &mut rng);
        assert_eq!(e.unwrap_err(), GpError::EmptyTrainingSet);
    }

    #[test]
    fn non_finite_target_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Gp::fit(
            &[vec![0.5]],
            &[f64::NAN],
            &GpConfig::continuous(1),
            &mut rng,
        );
        assert_eq!(e.unwrap_err(), GpError::NonFiniteTarget);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Gp::fit(
            &[vec![0.5, 0.5]],
            &[1.0],
            &GpConfig::continuous(1),
            &mut rng,
        );
        assert!(matches!(
            e.unwrap_err(),
            GpError::DimensionMismatch {
                expected: 1,
                got: 2
            }
        ));
    }

    #[test]
    fn constant_targets_handled() {
        let x = vec![vec![0.1], vec![0.5], vec![0.9]];
        let y = vec![4.0, 4.0, 4.0];
        let mut rng = StdRng::seed_from_u64(5);
        let gp = Gp::fit(&x, &y, &GpConfig::continuous(1), &mut rng).unwrap();
        let p = gp.predict(&[0.3]);
        assert!((p.mean - 4.0).abs() < 0.2);
    }

    #[test]
    fn single_point_fit() {
        let mut rng = StdRng::seed_from_u64(5);
        let gp = Gp::fit(
            &[vec![0.5, 0.5]],
            &[2.0],
            &GpConfig::continuous(2),
            &mut rng,
        )
        .unwrap();
        let p = gp.predict(&[0.5, 0.5]);
        assert!((p.mean - 2.0).abs() < 1e-3);
    }

    #[test]
    fn with_hypers_skips_optimization() {
        let (x, y) = toy_data(10, 9);
        let kernel = Kernel::continuous(KernelKind::SquaredExponential, 1);
        let gp = Gp::with_hypers(kernel, (1e-6f64).ln(), &x, &y).unwrap();
        assert_eq!(gp.len(), 10);
        assert!(gp.log_marginal_likelihood().is_finite());
    }

    #[test]
    fn fit_is_deterministic_given_seed() {
        let (x, y) = toy_data(15, 11);
        let config = GpConfig::continuous(1);
        let gp1 = Gp::fit(&x, &y, &config, &mut StdRng::seed_from_u64(1)).unwrap();
        let gp2 = Gp::fit(&x, &y, &config, &mut StdRng::seed_from_u64(1)).unwrap();
        let p1 = gp1.predict(&[0.42]);
        let p2 = gp2.predict(&[0.42]);
        assert_eq!(p1, p2);
    }

    #[test]
    fn parallel_fit_matches_serial_bitwise() {
        // Restart parallelism must not change the selected
        // hyperparameters: all starts are drawn up front and the
        // reduction scans results in start order, so a parallel fit is
        // bitwise identical to a serial one at any thread count.
        let (x, y) = toy_data(20, 7);
        let mut config = GpConfig::continuous(1);
        config.restarts = 3;
        let par = Gp::fit(&x, &y, &config, &mut StdRng::seed_from_u64(9)).unwrap();
        config.parallel = false;
        let ser = Gp::fit(&x, &y, &config, &mut StdRng::seed_from_u64(9)).unwrap();
        for q in [0.0, 0.13, 0.42, 0.77, 0.99] {
            assert_eq!(par.predict(&[q]), ser.predict(&[q]));
        }
    }

    #[test]
    fn predict_batch_matches_per_point_bitwise() {
        let (x, y) = toy_data(30, 3);
        let config = GpConfig::continuous(1);
        let gp = Gp::fit(&x, &y, &config, &mut StdRng::seed_from_u64(4)).unwrap();
        // Large enough to cross the parallel threshold on multi-core
        // machines; each entry must still be bitwise equal to the
        // per-point path.
        let qs: Vec<Vec<f64>> = (0..512).map(|i| vec![i as f64 / 512.0]).collect();
        let batch = gp.predict_batch(&qs);
        assert_eq!(batch.len(), qs.len());
        for (q, b) in qs.iter().zip(&batch) {
            assert_eq!(*b, gp.predict(q));
        }
    }

    #[test]
    fn joint_samples_track_posterior() {
        let (x, y) = toy_data(25, 31);
        let mut config = GpConfig::continuous(1);
        config.noise = NoiseModel::Fixed(1e-6);
        let mut rng = StdRng::seed_from_u64(32);
        let gp = Gp::fit(&x, &y, &config, &mut rng).unwrap();
        let qs: Vec<Vec<f64>> = vec![vec![0.2], vec![0.5], vec![0.05]];
        // Mean of many joint samples approaches the posterior mean, and
        // samples at training-adjacent points have low spread.
        let mut sums = [0.0; 3];
        let k = 200;
        for _ in 0..k {
            let s = gp.sample_joint(&qs, &mut rng);
            for (acc, v) in sums.iter_mut().zip(&s) {
                *acc += v;
            }
        }
        for (j, q) in qs.iter().enumerate() {
            let p = gp.predict(q);
            let emp_mean = sums[j] / k as f64;
            assert!(
                (emp_mean - p.mean).abs() < 0.2 + 3.0 * p.std / (k as f64).sqrt() * 3.0,
                "q{j}: emp {emp_mean} vs post {}",
                p.mean
            );
        }
        // Empty query: empty sample.
        assert!(gp.sample_joint(&[], &mut rng).is_empty());
    }

    #[test]
    fn joint_samples_are_correlated_nearby() {
        let (x, y) = toy_data(15, 33);
        let mut rng = StdRng::seed_from_u64(34);
        let gp = Gp::fit(&x, &y, &GpConfig::continuous(1), &mut rng).unwrap();
        // Two nearly identical query points must get nearly identical
        // sampled values within each draw.
        for _ in 0..20 {
            let s = gp.sample_joint(&[vec![0.31], vec![0.3101]], &mut rng);
            assert!((s[0] - s[1]).abs() < 0.2, "joint draw not smooth: {s:?}");
        }
    }

    #[test]
    fn noisy_fit_does_not_interpolate_exactly() {
        // With substantial estimated noise, the posterior mean smooths.
        let x = vec![vec![0.2], vec![0.2001], vec![0.8]];
        let y = vec![0.0, 2.0, 1.0]; // two nearly-identical inputs, very different y
        let mut rng = StdRng::seed_from_u64(21);
        let gp = Gp::fit(&x, &y, &GpConfig::continuous(1), &mut rng).unwrap();
        let p = gp.predict(&[0.2]);
        // The smoothed prediction must land strictly between the clashing targets.
        assert!(p.mean > 0.05 && p.mean < 1.95, "mean = {}", p.mean);
    }
}
