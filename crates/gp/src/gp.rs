//! Single-task Gaussian-process regression with marginal-likelihood
//! hyperparameter optimization.
//!
//! This is the surrogate model behind the non-transfer tuner (`NoTLA`),
//! the per-task models of the weighted-sum TLA algorithms, and the
//! residual models of the Vizier-style stacking algorithm.

use crate::kernel::{DimKind, Kernel, KernelKind, KernelParams, SqDists};
use crate::posterior::{BlockedLinv, DimsMajor};
use crowdtune_linalg::{lbfgs, Bounds, Cholesky, LbfgsOptions, LbfgsResult, Matrix, StopReason};
use crowdtune_obs as obs;
use rand::Rng;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hyperparameter bounds in log space (sane for y standardized to unit
/// variance over the unit cube).
const LOG_LS_MIN: f64 = -4.6; // ls >= 0.01
const LOG_LS_MAX: f64 = 2.31; // ls <= 10
const LOG_SF2_MIN: f64 = -9.2; // sf2 >= 1e-4
const LOG_SF2_MAX: f64 = 4.6; // sf2 <= 100
const LOG_NOISE_MIN: f64 = -18.4; // sn2 >= 1e-8
const LOG_NOISE_MAX: f64 = 0.0; // sn2 <= 1

/// Candidates per parallel work item in [`Gp::predict_batch`]. Items
/// are independent, so the thread count never changes a result.
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
    /// The kernel's exponentiated hyperparameters, hoisted once per fit
    /// so every prediction and append reuses them.
    params: KernelParams,
    log_noise: f64,
    x: Vec<Vec<f64>>,
    /// The training inputs again, dims-major, for building `k*`.
    xt: DimsMajor,
    alpha: Vec<f64>,
    chol: Cholesky,
    /// `L^{-1}` in row panels, precomputed at fit time so the posterior
    /// variance is `sf2 - ||L^{-1} k*||^2` — a panel's rows accumulate
    /// in independent registers, instead of a loop-carried triangular
    /// solve per query point.
    linv: BlockedLinv,
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
        let lik = GpLikelihood::new(x, y, config)?;
        let n = x.len();
        let starts = lik.starts(extra_starts, config.restarts, rng);
        let counts = FitCounts::default();
        let objective = |theta: &[f64]| counts.count(lik.nll(theta));

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
                evaluations: Some(counts.evaluations()),
                gradients: Some(counts.gradients()),
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
            evaluations: Some(counts.evaluations()),
            gradients: Some(counts.gradients()),
        });

        let log_noise = lik.log_noise(&theta);
        let mut kernel = lik.kernel0;
        kernel.unpack(&theta[..lik.n_kernel]);
        // The objective's kernel pass over the same distance cache: K is
        // bitwise the matrix whose likelihood won.
        let params = kernel.params();
        let (k, _) = covariance_pass(&kernel, &params, log_noise.exp(), &lik.sq);
        let chol = Cholesky::robust(&k).map_err(|_| GpError::NumericalFailure)?;
        let alpha = chol.solve_vec(&lik.ys);
        let linv = BlockedLinv::from_lower(&chol.inverse_lower());

        Ok(Gp {
            xt: DimsMajor::new(x, kernel.dims()),
            kernel,
            params,
            log_noise,
            x: x.to_vec(),
            alpha,
            chol,
            linv,
            ys: lik.ys,
            y_mean: lik.y_mean,
            y_std: lik.y_std,
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
        let params = kernel.params();
        let k = build_covariance(&kernel, &params, log_noise, x);
        let chol = Cholesky::robust(&k).map_err(|_| GpError::NumericalFailure)?;
        let alpha = chol.solve_vec(&ys);
        let linv = BlockedLinv::from_lower(&chol.inverse_lower());
        let n = x.len() as f64;
        let lml = -0.5 * crowdtune_linalg::dot(&ys, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();
        Ok(Gp {
            xt: DimsMajor::new(x, kernel.dims()),
            kernel,
            params,
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
    /// a full rebuild at the current θ would produce up to rounding (the
    /// tests compare it against such a rebuild). The caller is
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
        let sn2 = self.log_noise.exp();
        let mut k_new = vec![0.0; self.x.len()];
        self.fill_kstar(xnew, &mut k_new);
        let k_diag = self.kernel.eval_params(xnew, xnew, &self.params) + sn2;
        // Same jitter ceiling policy as `Cholesky::robust`, scaled by the
        // appended diagonal.
        let max_jitter = 1e-4 * k_diag.abs().max(1e-12);
        let mut chol = self.chol.clone();
        chol.append_row(&k_new, k_diag, max_jitter)
            .map_err(|_| GpError::NumericalFailure)?;
        let lrow = chol.l().row(k_new.len());
        self.linv.push_row(&lrow[..k_new.len()], lrow[k_new.len()]);
        self.chol = chol;
        self.xt.push(xnew);
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
    /// path is equivalent to.
    #[cfg(test)]
    pub(crate) fn refit_at_current_hypers(&mut self) -> Result<(), GpError> {
        let k = build_covariance(&self.kernel, &self.params, self.log_noise, &self.x);
        let chol = Cholesky::robust(&k).map_err(|_| GpError::NumericalFailure)?;
        self.alpha = chol.solve_vec(&self.ys);
        self.linv = BlockedLinv::from_lower(&chol.inverse_lower());
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
        let mut kstar = vec![0.0; self.x.len()];
        self.fill_kstar(xstar, &mut kstar);
        let mean_s = crowdtune_linalg::dot(&kstar, &self.alpha);
        let [qf] = self.linv.quad_forms::<1>(&kstar);
        self.prediction(mean_s, qf)
    }

    /// The posterior mean at a unit-cube point, bitwise the `mean` of
    /// [`Gp::predict`] (same `k*` and dot product) without the O(n²)
    /// variance sweep.
    pub fn predict_mean(&self, xstar: &[f64]) -> f64 {
        let mut kstar = vec![0.0; self.x.len()];
        self.fill_kstar(xstar, &mut kstar);
        let mean_s = crowdtune_linalg::dot(&kstar, &self.alpha);
        self.y_mean + self.y_std * mean_s
    }

    /// Batch prediction. Candidates go through the variance sweep two at
    /// a time, so each `L⁻¹` panel is read once per pair. Entry `j` is
    /// bitwise identical to `self.predict(&xs[j])`: every scalar result
    /// accumulates in the same order as the per-point path.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        let m = xs.len();
        let n = self.x.len();
        let process_block = |block: &[Vec<f64>]| -> Vec<Prediction> {
            let mut out = Vec::with_capacity(block.len());
            let mut kstar = [vec![0.0; n], vec![0.0; n]];
            let mut kt = vec![0.0; 2 * n];
            let mut pairs = block.chunks_exact(2);
            for pair in pairs.by_ref() {
                let mut means = [0.0; 2];
                for ((x, ks), mean) in pair.iter().zip(&mut kstar).zip(&mut means) {
                    self.fill_kstar(x, ks);
                    *mean = crowdtune_linalg::dot(ks, &self.alpha);
                }
                for ((t, &a), &b) in kt.chunks_exact_mut(2).zip(&kstar[0]).zip(&kstar[1]) {
                    t[0] = a;
                    t[1] = b;
                }
                let qf = self.linv.quad_forms::<2>(&kt);
                out.extend(
                    means
                        .iter()
                        .zip(qf)
                        .map(|(&mean_s, q)| self.prediction(mean_s, q)),
                );
            }
            out.extend(pairs.remainder().iter().map(|x| self.predict(x)));
            out
        };
        let blocks: Vec<&[Vec<f64>]> = xs.chunks(PREDICT_BLOCK).collect();
        let per_block: Vec<Vec<Prediction>> =
            if rayon::current_num_threads() > 1 && blocks.len() >= 2 && m * n * n >= 1 << 16 {
                blocks.par_iter().map(|blk| process_block(blk)).collect()
            } else {
                blocks.iter().map(|blk| process_block(blk)).collect()
            };
        per_block.into_iter().flatten().collect()
    }

    /// Cross-covariance vector `k* = K(xstar, X)` with hoisted params.
    #[inline]
    fn fill_kstar(&self, xstar: &[f64], kstar: &mut [f64]) {
        self.xt.kstar(&self.kernel, &self.params, xstar, kstar);
    }

    /// The prediction in original y units from the standardized mean
    /// `k*·α` and the quadratic form `‖L⁻¹k*‖²`.
    #[inline]
    fn prediction(&self, mean_s: f64, qf: f64) -> Prediction {
        let var_s = (self.params.sf2 - qf).max(0.0);
        Prediction {
            mean: self.y_mean + self.y_std * mean_s,
            std: self.y_std * var_s.sqrt(),
        }
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

/// The marginal likelihood of a single-task GP on fixed data, as a
/// function of θ = `[kernel hypers..., log_noise?]` (the noise
/// coordinate only when the noise is estimated). Targets are
/// standardized, and the pairwise squared distances are computed once
/// here and shared by every evaluation of every restart.
struct GpLikelihood {
    kernel0: Kernel,
    n_kernel: usize,
    fixed_noise: bool,
    init_log_noise: f64,
    sq: SqDists,
    ys: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl GpLikelihood {
    /// Validate and standardize `(x, y)` for `config`'s model.
    fn new(x: &[Vec<f64>], y: &[f64], config: &GpConfig) -> Result<Self, GpError> {
        if x.is_empty() {
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
        let y_mean = crowdtune_linalg::stats::mean(y);
        let mut y_std = crowdtune_linalg::stats::std_dev(y);
        if y_std.is_nan() || y_std <= 1e-12 {
            y_std = 1.0;
        }
        let ys = y.iter().map(|v| (v - y_mean) / y_std).collect();
        let kernel0 = Kernel::new(config.kernel, config.dims.clone());
        let (fixed_noise, init_log_noise) = match config.noise {
            NoiseModel::Fixed(v) => (true, v.max(1e-12).ln()),
            NoiseModel::Estimated(v) => (false, v.max(1e-12).ln()),
        };
        Ok(GpLikelihood {
            n_kernel: kernel0.n_hyper(),
            sq: kernel0.precompute_sq_dists(x),
            kernel0,
            fixed_noise,
            init_log_noise,
            ys,
            y_mean,
            y_std,
        })
    }

    /// The multistart starts: the warm starts whose length matches θ,
    /// the default start, then `restarts` random starts drawn from `rng`.
    fn starts<R: Rng>(&self, extra: &[Vec<f64>], restarts: usize, rng: &mut R) -> Vec<Vec<f64>> {
        let d = self.n_kernel - 1;
        let theta_len = self.n_kernel + usize::from(!self.fixed_noise);
        let mut starts: Vec<Vec<f64>> = Vec::with_capacity(extra.len() + restarts + 1);
        starts.extend(extra.iter().filter(|s| s.len() == theta_len).cloned());
        let mut default_start = vec![0.0; theta_len];
        // Default lengthscale ~ 0.3 of the cube, sf2 = 1.
        for ls in default_start.iter_mut().take(d) {
            *ls = (0.3f64).ln();
        }
        default_start[d] = 0.0;
        if !self.fixed_noise {
            default_start[self.n_kernel] = self.init_log_noise;
        }
        starts.push(default_start);
        for _ in 0..restarts {
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
        starts
    }

    fn log_noise(&self, theta: &[f64]) -> f64 {
        if self.fixed_noise {
            self.init_log_noise
        } else {
            theta[self.n_kernel]
        }
    }

    /// The NLL at θ and its deferred gradient; +∞ (with a zero gradient)
    /// outside the hyperparameter box or when `K` cannot be factorized.
    fn nll(&self, theta: &[f64]) -> (f64, impl FnOnce() -> Vec<f64> + '_) {
        let value = (!out_of_bounds(theta, self.n_kernel, self.fixed_noise))
            .then(|| {
                let mut kern = self.kernel0.clone();
                kern.unpack(&theta[..self.n_kernel]);
                let log_noise = self.log_noise(theta);
                nlml_with_grad(&kern, log_noise, !self.fixed_noise, &self.sq, &self.ys)
            })
            .flatten();
        or_infeasible(value, theta.len())
    }
}

/// An objective value with its deferred gradient, or +∞ with a zero
/// gradient of length `len` for an infeasible point (`None`).
pub(crate) fn or_infeasible<G: FnOnce() -> Vec<f64>>(
    value: Option<(f64, G)>,
    len: usize,
) -> (f64, impl FnOnce() -> Vec<f64>) {
    let nll = value.as_ref().map_or(f64::INFINITY, |(nll, _)| *nll);
    (nll, move || {
        value.map_or_else(|| vec![0.0; len], |(_, grad)| grad())
    })
}

/// Likelihood evaluations of one fit and the gradients the optimizer
/// computed, summed over every start.
#[derive(Default)]
pub(crate) struct FitCounts {
    evaluations: AtomicUsize,
    gradients: AtomicUsize,
}

impl FitCounts {
    /// Count one objective evaluation, and its gradient if it runs.
    pub(crate) fn count<'a, G: FnOnce() -> Vec<f64> + 'a>(
        &'a self,
        (nll, grad): (f64, G),
    ) -> (f64, impl FnOnce() -> Vec<f64> + 'a) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        (nll, move || {
            self.gradients.fetch_add(1, Ordering::Relaxed);
            grad()
        })
    }

    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed) as u64
    }

    pub(crate) fn gradients(&self) -> u64 {
        self.gradients.load(Ordering::Relaxed) as u64
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

/// Build `K = K_f + sn2 I` from hoisted kernel params.
fn build_covariance(
    kernel: &Kernel,
    params: &KernelParams,
    log_noise: f64,
    x: &[Vec<f64>],
) -> Matrix {
    let n = x.len();
    let sn2 = log_noise.exp();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = kernel.eval_params(&x[i], &x[j], params);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] += sn2;
    }
    k
}

/// The likelihood's kernel pass over the fit-lifetime distance cache:
/// `K = K_f + sn2 I` plus, per upper-triangle pair in [`SqDists`] order,
/// the kernel value and its lengthscale-gradient factor (`kf[2p]`,
/// `kf[2p + 1]`), both from one fused evaluation (one `sqrt`, one
/// `exp`).
fn covariance_pass(
    kernel: &Kernel,
    params: &KernelParams,
    sn2: f64,
    sq: &SqDists,
) -> (Matrix, Vec<f64>) {
    let n = sq.n();
    let mut k = Matrix::zeros(n, n);
    let mut kf = vec![0.0; n * (n + 1)];
    let mut pair = 0;
    for i in 0..n {
        for j in i..n {
            let (v, factor) = kernel.eval_with_factor(sq.pair(i, j), params);
            kf[2 * pair] = v;
            kf[2 * pair + 1] = factor;
            k[(i, j)] = v;
            k[(j, i)] = v;
            pair += 1;
        }
        k[(i, i)] += sn2;
    }
    (k, kf)
}

/// Run L-BFGS from every start — in parallel when requested and more
/// than one thread is available — and pick the winner exactly as the
/// sequential loop would: scan results in start order, keeping the
/// first strictly-better finite objective. Each restart is independent
/// and internally deterministic, so the parallel and sequential paths
/// return bitwise-identical winners. `bounds` is forwarded to every
/// L-BFGS run.
pub(crate) fn run_multistart<F, G>(
    starts: &[Vec<f64>],
    objective: F,
    opts: &LbfgsOptions,
    bounds: Option<&Bounds>,
    parallel: bool,
) -> Option<LbfgsResult>
where
    F: Fn(&[f64]) -> (f64, G) + Sync,
    G: FnOnce() -> Vec<f64>,
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
            if res.stop == StopReason::LineSearchFailed {
                obs::record_with(|| obs::Event::LineSearch {
                    iteration: res.iterations as u64,
                });
            }
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

/// Negative log marginal likelihood and its deferred gradient with
/// respect to `[kernel log-hypers..., log noise?]` (the noise entry when
/// `with_noise`), evaluated from the fit-lifetime distance cache.
/// Returns `None` on factorization failure (treated as an infeasible
/// hyperparameter point).
///
/// The value costs the kernel pass, the Cholesky factor and `α`. The
/// returned closure owns the factor and the pass's kernel values and
/// computes `K⁻¹` and the gradient sweep only when it runs.
fn nlml_with_grad<'a>(
    kernel: &Kernel,
    log_noise: f64,
    with_noise: bool,
    sq: &'a SqDists,
    ys: &'a [f64],
) -> Option<(f64, impl FnOnce() -> Vec<f64> + 'a)> {
    let n = sq.n();
    let sn2 = log_noise.exp();
    let params = kernel.params();
    let (k, kf) = covariance_pass(kernel, &params, sn2, sq);

    let chol = Cholesky::robust(&k).ok()?;
    let alpha = chol.solve_vec(ys);
    let nlml = 0.5 * crowdtune_linalg::dot(ys, &alpha)
        + 0.5 * chol.log_det()
        + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
    let grad = move || {
        let kinv = chol.inverse();

        // dNLML/dθ = -0.5 Σ_ij W_ij dK_ij/dθ with W = αα^T - K^{-1}, formed
        // pair by pair over the upper triangle (off-diagonal pairs count
        // twice) and never stored. One sweep sums Σ w·k (signal variance),
        // Σ w·factor·sq_d (lengthscales, scaled by 1/ls_d² at the end) and
        // the diagonal trace (noise).
        let mut wk = 0.0;
        let mut wg = vec![0.0; params.inv_ls2.len()];
        let mut tr = 0.0;
        let mut pair = 0;
        for i in 0..n {
            let kinv_i = kinv.row(i);
            let ai = alpha[i];
            for j in i..n {
                let w = ai * alpha[j] - kinv_i[j];
                let ws = if j == i {
                    tr += w;
                    w
                } else {
                    2.0 * w
                };
                wk += ws * kf[2 * pair];
                let c = ws * kf[2 * pair + 1];
                for (g, &s) in wg.iter_mut().zip(sq.pair(i, j)) {
                    *g += c * s;
                }
                pair += 1;
            }
        }
        let mut grad: Vec<f64> = wg
            .iter()
            .zip(&params.inv_ls2)
            .map(|(g, inv)| -0.5 * inv * g)
            .collect();
        // dK/d log sf2 = K_f.
        grad.push(-0.5 * wk);
        if with_noise {
            // Noise gradient: dK/d log sn2 = sn2 I.
            grad.push(-0.5 * sn2 * tr);
        }
        grad
    };
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
        // 12-D Hypre-kind inputs at sizes on both sides of the
        // posterior's eight-row panels, with enough candidates for two
        // batch blocks and an odd one out of the candidate pairs.
        for n in [1, 3, 4, 5, 131, 200] {
            let gp = hypre_like_gp(n, 40 + n as u64);
            let qs = hypre_like_points(301, 7 * n as u64);
            let batch = gp.predict_batch(&qs);
            for (q, b) in qs.iter().zip(&batch) {
                assert_eq!(*b, gp.predict(q), "n = {n}");
            }
        }
    }

    #[test]
    fn predict_mean_is_the_predicted_mean_bitwise() {
        // The Sobol analysis's shape: a 12-D Hypre-kind GP at n = 200,
        // plus sizes on both sides of the posterior's eight-row panels.
        for kind in [KernelKind::Matern52, KernelKind::SquaredExponential] {
            for n in [1, 5, 131, 200] {
                let gp = hypre_like_gp_with(kind, n, 60 + n as u64);
                for q in hypre_like_points(97, 11 * n as u64) {
                    assert_eq!(
                        gp.predict_mean(&q).to_bits(),
                        gp.predict(&q).mean.to_bits(),
                        "{kind:?}, n = {n}"
                    );
                }
            }
        }
    }

    /// The posterior as it was computed before the dims-major `k*` and
    /// the panel-blocked `L⁻¹`: one kernel evaluation per training point,
    /// a row-major `L⁻¹` swept four rows at a time, and the batch path's
    /// axpy sweep. `linv` is the row-major `L⁻¹` the model used to store.
    mod reference {
        use super::*;

        pub(super) fn fill_kstar(gp: &Gp, xstar: &[f64], kstar: &mut [f64]) {
            for (k, xi) in kstar.iter_mut().zip(gp.x.iter()) {
                *k = gp.kernel.eval_params(xstar, xi, &gp.params);
            }
        }

        pub(super) fn posterior_from_kstar(gp: &Gp, linv: &Matrix, kstar: &[f64]) -> Prediction {
            let mean_s = crowdtune_linalg::dot(kstar, &gp.alpha);
            let n = kstar.len();
            let mut qf = 0.0;
            let mut i = 0;
            while i + 4 <= n {
                let ks = &kstar[..=i];
                let r0 = &linv.row(i)[..=i];
                let r1 = &linv.row(i + 1)[..=i + 1];
                let r2 = &linv.row(i + 2)[..=i + 2];
                let r3 = &linv.row(i + 3)[..=i + 3];
                let (mut v0, mut v1, mut v2, mut v3) = (0.0, 0.0, 0.0, 0.0);
                for (k, &s) in ks.iter().enumerate() {
                    v0 += r0[k] * s;
                    v1 += r1[k] * s;
                    v2 += r2[k] * s;
                    v3 += r3[k] * s;
                }
                let s1 = kstar[i + 1];
                v1 += r1[i + 1] * s1;
                v2 += r2[i + 1] * s1;
                v3 += r3[i + 1] * s1;
                let s2 = kstar[i + 2];
                v2 += r2[i + 2] * s2;
                v3 += r3[i + 2] * s2;
                v3 += r3[i + 3] * kstar[i + 3];
                qf += v0 * v0;
                qf += v1 * v1;
                qf += v2 * v2;
                qf += v3 * v3;
                i += 4;
            }
            for i in i..n {
                let mut vi = 0.0;
                for (a, b) in linv.row(i)[..=i].iter().zip(&kstar[..=i]) {
                    vi += a * b;
                }
                qf += vi * vi;
            }
            gp.prediction(mean_s, qf)
        }

        pub(super) fn predict(gp: &Gp, linv: &Matrix, xstar: &[f64]) -> Prediction {
            let mut kstar = vec![0.0; gp.len()];
            fill_kstar(gp, xstar, &mut kstar);
            posterior_from_kstar(gp, linv, &kstar)
        }

        pub(super) fn predict_batch(gp: &Gp, linv: &Matrix, xs: &[Vec<f64>]) -> Vec<Prediction> {
            let n = gp.len();
            let b = xs.len();
            let mut kt = Matrix::zeros(n, b);
            let mut means = vec![0.0; b];
            let mut kstar = vec![0.0; n];
            for (j, x) in xs.iter().enumerate() {
                fill_kstar(gp, x, &mut kstar);
                means[j] = crowdtune_linalg::dot(&kstar, &gp.alpha);
                for (k, &ks) in kstar.iter().enumerate() {
                    kt[(k, j)] = ks;
                }
            }
            let mut v = Matrix::zeros(n, b);
            for i in 0..n {
                let li = linv.row(i);
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
                .map(|(&mean_s, &q)| gp.prediction(mean_s, q))
                .collect()
        }
    }

    fn bits(p: &[Prediction]) -> Vec<(u64, u64)> {
        p.iter()
            .map(|p| (p.mean.to_bits(), p.std.to_bits()))
            .collect()
    }

    /// `predict`, `k*` and `predict_batch` against the row-major
    /// reference, bitwise: `predict` on every query and the training
    /// points themselves (equal categorical cells), `predict_batch` on an
    /// odd candidate count.
    fn assert_matches_reference(gp: &Gp, linv: &Matrix, qs: &[Vec<f64>], label: &str) {
        let mut kstar = vec![0.0; gp.len()];
        let mut want = vec![0.0; gp.len()];
        for q in qs.iter().chain(&gp.x) {
            gp.fill_kstar(q, &mut kstar);
            reference::fill_kstar(gp, q, &mut want);
            assert_eq!(
                kstar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{label}: k*"
            );
            assert_eq!(
                bits(&[gp.predict(q)]),
                bits(&[reference::predict(gp, linv, q)]),
                "{label}: predict"
            );
        }
        assert_eq!(
            bits(&gp.predict_batch(qs)),
            bits(&reference::predict_batch(gp, linv, qs)),
            "{label}: predict_batch"
        );
    }

    #[test]
    fn posterior_matches_row_major_reference_bitwise() {
        // Sizes on both sides of the eight-row panel boundaries.
        for kind in [KernelKind::Matern52, KernelKind::SquaredExponential] {
            for n in [1, 7, 8, 9, 63, 200] {
                let gp = hypre_like_gp_with(kind, n, 90 + n as u64);
                let qs = hypre_like_points(65, 3 * n as u64);
                let linv = gp.chol.inverse_lower();
                assert_matches_reference(&gp, &linv, &qs, &format!("{kind:?} n = {n}"));
            }
        }
    }

    #[test]
    fn updates_across_panels_match_row_major_reference_bitwise() {
        // Appends from n = 6 to 18 fill the first panel, open the second
        // at n = 9 and the third at n = 17; from 62 to 66 cross 64.
        for kind in [KernelKind::Matern52, KernelKind::SquaredExponential] {
            for (n0, n1) in [(6, 18), (62, 66)] {
                let all = hypre_like_points(n1, 17 + n0 as u64);
                let y = hypre_like_targets(&all);
                let mut gp = Gp::with_hypers(
                    hypre_like_kernel(kind),
                    (1e-3f64).ln(),
                    &all[..n0],
                    &y[..n0],
                )
                .unwrap();
                let mut linv = gp.chol.inverse_lower();
                let qs = hypre_like_points(33, 5 + n0 as u64);
                for n in n0..n1 {
                    gp.update(&all[n], y[n]).unwrap();
                    let lrow = gp.chol.l().row(n);
                    linv = crowdtune_linalg::cholesky::extend_inverse_lower(
                        &linv,
                        &lrow[..n],
                        lrow[n],
                    );
                    let label = format!("{kind:?} after update to n = {}", n + 1);
                    assert_matches_reference(&gp, &linv, &qs, &label);
                }
            }
        }
    }

    /// The Hypre space's dimension kinds: integers and reals are
    /// continuous, four parameters are categorical.
    fn hypre_dims() -> Vec<DimKind> {
        use DimKind::{Categorical as Cat, Continuous as Con};
        vec![Con, Con, Con, Con, Con, Con, Cat, Cat, Cat, Con, Cat, Con]
    }

    /// Points in the Hypre space's unit cube; categorical coordinates
    /// take one of 5 cell centres.
    fn hypre_like_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = hypre_dims();
        (0..n)
            .map(|_| {
                dims.iter()
                    .map(|kind| match kind {
                        DimKind::Continuous => rng.gen::<f64>(),
                        DimKind::Categorical => (rng.gen_range(0..5) as f64 + 0.5) / 5.0,
                    })
                    .collect()
            })
            .collect()
    }

    fn hypre_like_targets(x: &[Vec<f64>]) -> Vec<f64> {
        x.iter()
            .map(|p| {
                (3.0 * p[0]).sin() + p[1] * p[2] + 0.5 * p[6] - (p[9] - 0.3).powi(2) + 0.1 * p[11]
            })
            .collect()
    }

    fn hypre_like_kernel(kind: KernelKind) -> Kernel {
        let mut kernel = Kernel::new(kind, hypre_dims());
        let theta: Vec<f64> = (0..12)
            .map(|i| -0.9 + 0.12 * i as f64)
            .chain([0.3])
            .collect();
        kernel.unpack(&theta);
        kernel
    }

    fn hypre_like_gp(n: usize, seed: u64) -> Gp {
        hypre_like_gp_with(KernelKind::Matern52, n, seed)
    }

    fn hypre_like_gp_with(kind: KernelKind, n: usize, seed: u64) -> Gp {
        let x = hypre_like_points(n, seed);
        let y = hypre_like_targets(&x);
        Gp::with_hypers(hypre_like_kernel(kind), (1e-3f64).ln(), &x, &y).unwrap()
    }

    /// [`nlml_with_grad`] with the noise gradient, run to completion.
    fn nlml_eager(kernel: &Kernel, log_noise: f64, sq: &SqDists, ys: &[f64]) -> (f64, Vec<f64>) {
        let (nll, grad) = nlml_with_grad(kernel, log_noise, true, sq, ys).unwrap();
        (nll, grad())
    }

    /// The dense-`dK` likelihood the fused pass replaced: one `n × n`
    /// derivative matrix per kernel hyperparameter, each traced against
    /// a materialized `W = αα^T - K^{-1}`.
    fn nlml_with_grad_dense_reference(
        kernel: &Kernel,
        log_noise: f64,
        sq: &SqDists,
        ys: &[f64],
    ) -> (f64, Vec<f64>) {
        let n = sq.n();
        let d = kernel.dim();
        let sn2 = log_noise.exp();
        let params = kernel.params();
        let mut k = Matrix::zeros(n, n);
        let mut dk: Vec<Matrix> = (0..=d).map(|_| Matrix::zeros(n, n)).collect();
        for i in 0..n {
            for j in i..n {
                let sqp = sq.pair(i, j);
                let (v, factor) = kernel.eval_with_factor(sqp, &params);
                k[(i, j)] = v;
                k[(j, i)] = v;
                for dim in 0..d {
                    let g = sqp[dim] * params.inv_ls2[dim] * factor;
                    dk[dim][(i, j)] = g;
                    dk[dim][(j, i)] = g;
                }
                dk[d][(i, j)] = v;
                dk[d][(j, i)] = v;
            }
            k[(i, i)] += sn2;
        }
        let chol = Cholesky::robust(&k).unwrap();
        let alpha = chol.solve_vec(ys);
        let nlml = 0.5 * crowdtune_linalg::dot(ys, &alpha)
            + 0.5 * chol.log_det()
            + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        let mut w = chol.inverse();
        for i in 0..n {
            let ai = alpha[i];
            for (wj, &aj) in w.row_mut(i).iter_mut().zip(&alpha) {
                *wj = ai * aj - *wj;
            }
        }
        let mut grad: Vec<f64> = dk
            .iter()
            .map(|dkp| -0.5 * crowdtune_linalg::dot(w.as_slice(), dkp.as_slice()))
            .collect();
        let tr: f64 = (0..n).map(|i| w[(i, i)]).sum();
        grad.push(-0.5 * sn2 * tr);
        (nlml, grad)
    }

    #[test]
    fn fused_gradient_matches_dense_dk_reference() {
        let x = hypre_like_points(200, 5);
        let y = hypre_like_targets(&x);
        let (m, sd) = (
            crowdtune_linalg::stats::mean(&y),
            crowdtune_linalg::stats::std_dev(&y),
        );
        let ys: Vec<f64> = y.iter().map(|v| (v - m) / sd).collect();
        for kind in [KernelKind::Matern52, KernelKind::SquaredExponential] {
            let kernel = hypre_like_kernel(kind);
            let sq = kernel.precompute_sq_dists(&x);
            let log_noise = (1e-2f64).ln();
            let (nll, grad) = nlml_eager(&kernel, log_noise, &sq, &ys);
            let (nll_ref, grad_ref) = nlml_with_grad_dense_reference(&kernel, log_noise, &sq, &ys);
            // Same K, same factor: the likelihood itself is unchanged.
            assert_eq!(nll.to_bits(), nll_ref.to_bits(), "{kind:?}");
            let scale = grad_ref.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            assert!(scale > 1.0, "{kind:?}: degenerate gradient {grad_ref:?}");
            for (p, (g, r)) in grad.iter().zip(&grad_ref).enumerate() {
                assert!(
                    (g - r).abs() <= 1e-10 * scale,
                    "{kind:?} param {p}: {g} vs {r} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn nlml_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(61);
        let dims = vec![
            DimKind::Continuous,
            DimKind::Categorical,
            DimKind::Continuous,
        ];
        let x: Vec<Vec<f64>> = (0..30)
            .map(|_| {
                vec![
                    rng.gen::<f64>(),
                    (rng.gen_range(0..3) as f64 + 0.5) / 3.0,
                    rng.gen::<f64>(),
                ]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| (4.0 * p[0]).sin() + p[1] - p[2] * p[2])
            .collect();
        let (m, sd) = (
            crowdtune_linalg::stats::mean(&y),
            crowdtune_linalg::stats::std_dev(&y),
        );
        let ys: Vec<f64> = y.iter().map(|v| (v - m) / sd).collect();
        for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
            let proto = Kernel::new(kind, dims.clone());
            let sq = proto.precompute_sq_dists(&x);
            // Fixed noise differentiates the kernel coordinates only;
            // estimated noise adds the log-noise coordinate.
            for (log_noise, fixed) in [((1e-3f64).ln(), true), ((5e-2f64).ln(), false)] {
                let theta = vec![-1.0, -0.3, -0.6, 0.2, log_noise];
                let n_theta = if fixed { 4 } else { 5 };
                let f = |t: &[f64]| {
                    let mut kern = proto.clone();
                    kern.unpack(&t[..4]);
                    nlml_eager(&kern, t[4], &sq, &ys)
                };
                let (_, grad) = f(&theta);
                let h = 1e-5;
                for p in 0..n_theta {
                    let mut tp = theta.clone();
                    tp[p] += h;
                    let mut tm = theta.clone();
                    tm[p] -= h;
                    let fd = (f(&tp).0 - f(&tm).0) / (2.0 * h);
                    assert!(
                        (fd - grad[p]).abs() < 1e-5 * (1.0 + fd.abs()),
                        "{kind:?} fixed={fixed} param {p}: fd {fd} vs analytic {}",
                        grad[p]
                    );
                }
            }
        }
    }

    #[test]
    fn fitted_factor_is_the_winning_evaluations() {
        // The returned model's K comes from the objective's own kernel
        // pass, so its log marginal likelihood recomputed from its own
        // factor and alpha is bitwise the optimizer's winning value.
        let x = hypre_like_points(40, 12);
        let y = hypre_like_targets(&x);
        let mut config = GpConfig::new(hypre_dims());
        config.max_opt_iter = 15;
        for noise in [NoiseModel::Estimated(1e-2), NoiseModel::Fixed(1e-4)] {
            config.noise = noise;
            let gp = Gp::fit(&x, &y, &config, &mut StdRng::seed_from_u64(13)).unwrap();
            let sq = gp.kernel.precompute_sq_dists(&x);
            let (nll, _) = nlml_with_grad(&gp.kernel, gp.log_noise, true, &sq, &gp.ys).unwrap();
            let n = x.len() as f64;
            let own = -(0.5 * crowdtune_linalg::dot(&gp.ys, &gp.alpha)
                + 0.5 * gp.chol.log_det()
                + 0.5 * n * (2.0 * std::f64::consts::PI).ln());
            assert_eq!(gp.log_marginal_likelihood().to_bits(), (-nll).to_bits());
            assert_eq!(gp.log_marginal_likelihood().to_bits(), own.to_bits());
        }
    }

    #[test]
    fn fit_matches_the_eager_gradient_reference_bitwise() {
        // The fit's multistart (a warm start, the default start and two
        // random starts) redone with the gradient computed at every
        // evaluation gives bitwise the same θ and NLL, while the fit
        // computes fewer gradients than it evaluates likelihoods.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let x = hypre_like_points(60, 21);
        let y = hypre_like_targets(&x);
        for noise in [NoiseModel::Estimated(1e-2), NoiseModel::Fixed(1e-4)] {
            let fixed = matches!(noise, NoiseModel::Fixed(_));
            let mut config = GpConfig::new(hypre_dims());
            config.noise = noise;
            let warm = hypre_like_gp(40, 3).pack_theta(fixed);
            let mut rng = StdRng::seed_from_u64(9);
            let fit = Gp::fit_with_starts(&x, &y, &config, &mut rng, std::slice::from_ref(&warm))
                .unwrap();

            let lik = GpLikelihood::new(&x, &y, &config).unwrap();
            let starts = lik.starts(&[warm], config.restarts, &mut StdRng::seed_from_u64(9));
            assert_eq!(starts.len(), 4);
            let opts = LbfgsOptions {
                max_iter: config.max_opt_iter,
                ..Default::default()
            };
            let eager = |theta: &[f64]| {
                let (nll, grad) = lik.nll(theta);
                let grad = grad();
                (nll, move || grad)
            };
            let reference = run_multistart(&starts, eager, &opts, None, false).unwrap();
            assert_eq!(
                bits(&fit.pack_theta(fixed)),
                bits(&reference.x),
                "{noise:?}"
            );
            assert_eq!(fit.lml.to_bits(), (-reference.f).to_bits(), "{noise:?}");

            let counts = FitCounts::default();
            let deferred = |theta: &[f64]| counts.count(lik.nll(theta));
            run_multistart(&starts, deferred, &opts, None, false).unwrap();
            let (evals, grads) = (counts.evaluations(), counts.gradients());
            assert!(
                starts.len() as u64 <= grads && grads < evals,
                "{noise:?}: {grads} gradients for {evals} evaluations"
            );
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
