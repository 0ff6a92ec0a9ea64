//! Linear Coregionalization Model (LCM): the multitask Gaussian process
//! behind GPTune's `Multitask(PS)` and this paper's `Multitask(TS)`.
//!
//! The covariance between observation `i` of task `t_i` and observation
//! `j` of task `t_j` is
//!
//! ```text
//! K[(i,t_i),(j,t_j)] = sum_q B_q[t_i,t_j] * k_q(x_i, x_j)
//!                      + delta_ij * delta_{t_i t_j} * sn2_{t_i}
//! B_q = a_q a_q^T + diag(kappa_q)
//! ```
//!
//! with `Q` latent unit-variance kernels `k_q` (signal variance is
//! absorbed into the coregionalization matrices `B_q`). Crucially for
//! `Multitask(TS)`, tasks may have **unequal numbers of samples** —
//! including zero samples for the target task at the start of transfer
//! learning. All hyperparameters (per-`q` ARD lengthscales, the task
//! loadings `a_q`, the task-specific variances `kappa_q`, and per-task
//! noise) are fitted by maximizing the exact joint marginal likelihood
//! with analytic gradients.

use crate::gp::{or_infeasible, run_multistart, FitCounts, Prediction};
use crate::kernel::{DimKind, Kernel, KernelKind, KernelParams, SqDists};
use crowdtune_linalg::{Bounds, Cholesky, LbfgsOptions, LbfgsResult, Matrix};
use crowdtune_obs as obs;
use rand::Rng;
use rayon::prelude::*;

const LOG_LS_MIN: f64 = -4.6;
const LOG_LS_MAX: f64 = 2.31;
const A_MIN: f64 = -5.0;
const A_MAX: f64 = 5.0;
const LOG_KAPPA_MIN: f64 = -13.8; // 1e-6
const LOG_KAPPA_MAX: f64 = 2.31; // 10
const LOG_NOISE_MIN: f64 = -18.4;
const LOG_NOISE_MAX: f64 = 0.69; // ~2

/// Configuration for fitting an [`Lcm`].
#[derive(Debug, Clone)]
pub struct LcmConfig {
    /// Number of latent kernels `Q` (rank of the coregionalization).
    pub q: usize,
    /// Kernel family for every latent kernel.
    pub kernel: KernelKind,
    /// Per-dimension kinds.
    pub dims: Vec<DimKind>,
    /// Number of random restarts beyond the default start.
    pub restarts: usize,
    /// L-BFGS iteration cap per restart.
    pub max_opt_iter: usize,
    /// Run restarts in parallel. Bitwise identical to the sequential
    /// path at any thread count: all starts are drawn from the RNG up
    /// front and the winner is reduced in start order.
    pub parallel: bool,
}

impl LcmConfig {
    /// Defaults: `Q = 2`, Matérn 5/2, one restart.
    pub fn new(dims: Vec<DimKind>) -> Self {
        LcmConfig {
            q: 2,
            kernel: KernelKind::Matern52,
            dims,
            restarts: 1,
            max_opt_iter: 50,
            parallel: true,
        }
    }

    /// All-continuous convenience constructor.
    pub fn continuous(dim: usize) -> Self {
        Self::new(vec![DimKind::Continuous; dim])
    }
}

/// Errors from LCM fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum LcmError {
    /// No task carried any samples.
    NoSamples,
    /// A training target was NaN or infinite.
    NonFiniteTarget,
    /// An input point had the wrong dimensionality.
    DimensionMismatch {
        /// Dimension the configuration expects.
        expected: usize,
        /// Dimension found in the data.
        got: usize,
    },
    /// The joint covariance could not be factorized.
    NumericalFailure,
}

impl std::fmt::Display for LcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LcmError::NoSamples => write!(f, "LCM requires at least one sample across tasks"),
            LcmError::NonFiniteTarget => write!(f, "LCM training targets must be finite"),
            LcmError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "LCM input dimension mismatch: expected {expected}, got {got}"
                )
            }
            LcmError::NumericalFailure => write!(f, "LCM covariance factorization failed"),
        }
    }
}

impl std::error::Error for LcmError {}

/// Per-task training data: unit-cube inputs and raw outputs.
#[derive(Debug, Clone, Default)]
pub struct TaskData {
    /// Unit-cube input points.
    pub x: Vec<Vec<f64>>,
    /// Raw (unstandardized) outputs, one per input point.
    pub y: Vec<f64>,
}

/// How the hyperparameter optimization behind a fitted [`Lcm`] went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcmFitStats {
    /// Raw-unit NLL (see [`Lcm::nll_raw`]) at the winning L-BFGS run's
    /// start, on the data of this fit.
    pub start_nll: f64,
    /// L-BFGS iterations of the winning run.
    pub iterations: usize,
    /// Likelihood evaluations summed over every start.
    pub evaluations: usize,
    /// Likelihood gradients computed, summed over every start: the
    /// start points and the line-search probes that passed the Armijo
    /// test.
    pub gradients: usize,
}

/// A fitted LCM multitask GP.
#[derive(Debug, Clone)]
pub struct Lcm {
    kernels: Vec<Kernel>,
    /// `a[q][t]` task loadings.
    a: Vec<Vec<f64>>,
    /// `kappa[q][t]` task-specific variances.
    kappa: Vec<Vec<f64>>,
    /// Per-task log noise variance.
    log_noise: Vec<f64>,
    /// All training inputs, flattened across tasks.
    x_all: Vec<Vec<f64>>,
    /// Task index of each flattened input.
    task_of: Vec<usize>,
    alpha: Vec<f64>,
    /// `L^{-1}`, precomputed at fit time so the posterior variance is
    /// `prior - ||L^{-1} k*||^2` — independent triangular dots instead
    /// of a per-query loop-carried triangular solve.
    linv: Matrix,
    /// Standardized training targets, kept so incremental updates can
    /// re-solve `alpha` in O(n²) through `linv`.
    ys: Vec<f64>,
    /// Per-task standardization.
    y_mean: Vec<f64>,
    y_std: Vec<f64>,
    n_tasks: usize,
    lml: f64,
    fit_stats: LcmFitStats,
}

struct Packing {
    q: usize,
    d: usize,
    t: usize,
}

impl Packing {
    fn len(&self) -> usize {
        self.q * self.d + 2 * self.q * self.t + self.t
    }
    fn ls(&self, q: usize, dim: usize) -> usize {
        q * self.d + dim
    }
    fn a(&self, q: usize, t: usize) -> usize {
        self.q * self.d + q * self.t + t
    }
    fn kappa(&self, q: usize, t: usize) -> usize {
        self.q * self.d + self.q * self.t + q * self.t + t
    }
    fn noise(&self, t: usize) -> usize {
        self.q * self.d + 2 * self.q * self.t + t
    }
}

/// The joint marginal likelihood of an LCM on fixed per-task data, as a
/// function of the packed hyperparameters θ (the layout of
/// [`Lcm::pack_theta`]). Targets are standardized per task, and the
/// pairwise squared distances are computed once here and shared by every
/// evaluation. [`Lcm::fit_with_starts`] minimizes
/// [`LcmLikelihood::nll_with_grad`] inside [`LcmLikelihood::bounds`].
pub struct LcmLikelihood {
    pack: Packing,
    kernel_proto: Kernel,
    sq: SqDists,
    /// All training inputs, flattened across tasks.
    x_all: Vec<Vec<f64>>,
    /// Task index of each flattened input.
    task_of: Vec<usize>,
    /// Standardized targets, flattened like `x_all`.
    ys: Vec<f64>,
    y_mean: Vec<f64>,
    y_std: Vec<f64>,
}

impl LcmLikelihood {
    /// Validate and standardize `tasks` for `config`'s model.
    pub fn new(tasks: &[TaskData], config: &LcmConfig) -> Result<Self, LcmError> {
        let t_count = tasks.len();
        let d = config.dims.len();
        let n_total: usize = tasks.iter().map(|t| t.x.len()).sum();
        if n_total == 0 {
            return Err(LcmError::NoSamples);
        }
        for task in tasks {
            if task.y.iter().any(|v| !v.is_finite()) {
                return Err(LcmError::NonFiniteTarget);
            }
            for xi in &task.x {
                if xi.len() != d {
                    return Err(LcmError::DimensionMismatch {
                        expected: d,
                        got: xi.len(),
                    });
                }
            }
            assert_eq!(
                task.x.len(),
                task.y.len(),
                "x/y length mismatch within a task"
            );
        }

        // Per-task standardization; tasks without data fall back to the
        // pooled statistics so their predictions live on a sane scale.
        let pooled: Vec<f64> = tasks.iter().flat_map(|t| t.y.iter().copied()).collect();
        let pooled_mean = crowdtune_linalg::stats::mean(&pooled);
        let pooled_std = {
            let s = crowdtune_linalg::stats::std_dev(&pooled);
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        };
        let mut y_mean = vec![0.0; t_count];
        let mut y_std = vec![1.0; t_count];
        for (t, task) in tasks.iter().enumerate() {
            if task.y.is_empty() {
                y_mean[t] = pooled_mean;
                y_std[t] = pooled_std;
            } else {
                y_mean[t] = crowdtune_linalg::stats::mean(&task.y);
                let s = crowdtune_linalg::stats::std_dev(&task.y);
                y_std[t] = if s > 1e-12 { s } else { pooled_std };
            }
        }

        // Flatten.
        let mut x_all = Vec::with_capacity(n_total);
        let mut task_of = Vec::with_capacity(n_total);
        let mut ys = Vec::with_capacity(n_total);
        for (t, task) in tasks.iter().enumerate() {
            for (xi, &yi) in task.x.iter().zip(&task.y) {
                x_all.push(xi.clone());
                task_of.push(t);
                ys.push((yi - y_mean[t]) / y_std[t]);
            }
        }

        let kernel_proto = {
            let mut k = Kernel::new(config.kernel, config.dims.clone());
            k.log_signal_variance = 0.0; // unit variance, fixed
            k
        };
        // Pairwise squared distances are θ-independent (all latent
        // kernels share the dimension kinds).
        let sq = kernel_proto.precompute_sq_dists(&x_all);
        Ok(LcmLikelihood {
            pack: Packing {
                q: config.q.max(1),
                d,
                t: t_count,
            },
            kernel_proto,
            sq,
            x_all,
            task_of,
            ys,
            y_mean,
            y_std,
        })
    }

    /// The deterministic default start of a cold fit.
    pub fn default_start(&self) -> Vec<f64> {
        let pack = &self.pack;
        let mut s0 = vec![0.0; pack.len()];
        for q in 0..pack.q {
            for dim in 0..pack.d {
                s0[pack.ls(q, dim)] = (0.3f64).ln();
            }
            for t in 0..pack.t {
                // Positive loadings => tasks start positively correlated,
                // which is the transfer-learning prior; stagger q's a bit.
                s0[pack.a(q, t)] = if q == 0 { 1.0 } else { 0.3 };
                s0[pack.kappa(q, t)] = (0.1f64).ln();
            }
        }
        for t in 0..pack.t {
            s0[pack.noise(t)] = (1e-2f64).ln();
        }
        s0
    }

    /// The hyperparameter box every fit optimizes over.
    pub fn bounds(&self) -> Bounds {
        let pack = &self.pack;
        let mut lower = vec![0.0; pack.len()];
        let mut upper = vec![0.0; pack.len()];
        let mut set = |i: usize, lo: f64, hi: f64| {
            lower[i] = lo;
            upper[i] = hi;
        };
        for q in 0..pack.q {
            for dim in 0..pack.d {
                set(pack.ls(q, dim), LOG_LS_MIN, LOG_LS_MAX);
            }
            for t in 0..pack.t {
                set(pack.a(q, t), A_MIN, A_MAX);
                set(pack.kappa(q, t), LOG_KAPPA_MIN, LOG_KAPPA_MAX);
            }
        }
        for t in 0..pack.t {
            set(pack.noise(t), LOG_NOISE_MIN, LOG_NOISE_MAX);
        }
        Bounds::new(lower, upper)
    }

    /// Negative joint log marginal likelihood of the standardized targets
    /// at θ and a closure that computes its gradient; `None` when the
    /// covariance cannot be factorized. The value costs the kernel pass,
    /// the Cholesky factor and `α`; `K⁻¹` and the gradient sweep run only
    /// when the closure does.
    pub fn nll_with_grad(&self, theta: &[f64]) -> Option<(f64, impl FnOnce() -> Vec<f64> + '_)> {
        lcm_nlml_with_grad(
            theta,
            &self.pack,
            &self.kernel_proto,
            &self.sq,
            &self.task_of,
            &self.ys,
        )
    }

    /// Convert an NLL of the standardized targets into raw y units (the
    /// scale of [`Lcm::nll_raw`]).
    pub fn raw_nll(&self, nll: f64) -> f64 {
        nll + self
            .task_of
            .iter()
            .map(|&t| self.y_std[t].ln())
            .sum::<f64>()
    }
}

impl Lcm {
    /// Fit the LCM to per-task datasets (tasks may have different — even
    /// zero — sample counts).
    pub fn fit<R: Rng>(
        tasks: &[TaskData],
        config: &LcmConfig,
        rng: &mut R,
    ) -> Result<Self, LcmError> {
        Self::fit_with_starts(tasks, config, rng, None)
    }

    /// [`Lcm::fit`] with an optional warm start — the entry point for
    /// refits (typically [`Lcm::pack_theta`] of the previous fit). A warm
    /// start replaces the deterministic default start, so a refit runs
    /// as many L-BFGS starts as a cold fit; one whose length does not
    /// match the current packing (e.g. the task count changed) is
    /// ignored. Every start is optimized inside the hyperparameter box
    /// with projected L-BFGS, and the multistart winner is reduced in
    /// start order, so results are identical at any thread count.
    pub fn fit_with_starts<R: Rng>(
        tasks: &[TaskData],
        config: &LcmConfig,
        rng: &mut R,
        warm: Option<&[f64]>,
    ) -> Result<Self, LcmError> {
        let fit_span = obs::span(obs::names::SPAN_LCM_FIT);
        let lik = LcmLikelihood::new(tasks, config)?;
        let pack = &lik.pack;
        let n_total = lik.x_all.len();
        // Projected L-BFGS keeps every evaluation inside the box.
        let bounds = lik.bounds();
        let counts = FitCounts::default();
        let objective =
            |theta: &[f64]| counts.count(or_infeasible(lik.nll_with_grad(theta), theta.len()));

        // Starts: the warm start or the deterministic default, then
        // random restarts.
        let s0 = lik.default_start();
        let mut starts = Vec::with_capacity(config.restarts + 1);
        match warm {
            Some(w) if w.len() == pack.len() => starts.push(w.to_vec()),
            _ => starts.push(s0.clone()),
        }
        for _ in 0..config.restarts {
            let mut s = s0.clone();
            for q in 0..pack.q {
                for dim in 0..pack.d {
                    s[pack.ls(q, dim)] = rng.gen_range(-2.0..1.0);
                }
                for t in 0..pack.t {
                    s[pack.a(q, t)] = rng.gen_range(-1.5..1.5);
                    s[pack.kappa(q, t)] = rng.gen_range(-6.0..0.0);
                }
            }
            for t in 0..pack.t {
                s[pack.noise(t)] = rng.gen_range(-9.0..-2.0);
            }
            starts.push(s);
        }

        let opts = LbfgsOptions {
            max_iter: config.max_opt_iter,
            ..Default::default()
        };
        let Some(LbfgsResult {
            f: nlml,
            f_start,
            x: theta,
            iterations,
            ..
        }) = run_multistart(&starts, objective, &opts, Some(&bounds), config.parallel)
        else {
            obs::count(obs::names::CTR_FIT_FALLBACKS, 1);
            obs::record_with(|| obs::Event::Fit {
                model: "lcm".to_string(),
                points: n_total as u64,
                restarts: starts.len() as u64,
                nll: None,
                duration_us: fit_span.elapsed_ns() / 1_000,
                fallback: true,
                evaluations: Some(counts.evaluations()),
                gradients: Some(counts.gradients()),
            });
            return Err(LcmError::NumericalFailure);
        };
        obs::record_with(|| obs::Event::Fit {
            model: "lcm".to_string(),
            points: n_total as u64,
            restarts: starts.len() as u64,
            nll: obs::finite(nlml),
            duration_us: fit_span.elapsed_ns() / 1_000,
            fallback: false,
            evaluations: Some(counts.evaluations()),
            gradients: Some(counts.gradients()),
        });

        // Unpack the winner and finalize.
        let (q_count, t_count) = (pack.q, pack.t);
        let mut kernels = Vec::with_capacity(q_count);
        let mut a = vec![vec![0.0; t_count]; q_count];
        let mut kappa = vec![vec![0.0; t_count]; q_count];
        let mut log_noise = vec![0.0; t_count];
        for q in 0..q_count {
            let mut k = lik.kernel_proto.clone();
            for dim in 0..pack.d {
                k.log_lengthscales[dim] = theta[pack.ls(q, dim)];
            }
            kernels.push(k);
            for t in 0..t_count {
                a[q][t] = theta[pack.a(q, t)];
                kappa[q][t] = theta[pack.kappa(q, t)].exp();
            }
        }
        for t in 0..t_count {
            log_noise[t] = theta[pack.noise(t)];
        }

        let k_full =
            build_lcm_covariance(&kernels, &a, &kappa, &log_noise, &lik.x_all, &lik.task_of);
        let chol = Cholesky::robust(&k_full).map_err(|_| LcmError::NumericalFailure)?;
        let alpha = chol.solve_vec(&lik.ys);
        let linv = chol.inverse_lower();
        let start_nll = lik.raw_nll(f_start);
        let LcmLikelihood {
            x_all,
            task_of,
            ys,
            y_mean,
            y_std,
            ..
        } = lik;

        Ok(Lcm {
            kernels,
            a,
            kappa,
            log_noise,
            x_all,
            task_of,
            alpha,
            linv,
            ys,
            y_mean,
            y_std,
            n_tasks: t_count,
            lml: -nlml,
            fit_stats: LcmFitStats {
                start_nll,
                iterations,
                evaluations: counts.evaluations() as usize,
                gradients: counts.gradients() as usize,
            },
        })
    }

    /// Absorb one new observation for `task` with a rank-1 factor append
    /// instead of a full refit: O(n²) total. The factor itself is not
    /// stored — the new row `l₂₁ = L⁻¹ k_new` comes straight from the
    /// precomputed inverse factor, which then grows by one
    /// vector-matrix product, and `alpha = L⁻ᵀ(L⁻¹ ys)` re-solves
    /// through the same inverse.
    ///
    /// Hyperparameters, coregionalization, and the per-task target
    /// standardization stay **frozen** at their last-fit values; the
    /// caller schedules genuine refits (see [`Lcm::fit_with_starts`] +
    /// [`Lcm::pack_theta`] for warm-started ones). On numerical failure
    /// (the appended pivot stays non-positive past the jitter ladder)
    /// the model is left unchanged.
    pub fn update(&mut self, task: usize, xnew: &[f64], ynew: f64) -> Result<(), LcmError> {
        if !ynew.is_finite() {
            return Err(LcmError::NonFiniteTarget);
        }
        assert!(task < self.n_tasks, "task index out of range");
        let d = self.kernels[0].dim();
        if xnew.len() != d {
            return Err(LcmError::DimensionMismatch {
                expected: d,
                got: xnew.len(),
            });
        }
        let n = self.x_all.len();
        let params = self.hoisted_params();
        let mut k_new = vec![0.0; n];
        for (i, xi) in self.x_all.iter().enumerate() {
            let ti = self.task_of[i];
            let mut v = 0.0;
            for (q, kq) in self.kernels.iter().enumerate() {
                let b = self.a[q][task] * self.a[q][ti]
                    + if ti == task { self.kappa[q][task] } else { 0.0 };
                v += b * kq.eval_params(xnew, xi, &params[q]);
            }
            k_new[i] = v;
        }
        let prior: f64 = (0..self.kernels.len())
            .map(|q| self.a[q][task] * self.a[q][task] + self.kappa[q][task])
            .sum();
        let k_diag = prior + self.log_noise[task].exp();
        // New factor row through the inverse factor: l21 = L⁻¹ k_new.
        let mut l21 = vec![0.0; n];
        for (i, l) in l21.iter_mut().enumerate() {
            *l = crowdtune_linalg::dot(&self.linv.row(i)[..=i], &k_new[..=i]);
        }
        let norm_sq: f64 = l21.iter().map(|v| v * v).sum();
        // Same pivot-rescue ladder as `Cholesky::append_row`: extra
        // jitter on the appended diagonal only, eps-scale start, 10×
        // steps, `robust`-style ceiling.
        let max_jitter = 1e-4 * k_diag.abs().max(1e-12);
        let fallback_start = 1e-12 * k_diag.abs().max(1e-300);
        let mut extra = 0.0f64;
        let mut attempts: u64 = 0;
        let pivot = loop {
            attempts += 1;
            let p = k_diag + extra - norm_sq;
            if p > 0.0 && p.is_finite() {
                break p;
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
                    jitter: extra,
                    attempts,
                    recovered: false,
                });
                return Err(LcmError::NumericalFailure);
            }
            extra = next;
        };
        if attempts > 1 {
            obs::count(obs::names::CTR_JITTER_ESCALATIONS, 1);
            obs::record_with(|| obs::Event::Jitter {
                dim: (n + 1) as u64,
                jitter: extra,
                attempts,
                recovered: true,
            });
        }
        let lambda = pivot.sqrt();
        // Grow L⁻¹: old rows unchanged, new row is
        // [-(1/λ)·(l₂₁ᵀ L⁻¹), 1/λ].
        self.linv = crowdtune_linalg::cholesky::extend_inverse_lower(&self.linv, &l21, lambda);
        self.x_all.push(xnew.to_vec());
        self.task_of.push(task);
        self.ys.push((ynew - self.y_mean[task]) / self.y_std[task]);
        let n1 = n + 1;
        // alpha = K⁻¹ ys = L⁻ᵀ (L⁻¹ ys), two O(n²) triangular products.
        let mut v = vec![0.0; n1];
        for (i, vi) in v.iter_mut().enumerate() {
            *vi = crowdtune_linalg::dot(&self.linv.row(i)[..=i], &self.ys[..=i]);
        }
        let mut alpha = vec![0.0; n1];
        for (j, aj) in alpha.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, &vi) in v.iter().enumerate().skip(j) {
                s += self.linv[(i, j)] * vi;
            }
            *aj = s;
        }
        self.alpha = alpha;
        // log det K = 2 Σ ln L_ii = -2 Σ ln L⁻¹_ii.
        let mut log_det = 0.0;
        for i in 0..n1 {
            log_det -= 2.0 * self.linv[(i, i)].ln();
        }
        self.lml = -0.5 * crowdtune_linalg::dot(&self.ys, &self.alpha)
            - 0.5 * log_det
            - 0.5 * n1 as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(())
    }

    /// The fit's packed θ vector, suitable as a warm start for
    /// [`Lcm::fit_with_starts`] on a model with the same `q`, dimension
    /// count, and task count.
    pub fn pack_theta(&self) -> Vec<f64> {
        let pack = Packing {
            q: self.kernels.len(),
            d: self.kernels[0].dim(),
            t: self.n_tasks,
        };
        let mut theta = vec![0.0; pack.len()];
        for (q, kq) in self.kernels.iter().enumerate() {
            for (dim, &ls) in kq.log_lengthscales.iter().enumerate() {
                theta[pack.ls(q, dim)] = ls;
            }
            for t in 0..self.n_tasks {
                theta[pack.a(q, t)] = self.a[q][t];
                // κ is stored exponentiated; an exp→ln round trip that
                // crosses a bound by one ulp is projected back by the fit.
                theta[pack.kappa(q, t)] = self.kappa[q][t].ln();
            }
        }
        for t in 0..self.n_tasks {
            theta[pack.noise(t)] = self.log_noise[t];
        }
        theta
    }

    /// Negative log marginal likelihood in **raw** (unstandardized) y
    /// units, comparable across fits with different per-task
    /// standardizations.
    pub fn nll_raw(&self) -> f64 {
        let scale: f64 = self.task_of.iter().map(|&t| self.y_std[t].ln()).sum();
        -self.lml + scale
    }

    /// Diagnostics of the fit that produced this model (unchanged by
    /// [`Lcm::update`]).
    pub fn fit_stats(&self) -> LcmFitStats {
        self.fit_stats
    }

    /// Posterior prediction for `task` at unit-cube point `xstar`.
    pub fn predict(&self, task: usize, xstar: &[f64]) -> Prediction {
        let params = self.hoisted_params();
        self.predict_with_params(task, xstar, &params)
    }

    /// Batch prediction for one task: the θ-dependent kernel constants
    /// are hoisted once and candidates run in parallel. Entry `j` is
    /// bitwise identical to `self.predict(task, &xs[j])`.
    pub fn predict_batch(&self, task: usize, xs: &[Vec<f64>]) -> Vec<Prediction> {
        let m = xs.len();
        if m == 0 {
            return Vec::new();
        }
        let n = self.x_all.len();
        let params = self.hoisted_params();
        let predict_one = |x: &Vec<f64>| self.predict_with_params(task, x, &params);
        if rayon::current_num_threads() > 1 && m >= 2 && m * n * n >= 1 << 16 {
            xs.par_iter().map(predict_one).collect()
        } else {
            xs.iter().map(predict_one).collect()
        }
    }

    /// Exponentiated per-q kernel constants, hoisted out of the
    /// per-point loops.
    fn hoisted_params(&self) -> Vec<KernelParams> {
        self.kernels.iter().map(|k| k.params()).collect()
    }

    /// Shared single-point prediction: both `predict` and
    /// `predict_batch` funnel through this so they match bitwise.
    fn predict_with_params(
        &self,
        task: usize,
        xstar: &[f64],
        params: &[KernelParams],
    ) -> Prediction {
        assert!(task < self.n_tasks, "task index out of range");
        let n = self.x_all.len();
        let mut kstar = vec![0.0; n];
        for (i, xi) in self.x_all.iter().enumerate() {
            let ti = self.task_of[i];
            let mut v = 0.0;
            for (q, kq) in self.kernels.iter().enumerate() {
                let b = self.a[q][task] * self.a[q][ti]
                    + if ti == task { self.kappa[q][task] } else { 0.0 };
                v += b * kq.eval_params(xstar, xi, &params[q]);
            }
            kstar[i] = v;
        }
        let mean_s = crowdtune_linalg::dot(&kstar, &self.alpha);
        let prior: f64 = (0..self.kernels.len())
            .map(|q| self.a[q][task] * self.a[q][task] + self.kappa[q][task])
            .sum();
        // Posterior variance via the precomputed inverse factor:
        // `prior - ||L^{-1} k*||^2`. Each row dot is an independent
        // contiguous reduction, so the loop pipelines where the
        // loop-carried triangular solve it replaces cannot.
        let mut qf = 0.0;
        for i in 0..kstar.len() {
            let vi = crowdtune_linalg::dot(&self.linv.row(i)[..=i], &kstar[..=i]);
            qf += vi * vi;
        }
        let var_s = (prior - qf).max(0.0);
        Prediction {
            mean: self.y_mean[task] + self.y_std[task] * mean_s,
            std: self.y_std[task] * var_s.sqrt(),
        }
    }

    /// The joint log marginal likelihood of the fitted model.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Total number of training samples across tasks.
    pub fn n_samples(&self) -> usize {
        self.x_all.len()
    }
}

fn build_lcm_covariance(
    kernels: &[Kernel],
    a: &[Vec<f64>],
    kappa: &[Vec<f64>],
    log_noise: &[f64],
    x_all: &[Vec<f64>],
    task_of: &[usize],
) -> Matrix {
    let n = x_all.len();
    let params: Vec<KernelParams> = kernels.iter().map(|k| k.params()).collect();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let (ti, tj) = (task_of[i], task_of[j]);
            let mut v = 0.0;
            for (q, kq) in kernels.iter().enumerate() {
                let b = a[q][ti] * a[q][tj] + if ti == tj { kappa[q][ti] } else { 0.0 };
                v += b * kq.eval_params(&x_all[i], &x_all[j], &params[q]);
            }
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] += log_noise[task_of[i]].exp();
    }
    k
}

/// Negative joint LML and its deferred gradient for the packed LCM
/// hyperparameters, evaluated from the fit-lifetime distance cache. The
/// returned closure owns the factor and the kernel pass's buffers.
fn lcm_nlml_with_grad<'a>(
    theta: &[f64],
    pack: &'a Packing,
    kernel_proto: &Kernel,
    sq: &'a SqDists,
    task_of: &'a [usize],
    ys: &'a [f64],
) -> Option<(f64, impl FnOnce() -> Vec<f64> + 'a)> {
    let n = sq.n();
    let (q_count, d) = (pack.q, pack.d);

    // Unpack.
    let mut kernels = Vec::with_capacity(q_count);
    for q in 0..q_count {
        let mut k = kernel_proto.clone();
        for dim in 0..d {
            k.log_lengthscales[dim] = theta[pack.ls(q, dim)];
        }
        kernels.push(k);
    }
    let a: Vec<Vec<f64>> = (0..q_count)
        .map(|q| (0..pack.t).map(|t| theta[pack.a(q, t)]).collect())
        .collect();
    let kappa: Vec<Vec<f64>> = (0..q_count)
        .map(|q| (0..pack.t).map(|t| theta[pack.kappa(q, t)].exp()).collect())
        .collect();
    let log_noise: Vec<f64> = (0..pack.t).map(|t| theta[pack.noise(t)]).collect();
    let noise_var: Vec<f64> = log_noise.iter().map(|v| v.exp()).collect();

    // θ-dependent kernel constants, exponentiated once per evaluation.
    let params: Vec<KernelParams> = kernels.iter().map(|k| k.params()).collect();
    // Coregionalization entries B_q[t_i, t_j], row-major per q.
    let t_count = pack.t;
    let b: Vec<Vec<f64>> = (0..q_count)
        .map(|q| {
            (0..t_count * t_count)
                .map(|ij| {
                    let (ti, tj) = (ij / t_count, ij % t_count);
                    a[q][ti] * a[q][tj] + if ti == tj { kappa[q][ti] } else { 0.0 }
                })
                .collect()
        })
        .collect();

    // Pass 1: per (pair, q), the unit kernel value and its
    // lengthscale-gradient factor from one fused evaluation (one sqrt,
    // one exp), kept for the gradient pass; no allocation in the loop.
    let n_pairs = n * (n + 1) / 2;
    let stride = 2 * q_count;
    let mut kf = vec![0.0; n_pairs * stride];
    let mut k_full = Matrix::zeros(n, n);
    let mut pair = 0;
    for i in 0..n {
        let ti = task_of[i];
        for j in i..n {
            let tj = task_of[j];
            let sqp = sq.pair(i, j);
            let out = &mut kf[pair * stride..(pair + 1) * stride];
            let mut v = 0.0;
            for (q, kq) in kernels.iter().enumerate() {
                let (kv, factor) = kq.eval_with_factor(sqp, &params[q]);
                out[2 * q] = kv;
                out[2 * q + 1] = factor;
                v += b[q][ti * t_count + tj] * kv;
            }
            k_full[(i, j)] = v;
            k_full[(j, i)] = v;
            pair += 1;
        }
        k_full[(i, i)] += noise_var[ti];
    }

    let chol = Cholesky::robust(&k_full).ok()?;
    let alpha = chol.solve_vec(ys);
    let nlml = 0.5 * crowdtune_linalg::dot(ys, &alpha)
        + 0.5 * chol.log_det()
        + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
    let grad = move || {
        let kinv = chol.inverse();

        // Pass 2: dNLML/dθ = -0.5 Σ_ij W_ij dK_ij/dθ with W = αα^T - K^{-1}.
        // The inputs are flattened task by task, so the pairs (i, j ≥ i)
        // with t_i = s, t_j = t form contiguous runs of j inside which
        // B_q[s, t] is constant. Each run sums Σ w·k_q and Σ w·factor_q·sq_d
        // into local accumulators; the per-block totals then give the
        // loading, κ and lengthscale gradients in O(Q·T²·d).
        debug_assert!(task_of.windows(2).all(|w| w[0] <= w[1]));
        let mut task_end = vec![0usize; t_count];
        for &t in task_of {
            task_end[t] += 1;
        }
        for t in 1..t_count {
            task_end[t] += task_end[t - 1];
        }
        // Block totals, indexed by (s·T + t)·Q + q (times d for lengthscales).
        let mut wk_blk = vec![0.0; t_count * t_count * q_count];
        let mut wg_blk = vec![0.0; t_count * t_count * q_count * d];
        let mut wk = vec![0.0; q_count];
        let mut wg = vec![0.0; q_count * d];
        let mut grad = vec![0.0; pack.len()];
        let mut pair = 0;
        for i in 0..n {
            let ti = task_of[i];
            let kinv_i = kinv.row(i);
            let ai = alpha[i];
            let mut j = i;
            for (tj, &end) in task_end.iter().enumerate().skip(ti) {
                if j >= end {
                    continue;
                }
                wk.fill(0.0);
                wg.fill(0.0);
                for jj in j..end {
                    // Off-diagonal pairs appear twice in the full sum.
                    let w = ai * alpha[jj] - kinv_i[jj];
                    let ws = if jj == i { w } else { 2.0 * w };
                    let sqp = sq.pair(i, jj);
                    let kfp = &kf[pair * stride..(pair + 1) * stride];
                    for (q, (wk_q, wg_q)) in wk.iter_mut().zip(wg.chunks_exact_mut(d)).enumerate() {
                        *wk_q += ws * kfp[2 * q];
                        let c = ws * kfp[2 * q + 1];
                        for (g, &s) in wg_q.iter_mut().zip(sqp) {
                            *g += c * s;
                        }
                    }
                    pair += 1;
                }
                j = end;
                let blk = ti * t_count + tj;
                for (acc, &v) in wk_blk[blk * q_count..(blk + 1) * q_count]
                    .iter_mut()
                    .zip(&wk)
                {
                    *acc += v;
                }
                for (acc, &v) in wg_blk[blk * q_count * d..(blk + 1) * q_count * d]
                    .iter_mut()
                    .zip(&wg)
                {
                    *acc += v;
                }
            }
            // Noise: diagonal only.
            let w_ii = ai * ai - kinv_i[i];
            grad[pack.noise(ti)] -= 0.5 * w_ii * noise_var[ti];
        }
        for ti in 0..t_count {
            for tj in ti..t_count {
                let blk = ti * t_count + tj;
                for q in 0..q_count {
                    let s = wk_blk[blk * q_count + q];
                    // Loadings: dB_q[s,t]/da_q[s] = a_q[t] and vice versa.
                    grad[pack.a(q, ti)] -= 0.5 * a[q][tj] * s;
                    grad[pack.a(q, tj)] -= 0.5 * a[q][ti] * s;
                    // Task-specific variance (same-task blocks only).
                    if ti == tj {
                        grad[pack.kappa(q, ti)] -= 0.5 * kappa[q][ti] * s;
                    }
                    // Lengthscales: dk/d log ls_d = factor · sq_d / ls_d².
                    let c = 0.5 * b[q][blk];
                    let g = &wg_blk[(blk * q_count + q) * d..(blk * q_count + q + 1) * d];
                    for dim in 0..d {
                        grad[pack.ls(q, dim)] -= c * params[q].inv_ls2[dim] * g[dim];
                    }
                }
            }
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

    /// The fitted coregionalization matrix `B_q = a_q a_qᵀ + diag(κ_q)`.
    fn coregionalization(lcm: &Lcm, q: usize) -> Matrix {
        let t = lcm.n_tasks;
        let mut b = Matrix::zeros(t, t);
        for i in 0..t {
            for j in 0..t {
                b[(i, j)] = lcm.a[q][i] * lcm.a[q][j] + if i == j { lcm.kappa[q][i] } else { 0.0 };
            }
        }
        b
    }

    /// The correlation between two tasks implied by the fitted model
    /// (normalized total covariance `Σ_q B_q` at zero input distance).
    fn task_correlation(lcm: &Lcm, t1: usize, t2: usize) -> f64 {
        let b: Vec<Matrix> = (0..lcm.kernels.len())
            .map(|q| coregionalization(lcm, q))
            .collect();
        let total = |i: usize, j: usize| b.iter().map(|bq| bq[(i, j)]).sum::<f64>();
        total(t1, t2) / (total(t1, t1) * total(t2, t2)).sqrt().max(1e-300)
    }

    fn correlated_tasks(n_src: usize, n_tgt: usize, seed: u64) -> Vec<TaskData> {
        let mut rng = StdRng::seed_from_u64(seed);
        let f_src = |x: f64| (4.0 * x).sin() * 2.0 + 1.0;
        let f_tgt = |x: f64| (4.0 * x).sin() * 2.5 + 3.0; // shifted & scaled copy
        let mut src = TaskData::default();
        for _ in 0..n_src {
            let x: f64 = rng.gen();
            src.x.push(vec![x]);
            src.y.push(f_src(x));
        }
        let mut tgt = TaskData::default();
        for _ in 0..n_tgt {
            let x: f64 = rng.gen();
            tgt.x.push(vec![x]);
            tgt.y.push(f_tgt(x));
        }
        vec![src, tgt]
    }

    #[test]
    fn fit_with_unequal_sample_counts() {
        let tasks = correlated_tasks(30, 4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let lcm = Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap();
        assert_eq!(lcm.n_tasks(), 2);
        assert_eq!(lcm.n_samples(), 34);
        assert!(lcm.log_marginal_likelihood().is_finite());
    }

    #[test]
    fn transfer_improves_target_prediction() {
        // With 30 source samples and only 3 target samples, the LCM must
        // predict the target function far better than the 3 points alone
        // could. Check at held-out locations.
        // Data seed chosen so the three target points span the domain;
        // with a degenerate draw (all three clustered) no amount of
        // transfer can pin down the target offset and the test would
        // measure luck, not transfer.
        let tasks = correlated_tasks(30, 3, 5);
        let mut rng = StdRng::seed_from_u64(4);
        let lcm = Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap();
        let f_tgt = |x: f64| (4.0 * x).sin() * 2.5 + 3.0;
        let mut max_err = 0.0f64;
        for &t in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let p = lcm.predict(1, &[t]);
            max_err = max_err.max((p.mean - f_tgt(t)).abs());
        }
        assert!(max_err < 1.2, "max target prediction error {max_err}");
    }

    #[test]
    fn parallel_fit_matches_serial_bitwise() {
        // Same contract as the single-task GP: restarts may run on
        // worker threads, but the selected hyperparameters (and hence
        // every posterior) must be bitwise identical to a serial fit.
        let tasks = correlated_tasks(20, 6, 3);
        let mut config = LcmConfig::continuous(1);
        config.restarts = 2;
        let par = Lcm::fit(&tasks, &config, &mut StdRng::seed_from_u64(11)).unwrap();
        config.parallel = false;
        let ser = Lcm::fit(&tasks, &config, &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(par.log_marginal_likelihood(), ser.log_marginal_likelihood());
        for task in 0..2 {
            for q in [0.0, 0.21, 0.5, 0.83, 0.99] {
                assert_eq!(par.predict(task, &[q]), ser.predict(task, &[q]));
            }
        }
    }

    #[test]
    fn predict_batch_matches_per_point_bitwise() {
        let tasks = correlated_tasks(25, 8, 2);
        let mut rng = StdRng::seed_from_u64(13);
        let lcm = Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap();
        let qs: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64 / 256.0]).collect();
        for task in 0..2 {
            let batch = lcm.predict_batch(task, &qs);
            assert_eq!(batch.len(), qs.len());
            for (q, b) in qs.iter().zip(&batch) {
                assert_eq!(*b, lcm.predict(task, q));
            }
        }
    }

    #[test]
    fn learned_correlation_is_positive_for_correlated_tasks() {
        let tasks = correlated_tasks(40, 10, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let lcm = Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap();
        let corr = task_correlation(&lcm, 0, 1);
        assert!(corr > 0.5, "correlation {corr}");
        assert!((task_correlation(&lcm, 0, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_sample_target_task_predictable() {
        let mut tasks = correlated_tasks(25, 0, 7);
        tasks[1] = TaskData::default();
        let mut rng = StdRng::seed_from_u64(8);
        let lcm = Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap();
        let p = lcm.predict(1, &[0.5]);
        assert!(p.mean.is_finite());
        assert!(p.std.is_finite() && p.std >= 0.0);
    }

    #[test]
    fn empty_everything_rejected() {
        let tasks = vec![TaskData::default(), TaskData::default()];
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap_err(),
            LcmError::NoSamples
        );
    }

    #[test]
    fn non_finite_target_rejected() {
        let mut tasks = correlated_tasks(5, 2, 1);
        tasks[0].y[0] = f64::INFINITY;
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap_err(),
            LcmError::NonFiniteTarget
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let tasks = correlated_tasks(6, 3, 13);
        let pack = Packing { q: 2, d: 1, t: 2 };
        let proto = {
            let mut k = Kernel::continuous(KernelKind::SquaredExponential, 1);
            k.log_signal_variance = 0.0;
            k
        };
        // Flatten like fit() does, but with raw ys for simplicity.
        let mut x_all = Vec::new();
        let mut task_of = Vec::new();
        let mut ys = Vec::new();
        for (t, task) in tasks.iter().enumerate() {
            for (xi, &yi) in task.x.iter().zip(&task.y) {
                x_all.push(xi.clone());
                task_of.push(t);
                ys.push(yi);
            }
        }
        let mut theta = vec![0.0; pack.len()];
        // An arbitrary interior point.
        for q in 0..2 {
            theta[pack.ls(q, 0)] = -0.5 + 0.3 * q as f64;
            for t in 0..2 {
                theta[pack.a(q, t)] = 0.8 - 0.2 * (q + t) as f64;
                theta[pack.kappa(q, t)] = -2.0 + 0.5 * t as f64;
            }
        }
        for t in 0..2 {
            theta[pack.noise(t)] = -4.0 + t as f64;
        }
        let sq = proto.precompute_sq_dists(&x_all);
        let (_, grad) = lcm_eager(&theta, &pack, &proto, &sq, &task_of, &ys);
        let h = 1e-5;
        for p in 0..pack.len() {
            let mut tp = theta.clone();
            tp[p] += h;
            let (fp, _) = lcm_eager(&tp, &pack, &proto, &sq, &task_of, &ys);
            let mut tm = theta.clone();
            tm[p] -= h;
            let (fm, _) = lcm_eager(&tm, &pack, &proto, &sq, &task_of, &ys);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - grad[p]).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {p}: fd {fd} vs analytic {}",
                grad[p]
            );
        }
    }

    /// [`lcm_nlml_with_grad`] run to completion.
    fn lcm_eager(
        theta: &[f64],
        pack: &Packing,
        proto: &Kernel,
        sq: &SqDists,
        task_of: &[usize],
        ys: &[f64],
    ) -> (f64, Vec<f64>) {
        let (nll, grad) = lcm_nlml_with_grad(theta, pack, proto, sq, task_of, ys).unwrap();
        (nll, grad())
    }

    /// Reference for the block-summed sweep: every (pair, q) scatters
    /// its contributions into `grad` directly, with `K⁻¹` from dense
    /// identity solves.
    fn lcm_nlml_with_grad_reference(
        theta: &[f64],
        pack: &Packing,
        kernel_proto: &Kernel,
        sq: &SqDists,
        task_of: &[usize],
        ys: &[f64],
    ) -> (f64, Vec<f64>) {
        let n = sq.n();
        let (q_count, d) = (pack.q, pack.d);
        let kernels: Vec<Kernel> = (0..q_count)
            .map(|q| {
                let mut k = kernel_proto.clone();
                for dim in 0..d {
                    k.log_lengthscales[dim] = theta[pack.ls(q, dim)];
                }
                k
            })
            .collect();
        let params: Vec<KernelParams> = kernels.iter().map(|k| k.params()).collect();
        let a = |q: usize, t: usize| theta[pack.a(q, t)];
        let kappa = |q: usize, t: usize| theta[pack.kappa(q, t)].exp();
        let bq = |q: usize, s: usize, t: usize| {
            a(q, s) * a(q, t) + if s == t { kappa(q, s) } else { 0.0 }
        };
        let noise_var = |t: usize| theta[pack.noise(t)].exp();
        let mut k_full = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut v = 0.0;
                for (q, kq) in kernels.iter().enumerate() {
                    let (kv, _) = kq.eval_with_factor(sq.pair(i, j), &params[q]);
                    v += bq(q, task_of[i], task_of[j]) * kv;
                }
                k_full[(i, j)] = v;
                k_full[(j, i)] = v;
            }
            k_full[(i, i)] += noise_var(task_of[i]);
        }
        let chol = Cholesky::robust(&k_full).unwrap();
        let alpha = chol.solve_vec(ys);
        let nlml = 0.5 * crowdtune_linalg::dot(ys, &alpha)
            + 0.5 * chol.log_det()
            + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        let identity = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let kinv = chol.solve_matrix(&identity);
        let mut grad = vec![0.0; pack.len()];
        for i in 0..n {
            let ti = task_of[i];
            for j in i..n {
                let tj = task_of[j];
                let w = alpha[i] * alpha[j] - kinv[(i, j)];
                let ws = if i == j { w } else { 2.0 * w };
                let sqp = sq.pair(i, j);
                for (q, kq) in kernels.iter().enumerate() {
                    let (kv, factor) = kq.eval_with_factor(sqp, &params[q]);
                    for dim in 0..d {
                        let dk = factor * sqp[dim] * params[q].inv_ls2[dim];
                        grad[pack.ls(q, dim)] -= 0.5 * ws * bq(q, ti, tj) * dk;
                    }
                    grad[pack.a(q, ti)] -= 0.5 * ws * a(q, tj) * kv;
                    grad[pack.a(q, tj)] -= 0.5 * ws * a(q, ti) * kv;
                    if ti == tj {
                        grad[pack.kappa(q, ti)] -= 0.5 * ws * kappa(q, ti) * kv;
                    }
                }
            }
            let w_ii = alpha[i] * alpha[i] - kinv[(i, i)];
            grad[pack.noise(ti)] -= 0.5 * w_ii * noise_var(ti);
        }
        (nlml, grad)
    }

    /// Four tasks of 50, 0, 45 and 40 points (n = 135) over a
    /// continuous, a categorical and a continuous dimension, an interior
    /// θ, and the likelihood's inputs.
    fn four_task_fixture(
        kind: KernelKind,
    ) -> (Packing, Kernel, SqDists, Vec<usize>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(71);
        let dims = vec![
            DimKind::Continuous,
            DimKind::Categorical,
            DimKind::Continuous,
        ];
        let mut x_all = Vec::new();
        let mut task_of = Vec::new();
        let mut ys = Vec::new();
        for (t, count) in [50usize, 0, 45, 40].into_iter().enumerate() {
            for _ in 0..count {
                let x = vec![
                    rng.gen::<f64>(),
                    rng.gen_range(0..3) as f64 / 2.0,
                    rng.gen(),
                ];
                let y = (3.0 * x[0]).sin() + 0.5 * x[1] - x[2] * x[2] + 0.2 * t as f64;
                x_all.push(x);
                task_of.push(t);
                ys.push(y);
            }
        }
        let pack = Packing { q: 2, d: 3, t: 4 };
        let mut proto = Kernel::new(kind, dims);
        proto.log_signal_variance = 0.0;
        let sq = proto.precompute_sq_dists(&x_all);
        let mut theta = vec![0.0; pack.len()];
        for q in 0..2 {
            for dim in 0..3 {
                theta[pack.ls(q, dim)] = -1.0 + 0.3 * (q + dim) as f64;
            }
            for t in 0..4 {
                theta[pack.a(q, t)] = 0.9 - 0.25 * (q + t) as f64;
                theta[pack.kappa(q, t)] = -2.0 + 0.4 * t as f64;
            }
        }
        for t in 0..4 {
            theta[pack.noise(t)] = -3.0 + 0.2 * t as f64;
        }
        (pack, proto, sq, task_of, ys, theta)
    }

    #[test]
    fn block_gradient_matches_per_pair_sweep() {
        for kind in [KernelKind::Matern52, KernelKind::SquaredExponential] {
            let (pack, proto, sq, task_of, ys, theta) = four_task_fixture(kind);
            assert!(sq.n() >= 128);
            let (nll, grad) = lcm_eager(&theta, &pack, &proto, &sq, &task_of, &ys);
            let (nll_ref, grad_ref) =
                lcm_nlml_with_grad_reference(&theta, &pack, &proto, &sq, &task_of, &ys);
            assert!(
                (nll - nll_ref).abs() <= 1e-10 * nll_ref.abs(),
                "{kind:?}: nll {nll} vs {nll_ref}"
            );
            let scale = grad_ref.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            for (p, (g, r)) in grad.iter().zip(&grad_ref).enumerate() {
                assert!(
                    (g - r).abs() <= 1e-10 * scale,
                    "{kind:?} param {p}: {g} vs {r} (scale {scale})"
                );
            }
            // The empty task's loadings and κ carry no data.
            for q in 0..2 {
                assert_eq!(grad[pack.a(q, 1)], 0.0);
                assert_eq!(grad[pack.kappa(q, 1)], 0.0);
            }
        }
    }

    #[test]
    fn block_gradient_matches_finite_difference_on_four_tasks() {
        let (pack, proto, sq, task_of, ys, theta) = four_task_fixture(KernelKind::Matern52);
        let f = |t: &[f64]| lcm_eager(t, &pack, &proto, &sq, &task_of, &ys);
        let (_, grad) = f(&theta);
        let h = 1e-5;
        for p in 0..pack.len() {
            let mut tp = theta.clone();
            tp[p] += h;
            let mut tm = theta.clone();
            tm[p] -= h;
            let fd = (f(&tp).0 - f(&tm).0) / (2.0 * h);
            assert!(
                (fd - grad[p]).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {p}: fd {fd} vs analytic {}",
                grad[p]
            );
        }
    }

    #[test]
    fn coregionalization_matrix_is_psd_shaped() {
        let tasks = correlated_tasks(20, 8, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let lcm = Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap();
        for q in 0..2 {
            let b = coregionalization(&lcm, q);
            // B = a a^T + diag(kappa) with kappa > 0 is PD by construction;
            // verify via Cholesky.
            assert!(Cholesky::robust(&b).is_ok(), "B_{q} not PSD");
        }
    }

    #[test]
    fn incremental_update_matches_refit_at_same_hypers() {
        // Appending target-task points one at a time must agree with a
        // from-scratch model at the same θ and the same frozen per-task
        // standardization, to well under the 1e-6 contract.
        let mut tasks = correlated_tasks(25, 6, 41);
        let mut rng = StdRng::seed_from_u64(42);
        let config = LcmConfig::continuous(1);
        let mut inc = Lcm::fit(&tasks, &config, &mut rng).unwrap();
        let f_tgt = |x: f64| (4.0 * x).sin() * 2.5 + 3.0;
        for k in 0..5 {
            let x = 0.1 + 0.17 * k as f64;
            let y = f_tgt(x);
            inc.update(1, &[x], y).unwrap();
            tasks[1].x.push(vec![x]);
            tasks[1].y.push(y);
        }
        // Reference: same θ and standardization, rebuilt from scratch.
        let mut full = inc.clone();
        let k_full = build_lcm_covariance(
            &full.kernels,
            &full.a,
            &full.kappa,
            &full.log_noise,
            &full.x_all,
            &full.task_of,
        );
        let chol = Cholesky::robust(&k_full).unwrap();
        full.alpha = chol.solve_vec(&full.ys);
        full.linv = chol.inverse_lower();
        for task in 0..2 {
            for q in [0.03, 0.33, 0.71, 0.96] {
                let a = inc.predict(task, &[q]);
                let b = full.predict(task, &[q]);
                assert!(
                    (a.mean - b.mean).abs() < 1e-6,
                    "task {task} q {q}: mean {} vs {}",
                    a.mean,
                    b.mean
                );
                assert!(
                    (a.std - b.std).abs() < 1e-6,
                    "task {task} q {q}: std {} vs {}",
                    a.std,
                    b.std
                );
            }
        }
        assert_eq!(inc.n_samples(), 36);
    }

    #[test]
    fn warm_started_refit_is_no_worse_than_cold() {
        let tasks = correlated_tasks(20, 6, 55);
        let config = LcmConfig::continuous(1);
        let cold = Lcm::fit(&tasks, &config, &mut StdRng::seed_from_u64(56)).unwrap();
        let warm_theta = cold.pack_theta();
        // Zero random restarts: the warm start alone must still reach at
        // least the cold optimum (the warm start IS the cold optimum).
        let mut reduced = config.clone();
        reduced.restarts = 0;
        let warm = Lcm::fit_with_starts(
            &tasks,
            &reduced,
            &mut StdRng::seed_from_u64(57),
            Some(&warm_theta),
        )
        .unwrap();
        assert!(
            warm.log_marginal_likelihood() >= cold.log_marginal_likelihood() - 1e-6,
            "warm {} vs cold {}",
            warm.log_marginal_likelihood(),
            cold.log_marginal_likelihood()
        );
    }

    #[test]
    fn update_rejects_bad_inputs_and_keeps_model_usable() {
        let tasks = correlated_tasks(10, 4, 60);
        let mut rng = StdRng::seed_from_u64(61);
        let mut lcm = Lcm::fit(&tasks, &LcmConfig::continuous(1), &mut rng).unwrap();
        assert!(matches!(
            lcm.update(0, &[0.5], f64::NAN),
            Err(LcmError::NonFiniteTarget)
        ));
        assert!(matches!(
            lcm.update(0, &[0.5, 0.5], 1.0),
            Err(LcmError::DimensionMismatch { .. })
        ));
        assert_eq!(lcm.n_samples(), 14);
        assert!(lcm.predict(1, &[0.5]).std.is_finite());
    }
}
