//! Crowd-scale sparse surrogate: a subset-of-data / inducing-point GP.
//!
//! The exact [`Gp`] pays O(n³) per fit and O(n) per posterior mean, which
//! is unusable at the 10⁴–10⁵ histories a crowd repository accumulates.
//! [`SparseGp`] replaces it above a size threshold:
//!
//! - **Inducing selection** — a deterministic farthest-point (k-center)
//!   sweep picks `m` well-spread training points. The only randomness is
//!   the seed point, drawn once from the caller's RNG; every subsequent
//!   step is a serial argmax with ties broken toward the lowest index, so
//!   the selected set is bitwise-identical at any thread count.
//! - **Hyperparameters** — fitted by the exact [`Gp`] machinery on the
//!   inducing subset (subset-of-data). The sparse model adopts the
//!   subset's θ *and* its target standardization, so the kernel scale and
//!   the standardized targets are exactly consistent.
//! - **Nyström factors** — the SoR/DTC posterior needs
//!   `Σ = K_mm + σₙ⁻² K_mn K_nm` and `a = K_mn ys`, assembled in O(nm²)
//!   over a fixed 32-chunk partition whose partial sums are folded in
//!   chunk order: the same bits fall out whether the chunks run on 1 or
//!   16 threads. Both `K_mm` and `Σ` go through the same jitter-ladder
//!   [`Cholesky::robust`] as the exact GP.
//! - **Prediction** — O(m²) per point: `μ = k*ᵀβ` with
//!   `β = σₙ⁻² Σ⁻¹ a`, and the DTC latent variance
//!   `sf² − ‖L_mm⁻¹k*‖² + ‖L_Σ⁻¹k*‖²`.
//! - **Update** — new points are absorbed against the *frozen* inducing
//!   set in O(m²) + one O(m³) refactor (`a += ys·k*`,
//!   `Σ += σₙ⁻² k*k*ᵀ`), mirroring [`Gp::update`]'s frozen-θ contract;
//!   [`IncrementalSparseGp`] schedules genuine reselections the same way
//!   [`IncrementalGp`](crate::IncrementalGp) schedules full refits.
//!
//! With `m = n` the SoR algebra collapses to the exact GP posterior, a
//! property the tests below exploit.

use crowdtune_linalg::{dot, stats, Cholesky, Matrix};
use crowdtune_obs as obs;
use rand::Rng;
use rayon::prelude::*;

use crate::gp::{Gp, GpConfig, GpError, NoiseModel, Prediction};
use crate::incremental::RefitSchedule;
use crate::kernel::{DimKind, Kernel, KernelParams};

/// Fixed partition width for the O(nm²) Nyström accumulation. Chunk
/// boundaries depend only on `n`, never on the thread count, and the
/// per-chunk partial sums are folded serially in chunk order — that is
/// what makes the assembled factors bitwise-reproducible at any
/// parallelism while still exposing 32-way work.
const NYSTROM_CHUNKS: usize = 32;

/// Points below this skip the parallel assembly path entirely (the
/// serial loop over the same chunks produces the same bits anyway).
const PARALLEL_ASSEMBLY_MIN: usize = 256;

/// Block size for the native `predict_batch` path.
const PREDICT_BLOCK: usize = 256;

/// Configuration for fitting a [`SparseGp`].
#[derive(Debug, Clone)]
pub struct SparseGpConfig {
    /// Exact-GP configuration used for the subset hyperparameter fit
    /// (kernel family, dimension kinds, noise model, restarts).
    pub base: GpConfig,
    /// Number of inducing points `m`. Clamped to `n` when the training
    /// set is smaller.
    pub m_inducing: usize,
}

impl SparseGpConfig {
    /// Defaults: the [`GpConfig`] defaults plus 128 inducing points.
    pub fn new(dims: Vec<DimKind>) -> Self {
        SparseGpConfig {
            base: GpConfig::new(dims),
            m_inducing: 128,
        }
    }

    /// All-continuous convenience constructor.
    pub fn continuous(dim: usize) -> Self {
        Self::new(vec![DimKind::Continuous; dim])
    }
}

/// A fitted inducing-point sparse GP (SoR mean, DTC variance).
#[derive(Debug, Clone)]
pub struct SparseGp {
    kernel: Kernel,
    log_noise: f64,
    /// Inducing inputs (rows of the training set, in index order).
    z: Vec<Vec<f64>>,
    /// Training-set indices of the inducing points, ascending.
    inducing: Vec<usize>,
    /// Full training inputs, kept for frozen-set updates and the
    /// refit-at-current-inducing reference path.
    x: Vec<Vec<f64>>,
    /// Standardized training targets (subset standardization).
    ys: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    /// `Σ = K_mm + σₙ⁻² K_mn K_nm`, kept for O(m²) rank-1 updates.
    sigma: Matrix,
    /// `a = K_mn ys`, kept for the same reason.
    a: Vec<f64>,
    /// `L_mm⁻¹` with `L_mm = chol(K_mm)`.
    lm_inv: Matrix,
    /// `L_Σ⁻¹` with `L_Σ = chol(Σ)`.
    ls_inv: Matrix,
    /// `β = σₙ⁻² Σ⁻¹ a`; the posterior mean is `k*ᵀβ`.
    beta: Vec<f64>,
}

/// Raw (θ-independent) squared distance between two points under the
/// same per-dimension semantics as [`Kernel::raw_sq_dists`]: continuous
/// dims contribute `(a−b)²`, categorical dims an inequality indicator.
pub(crate) fn raw_dist2(dims: &[DimKind], a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..dims.len() {
        acc += match dims[d] {
            DimKind::Continuous => {
                let dd = a[d] - b[d];
                dd * dd
            }
            DimKind::Categorical => {
                if (a[d] - b[d]).abs() > 1e-12 {
                    1.0
                } else {
                    0.0
                }
            }
        };
    }
    acc
}

/// Deterministic farthest-point (k-center) subset: starting from
/// `first`, repeatedly add the point maximizing its distance to the
/// chosen set. The sweep is serial, ties break toward the lowest index,
/// and already-chosen points are sentinel-masked, so the result depends
/// only on `(x, dims, m, first)` — never on thread count. Returns
/// ascending training-set indices. O(n·m·d).
pub(crate) fn farthest_point_subset(
    x: &[Vec<f64>],
    dims: &[DimKind],
    m: usize,
    first: usize,
) -> Vec<usize> {
    let n = x.len();
    let m = m.min(n);
    let mut chosen = Vec::with_capacity(m);
    // min_d[i] = distance from i to the chosen set; -1 marks chosen.
    let mut min_d = vec![f64::INFINITY; n];
    let mut cur = first;
    for _ in 0..m {
        chosen.push(cur);
        min_d[cur] = -1.0;
        let mut best = 0usize;
        let mut best_d = -1.0;
        for i in 0..n {
            if min_d[i] < 0.0 {
                continue;
            }
            let d2 = raw_dist2(dims, &x[cur], &x[i]);
            if d2 < min_d[i] {
                min_d[i] = d2;
            }
            if min_d[i] > best_d {
                best_d = min_d[i];
                best = i;
            }
        }
        cur = best;
    }
    chosen.sort_unstable();
    chosen
}

/// The Nyström-side factors of a sparse fit, separated from the model so
/// both the initial fit and the refit-at-current-inducing path share one
/// assembly routine.
struct NystromFactors {
    sigma: Matrix,
    a: Vec<f64>,
    lm_inv: Matrix,
    ls_inv: Matrix,
    beta: Vec<f64>,
}

fn assemble_nystrom(
    kernel: &Kernel,
    log_noise: f64,
    z: &[Vec<f64>],
    x: &[Vec<f64>],
    ys: &[f64],
    parallel: bool,
) -> Result<NystromFactors, GpError> {
    let m = z.len();
    let n = x.len();
    let params = kernel.params();

    let mut kmm = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..=i {
            let v = kernel.eval_params(&z[i], &z[j], &params);
            kmm[(i, j)] = v;
            kmm[(j, i)] = v;
        }
    }

    // Partial Σ-sums and a-vectors per fixed chunk; each chunk walks its
    // points in index order, so partials are thread-count-independent.
    let chunk = n.div_ceil(NYSTROM_CHUNKS).max(1);
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(n)))
        .collect();
    let accumulate = |&(s, e): &(usize, usize)| -> (Vec<f64>, Vec<f64>) {
        let mut sig = vec![0.0; m * m];
        let mut a = vec![0.0; m];
        let mut k = vec![0.0; m];
        for i in s..e {
            for (kj, zj) in k.iter_mut().zip(z.iter()) {
                *kj = kernel.eval_params(zj, &x[i], &params);
            }
            let yi = ys[i];
            for j in 0..m {
                let kj = k[j];
                a[j] += yi * kj;
                for (sl, &kl) in sig[j * m..(j + 1) * m].iter_mut().zip(k.iter()) {
                    *sl += kj * kl;
                }
            }
        }
        (sig, a)
    };
    let partials: Vec<(Vec<f64>, Vec<f64>)> =
        if parallel && rayon::current_num_threads() > 1 && n >= PARALLEL_ASSEMBLY_MIN {
            ranges.par_iter().map(accumulate).collect()
        } else {
            ranges.iter().map(accumulate).collect()
        };

    // Serial fold in chunk order: determinism lives here.
    let mut sig_sum = vec![0.0; m * m];
    let mut a_sum = vec![0.0; m];
    for (sig, a) in &partials {
        for (acc, v) in sig_sum.iter_mut().zip(sig.iter()) {
            *acc += v;
        }
        for (acc, v) in a_sum.iter_mut().zip(a.iter()) {
            *acc += v;
        }
    }

    let inv_sn2 = (-log_noise).exp();
    let mut sigma = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            sigma[(i, j)] = kmm[(i, j)] + inv_sn2 * sig_sum[i * m + j];
        }
    }
    sigma.symmetrize_mut();

    let chol_m = Cholesky::robust(&kmm).map_err(|_| GpError::NumericalFailure)?;
    let lm_inv = chol_m.inverse_lower();
    let chol_s = Cholesky::robust(&sigma).map_err(|_| GpError::NumericalFailure)?;
    let ls_inv = chol_s.inverse_lower();
    let beta: Vec<f64> = chol_s
        .solve_vec(&a_sum)
        .into_iter()
        .map(|v| v * inv_sn2)
        .collect();

    Ok(NystromFactors {
        sigma,
        a: a_sum,
        lm_inv,
        ls_inv,
        beta,
    })
}

/// `‖L⁻¹k‖²` for a lower-triangular inverse factor: independent
/// triangular dot products, O(m²/2).
fn lower_apply_norm2(linv: &Matrix, k: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..k.len() {
        let row = &linv.row(i)[..=i];
        let mut s = 0.0;
        for (l, kv) in row.iter().zip(k.iter()) {
            s += l * kv;
        }
        acc += s * s;
    }
    acc
}

impl SparseGp {
    /// Fit a sparse GP to `(x, y)` in the unit cube: farthest-point
    /// inducing selection (one RNG draw for the seed point), subset
    /// hyperparameter fit through [`Gp::fit`], then the O(nm²) Nyström
    /// assembly.
    pub fn fit<R: Rng>(
        x: &[Vec<f64>],
        y: &[f64],
        config: &SparseGpConfig,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        Self::fit_with_starts(x, y, config, rng, &[])
    }

    /// [`SparseGp::fit`] with extra warm starts forwarded to the subset
    /// hyperparameter fit (same θ layout as [`Gp::fit_with_starts`]).
    pub fn fit_with_starts<R: Rng>(
        x: &[Vec<f64>],
        y: &[f64],
        config: &SparseGpConfig,
        rng: &mut R,
        extra_starts: &[Vec<f64>],
    ) -> Result<Self, GpError> {
        let n = x.len();
        if n == 0 {
            return Err(GpError::EmptyTrainingSet);
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteTarget);
        }
        let d = config.base.dims.len();
        for xi in x {
            if xi.len() != d {
                return Err(GpError::DimensionMismatch {
                    expected: d,
                    got: xi.len(),
                });
            }
        }

        let m = config.m_inducing.max(1).min(n);
        let first = rng.gen_range(0..n);
        let inducing = farthest_point_subset(x, &config.base.dims, m, first);
        let z: Vec<Vec<f64>> = inducing.iter().map(|&i| x[i].clone()).collect();
        let ysub: Vec<f64> = inducing.iter().map(|&i| y[i]).collect();

        // Subset-of-data hyperparameter fit: the exact GP machinery on
        // the m inducing points, warm starts and all.
        let sub = Gp::fit_with_starts(&z, &ysub, &config.base, rng, extra_starts)?;
        let kernel = sub.kernel().clone();
        let log_noise = sub.log_noise();

        // Adopt the subset's standardization (recomputed exactly as
        // `Gp::fit` computes it) so θ and the standardized targets live
        // on the same scale.
        let y_mean = stats::mean(&ysub);
        let mut y_std = stats::std_dev(&ysub);
        if y_std.is_nan() || y_std <= 1e-12 {
            y_std = 1.0;
        }
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        let f = assemble_nystrom(&kernel, log_noise, &z, x, &ys, config.base.parallel)?;
        Ok(SparseGp {
            kernel,
            log_noise,
            z,
            inducing,
            x: x.to_vec(),
            ys,
            y_mean,
            y_std,
            sigma: f.sigma,
            a: f.a,
            lm_inv: f.lm_inv,
            ls_inv: f.ls_inv,
            beta: f.beta,
        })
    }

    /// Posterior prediction, O(m²), in original y units.
    pub fn predict(&self, xstar: &[f64]) -> Prediction {
        let params = self.kernel.params();
        let mut k = vec![0.0; self.z.len()];
        self.predict_hoisted(xstar, &params, &mut k)
    }

    /// The per-point kernel under hoisted θ constants and a caller-owned
    /// scratch row — the batch path calls this in a loop so the row and
    /// the `exp`s of θ are paid once per batch, not once per point.
    fn predict_hoisted(&self, xstar: &[f64], params: &KernelParams, k: &mut [f64]) -> Prediction {
        for (kj, zj) in k.iter_mut().zip(self.z.iter()) {
            *kj = self.kernel.eval_params(zj, xstar, params);
        }
        let mean_s = dot(k, &self.beta);
        let qm = lower_apply_norm2(&self.lm_inv, k);
        let qs = lower_apply_norm2(&self.ls_inv, k);
        let var_s = (self.kernel.prior_variance() - qm + qs).max(0.0);
        Prediction {
            mean: self.y_mean + self.y_std * mean_s,
            std: self.y_std * var_s.sqrt(),
        }
    }

    /// Batch prediction with the θ constants and scratch row hoisted
    /// once. Parallel over fixed 256-point blocks when it pays;
    /// per-point results are computed independently, so the parallel
    /// path is bitwise-identical to the serial one.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        let params = self.kernel.params();
        let m = self.z.len();
        let threads = rayon::current_num_threads();
        if threads <= 1 || xs.len() < 2 * PREDICT_BLOCK {
            let mut k = vec![0.0; m];
            return xs
                .iter()
                .map(|x| self.predict_hoisted(x, &params, &mut k))
                .collect();
        }
        let blocks: Vec<Vec<Prediction>> = xs
            .par_chunks(PREDICT_BLOCK)
            .map(|block| {
                let mut k = vec![0.0; m];
                block
                    .iter()
                    .map(|x| self.predict_hoisted(x, &params, &mut k))
                    .collect()
            })
            .collect();
        blocks.into_iter().flatten().collect()
    }

    /// Absorb one observation against the **frozen** inducing set, θ,
    /// and standardization: `a += ys·k*`, `Σ += σₙ⁻² k*k*ᵀ`, one O(m³)
    /// refactor of the m×m `Σ`. On numerical failure the model is left
    /// unchanged; the caller should fall back to a full reselection.
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
        let m = self.z.len();
        let mut k = vec![0.0; m];
        for (kj, zj) in k.iter_mut().zip(self.z.iter()) {
            *kj = self.kernel.eval_params(zj, xnew, &params);
        }
        let ys_new = (ynew - self.y_mean) / self.y_std;
        let inv_sn2 = (-self.log_noise).exp();

        let mut sigma = self.sigma.clone();
        for i in 0..m {
            let ki = k[i];
            for (sv, &kj) in sigma.row_mut(i).iter_mut().zip(k.iter()) {
                *sv += inv_sn2 * ki * kj;
            }
        }
        // Factor the candidate Σ before committing anything, so a jitter
        // failure leaves the model untouched.
        let chol_s = Cholesky::robust(&sigma).map_err(|_| GpError::NumericalFailure)?;
        let mut a = self.a.clone();
        for (av, &kj) in a.iter_mut().zip(k.iter()) {
            *av += ys_new * kj;
        }
        let beta: Vec<f64> = chol_s
            .solve_vec(&a)
            .into_iter()
            .map(|v| v * inv_sn2)
            .collect();
        self.ls_inv = chol_s.inverse_lower();
        self.sigma = sigma;
        self.a = a;
        self.beta = beta;
        self.x.push(xnew.to_vec());
        self.ys.push(ys_new);
        Ok(())
    }

    /// Rebuild the Nyström factors from the stored training set at the
    /// current θ, inducing set, and standardization — the reference the
    /// frozen-set [`SparseGp::update`] path must agree with (up to
    /// rounding).
    pub fn refit_at_current_inducing(&mut self) -> Result<(), GpError> {
        let f = assemble_nystrom(
            &self.kernel,
            self.log_noise,
            &self.z,
            &self.x,
            &self.ys,
            true,
        )?;
        self.sigma = f.sigma;
        self.a = f.a;
        self.lm_inv = f.lm_inv;
        self.ls_inv = f.ls_inv;
        self.beta = f.beta;
        Ok(())
    }

    /// Winner θ in [`Gp::pack_theta`] layout, the next warm start.
    pub fn pack_theta(&self, fixed_noise: bool) -> Vec<f64> {
        let mut t = self.kernel.pack();
        if !fixed_noise {
            t.push(self.log_noise);
        }
        t
    }

    /// Training-set indices of the inducing points, ascending.
    pub fn inducing_indices(&self) -> &[usize] {
        &self.inducing
    }

    /// Number of inducing points `m`.
    pub fn m(&self) -> usize {
        self.z.len()
    }

    /// Observations absorbed (fit set plus frozen-set updates).
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when no observations are held (unreachable for a fitted
    /// model; present for API symmetry with [`Gp`]).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The fitted log noise variance (standardized-y units).
    pub fn log_noise(&self) -> f64 {
        self.log_noise
    }
}

/// A sparse surrogate maintained across `observe` calls: frozen-set
/// O(m²) updates between scheduled inducing-set reselections, mirroring
/// [`IncrementalGp`](crate::IncrementalGp)'s refit schedule. The NLL
/// degradation trigger does not apply (the sparse model has no cheap
/// exact NLL); reselection is count-driven via [`RefitSchedule::every`]
/// and [`RefitSchedule::min_points`].
#[derive(Debug, Clone)]
pub struct IncrementalSparseGp {
    config: SparseGpConfig,
    schedule: RefitSchedule,
    gp: Option<SparseGp>,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    updates_since_full: usize,
    prev_theta: Option<Vec<f64>>,
}

impl IncrementalSparseGp {
    /// An empty incremental sparse surrogate; the first `observe`
    /// triggers the initial selection and fit.
    pub fn new(config: SparseGpConfig, schedule: RefitSchedule) -> Self {
        IncrementalSparseGp {
            config,
            schedule,
            gp: None,
            x: Vec::new(),
            y: Vec::new(),
            updates_since_full: 0,
            prev_theta: None,
        }
    }

    /// Build an incremental sparse surrogate already holding `(x, y)` —
    /// the tier-escalation entry point: the existing history is absorbed
    /// with one reselection + fit.
    pub fn with_history<R: Rng>(
        config: SparseGpConfig,
        schedule: RefitSchedule,
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        let mut inc = Self::new(config, schedule);
        inc.x = x;
        inc.y = y;
        if !inc.x.is_empty() {
            inc.full_reselect(rng, "escalation")?;
        }
        Ok(inc)
    }

    /// Absorb one observation: frozen-set update when the schedule
    /// allows, inducing-set reselection + refit when it demands.
    pub fn observe<R: Rng>(&mut self, xnew: &[f64], ynew: f64, rng: &mut R) -> Result<(), GpError> {
        self.x.push(xnew.to_vec());
        self.y.push(ynew);
        if self.gp.is_none() || self.x.len() <= self.schedule.min_points {
            return self.full_reselect(rng, "schedule");
        }
        let gp = self.gp.as_mut().expect("checked above");
        if gp.update(xnew, ynew).is_err() {
            return self.full_reselect(rng, "fallback");
        }
        self.updates_since_full += 1;
        if self.schedule.every > 0 && self.updates_since_full >= self.schedule.every {
            return self.full_reselect(rng, "schedule");
        }
        obs::count(obs::names::CTR_INCREMENTAL_UPDATES, 1);
        obs::record_with(|| obs::Event::Refit {
            model: "sparse-gp".to_string(),
            points: self.x.len() as u64,
            reason: "append".to_string(),
            full: false,
            updates_since_full: self.updates_since_full as u64,
            nll_per_point: None,
        });
        Ok(())
    }

    fn full_reselect<R: Rng>(&mut self, rng: &mut R, reason: &str) -> Result<(), GpError> {
        let fixed_noise = matches!(self.config.base.noise, NoiseModel::Fixed(_));
        let warm: Vec<Vec<f64>> = self.prev_theta.iter().cloned().collect();
        let gp = match SparseGp::fit_with_starts(&self.x, &self.y, &self.config, rng, &warm) {
            Ok(gp) => gp,
            Err(e) => {
                // Same invariant as IncrementalGp: never keep a model
                // that does not cover every observed point.
                self.gp = None;
                self.updates_since_full = 0;
                return Err(e);
            }
        };
        self.prev_theta = Some(gp.pack_theta(fixed_noise));
        let updates = std::mem::take(&mut self.updates_since_full) as u64;
        obs::count(obs::names::CTR_FULL_REFITS, 1);
        obs::count(obs::names::CTR_SPARSE_RESELECTIONS, 1);
        obs::record_with(|| obs::Event::Refit {
            model: "sparse-gp".to_string(),
            points: self.x.len() as u64,
            reason: reason.to_string(),
            full: true,
            updates_since_full: updates,
            nll_per_point: None,
        });
        self.gp = Some(gp);
        Ok(())
    }

    /// The current fitted surrogate, `None` before the first observation.
    pub fn gp(&self) -> Option<&SparseGp> {
        self.gp.as_ref()
    }

    /// Posterior prediction through the maintained surrogate.
    ///
    /// Panics when no observation has been absorbed yet.
    pub fn predict(&self, xstar: &[f64]) -> Prediction {
        self.gp
            .as_ref()
            .expect("no observations yet")
            .predict(xstar)
    }

    /// Observations absorbed so far.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Frozen-set updates since the last reselection.
    pub fn updates_since_full(&self) -> usize {
        self.updates_since_full
    }

    /// The reselection schedule in force.
    pub fn schedule(&self) -> &RefitSchedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn objective(x: &[f64]) -> f64 {
        3.0 + 10.0 * (x[0] - 0.4) * (x[0] - 0.4) + (7.0 * x[0]).sin()
    }

    fn make_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen::<f64>()]).collect();
        let y: Vec<f64> = x.iter().map(|xi| objective(xi)).collect();
        (x, y)
    }

    #[test]
    fn farthest_point_ties_break_low_and_mask_chosen() {
        // Three coincident points plus one far point: after (0, far),
        // the remaining duplicates are at distance 0 — the sweep must
        // pick the lowest-index unchosen one, never re-pick a chosen one.
        let x = vec![vec![0.0], vec![0.0], vec![0.0], vec![1.0]];
        let dims = vec![DimKind::Continuous];
        let got = farthest_point_subset(&x, &dims, 3, 0);
        assert_eq!(got, vec![0, 1, 3]);
    }

    #[test]
    fn with_all_points_inducing_matches_exact_gp() {
        // SoR with m = n collapses algebraically to the exact GP
        // posterior; burning the seed-point draw aligns the RNG streams
        // so both fits see identical restart draws. Evenly spread points
        // and a fixed moderate noise keep K_mm well-conditioned so the
        // identity survives finite precision.
        let n = 20;
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|xi| objective(xi)).collect();
        let mut cfg = SparseGpConfig::continuous(1);
        cfg.base.restarts = 1;
        cfg.base.noise = NoiseModel::Fixed(1e-2);
        cfg.m_inducing = n;
        let mut rng1 = StdRng::seed_from_u64(9);
        let sparse = SparseGp::fit(&x, &y, &cfg, &mut rng1).unwrap();
        let mut rng2 = StdRng::seed_from_u64(9);
        let _ = rng2.gen_range(0..x.len());
        let exact = Gp::fit(&x, &y, &cfg.base, &mut rng2).unwrap();
        for q in [0.05, 0.31, 0.5, 0.77, 0.96] {
            let a = sparse.predict(&[q]);
            let b = exact.predict(&[q]);
            assert!(
                (a.mean - b.mean).abs() < 1e-4,
                "mean {} vs {}",
                a.mean,
                b.mean
            );
            assert!((a.std - b.std).abs() < 1e-4, "std {} vs {}", a.std, b.std);
        }
    }

    #[test]
    fn update_matches_refit_at_current_inducing() {
        let (x, y) = make_data(60, 23);
        let mut cfg = SparseGpConfig::continuous(1);
        cfg.base.restarts = 1;
        // A fixed moderate noise keeps Σ well-conditioned; the estimated
        // noise would hit its floor on this noise-free objective and
        // amplify benign summation-order differences past the tolerance.
        cfg.base.noise = NoiseModel::Fixed(1e-2);
        cfg.m_inducing = 16;
        let mut rng = StdRng::seed_from_u64(5);
        let mut sparse = SparseGp::fit(&x[..48], &y[..48], &cfg, &mut rng).unwrap();
        for i in 48..60 {
            sparse.update(&x[i], y[i]).unwrap();
        }
        let mut reference = sparse.clone();
        reference.refit_at_current_inducing().unwrap();
        for q in [0.03, 0.25, 0.5, 0.81, 0.99] {
            let a = sparse.predict(&[q]);
            let b = reference.predict(&[q]);
            assert!(
                (a.mean - b.mean).abs() < 1e-6,
                "mean {} vs {}",
                a.mean,
                b.mean
            );
            assert!((a.std - b.std).abs() < 1e-6, "std {} vs {}", a.std, b.std);
        }
    }

    #[test]
    fn parallel_and_serial_assembly_bitwise_identical() {
        let (x, y) = make_data(300, 31);
        let mut par_cfg = SparseGpConfig::continuous(1);
        par_cfg.base.restarts = 1;
        par_cfg.m_inducing = 24;
        let mut ser_cfg = par_cfg.clone();
        ser_cfg.base.parallel = false;
        let mut rng1 = StdRng::seed_from_u64(13);
        let mut rng2 = StdRng::seed_from_u64(13);
        let par = SparseGp::fit(&x, &y, &par_cfg, &mut rng1).unwrap();
        let ser = SparseGp::fit(&x, &y, &ser_cfg, &mut rng2).unwrap();
        assert_eq!(par.inducing_indices(), ser.inducing_indices());
        for q in [0.0, 0.21, 0.5, 0.83, 1.0] {
            assert_eq!(par.predict(&[q]), ser.predict(&[q]));
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (x, y) = make_data(200, 41);
        let mut cfg = SparseGpConfig::continuous(1);
        cfg.base.restarts = 1;
        cfg.m_inducing = 20;
        let mut rng = StdRng::seed_from_u64(2);
        let sparse = SparseGp::fit(&x, &y, &cfg, &mut rng).unwrap();
        let qs: Vec<Vec<f64>> = (0..600).map(|i| vec![i as f64 / 599.0]).collect();
        let batch = sparse.predict_batch(&qs);
        for (q, b) in qs.iter().zip(batch.iter()) {
            assert_eq!(*b, sparse.predict(q));
        }
    }

    #[test]
    fn incremental_sparse_appends_between_reselections() {
        let mut cfg = SparseGpConfig::continuous(1);
        cfg.base.restarts = 1;
        cfg.m_inducing = 12;
        let schedule = RefitSchedule {
            every: 8,
            min_points: 1,
            nll_degradation: f64::INFINITY,
        };
        let mut inc = IncrementalSparseGp::new(cfg, schedule);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let x = vec![rng.gen::<f64>()];
            let y = objective(&x);
            inc.observe(&x, y, &mut rng).unwrap();
        }
        // n=1 fit, counts 1..8 (reselect at 8), 1..8 (reselect at 17),
        // then three frozen-set appends.
        assert_eq!(inc.updates_since_full(), 3);
        assert_eq!(inc.len(), 20);
    }

    #[test]
    fn with_history_absorbs_existing_points() {
        let (x, y) = make_data(80, 53);
        let mut cfg = SparseGpConfig::continuous(1);
        cfg.base.restarts = 1;
        cfg.m_inducing = 16;
        let mut rng = StdRng::seed_from_u64(7);
        let inc = IncrementalSparseGp::with_history(
            cfg,
            RefitSchedule::default(),
            x.clone(),
            y.clone(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(inc.len(), 80);
        assert_eq!(inc.gp().unwrap().m(), 16);
        let p = inc.predict(&[0.4]);
        assert!(p.mean.is_finite() && p.std.is_finite());
    }
}
