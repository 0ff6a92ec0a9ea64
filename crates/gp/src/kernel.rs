//! Covariance kernels over the unit hypercube, with analytic gradients
//! with respect to log-hyperparameters.
//!
//! All kernels operate on points already normalized into `[0,1]^d` by
//! `crowdtune-space`. Categorical dimensions use an indicator (Hamming)
//! distance instead of the squared difference — two categories are either
//! "the same cell" or "one unit apart", never "close" — which is how
//! mixed-variable GP tuners avoid imposing a fake ordering on categories.

/// How a dimension contributes to the kernel's distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimKind {
    /// Continuous (or ordinal integer) dimension: squared difference.
    Continuous,
    /// Categorical dimension: indicator distance (0 if equal, 1 if not).
    Categorical,
}

/// Kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Squared-exponential (RBF) with ARD lengthscales.
    SquaredExponential,
    /// Matérn 5/2 with ARD lengthscales.
    Matern52,
}

/// An ARD kernel: one lengthscale per input dimension plus a signal
/// variance. Hyperparameters are stored and differentiated in log space.
#[derive(Debug, Clone)]
pub struct Kernel {
    kind: KernelKind,
    dims: Vec<DimKind>,
    /// Log lengthscales, one per dimension.
    pub log_lengthscales: Vec<f64>,
    /// Log signal variance.
    pub log_signal_variance: f64,
}

impl Kernel {
    /// New kernel with unit lengthscales and unit signal variance.
    pub fn new(kind: KernelKind, dims: Vec<DimKind>) -> Self {
        let d = dims.len();
        Kernel {
            kind,
            dims,
            log_lengthscales: vec![0.0; d],
            log_signal_variance: 0.0,
        }
    }

    /// All-continuous convenience constructor.
    pub fn continuous(kind: KernelKind, dim: usize) -> Self {
        Self::new(kind, vec![DimKind::Continuous; dim])
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Dimension kinds.
    pub fn dims(&self) -> &[DimKind] {
        &self.dims
    }

    /// Kernel family.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Number of hyperparameters (`dim` lengthscales + signal variance).
    pub fn n_hyper(&self) -> usize {
        self.dims.len() + 1
    }

    /// Pack hyperparameters into a flat log-space vector
    /// `[log ls_0, ..., log ls_{d-1}, log sf2]`.
    pub fn pack(&self) -> Vec<f64> {
        let mut v = self.log_lengthscales.clone();
        v.push(self.log_signal_variance);
        v
    }

    /// Unpack hyperparameters from a flat log-space vector.
    pub fn unpack(&mut self, theta: &[f64]) {
        assert_eq!(theta.len(), self.n_hyper());
        self.log_lengthscales
            .copy_from_slice(&theta[..self.dims.len()]);
        self.log_signal_variance = theta[self.dims.len()];
    }

    /// Scaled per-dimension squared distances `u_d^2 = dist_d^2 / ls_d^2`,
    /// written into `out` (length `dim`). Returns the total `r^2`.
    #[inline]
    fn scaled_sq_dists(&self, x: &[f64], y: &[f64], out: &mut [f64]) -> f64 {
        let mut r2 = 0.0;
        for d in 0..self.dims.len() {
            let ls = self.log_lengthscales[d].exp();
            let dist2 = match self.dims[d] {
                DimKind::Continuous => {
                    let dd = x[d] - y[d];
                    dd * dd
                }
                DimKind::Categorical => {
                    if (x[d] - y[d]).abs() > 1e-12 {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            let u2 = dist2 / (ls * ls);
            out[d] = u2;
            r2 += u2;
        }
        r2
    }

    /// Evaluate `k(x, y)`.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        debug_assert_eq!(y.len(), self.dim());
        let mut u2 = vec![0.0; self.dim()];
        let r2 = self.scaled_sq_dists(x, y, &mut u2);
        let sf2 = self.log_signal_variance.exp();
        sf2 * self.base(r2)
    }

    /// The base correlation as a function of `r^2` (signal variance 1).
    #[inline]
    pub(crate) fn base(&self, r2: f64) -> f64 {
        match self.kind {
            KernelKind::SquaredExponential => (-0.5 * r2).exp(),
            KernelKind::Matern52 => {
                let r = r2.sqrt();
                let s5r = 5.0f64.sqrt() * r;
                (1.0 + s5r + 5.0 * r2 / 3.0) * (-s5r).exp()
            }
        }
    }

    /// Evaluate `k(x, y)` together with the gradient with respect to every
    /// log-hyperparameter, appended to `grad_out` in pack order: the
    /// per-pair reference the fused likelihood passes are tested against.
    #[cfg(test)]
    fn eval_with_grad(&self, x: &[f64], y: &[f64], grad_out: &mut [f64]) -> f64 {
        debug_assert_eq!(grad_out.len(), self.n_hyper());
        let d = self.dim();
        let mut u2 = vec![0.0; d];
        let r2 = self.scaled_sq_dists(x, y, &mut u2);
        let sf2 = self.log_signal_variance.exp();
        let k = sf2 * self.base(r2);
        match self.kind {
            KernelKind::SquaredExponential => {
                // dk/d log ls_d = k * u_d^2
                for dd in 0..d {
                    grad_out[dd] = k * u2[dd];
                }
            }
            KernelKind::Matern52 => {
                // dk/d log ls_d = (5/3) sf2 (1 + sqrt5 r) e^{-sqrt5 r} u_d^2
                let r = r2.sqrt();
                let s5r = 5.0f64.sqrt() * r;
                let factor = (5.0 / 3.0) * sf2 * (1.0 + s5r) * (-s5r).exp();
                for dd in 0..d {
                    grad_out[dd] = factor * u2[dd];
                }
            }
        }
        // dk/d log sf2 = k
        grad_out[d] = k;
        k
    }

    /// The kernel's prior variance at any point, `k(x, x) = sf2`.
    pub fn prior_variance(&self) -> f64 {
        self.log_signal_variance.exp()
    }

    /// Hoist the θ-dependent per-pair constants (`exp` of every log
    /// hyperparameter) out of the evaluation loop. Compute once per θ,
    /// share across every pair.
    pub fn params(&self) -> KernelParams {
        let inv_ls2: Vec<f64> = self
            .log_lengthscales
            .iter()
            .map(|&l| {
                let ls = l.exp();
                1.0 / (ls * ls)
            })
            .collect();
        KernelParams {
            inv_ls2,
            sf2: self.log_signal_variance.exp(),
        }
    }

    /// Raw (unscaled) per-dimension squared distance between two points,
    /// written into `out`. θ-independent: depends only on the points and
    /// the dimension kinds. The reference `precompute_sq_dists` matches.
    #[cfg(test)]
    fn raw_sq_dists(&self, x: &[f64], y: &[f64], out: &mut [f64]) {
        for d in 0..self.dims.len() {
            out[d] = match self.dims[d] {
                DimKind::Continuous => {
                    let dd = x[d] - y[d];
                    dd * dd
                }
                DimKind::Categorical => {
                    if (x[d] - y[d]).abs() > 1e-12 {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
        }
    }

    /// Precompute the raw squared distances for every unordered pair of
    /// `points` (the θ-independent part of a covariance matrix).
    pub fn precompute_sq_dists(&self, points: &[Vec<f64>]) -> SqDists {
        SqDists::new(points, &self.dims)
    }

    /// Evaluate `k` for a pair from its precomputed raw squared
    /// distances together with its lengthscale-gradient factor:
    /// `dk/d log ls_d = factor * u_d^2` with `u_d^2 = sq_d / ls_d^2`.
    /// One `sqrt` (Matérn only) and one `exp` per call, no allocation.
    #[inline]
    pub fn eval_with_factor(&self, sq: &[f64], p: &KernelParams) -> (f64, f64) {
        let mut r2 = 0.0;
        for (s, inv) in sq.iter().zip(p.inv_ls2.iter()) {
            r2 += s * inv;
        }
        match self.kind {
            KernelKind::SquaredExponential => {
                // dk/d log ls_d = k * u_d^2
                let k = p.sf2 * (-0.5 * r2).exp();
                (k, k)
            }
            KernelKind::Matern52 => {
                // dk/d log ls_d = (5/3) sf2 (1 + sqrt5 r) e^{-sqrt5 r} u_d^2
                let s5r = 5.0f64.sqrt() * r2.sqrt();
                let e = (-s5r).exp();
                let k = p.sf2 * (1.0 + s5r + 5.0 * r2 / 3.0) * e;
                (k, (5.0 / 3.0) * p.sf2 * (1.0 + s5r) * e)
            }
        }
    }

    /// Evaluate `k(x, y)` from hoisted `params` without touching the
    /// per-pair distance cache (for points outside the training set,
    /// e.g. prediction candidates). Allocation-free.
    #[inline]
    pub fn eval_params(&self, x: &[f64], y: &[f64], p: &KernelParams) -> f64 {
        let mut r2 = 0.0;
        for d in 0..self.dims.len() {
            let dist2 = match self.dims[d] {
                DimKind::Continuous => {
                    let dd = x[d] - y[d];
                    dd * dd
                }
                DimKind::Categorical => {
                    if (x[d] - y[d]).abs() > 1e-12 {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            r2 += dist2 * p.inv_ls2[d];
        }
        p.sf2 * self.base(r2)
    }
}

/// θ-dependent constants hoisted out of per-pair kernel evaluation:
/// inverse squared lengthscales and the signal variance, both already
/// exponentiated.
#[derive(Debug, Clone)]
pub struct KernelParams {
    /// `1 / ls_d^2` per dimension.
    pub inv_ls2: Vec<f64>,
    /// `exp(log_signal_variance)`.
    pub sf2: f64,
}

/// θ-independent per-dimension squared distances for every unordered
/// pair of a fixed point set, packed pair-major (`data[pair * d + dim]`)
/// so a pair's distances are one contiguous read in the hot loop.
/// Pairs enumerate the upper triangle `i <= j`, `i` outer.
#[derive(Debug, Clone)]
pub struct SqDists {
    n: usize,
    d: usize,
    data: Vec<f64>,
}

impl SqDists {
    /// Build the cache for `points` under the given dimension kinds.
    pub fn new(points: &[Vec<f64>], dims: &[DimKind]) -> Self {
        let n = points.len();
        let d = dims.len();
        let mut data = vec![0.0; n * (n + 1) / 2 * d];
        let mut pair = 0;
        for i in 0..n {
            for j in i..n {
                let out = &mut data[pair * d..(pair + 1) * d];
                for (dd, kind) in dims.iter().enumerate() {
                    out[dd] = match kind {
                        DimKind::Continuous => {
                            let diff = points[i][dd] - points[j][dd];
                            diff * diff
                        }
                        DimKind::Categorical => {
                            if (points[i][dd] - points[j][dd]).abs() > 1e-12 {
                                1.0
                            } else {
                                0.0
                            }
                        }
                    };
                }
                pair += 1;
            }
        }
        SqDists { n, d, data }
    }

    /// Number of points the cache was built over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The raw squared distances of pair `(i, j)`, `i <= j`.
    #[inline]
    pub fn pair(&self, i: usize, j: usize) -> &[f64] {
        debug_assert!(i <= j && j < self.n);
        // Row i of the upper triangle starts after the previous rows,
        // which hold n + (n-1) + ... + (n-i+1) pairs.
        let row_start = i * self.n - i * (i + 1) / 2 + i;
        let pair = row_start + (j - i);
        &self.data[pair * self.d..(pair + 1) * self.d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(kind: KernelKind, dims: Vec<DimKind>) {
        let mut k = Kernel::new(kind, dims);
        k.log_lengthscales
            .iter_mut()
            .enumerate()
            .for_each(|(i, l)| *l = -0.3 + 0.1 * i as f64);
        k.log_signal_variance = 0.4;
        let x = [0.1, 0.7, 0.35];
        let y = [0.55, 0.2, 0.35];
        let mut grad = vec![0.0; k.n_hyper()];
        let _ = k.eval_with_grad(&x, &y, &mut grad);
        let theta0 = k.pack();
        let h = 1e-6;
        for p in 0..k.n_hyper() {
            let mut kp = k.clone();
            let mut tp = theta0.clone();
            tp[p] += h;
            kp.unpack(&tp);
            let fp = kp.eval(&x, &y);
            let mut tm = theta0.clone();
            tm[p] -= h;
            kp.unpack(&tm);
            let fm = kp.eval(&x, &y);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - grad[p]).abs() < 1e-6 * (1.0 + fd.abs()),
                "param {p}: fd {fd} vs analytic {}",
                grad[p]
            );
        }
    }

    #[test]
    fn rbf_gradient_matches_finite_difference() {
        finite_diff_check(KernelKind::SquaredExponential, vec![DimKind::Continuous; 3]);
    }

    #[test]
    fn matern_gradient_matches_finite_difference() {
        finite_diff_check(KernelKind::Matern52, vec![DimKind::Continuous; 3]);
    }

    #[test]
    fn categorical_dims_gradient_matches_finite_difference() {
        finite_diff_check(
            KernelKind::SquaredExponential,
            vec![
                DimKind::Continuous,
                DimKind::Categorical,
                DimKind::Continuous,
            ],
        );
    }

    #[test]
    fn kernel_at_zero_distance_is_signal_variance() {
        for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
            let mut k = Kernel::continuous(kind, 2);
            k.log_signal_variance = 1.5f64.ln();
            let x = [0.3, 0.9];
            assert!((k.eval(&x, &x) - 1.5).abs() < 1e-12);
            assert!((k.prior_variance() - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_decays_with_distance() {
        for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
            let k = Kernel::continuous(kind, 1);
            let k0 = k.eval(&[0.0], &[0.0]);
            let k1 = k.eval(&[0.0], &[0.3]);
            let k2 = k.eval(&[0.0], &[0.9]);
            assert!(k0 > k1 && k1 > k2, "{kind:?}: {k0} {k1} {k2}");
            assert!(k2 > 0.0);
        }
    }

    #[test]
    fn kernel_is_symmetric() {
        let mut k = Kernel::continuous(KernelKind::Matern52, 3);
        k.log_lengthscales = vec![-0.5, 0.2, 0.9];
        let x = [0.1, 0.2, 0.3];
        let y = [0.9, 0.0, 0.5];
        assert!((k.eval(&x, &y) - k.eval(&y, &x)).abs() < 1e-15);
    }

    #[test]
    fn categorical_distance_is_all_or_nothing() {
        let k = Kernel::new(KernelKind::SquaredExponential, vec![DimKind::Categorical]);
        let same = k.eval(&[0.25], &[0.25]);
        let diff_near = k.eval(&[0.25], &[0.75]);
        let diff_far = k.eval(&[0.125], &[0.875]);
        assert!((same - 1.0).abs() < 1e-12);
        // Different categories are equally unlike no matter the index gap.
        assert!((diff_near - diff_far).abs() < 1e-12);
        assert!(diff_near < same);
    }

    #[test]
    fn shorter_lengthscale_decays_faster() {
        let mut k_short = Kernel::continuous(KernelKind::SquaredExponential, 1);
        k_short.log_lengthscales[0] = (0.1f64).ln();
        let mut k_long = Kernel::continuous(KernelKind::SquaredExponential, 1);
        k_long.log_lengthscales[0] = (1.0f64).ln();
        let a = [0.2];
        let b = [0.5];
        assert!(k_short.eval(&a, &b) < k_long.eval(&a, &b));
    }

    #[test]
    fn precomputed_paths_match_direct_eval() {
        for kind in [KernelKind::SquaredExponential, KernelKind::Matern52] {
            let mut k = Kernel::new(
                kind,
                vec![
                    DimKind::Continuous,
                    DimKind::Categorical,
                    DimKind::Continuous,
                ],
            );
            k.unpack(&[0.2, -0.4, 0.1, 0.3]);
            let pts = vec![
                vec![0.1, 0.25, 0.9],
                vec![0.55, 0.75, 0.9],
                vec![0.3, 0.25, 0.05],
            ];
            let sq = k.precompute_sq_dists(&pts);
            let p = k.params();
            let mut grad_ref = vec![0.0; k.n_hyper()];
            for i in 0..pts.len() {
                for j in i..pts.len() {
                    let k_ref = k.eval(&pts[i], &pts[j]);
                    let (k_pre, factor) = k.eval_with_factor(sq.pair(i, j), &p);
                    let k_par = k.eval_params(&pts[i], &pts[j], &p);
                    assert!((k_pre - k_ref).abs() < 1e-14, "{kind:?} eval ({i},{j})");
                    assert!((k_par - k_ref).abs() < 1e-14, "{kind:?} params ({i},{j})");
                    let kg_ref = k.eval_with_grad(&pts[i], &pts[j], &mut grad_ref);
                    assert!((k_pre - kg_ref).abs() < 1e-14);
                    // The fused factor reproduces the lengthscale
                    // gradients of the direct path, and the value its
                    // signal-variance gradient.
                    let pair = sq.pair(i, j);
                    for dd in 0..3 {
                        let u2 = pair[dd] * p.inv_ls2[dd];
                        assert!(
                            (factor * u2 - grad_ref[dd]).abs() < 1e-14,
                            "{kind:?} factor ({i},{j}) dim {dd}"
                        );
                    }
                    assert!(
                        (k_pre - grad_ref[3]).abs() < 1e-14,
                        "{kind:?} sf2 ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn sq_dists_pair_indexing() {
        let k = Kernel::continuous(KernelKind::SquaredExponential, 2);
        let pts: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![i as f64 * 0.1, i as f64 * 0.2])
            .collect();
        let sq = k.precompute_sq_dists(&pts);
        assert_eq!(sq.n(), 5);
        assert_eq!(sq.dim(), 2);
        for i in 0..5 {
            for j in i..5 {
                let mut want = vec![0.0; 2];
                k.raw_sq_dists(&pts[i], &pts[j], &mut want);
                assert_eq!(sq.pair(i, j), &want[..], "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut k = Kernel::continuous(KernelKind::Matern52, 4);
        let theta = vec![0.1, -0.2, 0.3, -0.4, 0.7];
        k.unpack(&theta);
        assert_eq!(k.pack(), theta);
    }
}
