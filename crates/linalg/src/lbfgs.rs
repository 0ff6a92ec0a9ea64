//! Limited-memory BFGS with a backtracking Armijo/curvature line search.
//!
//! This is the workhorse for maximizing Gaussian-process log marginal
//! likelihoods (we minimize the negative LML). The implementation is the
//! standard two-loop recursion (Nocedal & Wright, Algorithm 7.4) with a
//! history of `m` curvature pairs and a line search that enforces the
//! Armijo sufficient-decrease condition plus a weak curvature check.
//!
//! The objective is supplied as a closure returning `(value, gradient)`,
//! where the gradient is deferred: a closure the optimizer calls only
//! where it reads the gradient — at the start point and on line-search
//! probes that pass the Armijo test. A probe that fails Armijo is
//! discarded before its gradient would be read, so its gradient is never
//! computed; objectives whose gradient costs more than their value (a GP
//! likelihood's `K⁻¹` and gradient sweep) save that work, and every
//! iterate is the one an eager gradient would give.
//!
//! Non-finite objective values are treated as "step too long" and handled
//! by the line search, which lets callers expose hard domain boundaries
//! (e.g. log-hyperparameters that overflow) simply by returning `f64::INFINITY`.
//!
//! Optional box [`Bounds`] turn the method into a projected L-BFGS: a
//! coordinate sitting on a bound whose gradient points out of the box is
//! held fixed for the iteration, the search direction is confined to the
//! remaining free coordinates, and the line search never steps past the
//! nearest bound along that direction. An optimum on the boundary is then
//! reached and recognised (projected gradient small) instead of ending in
//! a line-search failure against an infinite wall just outside the box.

use crowdtune_obs as obs;

/// Convergence/iteration controls for [`lbfgs`].
#[derive(Debug, Clone)]
pub struct LbfgsOptions {
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// History size (number of stored curvature pairs).
    pub history: usize,
}

/// Stop when the infinity norm of the gradient drops below this.
const GRAD_TOL: f64 = 1e-6;
/// Stop when the relative objective decrease drops below this.
const F_TOL: f64 = 1e-10;
/// Maximum probes per line-search phase (bracketing, then zoom).
const MAX_LS_STEPS: usize = 30;

impl Default for LbfgsOptions {
    fn default() -> Self {
        LbfgsOptions {
            max_iter: 100,
            history: 8,
        }
    }
}

/// Box constraints `lower[i] <= x[i] <= upper[i]` for [`lbfgs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Bounds {
    /// A box from per-coordinate lower and upper limits.
    ///
    /// Panics when the lengths differ or a lower limit exceeds its upper
    /// limit.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bounds length mismatch");
        assert!(
            lower.iter().zip(&upper).all(|(lo, hi)| lo <= hi),
            "lower bound above upper bound"
        );
        Bounds { lower, upper }
    }

    /// Clamp `x` into the box.
    pub fn project(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.lower.len(), "point/bounds length mismatch");
        for ((xi, &lo), &hi) in x.iter_mut().zip(&self.lower).zip(&self.upper) {
            *xi = xi.clamp(lo, hi);
        }
    }

    /// Whether `x` lies inside the box (bounds included).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.lower.len()
            && x.iter()
                .zip(&self.lower)
                .zip(&self.upper)
                .all(|((v, lo), hi)| (lo..=hi).contains(&v))
    }

    /// Whether coordinate `i` is held at its bound: descending along
    /// `-g` would leave the box.
    fn held(&self, i: usize, x: f64, g: f64) -> bool {
        (x <= self.lower[i] && g > 0.0) || (x >= self.upper[i] && g < 0.0)
    }

    /// Zero every component of the direction `d` that is held (see
    /// [`Bounds::held`]) or points out of the box from its bound.
    fn confine(&self, x: &[f64], g: &[f64], d: &mut [f64]) {
        for (i, di) in d.iter_mut().enumerate() {
            let outward =
                (x[i] <= self.lower[i] && *di < 0.0) || (x[i] >= self.upper[i] && *di > 0.0);
            if outward || self.held(i, x[i], g[i]) {
                *di = 0.0;
            }
        }
    }

    /// Per-coordinate step length at which `x + t d` reaches a bound
    /// (`INFINITY` for coordinates that do not move).
    fn breakpoints(&self, x: &[f64], d: &[f64]) -> Vec<f64> {
        (0..x.len())
            .map(|i| {
                if d[i] > 0.0 {
                    (self.upper[i] - x[i]) / d[i]
                } else if d[i] < 0.0 {
                    (self.lower[i] - x[i]) / d[i]
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// `x + t d`, with every coordinate whose breakpoint is at most `t`
    /// placed exactly on its bound.
    fn step(&self, x: &[f64], d: &[f64], brk: &[f64], t: f64) -> Vec<f64> {
        (0..x.len())
            .map(|i| {
                if t >= brk[i] {
                    if d[i] > 0.0 {
                        self.upper[i]
                    } else {
                        self.lower[i]
                    }
                } else {
                    (x[i] + t * d[i]).clamp(self.lower[i], self.upper[i])
                }
            })
            .collect()
    }
}

/// Why the optimizer stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Gradient norm under `GRAD_TOL` (1e-6).
    GradientSmall,
    /// Relative objective decrease under `F_TOL` (1e-10).
    ObjectiveStalled,
    /// Line search failed to find any decrease.
    LineSearchFailed,
    /// Iteration budget exhausted.
    MaxIterations,
    /// Objective was non-finite at the starting point.
    BadStart,
}

impl StopReason {
    /// Stable lowercase identifier, used by journal events.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::GradientSmall => "gradient_small",
            StopReason::ObjectiveStalled => "objective_stalled",
            StopReason::LineSearchFailed => "line_search_failed",
            StopReason::MaxIterations => "max_iterations",
            StopReason::BadStart => "bad_start",
        }
    }
}

/// Result of an L-BFGS run.
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective at `x`.
    pub f: f64,
    /// Objective at the (projected) starting point.
    pub f_start: f64,
    /// Gradient at `x`.
    pub grad: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Minimize `f` starting from `x0`.
///
/// `f` returns the objective value at a point and a closure that
/// computes the gradient there; the closure runs only for the start
/// point and for line-search probes that pass the Armijo test (see the
/// module docs). Returning a non-finite value signals an infeasible
/// point.
///
/// With `bounds`, `x0` is first projected into the box and every point
/// `f` is evaluated at lies inside it; the gradient convergence test uses
/// the projected gradient. `None` runs the unconstrained method.
pub fn lbfgs<G: FnOnce() -> Vec<f64>>(
    x0: &[f64],
    mut f: impl FnMut(&[f64]) -> (f64, G),
    opts: &LbfgsOptions,
    bounds: Option<&Bounds>,
) -> LbfgsResult {
    let mut x = x0.to_vec();
    if let Some(b) = bounds {
        b.project(&mut x);
    }
    let (mut fx, grad) = f(&x);
    let mut gx = grad();
    let f_start = fx;
    if !fx.is_finite() {
        return LbfgsResult {
            x,
            f: fx,
            f_start,
            grad: gx,
            iterations: 0,
            stop: StopReason::BadStart,
        };
    }

    // Curvature-pair history (s_k, y_k, rho_k).
    let mut s_hist: Vec<Vec<f64>> = Vec::with_capacity(opts.history);
    let mut y_hist: Vec<Vec<f64>> = Vec::with_capacity(opts.history);
    let mut rho_hist: Vec<f64> = Vec::with_capacity(opts.history);

    let mut iterations = 0;
    let mut stop = StopReason::MaxIterations;
    // Require several consecutive tiny decreases before declaring a stall:
    // valley-shaped objectives (Rosenbrock-like LML surfaces) make slow but
    // real progress for many iterations.
    let mut stall_count = 0usize;

    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        // Projected gradient: coordinates held on a bound drop out of
        // both the convergence test and the search direction.
        let pg: Vec<f64> = match bounds {
            Some(b) => (0..gx.len())
                .map(|i| if b.held(i, x[i], gx[i]) { 0.0 } else { gx[i] })
                .collect(),
            None => gx.clone(),
        };
        let gnorm = pg.iter().fold(0.0f64, |a, &g| a.max(g.abs()));
        if gnorm < GRAD_TOL {
            stop = StopReason::GradientSmall;
            break;
        }

        // Two-loop recursion to get the search direction d = -H g.
        let mut q = pg.clone();
        let k = s_hist.len();
        let mut alpha = vec![0.0; k];
        for i in (0..k).rev() {
            alpha[i] = rho_hist[i] * dot(&s_hist[i], &q);
            for (qj, yj) in q.iter_mut().zip(&y_hist[i]) {
                *qj -= alpha[i] * yj;
            }
        }
        // Initial Hessian scaling gamma = s^T y / y^T y of the latest pair.
        let gamma = if k > 0 {
            let sy = dot(&s_hist[k - 1], &y_hist[k - 1]);
            let yy = dot(&y_hist[k - 1], &y_hist[k - 1]);
            if yy > 0.0 {
                sy / yy
            } else {
                1.0
            }
        } else {
            1.0
        };
        for qj in q.iter_mut() {
            *qj *= gamma;
        }
        for i in 0..k {
            let beta = rho_hist[i] * dot(&y_hist[i], &q);
            for (qj, sj) in q.iter_mut().zip(&s_hist[i]) {
                *qj += (alpha[i] - beta) * sj;
            }
        }
        let mut d: Vec<f64> = q.iter().map(|v| -v).collect();
        if let Some(b) = bounds {
            b.confine(&x, &gx, &mut d);
        }

        // Guard: if the direction is not a descent direction (can happen
        // with a stale history), fall back to (projected) steepest descent.
        let mut dg = dot(&d, &gx);
        if dg >= 0.0 {
            d = pg.iter().map(|v| -v).collect();
            dg = -dot(&pg, &pg);
            s_hist.clear();
            y_hist.clear();
            rho_hist.clear();
        }

        // Strong-Wolfe line search (bracket + zoom, Nocedal & Wright
        // Alg. 3.5/3.6). The curvature condition is what guarantees the
        // new (s, y) pair has s·y > 0 and carries real curvature
        // information — an Armijo-only search freezes the Hessian
        // approximation on valley-shaped objectives.
        let Some((x_new, f_new, g_new)) = wolfe_search(&x, fx, dg, &d, &mut f, bounds) else {
            // Surface the failure instead of swallowing it: callers treat a
            // line-search abort as a normal (weaker) convergence outcome, but
            // a high rate signals ill-conditioned likelihood surfaces. The
            // journal event is the caller's to record, in start order.
            obs::count(obs::names::CTR_LINESEARCH_FAILURES, 1);
            stop = StopReason::LineSearchFailed;
            break;
        };

        // Update history with the new curvature pair.
        let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = g_new.iter().zip(&gx).map(|(a, b)| a - b).collect();
        let sy = dot(&s, &y);
        if sy > 1e-12 * norm(&s) * norm(&y) {
            if s_hist.len() == opts.history {
                s_hist.remove(0);
                y_hist.remove(0);
                rho_hist.remove(0);
            }
            rho_hist.push(1.0 / sy);
            s_hist.push(s);
            y_hist.push(y);
        }

        let rel_dec = (fx - f_new) / fx.abs().max(1.0);
        x = x_new.clone();
        fx = f_new;
        gx = g_new;
        if (0.0..F_TOL).contains(&rel_dec) {
            stall_count += 1;
            if stall_count >= 5 {
                stop = StopReason::ObjectiveStalled;
                break;
            }
        } else {
            stall_count = 0;
        }
    }

    LbfgsResult {
        x,
        f: fx,
        f_start,
        grad: gx,
        iterations,
        stop,
    }
}

/// Strong-Wolfe line search along direction `d` from `x` (f0 = f(x),
/// dg0 = d·∇f(x) < 0). Returns the accepted `(x_new, f_new, g_new)`, or
/// `None` if no acceptable step exists within the evaluation budget.
///
/// A probe's gradient is computed only once the probe passes the Armijo
/// test; a failing probe only shrinks the step.
///
/// With `bounds`, steps are capped at the first bound along `d`; a step
/// that reaches that cap while still descending is accepted there.
fn wolfe_search<G: FnOnce() -> Vec<f64>>(
    x: &[f64],
    f0: f64,
    dg0: f64,
    d: &[f64],
    f: &mut impl FnMut(&[f64]) -> (f64, G),
    bounds: Option<&Bounds>,
) -> Option<(Vec<f64>, f64, Vec<f64>)> {
    const C1: f64 = 1e-4;
    const C2: f64 = 0.9;
    let brk = bounds.map(|b| b.breakpoints(x, d));
    let t_max = brk.as_deref().map_or(f64::INFINITY, |brk| {
        brk.iter().fold(f64::INFINITY, |a, &t| a.min(t))
    });
    let mut probe = |t: f64| {
        let xt: Vec<f64> = match (bounds, &brk) {
            (Some(b), Some(brk)) => {
                let xt = b.step(x, d, brk, t);
                debug_assert!(b.contains(&xt), "projected step left the box");
                xt
            }
            _ => x.iter().zip(d).map(|(xi, di)| xi + t * di).collect(),
        };
        let (ft, grad) = f(&xt);
        (xt, ft, grad)
    };
    // The gradient of a probe that passed Armijo, and its slope along `d`.
    let slope = |grad: G| {
        let gt = grad();
        let dgt = dot(&gt, d);
        (gt, dgt)
    };

    let mut t_prev = 0.0;
    let mut f_prev = f0;
    let mut t = t_max.min(1.0);
    let mut bracket: Option<(f64, f64)> = None; // (lo, hi) with lo satisfying Armijo
    let mut f_lo = f0;
    let mut best: Option<(Vec<f64>, f64, Vec<f64>)> = None;

    for i in 0..MAX_LS_STEPS {
        let (xt, ft, grad) = probe(t);
        let armijo_fail = !ft.is_finite() || ft > f0 + C1 * t * dg0 || (i > 0 && ft >= f_prev);
        if armijo_fail {
            bracket = Some((t_prev, t));
            f_lo = f_prev;
            break;
        }
        let (gt, dgt) = slope(grad);
        if dgt.abs() <= -C2 * dg0 {
            return Some((xt, ft, gt)); // both Wolfe conditions hold
        }
        if dgt >= 0.0 {
            best = Some((xt, ft, gt)); // Armijo holds: usable fallback
            bracket = Some((t, t_prev));
            f_lo = ft;
            break;
        }
        if t >= t_max {
            return Some((xt, ft, gt)); // still descending at the box edge
        }
        best = Some((xt, ft, gt)); // Armijo holds: usable fallback
        t_prev = t;
        f_prev = ft;
        t = t_max.min(t * 2.0);
    }

    let (mut lo, mut hi) = bracket?;
    // Zoom by bisection.
    for _ in 0..MAX_LS_STEPS {
        let tm = 0.5 * (lo + hi);
        let (xt, ft, grad) = probe(tm);
        if !ft.is_finite() || ft > f0 + C1 * tm * dg0 || ft >= f_lo {
            hi = tm;
        } else {
            let (gt, dgt) = slope(grad);
            if dgt.abs() <= -C2 * dg0 {
                return Some((xt, ft, gt));
            }
            best = Some((xt.clone(), ft, gt.clone()));
            if dgt * (hi - lo) >= 0.0 {
                hi = lo;
            }
            lo = tm;
            f_lo = ft;
        }
        if (hi - lo).abs() < 1e-16 {
            break;
        }
    }
    // Accept the best Armijo point even if curvature never got satisfied.
    best
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// [`lbfgs`] on an eager `(value, gradient)` objective. The returned
    /// log holds one entry per evaluation, in call order: whether the
    /// optimizer ran that evaluation's deferred gradient.
    fn run_logged(
        mut f: impl FnMut(&[f64]) -> (f64, Vec<f64>),
        x0: &[f64],
        opts: &LbfgsOptions,
        bounds: Option<&Bounds>,
    ) -> (LbfgsResult, Vec<bool>) {
        let log = RefCell::new(Vec::new());
        let res = lbfgs(
            x0,
            |x: &[f64]| {
                let (v, g) = f(x);
                let probe = {
                    let mut log = log.borrow_mut();
                    log.push(false);
                    log.len() - 1
                };
                let log = &log;
                (v, move || {
                    log.borrow_mut()[probe] = true;
                    g
                })
            },
            opts,
            bounds,
        );
        (res, log.into_inner())
    }

    /// The optimizer with an eager gradient, as it was before gradients
    /// were deferred: the same iteration with the objective's gradient
    /// taken at every evaluation. The returned log holds, per evaluation
    /// in call order, whether it is the start point or a probe that
    /// passed the Armijo test — the evaluations whose gradient is read.
    fn lbfgs_eager_reference(
        mut f: impl FnMut(&[f64]) -> (f64, Vec<f64>),
        x0: &[f64],
        opts: &LbfgsOptions,
        bounds: Option<&Bounds>,
    ) -> (LbfgsResult, Vec<bool>) {
        let mut read = vec![true];
        let mut x = x0.to_vec();
        if let Some(b) = bounds {
            b.project(&mut x);
        }
        let (mut fx, mut gx) = f(&x);
        let f_start = fx;
        let done = |x, f, grad, iterations, stop, read| {
            let res = LbfgsResult {
                x,
                f,
                f_start,
                grad,
                iterations,
                stop,
            };
            (res, read)
        };
        if !fx.is_finite() {
            return done(x, fx, gx, 0, StopReason::BadStart, read);
        }
        let mut s_hist: Vec<Vec<f64>> = Vec::new();
        let mut y_hist: Vec<Vec<f64>> = Vec::new();
        let mut rho_hist: Vec<f64> = Vec::new();
        let (mut iterations, mut stop, mut stall_count) = (0, StopReason::MaxIterations, 0);
        for iter in 0..opts.max_iter {
            iterations = iter + 1;
            let pg: Vec<f64> = (0..gx.len())
                .map(|i| match bounds {
                    Some(b) if b.held(i, x[i], gx[i]) => 0.0,
                    _ => gx[i],
                })
                .collect();
            if pg.iter().fold(0.0f64, |a, &g| a.max(g.abs())) < GRAD_TOL {
                stop = StopReason::GradientSmall;
                break;
            }
            let mut q = pg.clone();
            let k = s_hist.len();
            let mut alpha = vec![0.0; k];
            for i in (0..k).rev() {
                alpha[i] = rho_hist[i] * dot(&s_hist[i], &q);
                for (qj, yj) in q.iter_mut().zip(&y_hist[i]) {
                    *qj -= alpha[i] * yj;
                }
            }
            let gamma = match k {
                0 => 1.0,
                _ => {
                    let yy = dot(&y_hist[k - 1], &y_hist[k - 1]);
                    if yy > 0.0 {
                        dot(&s_hist[k - 1], &y_hist[k - 1]) / yy
                    } else {
                        1.0
                    }
                }
            };
            for qj in q.iter_mut() {
                *qj *= gamma;
            }
            for i in 0..k {
                let beta = rho_hist[i] * dot(&y_hist[i], &q);
                for (qj, sj) in q.iter_mut().zip(&s_hist[i]) {
                    *qj += (alpha[i] - beta) * sj;
                }
            }
            let mut d: Vec<f64> = q.iter().map(|v| -v).collect();
            if let Some(b) = bounds {
                b.confine(&x, &gx, &mut d);
            }
            let mut dg0 = dot(&d, &gx);
            if dg0 >= 0.0 {
                d = pg.iter().map(|v| -v).collect();
                dg0 = -dot(&pg, &pg);
                s_hist.clear();
                y_hist.clear();
                rho_hist.clear();
            }

            let search = wolfe_eager_reference(&x, fx, dg0, &d, &mut f, bounds, &mut read);
            let Some((x_new, f_new, g_new)) = search else {
                stop = StopReason::LineSearchFailed;
                break;
            };

            let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
            let y: Vec<f64> = g_new.iter().zip(&gx).map(|(a, b)| a - b).collect();
            let sy = dot(&s, &y);
            if sy > 1e-12 * norm(&s) * norm(&y) {
                if s_hist.len() == opts.history {
                    s_hist.remove(0);
                    y_hist.remove(0);
                    rho_hist.remove(0);
                }
                rho_hist.push(1.0 / sy);
                s_hist.push(s);
                y_hist.push(y);
            }
            let rel_dec = (fx - f_new) / fx.abs().max(1.0);
            (x, fx, gx) = (x_new, f_new, g_new);
            if (0.0..F_TOL).contains(&rel_dec) {
                stall_count += 1;
                if stall_count >= 5 {
                    stop = StopReason::ObjectiveStalled;
                    break;
                }
            } else {
                stall_count = 0;
            }
        }
        done(x, fx, gx, iterations, stop, read)
    }

    /// The strong-Wolfe search of [`lbfgs_eager_reference`], every probe
    /// with its gradient; marks in `read` each probe that passes Armijo.
    fn wolfe_eager_reference(
        x: &[f64],
        f0: f64,
        dg0: f64,
        d: &[f64],
        f: &mut impl FnMut(&[f64]) -> (f64, Vec<f64>),
        bounds: Option<&Bounds>,
        read: &mut Vec<bool>,
    ) -> Option<(Vec<f64>, f64, Vec<f64>)> {
        const C1: f64 = 1e-4;
        const C2: f64 = 0.9;
        let brk = bounds.map(|b| b.breakpoints(x, d));
        let t_max = brk.as_deref().map_or(f64::INFINITY, |brk| {
            brk.iter().fold(f64::INFINITY, |a, &t| a.min(t))
        });
        let mut probe = |t: f64, read: &mut Vec<bool>| {
            let xt = match (bounds, &brk) {
                (Some(b), Some(brk)) => b.step(x, d, brk, t),
                _ => x.iter().zip(d).map(|(xi, di)| xi + t * di).collect(),
            };
            let (ft, gt) = f(&xt);
            let dgt = dot(&gt, d);
            read.push(false);
            (xt, ft, gt, dgt)
        };
        let (mut t_prev, mut f_prev, mut t) = (0.0, f0, t_max.min(1.0));
        let (mut bracket, mut f_lo, mut best) = (None, f0, None);
        for i in 0..MAX_LS_STEPS {
            let (xt, ft, gt, dgt) = probe(t, read);
            if !ft.is_finite() || ft > f0 + C1 * t * dg0 || (i > 0 && ft >= f_prev) {
                bracket = Some((t_prev, t));
                f_lo = f_prev;
                break;
            }
            *read.last_mut().unwrap() = true;
            if dgt.abs() <= -C2 * dg0 {
                return Some((xt, ft, gt));
            }
            if dgt >= 0.0 {
                best = Some((xt, ft, gt));
                bracket = Some((t, t_prev));
                f_lo = ft;
                break;
            }
            if t >= t_max {
                return Some((xt, ft, gt));
            }
            best = Some((xt, ft, gt));
            t_prev = t;
            f_prev = ft;
            t = t_max.min(t * 2.0);
        }
        let (mut lo, mut hi) = bracket?;
        for _ in 0..MAX_LS_STEPS {
            let tm = 0.5 * (lo + hi);
            let (xt, ft, gt, dgt) = probe(tm, read);
            if !ft.is_finite() || ft > f0 + C1 * tm * dg0 || ft >= f_lo {
                hi = tm;
            } else {
                *read.last_mut().unwrap() = true;
                if dgt.abs() <= -C2 * dg0 {
                    return Some((xt, ft, gt));
                }
                best = Some((xt, ft, gt));
                if dgt * (hi - lo) >= 0.0 {
                    hi = lo;
                }
                lo = tm;
                f_lo = ft;
            }
            if (hi - lo).abs() < 1e-16 {
                break;
            }
        }
        best
    }

    /// `sum (x_i - i)^2`, minimum at `x_i = i`.
    fn bowl(x: &[f64]) -> (f64, Vec<f64>) {
        let mut v = 0.0;
        let mut g = vec![0.0; x.len()];
        for (i, &xi) in x.iter().enumerate() {
            let d = xi - i as f64;
            v += d * d;
            g[i] = 2.0 * d;
        }
        (v, g)
    }

    /// The 2-D Rosenbrock valley, minimum at `(1, 1)`.
    fn rosenbrock(x: &[f64]) -> (f64, Vec<f64>) {
        let (a, b) = (1.0, 100.0);
        let v = (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2);
        let g = vec![
            -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]),
            2.0 * b * (x[1] - x[0] * x[0]),
        ];
        (v, g)
    }

    fn rosenbrock_opts() -> LbfgsOptions {
        LbfgsOptions {
            max_iter: 500,
            ..Default::default()
        }
    }

    #[test]
    fn quadratic_bowl() {
        let res = run_logged(bowl, &[5.0; 4], &LbfgsOptions::default(), None).0;
        for (i, xi) in res.x.iter().enumerate() {
            assert!((xi - i as f64).abs() < 1e-5, "x[{i}] = {xi}");
        }
        assert!(res.f < 1e-9);
    }

    #[test]
    fn rosenbrock_2d() {
        let res = run_logged(rosenbrock, &[-1.2, 1.0], &rosenbrock_opts(), None).0;
        assert!((res.x[0] - 1.0).abs() < 1e-3, "x = {:?}", res.x);
        assert!((res.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn infeasible_region_respected() {
        // Objective infinite for x < 0.5: minimum of (x-0)^2 clipped at 0.5.
        let f = |x: &[f64]| {
            if x[0] < 0.5 {
                (f64::INFINITY, vec![0.0])
            } else {
                (x[0] * x[0], vec![2.0 * x[0]])
            }
        };
        let res = run_logged(f, &[2.0], &LbfgsOptions::default(), None).0;
        assert!(res.x[0] >= 0.5);
        assert!(
            res.x[0] < 0.75,
            "should approach the boundary, got {}",
            res.x[0]
        );
    }

    #[test]
    fn bad_start_reported() {
        let f = |_: &[f64]| (f64::NAN, move || vec![0.0]);
        let res = lbfgs(&[0.0], f, &LbfgsOptions::default(), None);
        assert_eq!(res.stop, StopReason::BadStart);
    }

    #[test]
    fn already_at_minimum_stops_fast() {
        let f = |x: &[f64]| {
            let x0 = x[0];
            (x0 * x0, move || vec![2.0 * x0])
        };
        let res = lbfgs(&[0.0], f, &LbfgsOptions::default(), None);
        assert_eq!(res.stop, StopReason::GradientSmall);
        assert!(res.iterations <= 1);
    }

    #[test]
    fn monotone_nonincreasing_objective() {
        // Track every accepted objective value; they must never increase.
        use std::cell::RefCell;
        let best = RefCell::new(f64::INFINITY);
        let f = |x: &[f64]| {
            let v = (x[0] - 3.0).powi(2) + 0.5 * (x[1] + 1.0).powi(4);
            let g = vec![2.0 * (x[0] - 3.0), 2.0 * (x[1] + 1.0).powi(3)];
            (v, g)
        };
        let res = run_logged(f, &[10.0, 10.0], &LbfgsOptions::default(), None).0;
        let mut b = best.borrow_mut();
        *b = res.f;
        assert!(res.f < 1e-4);
        assert!((res.x[0] - 3.0).abs() < 1e-2);
    }

    /// `sum (x_i - c_i)^2` with an infinite wall outside `[lo, hi]^n`,
    /// counting every evaluation that lands outside the box.
    fn walled_bowl<'a>(
        c: &'a [f64],
        lo: f64,
        hi: f64,
        outside: &'a std::cell::Cell<usize>,
    ) -> impl FnMut(&[f64]) -> (f64, Vec<f64>) + 'a {
        move |x: &[f64]| {
            if x.iter().any(|v| !(lo..=hi).contains(v)) {
                outside.set(outside.get() + 1);
                return (f64::INFINITY, vec![0.0; x.len()]);
            }
            let v = x.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
            let g = x.iter().zip(c).map(|(a, b)| 2.0 * (a - b)).collect();
            (v, g)
        }
    }

    #[test]
    fn bounded_minimum_on_bound_converges_there() {
        let c = [-1.0, 2.0, 7.0];
        let bounds = Bounds::new(vec![0.0; 3], vec![5.0; 3]);
        let outside = std::cell::Cell::new(0);
        let res = run_logged(
            walled_bowl(&c, 0.0, 5.0, &outside),
            &[3.0, 3.0, 3.0],
            &LbfgsOptions::default(),
            Some(&bounds),
        )
        .0;
        assert!(
            matches!(
                res.stop,
                StopReason::GradientSmall | StopReason::ObjectiveStalled
            ),
            "stopped with {:?}",
            res.stop
        );
        assert_eq!(res.x[0], 0.0, "lower bound not reached: {:?}", res.x);
        assert!((res.x[1] - 2.0).abs() < 1e-6, "{:?}", res.x);
        assert_eq!(res.x[2], 5.0, "upper bound not reached: {:?}", res.x);
        assert_eq!(outside.get(), 0, "probed outside the box");

        // The same problem without bounds runs into the wall.
        let res = run_logged(
            walled_bowl(&c, 0.0, 5.0, &outside),
            &[3.0, 3.0, 3.0],
            &LbfgsOptions::default(),
            None,
        )
        .0;
        assert_eq!(res.stop, StopReason::LineSearchFailed);
    }

    #[test]
    fn bounded_start_on_active_bound_makes_progress() {
        // x0 sits exactly on the bound its gradient pushes against: that
        // coordinate is held, the others still descend.
        let c = [-1.0, 2.0];
        let bounds = Bounds::new(vec![0.0; 2], vec![5.0; 2]);
        let outside = std::cell::Cell::new(0);
        let opts = LbfgsOptions {
            max_iter: 10,
            ..Default::default()
        };
        let res = run_logged(
            walled_bowl(&c, 0.0, 5.0, &outside),
            &[0.0, 4.5],
            &opts,
            Some(&bounds),
        )
        .0;
        assert!(
            res.f < res.f_start,
            "no progress: {} vs {}",
            res.f,
            res.f_start
        );
        assert_eq!(res.x[0], 0.0);
        assert!((res.x[1] - 2.0).abs() < 1e-6, "{:?}", res.x);
        assert_ne!(res.stop, StopReason::LineSearchFailed);
        assert_eq!(outside.get(), 0, "probed outside the box");
    }

    #[test]
    fn bounded_start_outside_box_is_projected() {
        let bounds = Bounds::new(vec![0.0], vec![1.0]);
        let outside = std::cell::Cell::new(0);
        let res = run_logged(
            walled_bowl(&[0.25], 0.0, 1.0, &outside),
            &[3.0],
            &LbfgsOptions::default(),
            Some(&bounds),
        )
        .0;
        assert!(res.f_start.is_finite());
        assert!((res.x[0] - 0.25).abs() < 1e-6);
        assert_eq!(outside.get(), 0);
    }

    #[test]
    fn interior_minimum_ignores_bounds_bitwise() {
        // A box that never binds along the path gives the unconstrained
        // iterates exactly.
        let f = |x: &[f64]| {
            let v = (x[0] - 3.0).powi(2) + 0.5 * (x[1] + 1.0).powi(4);
            let g = vec![2.0 * (x[0] - 3.0), 2.0 * (x[1] + 1.0).powi(3)];
            (v, g)
        };
        let bounds = Bounds::new(vec![-1e6; 2], vec![1e6; 2]);
        let free = run_logged(f, &[10.0, 10.0], &LbfgsOptions::default(), None).0;
        let boxed = run_logged(f, &[10.0, 10.0], &LbfgsOptions::default(), Some(&bounds)).0;
        assert_eq!(free.x, boxed.x);
        assert_eq!(free.f.to_bits(), boxed.f.to_bits());
        assert_eq!(free.iterations, boxed.iterations);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run `make()`'s objective through [`lbfgs`] and through the eager
    /// reference, check that they agree bitwise and that exactly the
    /// start point and the Armijo-passing probes had their gradient
    /// computed, and return how many probes failed Armijo.
    fn check_against_eager<F: FnMut(&[f64]) -> (f64, Vec<f64>)>(
        case: &str,
        make: impl Fn() -> F,
        x0: &[f64],
        opts: &LbfgsOptions,
        bounds: Option<&Bounds>,
    ) -> usize {
        let (res, computed) = run_logged(make(), x0, opts, bounds);
        let (eager, read) = lbfgs_eager_reference(make(), x0, opts, bounds);
        assert_eq!(bits(&res.x), bits(&eager.x), "{case}: x");
        assert_eq!(res.f.to_bits(), eager.f.to_bits(), "{case}: f");
        assert_eq!(res.f_start.to_bits(), eager.f_start.to_bits(), "{case}");
        assert_eq!(bits(&res.grad), bits(&eager.grad), "{case}: grad");
        assert_eq!(res.iterations, eager.iterations, "{case}: iterations");
        assert_eq!(res.stop, eager.stop, "{case}: stop");
        assert_eq!(computed, read, "{case}: gradients computed vs read");
        read.iter().filter(|&&r| !r).count()
    }

    #[test]
    fn deferred_gradients_match_the_eager_reference_bitwise() {
        let outside = std::cell::Cell::new(0);
        let default = LbfgsOptions::default();
        let box3 = Bounds::new(vec![0.0; 3], vec![5.0; 3]);
        let box2 = Bounds::new(vec![0.0; 2], vec![5.0; 2]);
        let box1 = Bounds::new(vec![0.0], vec![1.0]);
        let ten = LbfgsOptions {
            max_iter: 10,
            ..Default::default()
        };
        let c3 = [-1.0, 2.0, 7.0];
        let walled3 = || walled_bowl(&c3, 0.0, 5.0, &outside);
        let failed = [
            check_against_eager("bowl", || bowl, &[5.0; 4], &default, None),
            check_against_eager(
                "rosenbrock",
                || rosenbrock,
                &[-1.2, 1.0],
                &rosenbrock_opts(),
                None,
            ),
            check_against_eager("walled", walled3, &[3.0; 3], &default, None),
            check_against_eager("walled, box", walled3, &[3.0; 3], &default, Some(&box3)),
            check_against_eager(
                "start on a bound",
                || walled_bowl(&[-1.0, 2.0], 0.0, 5.0, &outside),
                &[0.0, 4.5],
                &ten,
                Some(&box2),
            ),
            check_against_eager(
                "start outside the box",
                || walled_bowl(&[0.25], 0.0, 1.0, &outside),
                &[3.0],
                &default,
                Some(&box1),
            ),
        ];
        // The unbounded walled bowl probes the wall, and Rosenbrock's
        // valley overshoots: both have probes whose gradient is skipped.
        assert!(failed[1] > 0 && failed[2] > 0, "failed probes: {failed:?}");
    }
}
