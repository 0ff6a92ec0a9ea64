//! Sobol' sensitivity index estimators with bootstrap confidence
//! intervals — the numerical core of the paper's
//! `QuerySensitivityAnalysis` (SALib-compatible estimators).
//!
//! Given Saltelli evaluations:
//!
//! - first-order `S1_i = mean(f(B) * (f(AB_i) - f(A))) / V`
//!   (Saltelli et al. 2010),
//! - total-effect `ST_i = mean((f(A) - f(AB_i))^2) / (2 V)`
//!   (Jansen 1999),
//!
//! where `V` is the variance of the pooled base evaluations. Confidence
//! intervals are percentile-bootstrap half-widths at z = 1.96, matching
//! what SALib reports as `S1_conf` / `ST_conf`.

use crate::saltelli::SaltelliEvaluations;
use crowdtune_linalg::stats;
use crowdtune_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sensitivity indices for one input parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSensitivity {
    /// First-order (main effect) index.
    pub s1: f64,
    /// Bootstrap 95% confidence half-width of `s1`.
    pub s1_conf: f64,
    /// Total-effect index.
    pub st: f64,
    /// Bootstrap 95% confidence half-width of `st`.
    pub st_conf: f64,
}

/// Full Sobol analysis result.
#[derive(Debug, Clone)]
pub struct SobolResult {
    /// Per-parameter indices, in input order.
    pub params: Vec<ParamSensitivity>,
    /// Variance of the pooled base evaluations (the normalizer).
    pub variance: f64,
}

impl SobolResult {
    /// Indices of parameters ranked by total effect, descending.
    pub fn ranking_by_total_effect(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.params.len()).collect();
        idx.sort_by(|&a, &b| {
            self.params[b]
                .st
                .partial_cmp(&self.params[a].st)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }
}

/// Number of bootstrap resamples used for confidence intervals.
const N_BOOT: usize = 100;
const Z_95: f64 = 1.96;

/// Compute Sobol indices from Saltelli evaluations.
///
/// `seed` drives the bootstrap resampling only.
pub fn sobol_indices(ev: &SaltelliEvaluations, seed: u64) -> SobolResult {
    let n = ev.fa.len();
    assert!(n > 0, "no evaluations");
    assert_eq!(ev.fb.len(), n);
    let d = ev.fab.len();
    let span = obs::span(obs::names::SPAN_SOBOL_INDICES);
    let bootstrap = if n > 1 { N_BOOT as u64 } else { 0 };
    obs::count(obs::names::CTR_SENS_BOOTSTRAP, bootstrap * d as u64);

    let pooled: Vec<f64> = ev.fa.iter().chain(ev.fb.iter()).copied().collect();
    let variance = stats::variance(&pooled);

    let mut params = Vec::with_capacity(d);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..d {
        let fab = &ev.fab[i];
        assert_eq!(fab.len(), n);
        let (s1, st) = indices_from_slices(&ev.fa, &ev.fb, fab, variance);

        // Bootstrap over the N base samples.
        let mut s1_samples = Vec::with_capacity(N_BOOT);
        let mut st_samples = Vec::with_capacity(N_BOOT);
        if n > 1 {
            for _ in 0..N_BOOT {
                let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let fa_b: Vec<f64> = idx.iter().map(|&k| ev.fa[k]).collect();
                let fb_b: Vec<f64> = idx.iter().map(|&k| ev.fb[k]).collect();
                let fab_b: Vec<f64> = idx.iter().map(|&k| fab[k]).collect();
                let pooled_b: Vec<f64> = fa_b.iter().chain(fb_b.iter()).copied().collect();
                let var_b = stats::variance(&pooled_b);
                let (s1_b, st_b) = indices_from_slices(&fa_b, &fb_b, &fab_b, var_b);
                s1_samples.push(s1_b);
                st_samples.push(st_b);
            }
        }
        params.push(ParamSensitivity {
            s1,
            s1_conf: Z_95 * stats::std_dev(&s1_samples),
            st,
            st_conf: Z_95 * stats::std_dev(&st_samples),
        });
    }
    obs::record_with(|| obs::Event::Sobol {
        dim: d as u64,
        n: n as u64,
        bootstrap,
        variance: obs::finite(variance),
        duration_us: span.elapsed_ns() / 1_000,
    });
    SobolResult { params, variance }
}

fn indices_from_slices(fa: &[f64], fb: &[f64], fab: &[f64], variance: f64) -> (f64, f64) {
    let n = fa.len() as f64;
    if variance <= 0.0 {
        return (0.0, 0.0);
    }
    let mut s1_num = 0.0;
    let mut st_num = 0.0;
    for k in 0..fa.len() {
        s1_num += fb[k] * (fab[k] - fa[k]);
        let dak = fa[k] - fab[k];
        st_num += dak * dak;
    }
    let s1 = (s1_num / n) / variance;
    let st = (st_num / (2.0 * n)) / variance;
    (s1, st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saltelli::SaltelliDesign;

    /// The Ishigami function: the standard Sobol-analysis benchmark with
    /// known analytic indices (a = 7, b = 0.1):
    /// S1 = [0.3139, 0.4424, 0.0], ST = [0.5576, 0.4424, 0.2437].
    fn ishigami(x: &[f64]) -> f64 {
        let map = |u: f64| -std::f64::consts::PI + 2.0 * std::f64::consts::PI * u;
        let (x1, x2, x3) = (map(x[0]), map(x[1]), map(x[2]));
        x1.sin() + 7.0 * x2.sin().powi(2) + 0.1 * x3.powi(4) * x1.sin()
    }

    #[test]
    fn ishigami_indices_match_analytic() {
        let design = SaltelliDesign::generate(3, 4096, 0);
        let ev = design.evaluate(ishigami);
        let res = sobol_indices(&ev, 1);
        let s1_expect = [0.3139, 0.4424, 0.0];
        let st_expect = [0.5576, 0.4424, 0.2437];
        for i in 0..3 {
            assert!(
                (res.params[i].s1 - s1_expect[i]).abs() < 0.05,
                "S1[{i}] = {} want {}",
                res.params[i].s1,
                s1_expect[i]
            );
            assert!(
                (res.params[i].st - st_expect[i]).abs() < 0.05,
                "ST[{i}] = {} want {}",
                res.params[i].st,
                st_expect[i]
            );
        }
    }

    #[test]
    fn additive_model_s1_sums_to_one_and_matches_st() {
        // f = 3 x0 + 1 x1: purely additive, so ST_i == S1_i and the S1s
        // are proportional to the coefficient variances (9 : 1).
        let design = SaltelliDesign::generate(2, 4096, 0);
        let ev = design.evaluate(|x| 3.0 * x[0] + x[1]);
        let res = sobol_indices(&ev, 2);
        let total: f64 = res.params.iter().map(|p| p.s1).sum();
        assert!((total - 1.0).abs() < 0.05, "sum S1 = {total}");
        assert!((res.params[0].s1 - 0.9).abs() < 0.05);
        assert!((res.params[1].s1 - 0.1).abs() < 0.05);
        for p in &res.params {
            assert!(
                (p.s1 - p.st).abs() < 0.05,
                "additive: S1 {} vs ST {}",
                p.s1,
                p.st
            );
        }
    }

    #[test]
    fn irrelevant_parameter_scores_zero() {
        let design = SaltelliDesign::generate(3, 2048, 0);
        let ev = design.evaluate(|x| (x[0] * 6.0).sin() + x[1]);
        let res = sobol_indices(&ev, 3);
        assert!(res.params[2].s1.abs() < 0.03);
        assert!(res.params[2].st.abs() < 0.03);
    }

    #[test]
    fn interaction_shows_in_st_not_s1() {
        // f = x0 * x1 (centered): pure interaction — low S1, high ST.
        let design = SaltelliDesign::generate(2, 4096, 0);
        let ev = design.evaluate(|x| (x[0] - 0.5) * (x[1] - 0.5));
        let res = sobol_indices(&ev, 4);
        for p in &res.params {
            assert!(p.s1.abs() < 0.1, "S1 should be ~0, got {}", p.s1);
            assert!(p.st > 0.8, "ST should be ~1, got {}", p.st);
        }
    }

    #[test]
    fn constant_model_all_zero() {
        let design = SaltelliDesign::generate(2, 256, 0);
        let ev = design.evaluate(|_| 42.0);
        let res = sobol_indices(&ev, 5);
        assert_eq!(res.variance, 0.0);
        for p in &res.params {
            assert_eq!(p.s1, 0.0);
            assert_eq!(p.st, 0.0);
        }
    }

    #[test]
    fn ranking_and_influential() {
        let design = SaltelliDesign::generate(3, 2048, 0);
        let ev = design.evaluate(|x| 5.0 * x[2] + 0.5 * x[0]);
        let res = sobol_indices(&ev, 6);
        let rank = res.ranking_by_total_effect();
        assert_eq!(rank[0], 2);
        assert_eq!(rank[1], 0);
        assert!(res.params[2].st > 0.05);
        assert!(res.params[1].st <= 0.05);
    }

    #[test]
    fn confidence_shrinks_with_more_samples() {
        let small = {
            let d = SaltelliDesign::generate(2, 128, 0);
            sobol_indices(&d.evaluate(|x| x[0] * 2.0 + (x[1] * 9.0).sin()), 7)
        };
        let large = {
            let d = SaltelliDesign::generate(2, 8192, 0);
            sobol_indices(&d.evaluate(|x| x[0] * 2.0 + (x[1] * 9.0).sin()), 7)
        };
        assert!(
            large.params[0].s1_conf < small.params[0].s1_conf,
            "conf should shrink: {} -> {}",
            small.params[0].s1_conf,
            large.params[0].s1_conf
        );
    }
}
