//! Weighted-sum TLA (paper §V-B/§V-C): combine the per-task GP
//! surrogates with an arithmetic mean of means (Eq. 1) and a geometric
//! mean of standard deviations (Eq. 2).
//!
//! Two weight policies:
//! - `Equal` — all weights 1 (HiPerBOt's default when unspecified),
//! - `Dynamic` — **this paper's** improvement: per-iteration weights from
//!   a non-negative linear regression of observed improvement gaps onto
//!   each surrogate's predicted gaps (§V-C), normalized by `y*` and
//!   `mu_i(x*)` to absorb scale differences between tasks.

use super::{random_proposal, TlaContext, TlaStrategy};
use crowdtune_gp::{Gp, GpConfig};
use crowdtune_linalg::{nnls, Matrix};
use crowdtune_obs as obs;
use rand::rngs::StdRng;

/// Weight policy for [`WeightedSum`].
#[derive(Debug, Clone, PartialEq)]
pub enum WeightPolicy {
    /// Equal weight 1 for every task.
    Equal,
    /// Per-iteration non-negative regression (the paper's improvement).
    Dynamic,
    /// Ablation variant: the same regression solved *without* the
    /// non-negativity constraint (plain least squares). Negative task
    /// weights flip a surrogate's contribution; DESIGN.md §7 benches this
    /// against the NNLS version.
    DynamicUnconstrained,
}

/// The weighted-sum TLA strategy.
#[derive(Debug, Clone)]
pub struct WeightedSum {
    policy: WeightPolicy,
    label: String,
}

impl WeightedSum {
    /// Equal weights (HiPerBOt default).
    pub fn equal() -> Self {
        WeightedSum {
            policy: WeightPolicy::Equal,
            label: "WeightedSum(equal)".into(),
        }
    }

    /// Dynamic regression weights (this paper).
    pub fn dynamic() -> Self {
        WeightedSum {
            policy: WeightPolicy::Dynamic,
            label: "WeightedSum(dynamic)".into(),
        }
    }

    /// Ablation: dynamic weights via unconstrained least squares.
    pub fn dynamic_unconstrained() -> Self {
        WeightedSum {
            policy: WeightPolicy::DynamicUnconstrained,
            label: "WeightedSum(dynamic-unconstrained)".into(),
        }
    }

    /// Compute the task weights (source order, then target), normalized
    /// to sum to 1.
    fn weights(&self, ctx: &TlaContext<'_>, models: &[&Gp]) -> Vec<f64> {
        let k = models.len();
        let fallback = vec![1.0 / k as f64; k];
        match &self.policy {
            WeightPolicy::Equal => fallback,
            WeightPolicy::Dynamic | WeightPolicy::DynamicUnconstrained => {
                self.dynamic_weights(ctx, models).unwrap_or(fallback)
            }
        }
    }

    /// The §V-C regression: for every observed target sample `(x_j, y_j)`
    /// and the incumbent `(x*, y*)`,
    /// `(y* - y_j)/|y*| ~= sum_i w_i (mu_i(x*) - mu_i(x_j))/|mu_i(x*)|`,
    /// solved for `w >= 0` with NNLS.
    fn dynamic_weights(&self, ctx: &TlaContext<'_>, models: &[&Gp]) -> Option<Vec<f64>> {
        let n = ctx.target.len();
        if n < 2 {
            return None; // no gaps to regress on yet
        }
        let (x_star, y_star) = ctx.incumbent()?;
        let k = models.len();
        let y_scale = y_star.abs().max(1e-12);
        // Predictions of every model at x*.
        let mu_star: Vec<f64> = models.iter().map(|m| m.predict(x_star).mean).collect();
        let mut a = Matrix::zeros(n, k);
        let mut b = vec![0.0; n];
        for j in 0..n {
            b[j] = (y_star - ctx.target.y[j]) / y_scale;
            for (i, m) in models.iter().enumerate() {
                let mu_j = m.predict(&ctx.target.x[j]).mean;
                let scale = mu_star[i].abs().max(1e-12);
                a[(j, i)] = (mu_star[i] - mu_j) / scale;
            }
        }
        let w = match self.policy {
            WeightPolicy::DynamicUnconstrained => crowdtune_linalg::lstsq(&a, &b),
            _ => nnls(&a, &b),
        };
        // Unconstrained solutions can be negative; normalize by the L1
        // norm so the magnitudes still sum to one.
        let l1: f64 = w.iter().map(|v| v.abs()).sum();
        if matches!(self.policy, WeightPolicy::DynamicUnconstrained) {
            if l1 > 1e-12 && w.iter().all(|v| v.is_finite()) {
                return Some(w.iter().map(|v| v / l1).collect());
            }
            return None;
        }
        normalize(w)
    }
}

fn normalize(w: Vec<f64>) -> Option<Vec<f64>> {
    let sum: f64 = w.iter().sum();
    if sum > 1e-12 && w.iter().all(|v| v.is_finite()) {
        Some(w.iter().map(|v| v / sum).collect())
    } else {
        None
    }
}

/// Combined surrogate per Eq. (1)/(2): arithmetic mean of means,
/// geometric mean of standard deviations.
pub(crate) struct CombinedSurrogate<'a> {
    pub models: Vec<&'a Gp>,
    pub weights: Vec<f64>,
}

impl CombinedSurrogate<'_> {
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let mut mean = 0.0;
        let mut log_std = 0.0;
        for (m, &w) in self.models.iter().zip(&self.weights) {
            let p = m.predict(x);
            mean += w * p.mean;
            log_std += w * p.std.max(1e-12).ln();
        }
        (mean, log_std.exp())
    }
}

impl TlaStrategy for WeightedSum {
    fn name(&self) -> &str {
        &self.label
    }

    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64> {
        // Per-task models: cached source GPs plus a fresh target GP.
        let mut models: Vec<&Gp> = ctx.sources.iter().map(|s| &s.gp).collect();
        let target_gp = if ctx.target.is_empty() {
            None
        } else {
            let mut config = GpConfig::new(ctx.dims.to_vec());
            config.restarts = 1;
            config.max_opt_iter = 40;
            Gp::fit(&ctx.target.x, &ctx.target.y, &config, rng).ok()
        };
        if let Some(gp) = &target_gp {
            models.push(gp);
        }
        if models.is_empty() {
            return random_proposal(ctx.dim(), rng);
        }
        let weights = self.weights(ctx, &models);
        obs::record_with(|| obs::Event::Weights {
            strategy: self.label.clone(),
            weights: weights.clone(),
            chosen: String::new(),
        });
        let combined = CombinedSurrogate { models, weights };
        let surrogate = |x: &[f64]| combined.predict(x);
        ctx.propose_from(&surrogate, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::SearchOptions;
    use crate::tla::testutil::{ctx, quad_source_target, target_objective};
    use rand::SeedableRng;

    #[test]
    fn equal_weights_proposal_near_source_optimum_with_no_target_data() {
        let (sources, _) = quad_source_target(30, 0);
        let empty = crate::data::Dataset::default();
        let search = SearchOptions::default();
        let c = ctx(&sources, &empty, &search);
        let mut strat = WeightedSum::equal();
        let mut rng = StdRng::seed_from_u64(5);
        let x = strat.propose(&c, &mut rng);
        // Source optimum is at 0.3; with only source knowledge the LCB
        // proposal should land near it.
        assert!((x[0] - 0.3).abs() < 0.2, "proposed {x:?}");
    }

    #[test]
    fn dynamic_weights_need_two_samples() {
        let (sources, mut target) = quad_source_target(30, 0);
        target.push(vec![0.9], target_objective(0.9));
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let strat = WeightedSum::dynamic();
        // Build the models list like propose() does.
        let models: Vec<&Gp> = c.sources.iter().map(|s| &s.gp).collect();
        assert!(strat.dynamic_weights(&c, &models).is_none());
    }

    #[test]
    fn dynamic_weights_nonnegative_and_normalized() {
        let (sources, mut target) = quad_source_target(30, 0);
        for &x in &[0.1, 0.5, 0.8, 0.35] {
            target.push(vec![x], target_objective(x));
        }
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let strat = WeightedSum::dynamic();
        let mut rng = StdRng::seed_from_u64(9);
        let mut config = GpConfig::continuous(1);
        config.restarts = 0;
        config.max_opt_iter = 25;
        let tgt_gp = Gp::fit(&target.x, &target.y, &config, &mut rng).unwrap();
        let mut models: Vec<&Gp> = c.sources.iter().map(|s| &s.gp).collect();
        models.push(&tgt_gp);
        let w = strat.dynamic_weights(&c, &models).unwrap();
        assert_eq!(w.len(), 2);
        assert!(w.iter().all(|&v| v >= 0.0));
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The target's own (correct) surrogate should carry substantial
        // weight on well-correlated data.
        assert!(w[1] > 0.2, "target weight {w:?}");
    }

    #[test]
    fn combined_model_minimum_tracks_target_optimum() {
        // With target data accumulated, the dynamically-weighted combined
        // surrogate's mean must bottom out near the target optimum 0.4
        // (a single EI proposal may legitimately explore elsewhere, so we
        // check the model rather than one proposal).
        let (sources, mut target) = quad_source_target(30, 0);
        for &x in &[0.15, 0.45, 0.6, 0.38, 0.42, 0.25, 0.7, 0.55] {
            target.push(vec![x], target_objective(x));
        }
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let strat = WeightedSum::dynamic();
        let mut rng = StdRng::seed_from_u64(11);
        let mut config = GpConfig::continuous(1);
        config.restarts = 1;
        let tgt_gp = Gp::fit(&target.x, &target.y, &config, &mut rng).unwrap();
        let mut models: Vec<&Gp> = c.sources.iter().map(|s| &s.gp).collect();
        models.push(&tgt_gp);
        let weights = strat.weights(&c, &models);
        let combined = CombinedSurrogate { models, weights };
        let argmin = (0..100)
            .map(|i| i as f64 / 100.0)
            .min_by(|&a, &b| {
                combined
                    .predict(&[a])
                    .0
                    .partial_cmp(&combined.predict(&[b]).0)
                    .unwrap()
            })
            .unwrap();
        assert!((argmin - 0.4).abs() < 0.15, "argmin {argmin}");
    }

    #[test]
    fn unconstrained_weights_l1_normalized() {
        let (sources, mut target) = quad_source_target(30, 0);
        for &x in &[0.1, 0.5, 0.8, 0.35, 0.6] {
            target.push(vec![x], target_objective(x));
        }
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let strat = WeightedSum::dynamic_unconstrained();
        let mut rng = StdRng::seed_from_u64(31);
        let mut config = GpConfig::continuous(1);
        config.restarts = 0;
        config.max_opt_iter = 25;
        let tgt_gp = Gp::fit(&target.x, &target.y, &config, &mut rng).unwrap();
        let mut models: Vec<&Gp> = c.sources.iter().map(|s| &s.gp).collect();
        models.push(&tgt_gp);
        let w = strat.dynamic_weights(&c, &models).unwrap();
        // L1-normalized; signs may be anything.
        let l1: f64 = w.iter().map(|v| v.abs()).sum();
        assert!((l1 - 1.0).abs() < 1e-9, "{w:?}");
        assert_eq!(strat.name(), "WeightedSum(dynamic-unconstrained)");
    }

    #[test]
    fn combined_surrogate_geometric_std() {
        let (sources, _) = quad_source_target(20, 0);
        let gp = &sources[0].gp;
        let combined = CombinedSurrogate {
            models: vec![gp, gp],
            weights: vec![0.5, 0.5],
        };
        let (m, s) = combined.predict(&[0.5]);
        let p = gp.predict(&[0.5]);
        assert!((m - p.mean).abs() < 1e-9);
        assert!(
            (s - p.std).abs() < 1e-9,
            "geometric mean of equal stds is the std"
        );
    }
}
