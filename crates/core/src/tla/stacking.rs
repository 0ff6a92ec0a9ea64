//! Stacking TLA (paper §V-D): Google Vizier's residual-model transfer.
//!
//! Sources are ordered by sample count (largest first). The first source
//! gets a plain GP; every later source gets a GP on the *residuals*
//! between its observations and the stack-so-far's predicted mean; the
//! target gets a residual GP on top of the full source stack. The
//! combined mean is the sum of all level means; the combined standard
//! deviation folds levels together with sample-count-weighted geometric
//! means (`beta = n_upper / (n_upper + n_lower)`).

use super::{random_proposal, TlaContext, TlaStrategy};
use crowdtune_gp::{DimKind, Gp, GpConfig};
use rand::rngs::StdRng;
use rand::Rng;

/// One fitted level of the stack.
struct Level {
    gp: Gp,
    n_samples: usize,
}

/// The stacking TLA strategy. The source stack is fitted lazily on the
/// first proposal and cached (source data never changes); the target
/// residual level is refitted every proposal.
pub struct Stacking {
    source_stack: Option<Vec<Level>>,
}

impl Stacking {
    /// New (lazily initialized) stacking strategy.
    pub fn new() -> Self {
        Stacking { source_stack: None }
    }

    fn fit_source_stack(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> &[Level] {
        if self.source_stack.is_none() {
            let mut order: Vec<usize> = (0..ctx.sources.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(ctx.sources[i].data.len()));
            let mut stack: Vec<Level> = Vec::with_capacity(order.len());
            for &i in &order {
                let data = &ctx.sources[i].data;
                // Residuals against the stack so far.
                let resid: Vec<f64> = data
                    .x
                    .iter()
                    .zip(&data.y)
                    .map(|(x, &y)| y - stack_mean(&stack, x))
                    .collect();
                if let Some(gp) = fit_level(&data.x, &resid, ctx.dims, rng) {
                    stack.push(Level {
                        gp,
                        n_samples: data.len(),
                    });
                }
            }
            self.source_stack = Some(stack);
        }
        self.source_stack.as_deref().expect("just fitted")
    }
}

impl Default for Stacking {
    fn default() -> Self {
        Self::new()
    }
}

fn fit_level<R: Rng>(x: &[Vec<f64>], resid: &[f64], dims: &[DimKind], rng: &mut R) -> Option<Gp> {
    if x.is_empty() {
        return None;
    }
    let mut config = GpConfig::new(dims.to_vec());
    config.restarts = 1;
    config.max_opt_iter = 40;
    Gp::fit(x, resid, &config, rng).ok()
}

fn stack_mean(stack: &[Level], x: &[f64]) -> f64 {
    stack.iter().map(|l| l.gp.predict(x).mean).sum()
}

/// Combined prediction over the source stack plus an optional target
/// level: summed means, chained sample-count-weighted geometric std.
fn stack_predict(stack: &[Level], target: Option<&Level>, x: &[f64]) -> (f64, f64) {
    let mut mean = 0.0;
    let mut std: Option<f64> = None;
    let mut n_lower = 0usize;
    for level in stack.iter().chain(target) {
        let p = level.gp.predict(x);
        mean += p.mean;
        std = Some(match std {
            None => p.std.max(1e-12),
            Some(prev) => {
                let beta = level.n_samples as f64 / (level.n_samples + n_lower).max(1) as f64;
                p.std.max(1e-12).powf(beta) * prev.powf(1.0 - beta)
            }
        });
        n_lower = level.n_samples;
    }
    (mean, std.unwrap_or(1.0))
}

impl TlaStrategy for Stacking {
    fn name(&self) -> &str {
        "Stacking"
    }

    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64> {
        self.fit_source_stack(ctx, rng);
        let stack = self.source_stack.as_deref().expect("fitted above");
        if stack.is_empty() && ctx.target.is_empty() {
            return random_proposal(ctx.dim(), rng);
        }
        // Target residual level.
        let target_level = if ctx.target.is_empty() {
            None
        } else {
            let resid: Vec<f64> = ctx
                .target
                .x
                .iter()
                .zip(&ctx.target.y)
                .map(|(x, &y)| y - stack_mean(stack, x))
                .collect();
            fit_level(&ctx.target.x, &resid, ctx.dims, rng).map(|gp| Level {
                gp,
                n_samples: ctx.target.len(),
            })
        };
        let surrogate = |x: &[f64]| stack_predict(stack, target_level.as_ref(), x);
        ctx.propose_from(&surrogate, rng)
    }
}

/// Build a [`Dataset`]-keyed helper used by tests: predict the stack mean
/// at a point (without a target level).
#[cfg(test)]
fn source_stack_mean_for_test(
    s: &mut Stacking,
    ctx: &TlaContext<'_>,
    rng: &mut StdRng,
    x: &[f64],
) -> f64 {
    s.fit_source_stack(ctx, rng);
    stack_mean(s.source_stack.as_deref().unwrap(), x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::SearchOptions;
    use crate::data::Dataset;
    use crate::tla::testutil::{ctx, quad_source_target, target_objective};
    use crate::tla::SourceTask;
    use rand::SeedableRng;

    #[test]
    fn source_stack_reproduces_single_source() {
        let (sources, _) = quad_source_target(30, 0);
        let empty = Dataset::default();
        let search = SearchOptions::default();
        let c = ctx(&sources, &empty, &search);
        let mut s = Stacking::new();
        let mut rng = StdRng::seed_from_u64(3);
        // With one source the stack mean must track the source function.
        for &x in &[0.2, 0.3, 0.5, 0.8] {
            let m = source_stack_mean_for_test(&mut s, &c, &mut rng, &[x]);
            let truth = 2.0 + 10.0 * (x - 0.3) * (x - 0.3);
            assert!((m - truth).abs() < 0.5, "stack mean {m} vs {truth} at {x}");
        }
    }

    #[test]
    fn residual_stack_of_two_sources() {
        // Second source = first + constant offset: the residual model
        // should absorb the offset and the stack should predict source 2.
        let mut rng = StdRng::seed_from_u64(7);
        let dims = vec![DimKind::Continuous];
        let mut d1 = Dataset::default();
        let mut d2 = Dataset::default();
        for i in 0..25 {
            let x = (i as f64 + 0.5) / 25.0;
            d1.push(vec![x], (x * 5.0).sin());
            // fewer samples for the second source
            if i % 2 == 0 {
                d2.push(vec![x], (x * 5.0).sin() + 2.0);
            }
        }
        let s1 = SourceTask::fit("s1", d1, &dims, &mut rng).unwrap();
        let s2 = SourceTask::fit("s2", d2, &dims, &mut rng).unwrap();
        let sources = vec![s1, s2];
        let empty = Dataset::default();
        let search = SearchOptions::default();
        let c = ctx(&sources, &empty, &search);
        let mut s = Stacking::new();
        for &x in &[0.25, 0.5, 0.75] {
            let m = source_stack_mean_for_test(&mut s, &c, &mut rng, &[x]);
            let truth = (x * 5.0).sin() + 2.0;
            assert!((m - truth).abs() < 0.6, "stack {m} vs {truth} at {x}");
        }
    }

    #[test]
    fn target_residuals_pull_prediction_to_target() {
        let (sources, mut target) = quad_source_target(30, 0);
        for &x in &[0.1, 0.35, 0.55, 0.8] {
            target.push(vec![x], target_objective(x));
        }
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let mut s = Stacking::new();
        let mut rng = StdRng::seed_from_u64(13);
        let x = s.propose(&c, &mut rng);
        assert!((0.0..1.0).contains(&x[0]));
        // Proposal lands in the neighborhood of the target optimum 0.4.
        assert!((x[0] - 0.4).abs() < 0.3, "proposed {x:?}");
    }

    #[test]
    fn no_sources_no_target_is_random_but_valid() {
        let sources: Vec<SourceTask> = Vec::new();
        let empty = Dataset::default();
        let search = SearchOptions::default();
        let c = ctx(&sources, &empty, &search);
        let mut s = Stacking::new();
        let mut rng = StdRng::seed_from_u64(17);
        let x = s.propose(&c, &mut rng);
        assert_eq!(x.len(), 1);
        assert!((0.0..1.0).contains(&x[0]));
    }

    #[test]
    fn stack_is_cached_across_proposals() {
        let (sources, target) = quad_source_target(20, 3);
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let mut s = Stacking::new();
        let mut rng = StdRng::seed_from_u64(19);
        let _ = s.propose(&c, &mut rng);
        let ptr1 = s.source_stack.as_ref().unwrap().as_ptr();
        let _ = s.propose(&c, &mut rng);
        let ptr2 = s.source_stack.as_ref().unwrap().as_ptr();
        assert_eq!(ptr1, ptr2, "source stack must not be refitted");
    }
}
