//! Multitask TLA on the LCM joint GP (paper §V-A).
//!
//! Two variants:
//!
//! - `Multitask(PS)` — GPTune 2021: sources contribute *pseudo samples*
//!   drawn from their pre-trained single-task GP means; the LCM is fitted
//!   jointly on pseudo + true target samples, and each iteration also
//!   extends the pseudo sets (the LCM "predicts the next sample for all
//!   tasks" but only the target is truly evaluated).
//! - `Multitask(TS)` — **this paper**: the LCM consumes every *true*
//!   source sample directly (unequal per-task sample counts), so the
//!   model sees the full collected knowledge of the crowd.

use super::{random_proposal, TlaContext, TlaStrategy};
use crate::acquisition::propose_ei_failure_aware;
use crowdtune_gp::{Lcm, LcmConfig, TaskData};
use crowdtune_obs as obs;
use rand::rngs::StdRng;

/// L-BFGS iteration cap of a cold (default-start) LCM fit.
const COLD_FIT_ITERS: usize = 35;
/// L-BFGS iteration cap of a `Multitask(TS)` refit warm-started from the
/// previous fit's θ: consecutive refits differ by one target sample, so
/// the optimum moves little.
const WARM_REFIT_ITERS: usize = 10;

/// `Multitask(TS)`: LCM over true source samples.
///
/// Every refit after the first in a run starts L-BFGS from the previous
/// fit's hyperparameters with a 10-iteration cap (35 for a cold fit) and
/// is journaled as a `warmstart` event.
pub struct MultitaskTs {
    /// LCM refit period (1 = every proposal; the paper refits every
    /// evaluation, larger values trade fidelity for speed on big source
    /// sets).
    pub refit_every: usize,
    cached: Option<(Lcm, usize)>, // (model, target count when fitted)
}

impl MultitaskTs {
    /// New strategy refitting on every proposal.
    pub fn new() -> Self {
        MultitaskTs {
            refit_every: 1,
            cached: None,
        }
    }
}

impl Default for MultitaskTs {
    fn default() -> Self {
        Self::new()
    }
}

impl TlaStrategy for MultitaskTs {
    fn name(&self) -> &str {
        "Multitask(TS)"
    }

    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64> {
        let target_idx = ctx.sources.len();
        let needs_fit = match &self.cached {
            Some((_, n_at_fit)) => {
                ctx.target.len() >= n_at_fit + self.refit_every.max(1)
                    || ctx.target.len() < *n_at_fit
            }
            None => true,
        };
        if needs_fit {
            // Warm-start from the previous fit of the same run: a shrunken
            // target means a new run, which starts cold.
            let warm = self
                .cached
                .as_ref()
                .filter(|(lcm, n_at_fit)| {
                    ctx.target.len() >= *n_at_fit && lcm.n_tasks() == target_idx + 1
                })
                .map(|(lcm, _)| lcm.pack_theta());
            let mut tasks: Vec<TaskData> = ctx
                .sources
                .iter()
                .map(|s| {
                    let d = s.data.subsample(ctx.max_lcm_samples);
                    TaskData { x: d.x, y: d.y }
                })
                .collect();
            tasks.push(TaskData {
                x: ctx.target.x.clone(),
                y: ctx.target.y.clone(),
            });
            let mut config = LcmConfig::new(ctx.dims.to_vec());
            config.restarts = 0;
            config.max_opt_iter = if warm.is_some() {
                WARM_REFIT_ITERS
            } else {
                COLD_FIT_ITERS
            };
            match Lcm::fit_with_starts(&tasks, &config, rng, warm.as_deref()) {
                Ok(lcm) => {
                    if warm.is_some() {
                        journal_warm_refit(&lcm);
                    }
                    self.cached = Some((lcm, ctx.target.len()));
                }
                Err(_) => {
                    if self.cached.is_none() {
                        return random_proposal(ctx.dim(), rng);
                    }
                }
            }
        }
        let (lcm, _) = self.cached.as_ref().expect("cached or returned");
        let surrogate = crate::acquisition::LcmTaskSurrogate {
            lcm,
            task: target_idx,
        };
        propose_ei_failure_aware(
            &surrogate,
            ctx.dim(),
            ctx.incumbent(),
            &ctx.target.x,
            ctx.failed,
            ctx.search,
            ctx.valid,
            rng,
        )
    }
}

/// Journal one warm-started LCM refit: NLL per sample at the warm start
/// and at the fitted optimum (raw units, both on the refit's data) and
/// the L-BFGS iterations it took.
fn journal_warm_refit(lcm: &Lcm) {
    obs::count(obs::names::CTR_WARMSTART_REDUCED, 1);
    let n = lcm.n_samples() as f64;
    let stats = lcm.fit_stats();
    obs::record_with(|| obs::Event::Warmstart {
        model: "lcm".to_string(),
        warm_nll: obs::finite(stats.start_nll / n),
        best_nll: obs::finite(lcm.nll_raw() / n),
        restarts: 1,
        reduced: true,
        iterations: Some(stats.iterations as u64),
    });
}

/// `Multitask(PS)`: LCM over pseudo samples from the source GPs.
pub struct MultitaskPs {
    /// Pseudo samples seeded per source before the first fit.
    pub n_seed: usize,
    /// Cap on pseudo samples per source.
    pub max_pseudo: usize,
    /// Per-source pseudo datasets (inputs + source-GP-mean outputs).
    pseudo: Vec<crate::data::Dataset>,
}

impl MultitaskPs {
    /// New strategy with the default seeding (10 pseudo samples/source).
    pub fn new() -> Self {
        MultitaskPs {
            n_seed: 10,
            max_pseudo: 60,
            pseudo: Vec::new(),
        }
    }

    fn ensure_seeded(&mut self, ctx: &TlaContext<'_>) {
        if self.pseudo.len() == ctx.sources.len() {
            return;
        }
        self.pseudo = ctx
            .sources
            .iter()
            .map(|s| {
                let mut d = crate::data::Dataset::default();
                // Deterministic stratified seed locations: centers of a
                // scrambled-free Sobol' prefix.
                let mut sob = crowdtune_space::Sobol::new(ctx.dim().min(21));
                sob.skip(1);
                for _ in 0..self.n_seed {
                    let mut x = sob.next_point();
                    x.truncate(ctx.dim());
                    while x.len() < ctx.dim() {
                        x.push(0.5);
                    }
                    let y = s.gp.predict(&x).mean;
                    d.push(x, y);
                }
                d
            })
            .collect();
    }
}

impl Default for MultitaskPs {
    fn default() -> Self {
        Self::new()
    }
}

impl TlaStrategy for MultitaskPs {
    fn name(&self) -> &str {
        "Multitask(PS)"
    }

    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64> {
        self.ensure_seeded(ctx);
        let target_idx = ctx.sources.len();
        let mut tasks: Vec<TaskData> = self
            .pseudo
            .iter()
            .map(|d| TaskData {
                x: d.x.clone(),
                y: d.y.clone(),
            })
            .collect();
        tasks.push(TaskData {
            x: ctx.target.x.clone(),
            y: ctx.target.y.clone(),
        });
        let mut config = LcmConfig::new(ctx.dims.to_vec());
        config.restarts = 0;
        config.max_opt_iter = COLD_FIT_ITERS;
        let Ok(lcm) = Lcm::fit(&tasks, &config, rng) else {
            return random_proposal(ctx.dim(), rng);
        };
        // The LCM "predicts the next sample for every task": extend each
        // source's pseudo set at that source's own EI maximizer, with the
        // pseudo output taken from the source GP mean (never a real run).
        for (i, source) in ctx.sources.iter().enumerate() {
            if self.pseudo[i].len() >= self.max_pseudo {
                continue;
            }
            let best = self.pseudo[i].best().unwrap_or(0.0);
            let best_idx = self.pseudo[i]
                .y
                .iter()
                .position(|&v| v == best)
                .unwrap_or(0);
            let inc_x = self.pseudo[i].x[best_idx].clone();
            let surrogate = crate::acquisition::LcmTaskSurrogate { lcm: &lcm, task: i };
            let x_next = propose_ei_failure_aware(
                &surrogate,
                ctx.dim(),
                Some((inc_x.as_slice(), best)),
                &self.pseudo[i].x,
                &[],
                ctx.search,
                ctx.valid,
                rng,
            );
            let y_pseudo = source.gp.predict(&x_next).mean;
            self.pseudo[i].push(x_next, y_pseudo);
        }
        let surrogate = crate::acquisition::LcmTaskSurrogate {
            lcm: &lcm,
            task: target_idx,
        };
        propose_ei_failure_aware(
            &surrogate,
            ctx.dim(),
            ctx.incumbent(),
            &ctx.target.x,
            ctx.failed,
            ctx.search,
            ctx.valid,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::SearchOptions;
    use crate::data::Dataset;
    use crate::tla::testutil::{quad_source_target, target_objective};
    use crate::tla::SourceTask;
    use crowdtune_gp::DimKind;
    use rand::SeedableRng;

    fn ctx<'a>(
        sources: &'a [SourceTask],
        target: &'a Dataset,
        search: &'a SearchOptions,
    ) -> TlaContext<'a> {
        TlaContext {
            dims: &[DimKind::Continuous],
            sources,
            target,
            search,
            max_lcm_samples: 60,
            valid: None,
            failed: &[],
        }
    }

    #[test]
    fn ts_proposal_uses_source_knowledge() {
        // With 2 target samples far from the optimum, the LCM's transfer
        // should already aim near the correlated source's optimum region.
        let (sources, mut target) = quad_source_target(25, 0);
        target.push(vec![0.9], target_objective(0.9));
        target.push(vec![0.95], target_objective(0.95));
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let mut strat = MultitaskTs::new();
        let mut rng = StdRng::seed_from_u64(21);
        let x = strat.propose(&c, &mut rng);
        assert!(x[0] < 0.75, "transfer should pull away from 0.9: {x:?}");
    }

    #[test]
    fn ts_cache_respects_refit_period() {
        let (sources, mut target) = quad_source_target(20, 0);
        target.push(vec![0.5], target_objective(0.5));
        let search = SearchOptions::default();
        let mut strat = MultitaskTs {
            refit_every: 2,
            cached: None,
        };
        let mut rng = StdRng::seed_from_u64(23);
        let c = ctx(&sources, &target, &search);
        let _ = strat.propose(&c, &mut rng);
        let fitted_at = strat.cached.as_ref().unwrap().1;
        assert_eq!(fitted_at, 1);
        // One more sample: below the refit period, cache retained.
        target.push(vec![0.6], target_objective(0.6));
        let c = ctx(&sources, &target, &search);
        let _ = strat.propose(&c, &mut rng);
        assert_eq!(strat.cached.as_ref().unwrap().1, 1, "must not refit yet");
        // Two more: refits.
        target.push(vec![0.7], target_objective(0.7));
        let c = ctx(&sources, &target, &search);
        let _ = strat.propose(&c, &mut rng);
        assert_eq!(strat.cached.as_ref().unwrap().1, 3, "must refit now");
    }

    #[test]
    fn ps_seeds_pseudo_samples_and_grows_them() {
        let (sources, mut target) = quad_source_target(25, 0);
        target.push(vec![0.8], target_objective(0.8));
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let mut strat = MultitaskPs::new();
        let mut rng = StdRng::seed_from_u64(25);
        let _ = strat.propose(&c, &mut rng);
        assert_eq!(strat.pseudo.len(), 1);
        assert_eq!(strat.pseudo[0].len(), 11, "10 seeds + 1 growth");
        let _ = strat.propose(&c, &mut rng);
        assert_eq!(strat.pseudo[0].len(), 12);
    }

    #[test]
    fn ps_pseudo_outputs_come_from_source_gp() {
        let (sources, mut target) = quad_source_target(25, 0);
        target.push(vec![0.8], target_objective(0.8));
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let mut strat = MultitaskPs::new();
        let mut rng = StdRng::seed_from_u64(27);
        let _ = strat.propose(&c, &mut rng);
        for (x, &y) in strat.pseudo[0].x.iter().zip(&strat.pseudo[0].y) {
            let m = sources[0].gp.predict(x).mean;
            assert!((y - m).abs() < 1e-9, "pseudo output must equal the GP mean");
        }
    }

    #[test]
    fn ps_respects_pseudo_cap() {
        let (sources, mut target) = quad_source_target(25, 0);
        target.push(vec![0.8], target_objective(0.8));
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let mut strat = MultitaskPs {
            n_seed: 5,
            max_pseudo: 6,
            pseudo: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..5 {
            let _ = strat.propose(&c, &mut rng);
        }
        assert!(strat.pseudo[0].len() <= 6);
    }

    #[test]
    fn proposals_in_unit_cube() {
        let (sources, mut target) = quad_source_target(20, 0);
        target.push(vec![0.5], target_objective(0.5));
        let search = SearchOptions::default();
        let c = ctx(&sources, &target, &search);
        let mut rng = StdRng::seed_from_u64(31);
        for strat in [
            &mut MultitaskTs::new() as &mut dyn TlaStrategy,
            &mut MultitaskPs::new(),
        ] {
            let x = strat.propose(&c, &mut rng);
            assert_eq!(x.len(), 1);
            assert!((0.0..1.0).contains(&x[0]), "{}: {x:?}", strat.name());
        }
    }
}
