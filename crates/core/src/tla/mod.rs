//! The pool of Transfer-Learning-for-Autotuning (TLA) algorithms
//! (paper §V, Table I), plus the `NoTLA` baseline as the zero-source
//! member.
//!
//! Every algorithm consumes the same context — pre-collected *source
//! task* datasets (with a cached per-source GP) plus the live *target
//! task* history — and proposes the next unit-cube configuration to
//! evaluate. The tuner (see [`crate::tuner`]) owns the evaluate-update
//! loop and feeds each evaluation back via [`TlaStrategy::absorb`].

pub mod ensemble;
pub mod multitask;
pub mod notla;
pub mod stacking;
pub mod weighted;

use crate::acquisition::{
    propose, ProposalRequest, ProposalScratch, SearchOptions, Surrogate, ValidityFn,
};
use crate::data::Dataset;
use crate::tuner::{Constraint, EvalRecord, TuneConfig};
use crowdtune_gp::{DimKind, Gp, GpConfig};
use crowdtune_space::Space;
use rand::rngs::StdRng;
use rand::Rng;

/// A source task: its collected data and a GP fitted once on that data.
#[derive(Debug, Clone)]
pub struct SourceTask {
    /// Label for diagnostics (e.g. `"m=n=10000"`).
    pub name: String,
    /// The collected samples (unit cube + objective).
    pub data: Dataset,
    /// Surrogate fitted on `data` (cached; source data never changes
    /// during a tuning run).
    pub gp: Gp,
}

impl SourceTask {
    /// Fit the cached source GP and build the task.
    pub fn fit<R: Rng>(
        name: impl Into<String>,
        data: Dataset,
        dims: &[DimKind],
        rng: &mut R,
    ) -> Result<Self, crowdtune_gp::GpError> {
        let mut config = GpConfig::new(dims.to_vec());
        config.restarts = 1;
        config.max_opt_iter = 50;
        let gp = Gp::fit(&data.x, &data.y, &config, rng)?;
        Ok(SourceTask {
            name: name.into(),
            data,
            gp,
        })
    }
}

/// Everything a TLA algorithm sees when proposing the next configuration.
pub struct TlaContext<'a> {
    /// The tuning space.
    pub space: &'a Space,
    /// Per-dimension kinds of the tuning space.
    pub dims: &'a [DimKind],
    /// The source tasks.
    pub sources: &'a [SourceTask],
    /// The target task's history so far (successful evaluations only).
    pub target: &'a Dataset,
    /// Every evaluated unit point in order, failures included; its
    /// length is the index of the iteration being proposed.
    pub evaluated: &'a [Vec<f64>],
    /// Unit points of *failed* target evaluations (excluded from models,
    /// avoided by the candidate search).
    pub failed: &'a [Vec<f64>],
    /// Acquisition search options, snapped to the space's cells.
    pub search: &'a SearchOptions,
    /// The run's configuration (budget, initial design size, LCM sample
    /// cap, refit schedule, surrogate tier).
    pub config: &'a TuneConfig,
    /// The problem constraint over configurations, if any.
    pub constraint: Option<&'a Constraint<'a>>,
    /// The same constraint over unit-cube candidates.
    pub valid: Option<&'a ValidityFn<'a>>,
}

impl TlaContext<'_> {
    /// Incumbent `(x, y)` of the target task.
    pub fn incumbent(&self) -> Option<(&[f64], f64)> {
        let best = self.target.best()?;
        let idx = self.target.y.iter().position(|&v| v == best)?;
        Some((&self.target.x[idx], best))
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// The next target point by maximizing the acquisition of
    /// `surrogate`: a one-shot candidate sweep around the target
    /// incumbent, deduped against the target's successes, kept away from
    /// failures, under the constraint.
    pub fn propose_from<S: Surrogate + ?Sized>(&self, surrogate: &S, rng: &mut StdRng) -> Vec<f64> {
        let req = ProposalRequest {
            incumbent: self.incumbent(),
            evaluated: &self.target.x,
            failed: self.failed,
            valid: self.valid,
            ..ProposalRequest::new(self.dim())
        };
        propose(
            surrogate,
            &req,
            self.search,
            rng,
            &mut ProposalScratch::new(),
        )
    }
}

/// A transfer-learning proposal strategy.
pub trait TlaStrategy: Send {
    /// Human-readable algorithm name (Table I naming).
    fn name(&self) -> &str;

    /// Propose the next unit-cube point for the target task.
    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64>;

    /// Feed back the observed objective for the last proposal (`None`
    /// when the evaluation failed). Default: stateless.
    fn observe(&mut self, _x: &[f64], _y: Option<f64>) {}

    /// Whether the tuner proposes with `WeightedSum(equal)` while the
    /// target has no successful evaluation (the paper's §VI-A note: with
    /// no target data there is nothing for dynamic weights or the LCM to
    /// use). Cold-start proposals are not fed back. Default: yes;
    /// [`notla::NoTla`] makes its own space-filling start.
    fn cold_start(&self) -> bool {
        true
    }

    /// The `proposed_by` label of the last proposal. Default:
    /// [`TlaStrategy::name`].
    fn proposed_by(&self) -> &str {
        self.name()
    }

    /// Feed back one evaluation of this strategy's proposal. `ctx`
    /// already includes `rec`; `proposal` is the point
    /// [`TlaStrategy::propose`] returned and `rec.unit` the cell it was
    /// evaluated at. Default: [`TlaStrategy::observe`] with the raw
    /// proposal.
    fn absorb(
        &mut self,
        _ctx: &TlaContext<'_>,
        proposal: &[f64],
        rec: &EvalRecord,
        _rng: &mut StdRng,
    ) {
        self.observe(proposal, rec.result.as_ref().ok().copied());
    }

    /// Called once when the budget is spent. Default: nothing.
    fn finish(&mut self) {}
}

/// A uniform-random fallback proposal (used internally by strategies when
/// a model cannot be fitted, and as a baseline).
pub fn random_proposal(dim: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..dim).map(|_| rng.gen::<f64>()).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// A 1-D quadratic family: source minimized at 0.3, target at 0.4 —
    /// correlated tasks with shifted optima, the canonical TLA test bed.
    pub fn quad_source_target(n_src: usize, n_tgt: usize) -> (Vec<SourceTask>, Dataset) {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut src = Dataset::default();
        for i in 0..n_src {
            let x = (i as f64 + 0.5) / n_src as f64;
            src.push(vec![x], 2.0 + 10.0 * (x - 0.3) * (x - 0.3));
        }
        let dims = vec![DimKind::Continuous];
        let source = SourceTask::fit("src", src, &dims, &mut rng).unwrap();
        let mut tgt = Dataset::default();
        for i in 0..n_tgt {
            let x = (i as f64 + 0.7) / (n_tgt as f64 + 1.0);
            tgt.push(vec![x], 3.0 + 10.0 * (x - 0.4) * (x - 0.4));
        }
        (vec![source], tgt)
    }

    /// A context over the 1-D unit interval with the default tuner
    /// configuration, no constraint and no failures.
    pub fn ctx<'a>(
        sources: &'a [SourceTask],
        target: &'a Dataset,
        search: &'a SearchOptions,
    ) -> TlaContext<'a> {
        static SPACE: OnceLock<Space> = OnceLock::new();
        static CONFIG: OnceLock<TuneConfig> = OnceLock::new();
        TlaContext {
            space: SPACE.get_or_init(|| {
                Space::new(vec![crowdtune_space::Param::real("x", 0.0, 1.0)]).unwrap()
            }),
            dims: &[DimKind::Continuous],
            sources,
            target,
            evaluated: &target.x,
            failed: &[],
            search,
            config: CONFIG.get_or_init(TuneConfig::default),
            constraint: None,
            valid: None,
        }
    }

    pub fn target_objective(x: f64) -> f64 {
        3.0 + 10.0 * (x - 0.4) * (x - 0.4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn source_task_fit_and_incumbent() {
        let (sources, target) = testutil::quad_source_target(20, 3);
        assert_eq!(sources[0].data.len(), 20);
        let opts = SearchOptions::default();
        let ctx = testutil::ctx(&sources, &target, &opts);
        let (x, y) = ctx.incumbent().unwrap();
        assert_eq!(
            y,
            *target
                .y
                .iter()
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap()
        );
        assert_eq!(x.len(), 1);
    }

    #[test]
    fn random_proposal_in_cube() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let p = random_proposal(4, &mut rng);
            assert_eq!(p.len(), 4);
            assert!(p.iter().all(|&v| (0.0..1.0).contains(&v)));
        }
    }
}
