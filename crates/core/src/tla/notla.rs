//! `NoTLA`: the paper's single-task Bayesian-optimization baseline
//! (GPTune without transfer learning), run by the tuner as the
//! zero-source strategy.
//!
//! It ignores the sources. The first `config.n_init` proposals are a
//! Latin-hypercube design (infeasible points re-drawn into the
//! constraint); after that it maximizes EI over a tiered surrogate that
//! persists across iterations: an exact GP absorbing most observations
//! by rank-1 append, with full refits on `config.refit`'s schedule, that
//! escalates to the crowd-scale sparse tier past `config.tier.threshold`
//! successes. The uniform candidate sweep is drawn once per run and
//! reused, with its buffers, by every proposal.

use super::{random_proposal, TlaContext, TlaStrategy};
use crate::acquisition::{propose, CandidatePool, ProposalRequest, ProposalScratch, Surrogate};
use crate::quality::QualityScorer;
use crate::tuner::EvalRecord;
use crowdtune_gp::{
    CalibrationTracker, Gp, GpConfig, IncrementalGp, IncrementalSparseGp, Prediction,
    SparseGpConfig,
};
use crowdtune_obs as obs;
use crowdtune_space::{sample_lhs, sample_uniform, Point};
use rand::rngs::StdRng;

/// The `NoTLA` strategy, optionally scoring data quality as it goes.
#[derive(Default)]
pub struct NoTla<'q> {
    quality: Option<&'q mut QualityScorer>,
    /// Whether the last proposal came from the initial design.
    in_init: bool,
    /// Per-run state, built by the run's first proposal.
    run: Option<Run>,
}

impl NoTla<'_> {
    /// Plain `NoTLA`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'q> NoTla<'q> {
    /// `NoTLA` with online data-quality scoring: every accepted
    /// observation is scored against the surrogate's pre-update
    /// prediction (see [`crate::quality`]) and the scorer is finalized
    /// against the final surrogate when the budget is spent. Scoring is
    /// observe-only — the run is bitwise identical to [`NoTla::new`] at
    /// the same seed. The scorer is deliberately not part of the tuner
    /// configuration, so checkpoint payloads (and therefore WAL bytes)
    /// are identical scoring on or off.
    pub fn with_quality(scorer: &'q mut QualityScorer) -> Self {
        NoTla {
            quality: Some(scorer),
            ..Self::default()
        }
    }
}

/// The tiered surrogate: exact below the escalation threshold, sparse
/// above it.
enum TierSurrogate {
    Exact(IncrementalGp),
    Sparse(IncrementalSparseGp),
}

impl TierSurrogate {
    /// The fitted model of whichever tier is active.
    fn model(&self) -> Option<&dyn Surrogate> {
        match self {
            TierSurrogate::Exact(inc) => inc.gp().map(|g| g as &dyn Surrogate),
            TierSurrogate::Sparse(inc) => inc.gp().map(|g| g as &dyn Surrogate),
        }
    }

    /// The exact GP, when the exact tier is active and fitted. The
    /// quality scorer's final sweep is exact-GP-only by design.
    fn exact_gp(&self) -> Option<&Gp> {
        match self {
            TierSurrogate::Exact(inc) => inc.gp(),
            TierSurrogate::Sparse(_) => None,
        }
    }
}

/// What one `NoTLA` run keeps between iterations.
struct Run {
    /// The initial space-filling design.
    init: Vec<Point>,
    /// The θ-independent uniform sweep, reused every proposal.
    pool: CandidatePool,
    scratch: ProposalScratch,
    gp_config: GpConfig,
    surrogate: TierSurrogate,
    /// Held-out calibration of the surrogate (observe-only).
    calibration: CalibrationTracker,
    /// Best finite objective so far (convergence telemetry).
    best: Option<f64>,
}

impl Run {
    /// Draw the candidate pool, then the initial design, from the run's
    /// RNG — in that order, before any proposal.
    fn new(ctx: &TlaContext<'_>, rng: &mut StdRng) -> Self {
        let pool = CandidatePool::new(ctx.dim(), ctx.search, rng);
        let mut init = sample_lhs(ctx.space, ctx.config.n_init.min(ctx.config.budget), rng);
        if let Some(c) = ctx.constraint {
            // Re-draw infeasible initial points uniformly (bounded tries).
            for p in init.iter_mut() {
                let mut tries = 0;
                while !c(p) && tries < 256 {
                    match sample_uniform(ctx.space, 1, rng).pop() {
                        Some(q) => *p = q,
                        None => break,
                    }
                    tries += 1;
                }
            }
        }
        let mut gp_config = GpConfig::new(ctx.dims.to_vec());
        gp_config.restarts = 1;
        gp_config.max_opt_iter = 40;
        Run {
            init,
            pool,
            scratch: ProposalScratch::new(),
            surrogate: TierSurrogate::Exact(IncrementalGp::new(
                gp_config.clone(),
                ctx.config.refit.clone(),
            )),
            gp_config,
            calibration: CalibrationTracker::new(),
            best: None,
        }
    }

    /// Absorb a success into the surrogate: a rank-1 append or a
    /// scheduled refit, or the escalation to the sparse tier once the
    /// target holds `config.tier.threshold` successes. On a numerical
    /// failure the surrogate empties itself and proposals go random
    /// until a rebuild succeeds.
    fn absorb(&mut self, ctx: &TlaContext<'_>, x: &[f64], y: f64, rng: &mut StdRng) {
        let tier = &ctx.config.tier;
        if matches!(self.surrogate, TierSurrogate::Exact(_)) && ctx.target.len() >= tier.threshold {
            // The sparse tier absorbs the full history with one
            // reselection + fit. On a numerical failure the exact tier
            // carries on and escalation is retried at the next success.
            let sparse_config = SparseGpConfig {
                base: self.gp_config.clone(),
                m_inducing: tier.m_inducing,
            };
            if let Ok(sp) = IncrementalSparseGp::with_history(
                sparse_config,
                ctx.config.refit.clone(),
                ctx.target.x.clone(),
                ctx.target.y.clone(),
                rng,
            ) {
                obs::count(obs::names::CTR_TIER_SWITCHES, 1);
                obs::record_with(|| obs::Event::TierSwitch {
                    from: "exact".to_string(),
                    to: "sparse".to_string(),
                    points: ctx.target.len() as u64,
                    threshold: tier.threshold as u64,
                    inducing: tier.m_inducing as u64,
                });
                self.surrogate = TierSurrogate::Sparse(sp);
                return;
            }
        }
        let _ = match &mut self.surrogate {
            TierSurrogate::Exact(inc) => inc.observe(x, y, rng),
            TierSurrogate::Sparse(inc) => inc.observe(x, y, rng),
        };
    }
}

impl TlaStrategy for NoTla<'_> {
    fn name(&self) -> &str {
        "NoTLA"
    }

    fn cold_start(&self) -> bool {
        false
    }

    fn proposed_by(&self) -> &str {
        if self.in_init {
            "LHS-init"
        } else {
            "NoTLA"
        }
    }

    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64> {
        let iter = ctx.evaluated.len();
        if iter == 0 || self.run.is_none() {
            self.run = Some(Run::new(ctx, rng));
        }
        let run = self.run.as_mut().expect("built above");
        self.in_init = iter < run.init.len();
        if self.in_init {
            return ctx
                .space
                .to_unit(&run.init[iter])
                .unwrap_or_else(|_| random_proposal(ctx.dim(), rng));
        }
        if ctx.target.is_empty() {
            // All initial samples failed: keep space-filling.
            return match sample_lhs(ctx.space, 1, rng)
                .pop()
                .map(|p| ctx.space.to_unit(&p))
            {
                Some(Ok(u)) => u,
                _ => random_proposal(ctx.dim(), rng),
            };
        }
        match (run.surrogate.model(), ctx.incumbent()) {
            (Some(model), Some(incumbent)) => {
                let req = ProposalRequest {
                    dim: ctx.dim(),
                    incumbent: Some(incumbent),
                    evaluated: ctx.evaluated,
                    failed: ctx.failed,
                    valid: ctx.valid,
                    pool: Some(&run.pool),
                };
                propose(model, &req, ctx.search, rng, &mut run.scratch)
            }
            // The last fit attempt failed (degenerate data): fall back
            // to random until the next observation triggers a rebuild.
            _ => random_proposal(ctx.dim(), rng),
        }
    }

    fn absorb(
        &mut self,
        ctx: &TlaContext<'_>,
        _proposal: &[f64],
        rec: &EvalRecord,
        rng: &mut StdRng,
    ) {
        let (Some(run), Ok(y)) = (self.run.as_mut(), rec.result.as_ref()) else {
            return;
        };
        let y = *y;
        // Hold-out scoring happens before the observation is folded in,
        // so each point is held out from the model predicting it.
        // `predict` is deterministic and mutates nothing, so the
        // prediction (and everything downstream of it) cannot perturb
        // the run.
        if self.quality.is_some() || obs::journal_active() || obs::metrics_enabled() {
            let pred = run.surrogate.model().map(|m| {
                let (mean, std) = m.predict(&rec.unit);
                Prediction { mean, std }
            });
            if let Some(p) = &pred {
                obs::count(obs::names::CTR_CALIBRATION_POINTS, 1);
                if run.calibration.record(p, y) {
                    obs::count(obs::names::CTR_CALIBRATION_INSIDE90, 1);
                }
                if run.calibration.points().is_multiple_of(8) {
                    note_calibration(&mut run.calibration, run.best);
                }
            }
            if let Some(q) = self.quality.as_deref_mut() {
                q.observe(ctx.evaluated.len() as u64 - 1, &rec.unit, y, pred);
            }
        }
        run.absorb(ctx, &rec.unit, y, rng);
        if y.is_finite() && run.best.is_none_or(|b| y < b) {
            run.best = Some(y);
        }
    }

    fn finish(&mut self) {
        // The final calibration snapshot carries the run's simple-regret
        // telemetry (best-so-far), then the scorer sweeps the full
        // history against the final surrogate.
        if let Some(run) = self.run.as_mut().filter(|r| r.calibration.points() > 0) {
            note_calibration(&mut run.calibration, run.best);
        }
        if let Some(q) = self.quality.as_deref_mut() {
            q.finalize(self.run.as_ref().and_then(|r| r.surrogate.exact_gp()));
        }
    }
}

/// Journal one `calibration` snapshot: held-out 90% coverage, predictive
/// NLL per point and its drift since the previous snapshot, and the
/// best-so-far objective (convergence telemetry).
fn note_calibration(calib: &mut CalibrationTracker, best: Option<f64>) {
    let points = calib.points();
    let (coverage90, nll_pp, drift) = calib.snapshot();
    obs::record_with(|| obs::Event::Calibration {
        model: "gp".to_string(),
        points,
        coverage90: coverage90.and_then(obs::finite),
        nll_pp: nll_pp.and_then(obs::finite),
        drift: drift.and_then(obs::finite),
        best,
    });
}
