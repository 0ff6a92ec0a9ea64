//! The tuning driver: one Bayesian-optimization loop that hosts any
//! [`TlaStrategy`] — the transfer-learning pool and the non-transfer
//! baseline ([`NoTla`], the zero-source strategy) alike.
//!
//! The loop mirrors GPTune's: propose a configuration, evaluate the
//! application, record the result (failures are kept in the history but
//! excluded from surrogate fitting), feed it back to the strategy,
//! repeat until the budget `NS` is spent. For transfer strategies the
//! evaluations before the first target success use `WeightedSum(equal)`
//! (the paper's §VI-A note: with no target data there is nothing for
//! dynamic weights or the LCM to use).

use crate::acquisition::{SearchOptions, ValidityFn};
use crate::checkpoint::{
    is_transient_error, CheckpointRecord, Checkpointing, ResumeError, RetryPolicy, TunerCheckpoint,
};
use crate::data::Dataset;
use crate::tla::notla::NoTla;
use crate::tla::weighted::WeightedSum;
use crate::tla::{SourceTask, TlaContext, TlaStrategy};
use crowdtune_gp::{DimKind, RefitSchedule};
use crowdtune_obs as obs;
use crowdtune_space::{Domain, Point, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Tuning configuration.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Evaluation budget `NS`.
    pub budget: usize,
    /// Initial space-filling samples for `NoTLA` (transfer strategies
    /// need none; their prior comes from the sources).
    pub n_init: usize,
    /// Random seed (drives everything: sampling, model restarts, noise).
    pub seed: u64,
    /// Acquisition search options.
    pub search: SearchOptions,
    /// Per-task sample cap for LCM fitting.
    pub max_lcm_samples: usize,
    /// When the `NoTLA` surrogate pays for a full refit instead of a
    /// rank-1 append (see [`RefitSchedule`]).
    pub refit: RefitSchedule,
    /// How transient evaluation failures (`"transient:"`/`"timeout:"`
    /// errors) are retried. Backoff is charged in simulated seconds —
    /// nothing sleeps — so retries never perturb determinism.
    pub retry: RetryPolicy,
    /// Periodic checkpointing through a crowd service; `None` disables.
    pub checkpoint: Option<Checkpointing>,
    /// When the `NoTLA` surrogate escalates from the exact GP to the
    /// crowd-scale sparse tier (see [`SurrogateTier`]).
    pub tier: SurrogateTier,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            budget: 20,
            n_init: 2,
            seed: 0,
            search: SearchOptions::default(),
            max_lcm_samples: 150,
            refit: RefitSchedule::default(),
            retry: RetryPolicy::default(),
            checkpoint: None,
            tier: SurrogateTier::default(),
        }
    }
}

/// The surrogate-tier escalation policy: exact GP below the threshold,
/// inducing-point sparse GP above it.
///
/// Below the threshold the policy consumes **zero** extra RNG draws and
/// performs no extra work, so sub-threshold runs are byte-identical to
/// the pure exact-GP tuner. The switch itself is journaled (`tierswitch`
/// event, `tune.tier_switches` counter) and is a deterministic function
/// of (seed, schedule, history) — never of thread count or timing.
#[derive(Debug, Clone)]
pub struct SurrogateTier {
    /// Successful observations at which the sparse tier takes over.
    /// `usize::MAX` disables escalation entirely.
    pub threshold: usize,
    /// Inducing points `m` for the sparse tier.
    pub m_inducing: usize,
}

impl Default for SurrogateTier {
    fn default() -> Self {
        SurrogateTier {
            threshold: 1024,
            m_inducing: 128,
        }
    }
}

/// One evaluation in the tuning history.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// The evaluated configuration (space values).
    pub point: Point,
    /// The same configuration in unit-cube coordinates.
    pub unit: Vec<f64>,
    /// Measured objective or failure reason.
    pub result: Result<f64, String>,
    /// Which algorithm proposed it (diagnostics).
    pub proposed_by: String,
    /// Objective attempts consumed: 1 plus transient retries (0 when the
    /// proposal never reached the objective).
    pub attempts: u32,
}

/// Summary statistics for one tuning run, populated by the tuning loop
/// from the obs layer (the per-thread span scope) so callers don't
/// re-derive them from `history` or wrap the tuner in their own timers.
///
/// Timings are wall-clock nanoseconds observed on the run's own thread;
/// work a stage fans out to rayon workers is attributed to the enclosing
/// span (e.g. a parallel multistart is all inside its fit span).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Iterations executed (equals `history.len()`).
    pub iterations: usize,
    /// Failed evaluations.
    pub failures: usize,
    /// Time inside surrogate fits (single-task GP + LCM).
    pub fit_time_ns: u64,
    /// Time inside acquisition candidate-scoring batches.
    pub acquisition_time_ns: u64,
    /// Time inside objective evaluations.
    pub eval_time_ns: u64,
    /// Surrogate fits performed (GP + LCM, including failed ones).
    pub surrogate_refits: u64,
    /// Total wall-clock time of the run.
    pub total_time_ns: u64,
}

/// Result of a tuning run.
#[derive(Debug, Clone, Default)]
pub struct TuneResult {
    /// Every evaluation, in order.
    pub history: Vec<EvalRecord>,
    /// Run summary populated from the obs layer.
    pub stats: RunStats,
}

impl TuneResult {
    /// The best successful configuration and its objective.
    pub fn best(&self) -> Option<(&Point, f64)> {
        self.history
            .iter()
            .filter_map(|r| r.result.as_ref().ok().map(|&y| (&r.point, y)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Best-so-far objective after each evaluation (`None` until the
    /// first success) — the paper's y-axis in every tuning figure.
    pub fn best_so_far(&self) -> Vec<Option<f64>> {
        let mut best: Option<f64> = None;
        self.history
            .iter()
            .map(|r| {
                if let Ok(y) = r.result {
                    best = Some(match best {
                        Some(b) => b.min(y),
                        None => y,
                    });
                }
                best
            })
            .collect()
    }

    /// Number of failed evaluations.
    pub fn failures(&self) -> usize {
        self.history.iter().filter(|r| r.result.is_err()).count()
    }
}

/// The black-box objective the tuner minimizes: a configuration in space
/// values, returning the measured objective or a failure reason.
pub type Objective<'a> = dyn FnMut(&Point) -> Result<f64, String> + 'a;

/// Per-dimension kernel kinds implied by a space (categoricals get the
/// indicator distance).
pub fn dims_of(space: &Space) -> Vec<DimKind> {
    space
        .params()
        .iter()
        .map(|p| match p.domain {
            Domain::Categorical { .. } => DimKind::Categorical,
            _ => DimKind::Continuous,
        })
        .collect()
}

/// A problem constraint over concrete configurations (GPTune's
/// `constraints` mechanism): configurations failing it are never even
/// proposed — e.g. "the process grid must fit the allocation".
pub type Constraint<'a> = dyn Fn(&Point) -> bool + Sync + 'a;

/// Tune with plain single-task Bayesian optimization (the paper's
/// `NoTLA` baseline: GPTune without transfer learning).
pub fn tune_notla(space: &Space, objective: &mut Objective, config: &TuneConfig) -> TuneResult {
    // With no replay prefix the driver cannot observe divergence, so the
    // error arm is unreachable.
    tune(space, objective, &[], &mut NoTla::new(), config, None, None).unwrap_or_default()
}

/// Tune the target task with a TLA strategy, pre-collected sources and
/// an optional problem constraint.
pub fn tune_tla_constrained(
    space: &Space,
    objective: &mut Objective,
    sources: &[SourceTask],
    strategy: &mut dyn TlaStrategy,
    config: &TuneConfig,
    constraint: Option<&Constraint<'_>>,
) -> TuneResult {
    tune(
        space, objective, sources, strategy, config, constraint, None,
    )
    .unwrap_or_default()
}

/// Tune the target task with `strategy` ([`NoTla`] for the baseline,
/// which ignores `sources`) until `config.budget` evaluations are spent.
///
/// With a `resume` checkpoint the recorded prefix is replayed
/// deterministically — proposals re-consume the RNG and feed the
/// strategy exactly as the original run did, while recorded outcomes
/// stand in for objective calls — then the loop continues live. The
/// result is bitwise identical to an uninterrupted run with the same
/// seed, constraint and strategy. `config.budget` may exceed the
/// checkpoint's original budget to extend a finished run. The checkpoint
/// must have been taken by a strategy with the same name; a replay that
/// does not land on the recorded configurations is
/// [`ResumeError::Incompatible`].
///
/// Contract: a *stateful* objective (e.g. one wrapped in a fault
/// injector) must be fast-forwarded to
/// [`TunerCheckpoint::objective_calls`] before resuming.
pub fn tune(
    space: &Space,
    objective: &mut Objective,
    sources: &[SourceTask],
    strategy: &mut dyn TlaStrategy,
    config: &TuneConfig,
    constraint: Option<&Constraint<'_>>,
    resume: Option<&TunerCheckpoint>,
) -> Result<TuneResult, ResumeError> {
    let replay: &[CheckpointRecord] = match resume {
        Some(ckpt) => {
            ckpt.validate(strategy.name(), space.dim(), config)?;
            note_resume(ckpt);
            &ckpt.history
        }
        None => &[],
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let dims = dims_of(space);
    // Snap acquisition candidates to the space's discrete cell centers.
    let mut search = config.search.clone();
    search.cells = space.cell_counts();
    let mut result = TuneResult::default();
    let mut target = Dataset::default();
    let mut evaluated: Vec<Vec<f64>> = Vec::new();
    let mut failed: Vec<Vec<f64>> = Vec::new();
    // Unit-space view of the constraint for the acquisition search.
    let valid_holder = constraint.map(|c| move |u: &[f64]| space.from_unit(u).is_ok_and(|p| c(&p)));
    let valid: Option<&ValidityFn<'_>> = valid_holder.as_ref().map(|f| f as &ValidityFn<'_>);
    let mut cold_start = WeightedSum::equal();
    macro_rules! context {
        () => {
            TlaContext {
                space,
                dims: &dims,
                sources,
                target: &target,
                evaluated: &evaluated,
                failed: &failed,
                search: &search,
                config,
                constraint,
                valid,
            }
        };
    }

    let mut observer = RunObserver::begin(strategy.name(), space.dim(), config);
    for i in 0..config.budget {
        let iter_start = Instant::now();
        let cold = target.is_empty() && strategy.cold_start();
        let proposer: &mut dyn TlaStrategy = if cold { &mut cold_start } else { strategy };
        let propose_span = obs::span(obs::names::SPAN_PROPOSE);
        let unit = proposer.propose(&context!(), &mut rng);
        drop(propose_span);
        let proposed_by = proposer.proposed_by().to_string();
        let rec = match next_record(
            space,
            objective,
            unit.clone(),
            proposed_by,
            i,
            config,
            replay,
        ) {
            Ok(rec) => rec,
            Err(e) => {
                observer.finish(&mut result);
                return Err(e);
            }
        };
        evaluated.push(rec.unit.clone());
        match &rec.result {
            Ok(y) => target.push(rec.unit.clone(), *y),
            Err(_) => failed.push(rec.unit.clone()),
        }
        if !cold {
            strategy.absorb(&context!(), &unit, &rec, &mut rng);
        }
        observer.iteration(
            i,
            &rec,
            u64::try_from(iter_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        result.history.push(rec);
        maybe_checkpoint(
            strategy.name(),
            space.dim(),
            config,
            &result.history,
            i,
            replay.len(),
        );
    }
    strategy.finish();
    observer.finish(&mut result);
    Ok(result)
}

/// Journal that a run is resuming from a checkpoint.
fn note_resume(ckpt: &TunerCheckpoint) {
    obs::count(obs::names::CTR_TUNE_RESUMES, 1);
    obs::record_with(|| obs::Event::Recovery {
        source: "checkpoint".to_string(),
        docs: 0,
        records: ckpt.iter as u64,
        torn: false,
        resumed_iter: Some(ckpt.iter as u64),
    });
}

/// Per-run observability bookkeeping of the tuning loop:
/// opens the thread-local span scope, journals run/iteration events, and
/// folds the scope back into [`RunStats`] at the end.
struct RunObserver {
    start: Instant,
    best: Option<f64>,
    /// Root span of the run: every propose/eval/fit span on this thread
    /// nests under it, so folded scope stacks read `tune;propose;gp_fit`.
    run_span: obs::SpanGuard,
}

impl RunObserver {
    fn begin(tuner: &str, dim: usize, config: &TuneConfig) -> Self {
        obs::scope_begin();
        obs::record_with(|| obs::Event::RunStart {
            run: format!("{tuner}-seed{}", config.seed),
            tuner: tuner.to_string(),
            dim: dim as u64,
            budget: config.budget as u64,
            seed: config.seed,
        });
        RunObserver {
            start: Instant::now(),
            best: None,
            run_span: obs::span(obs::names::SPAN_TUNE),
        }
    }

    fn iteration(&mut self, iter: usize, rec: &EvalRecord, duration_ns: u64) {
        obs::count(obs::names::CTR_TUNE_ITERATIONS, 1);
        if rec.result.is_err() {
            obs::count(obs::names::CTR_TUNE_FAILURES, 1);
        }
        if let Some(y) = rec.result.as_ref().ok().copied().filter(|y| y.is_finite()) {
            if self.best.is_none_or(|b| y < b) {
                self.best = Some(y);
            }
        }
        obs::record_with(|| obs::Event::Iteration {
            iter: iter as u64,
            point: rec.unit.clone(),
            value: rec.result.as_ref().ok().copied().and_then(obs::finite),
            ok: rec.result.is_ok(),
            proposed_by: rec.proposed_by.clone(),
            best: self.best,
            duration_us: duration_ns / 1_000,
        });
    }

    fn finish(self, result: &mut TuneResult) {
        let total_time_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Close the root span before reading the scope so the `tune` frame
        // (and every folded stack under it) is fully credited.
        drop(self.run_span);
        let scope = obs::scope_end().unwrap_or_default();
        let (iterations, failures) = (result.history.len(), result.failures());
        result.stats = RunStats {
            iterations,
            failures,
            fit_time_ns: scope.time_ns_of(obs::names::SPAN_GP_FIT)
                + scope.time_ns_of(obs::names::SPAN_LCM_FIT),
            acquisition_time_ns: scope.time_ns_of(obs::names::SPAN_ACQUISITION),
            eval_time_ns: scope.time_ns_of(obs::names::SPAN_EVAL),
            surrogate_refits: scope.count_of(obs::names::SPAN_GP_FIT)
                + scope.count_of(obs::names::SPAN_LCM_FIT),
            total_time_ns,
        };
        if !scope.stack_ns.is_empty() {
            obs::record_with(|| obs::Event::Profile {
                folded: scope.stack_ns.clone(),
            });
        }
        obs::record_with(|| obs::Event::RunEnd {
            iterations: iterations as u64,
            failures: failures as u64,
            best: self.best,
            duration_us: total_time_ns / 1_000,
        });
        obs::journal_flush();
    }
}

/// Produce iteration `iter`'s record: replayed from a checkpoint when
/// its prefix covers the iteration (the recorded outcome stands in for
/// the objective call), live through the retry loop otherwise.
fn next_record(
    space: &Space,
    objective: &mut Objective,
    unit: Vec<f64>,
    proposed_by: String,
    iter: usize,
    config: &TuneConfig,
    replay: &[CheckpointRecord],
) -> Result<EvalRecord, ResumeError> {
    match replay.get(iter) {
        Some(saved) => {
            // The proposal path already re-consumed the RNG; the
            // recomputed proposal must land on the recorded configuration
            // or the checkpoint belongs to a different run.
            let snapped = match space.from_unit(&unit) {
                Ok(p) => space.to_unit(&p).unwrap_or(unit),
                Err(_) => unit,
            };
            if snapped != saved.unit {
                return Err(ResumeError::Incompatible(format!(
                    "replay diverged at iteration {iter}: the checkpoint does not match \
                     this seed/space/objective"
                )));
            }
            Ok(saved.to_eval())
        }
        None => Ok(evaluate_with_retry(
            space,
            objective,
            unit,
            proposed_by,
            iter,
            &config.retry,
        )),
    }
}

/// Evaluate one proposal, retrying transient failures per the policy.
/// Never panics: un-mappable proposals become recorded failures, so an
/// injected fault (or a numerical edge case) can't abort the run.
fn evaluate_with_retry(
    space: &Space,
    objective: &mut Objective,
    unit: Vec<f64>,
    proposed_by: String,
    iter: usize,
    retry: &RetryPolicy,
) -> EvalRecord {
    let point = match space.from_unit(&unit) {
        Ok(p) => p,
        Err(e) => {
            // The proposal can't be mapped into the space — record a
            // permanent failure instead of aborting the run.
            return EvalRecord {
                point: Point::new(),
                unit,
                result: Err(format!("internal: proposal rejected by space: {e}")),
                proposed_by,
                attempts: 0,
            };
        }
    };
    // Snap the unit coordinates to the cell the point actually maps to,
    // so dedup works in the discrete space.
    let unit_snapped = space.to_unit(&point).unwrap_or(unit);
    let max_attempts = retry.max_attempts.max(1);
    let mut attempts = 0u32;
    let res = loop {
        attempts += 1;
        let eval_span = obs::span(obs::names::SPAN_EVAL);
        let res = objective(&point);
        drop(eval_span);
        match res {
            Ok(y) => break Ok(y),
            Err(e) if attempts < max_attempts && is_transient_error(&e) => {
                // Transient: back off (in simulated time — the journal
                // records the charge, nothing sleeps) and retry.
                let backoff_s = retry.backoff_s(attempts);
                obs::count(obs::names::CTR_TUNE_RETRIES, 1);
                obs::record_with(|| obs::Event::Retry {
                    iter: iter as u64,
                    attempt: attempts as u64,
                    backoff_s,
                    error: e.clone(),
                });
            }
            // Permanent, or out of attempts: record and exclude.
            Err(e) => break Err(e),
        }
    };
    EvalRecord {
        point,
        unit: unit_snapped,
        result: res,
        proposed_by,
        attempts,
    }
}

/// Persist a checkpoint if configured: after every `every`-th iteration,
/// only past a resume's replayed prefix. Persistence failures are
/// dropped by design — losing a checkpoint degrades resumability, never
/// the run.
fn maybe_checkpoint(
    tuner: &str,
    dim: usize,
    config: &TuneConfig,
    history: &[EvalRecord],
    iter: usize,
    replayed: usize,
) {
    let Some(ck) = &config.checkpoint else { return };
    if ck.every == 0 || !(iter + 1).is_multiple_of(ck.every) || iter < replayed {
        return;
    }
    let ckpt = TunerCheckpoint::capture(tuner, dim, config, history);
    let Ok(json) = ckpt.to_json() else { return };
    let bytes = json.len() as u64;
    if ck.store.put_blob(&ck.key, &json).is_ok() {
        obs::count(obs::names::CTR_TUNE_CHECKPOINTS, 1);
        obs::record_with(|| obs::Event::Checkpoint {
            iter: iter as u64,
            bytes,
            key: ck.key.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tla::testutil::quad_source_target;
    use crowdtune_space::{Param, Value};

    fn quad_space() -> Space {
        Space::new(vec![Param::real("x", 0.0, 1.0)]).unwrap()
    }

    fn quad_objective(p: &Point) -> Result<f64, String> {
        match &p[0] {
            Value::Real(x) => Ok(3.0 + 10.0 * (x - 0.4) * (x - 0.4)),
            _ => Err("bad".into()),
        }
    }

    #[test]
    fn notla_converges_on_smooth_1d() {
        let space = quad_space();
        let mut obj = quad_objective;
        let config = TuneConfig {
            budget: 15,
            seed: 42,
            ..Default::default()
        };
        let res = tune_notla(&space, &mut obj, &config);
        assert_eq!(res.history.len(), 15);
        let (_, best) = res.best().unwrap();
        assert!(best < 3.2, "best = {best}");
    }

    #[test]
    fn notla_append_path_converges_and_is_deterministic() {
        // Push the run past the refit warmup so most iterations take the
        // rank-1 append path, and check convergence quality and fixed-seed
        // reproducibility are unaffected.
        let space = quad_space();
        let config = TuneConfig {
            budget: 24,
            seed: 42,
            refit: RefitSchedule {
                every: 6,
                min_points: 4,
                ..RefitSchedule::default()
            },
            ..Default::default()
        };
        let mut obj1 = quad_objective;
        let r1 = tune_notla(&space, &mut obj1, &config);
        assert_eq!(r1.history.len(), 24);
        assert!(
            r1.best().unwrap().1 < 3.2,
            "best = {}",
            r1.best().unwrap().1
        );
        let mut obj2 = quad_objective;
        let r2 = tune_notla(&space, &mut obj2, &config);
        for (a, b) in r1.history.iter().zip(&r2.history) {
            assert_eq!(a.point, b.point);
        }
    }

    #[test]
    fn best_so_far_is_monotone() {
        let space = quad_space();
        let mut obj = quad_objective;
        let config = TuneConfig {
            budget: 10,
            seed: 7,
            ..Default::default()
        };
        let res = tune_notla(&space, &mut obj, &config);
        let bsf = res.best_so_far();
        let vals: Vec<f64> = bsf.iter().filter_map(|v| *v).collect();
        for w in vals.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn tla_uses_cold_start_then_strategy() {
        let space = quad_space();
        let (sources, _) = quad_source_target(25, 0);
        let mut obj = quad_objective;
        let mut strategy = crate::tla::multitask::MultitaskTs::new();
        let config = TuneConfig {
            budget: 5,
            seed: 3,
            ..Default::default()
        };
        let res = tune_tla_constrained(&space, &mut obj, &sources, &mut strategy, &config, None);
        assert_eq!(res.history[0].proposed_by, "WeightedSum(equal)");
        assert_eq!(res.history[1].proposed_by, "Multitask(TS)");
    }

    #[test]
    fn tla_beats_notla_at_tiny_budget_on_correlated_source() {
        // The core claim of the paper in miniature: with a correlated
        // source and budget 4, transfer finds a better config than NoTLA.
        let space = quad_space();
        let (sources, _) = quad_source_target(40, 0);
        let mut best_tla: f64 = f64::INFINITY;
        let mut best_notla: f64 = f64::INFINITY;
        for seed in 0..3 {
            let config = TuneConfig {
                budget: 4,
                seed,
                ..Default::default()
            };
            let mut obj = quad_objective;
            let mut strategy = WeightedSum::dynamic();
            let r1 = tune_tla_constrained(&space, &mut obj, &sources, &mut strategy, &config, None);
            best_tla = best_tla.min(r1.best().unwrap().1);
            let mut obj = quad_objective;
            let r2 = tune_notla(&space, &mut obj, &config);
            best_notla = best_notla.min(r2.best().unwrap().1);
        }
        // TLA should be at least as good (the source optimum at 0.3 is
        // close to the target's 0.4).
        assert!(
            best_tla <= best_notla + 0.3,
            "tla {best_tla} vs notla {best_notla}"
        );
    }

    #[test]
    fn failures_recorded_but_not_fitted() {
        let space = quad_space();
        let mut calls = 0;
        let mut obj = |p: &Point| {
            calls += 1;
            if calls % 2 == 0 {
                Err("OOM".to_string())
            } else {
                quad_objective(p)
            }
        };
        let config = TuneConfig {
            budget: 8,
            seed: 11,
            ..Default::default()
        };
        let res = tune_notla(&space, &mut obj, &config);
        assert_eq!(res.history.len(), 8);
        assert_eq!(res.failures(), 4);
        assert!(res.best().is_some());
        // best_so_far is None until the first success, then monotone.
        let bsf = res.best_so_far();
        assert!(bsf[0].is_some()); // first call succeeds (calls=1)
    }

    #[test]
    fn all_failures_still_terminates() {
        let space = quad_space();
        let mut obj = |_: &Point| Err::<f64, String>("always fails".into());
        let config = TuneConfig {
            budget: 6,
            seed: 0,
            ..Default::default()
        };
        let res = tune_notla(&space, &mut obj, &config);
        assert_eq!(res.history.len(), 6);
        assert_eq!(res.failures(), 6);
        assert!(res.best().is_none());
        assert!(res.best_so_far().iter().all(|v| v.is_none()));
    }

    #[test]
    fn deterministic_given_seed() {
        let space = quad_space();
        let config = TuneConfig {
            budget: 6,
            seed: 9,
            ..Default::default()
        };
        let mut obj1 = quad_objective;
        let r1 = tune_notla(&space, &mut obj1, &config);
        let mut obj2 = quad_objective;
        let r2 = tune_notla(&space, &mut obj2, &config);
        for (a, b) in r1.history.iter().zip(&r2.history) {
            assert_eq!(a.point, b.point);
        }
    }

    #[test]
    fn dims_of_maps_categoricals() {
        let s = Space::new(vec![
            Param::integer("i", 0, 4),
            Param::categorical("c", ["a", "b"]),
            Param::real("r", 0.0, 1.0),
        ])
        .unwrap();
        assert_eq!(
            dims_of(&s),
            vec![
                DimKind::Continuous,
                DimKind::Categorical,
                DimKind::Continuous
            ]
        );
    }
}
