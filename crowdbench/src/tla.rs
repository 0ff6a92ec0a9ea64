//! `crowd_tla`: repeated crowd-tuning sessions on PDGEQRF, the paper's
//! Fig. 4(b) setting.
//!
//! The repository holds crowd data for three source tasks
//! (m = n = 10000, 8000, 6000). Each session opens a meta description
//! whose task range excludes the target (m = n = 12000), builds the
//! source models, tunes the target with one strategy of the paper's
//! lineup, and uploads every evaluation. The session's own uploads never
//! become sources, so every session of a rotation repeats the same work
//! on the same data.

use crate::crowd::{self, mix, SessionOutcome, SessionPlan};
use crate::layers::{self, LayerExtras};
use crate::report::Report;
use crate::trace::{self, Span};
use crowdtune_apps::{Application, MachineModel, Pdgeqrf};
use crowdtune_core::tuner::{tune_tla_constrained, TuneConfig};
use crowdtune_core::{
    CrowdSession, Ensemble, EnsemblePolicy, MultitaskTs, Stacking, TlaContext, TlaStrategy,
    WeightedSum,
};
use crowdtune_db::{Filter, FunctionEvaluation, HistoryDb, MachineConfig, QuerySpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const SOURCE_SIZES: [u64; 3] = [10_000, 8_000, 6_000];
const TARGET_SIZE: u64 = 12_000;
pub const SAMPLES_PER_SOURCE: usize = 40;
pub const BUDGET: usize = 12;
const NODES: u32 = 8;
const MIN_SOURCE_SAMPLES: usize = 10;
/// The paper's application lineup (Figs. 4-5), minus the NoTLA baseline.
const LINEUP: [&str; 4] = [
    "Multitask(TS)",
    "WeightedSum(dynamic)",
    "Stacking",
    "Ensemble(proposed)",
];
const PLAN: SessionPlan = SessionPlan {
    rotation: LINEUP.len(),
    min_sessions: 3 * LINEUP.len(),
    uploads_per_session: BUDGET,
};

/// The crowd's source-task records (see [`crowd::CROWD_SEED`]).
fn crowd_data() -> Vec<FunctionEvaluation> {
    let machine = MachineConfig::new("cori", "haswell", NODES, 32);
    SOURCE_SIZES
        .iter()
        .enumerate()
        .flat_map(|(i, &s)| {
            let app = Pdgeqrf::new(s, s, MachineModel::cori_haswell(NODES));
            crowd::crowd_samples(
                &app,
                SAMPLES_PER_SOURCE,
                mix(crowd::CROWD_SEED, i as u64),
                &machine,
            )
        })
        .collect()
}

struct Setup {
    db: HistoryDb,
    meta: String,
}

fn setup(seed: u64) -> Setup {
    let db = HistoryDb::new();
    let key = db
        .register_user(
            "crowd",
            "crowd@example.org",
            true,
            &mut StdRng::seed_from_u64(seed),
        )
        .expect("fresh registry accepts the user");
    for eval in crowd_data() {
        db.submit(&key, eval).expect("setup upload");
    }
    let target = target();
    let meta = format!(
        r#"{{
        "api_key": "{key}",
        "tuning_problem_name": "PDGEQRF",
        "problem_space": {{
            "input_space": [{{"name": "m", "type": "integer", "lower_bound": 5000, "upper_bound": {TARGET_SIZE}}}],
            "parameter_space": {},
            "output_space": [{{"name": "runtime", "type": "real"}}]
        }},
        "configuration_space": {{
            "machine_configurations": [{{"machine_name": "Cori", "node_type": "haswell", "nodes_from": 1, "nodes_to": 16}}],
            "software_configurations": [{{"name": "scalapack", "version_from": [2,0,0], "version_to": [3,0,0]}}]
        }},
        "machine_configuration": "cori",
        "software_configuration": ["{}"],
        "sync_crowd_repo": "yes"
    }}"#,
        crowd::param_descs(&target.tuning_space()),
        crowd::SOFTWARE_SPEC,
    );
    Setup { db, meta }
}

fn target() -> Pdgeqrf {
    Pdgeqrf::new(TARGET_SIZE, TARGET_SIZE, MachineModel::cori_haswell(NODES))
}

/// A strategy whose proposals run inside a trace span.
struct Traced<S> {
    inner: S,
    span: &'static str,
}

impl<S: TlaStrategy> TlaStrategy for Traced<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64> {
        let _span = trace::span(self.span);
        self.inner.propose(ctx, rng)
    }

    fn observe(&mut self, x: &[f64], y: Option<f64>) {
        self.inner.observe(x, y);
    }
}

fn wrap<S: TlaStrategy + 'static>(
    inner: S,
    span: &'static str,
    traced: bool,
) -> Box<dyn TlaStrategy> {
    if traced {
        Box::new(Traced { inner, span })
    } else {
        Box::new(inner)
    }
}

/// The lineup member for session `index`. Traced sessions time every
/// proposal; the traced ensemble is built from traced members with the
/// pool and policy of `Ensemble::proposed_default()`.
fn strategy(index: usize, traced: bool) -> Box<dyn TlaStrategy> {
    let multitask = |t| wrap(MultitaskTs::new(), "tla.multitask.propose", t);
    let weighted = |t| wrap(WeightedSum::dynamic(), "tla.weighted.propose", t);
    let stacking = |t| wrap(Stacking::new(), "tla.stacking.propose", t);
    match index % LINEUP.len() {
        0 => multitask(traced),
        1 => weighted(traced),
        2 => stacking(traced),
        _ if traced => wrap(
            Ensemble::new(
                vec![multitask(true), weighted(true), stacking(true)],
                EnsemblePolicy::Proposed,
            ),
            "tla.ensemble.propose",
            true,
        ),
        _ => Box::new(Ensemble::proposed_default()),
    }
}

fn session(setup: &Setup, seed: u64, index: usize, traced: bool) -> SessionOutcome {
    let mut out = SessionOutcome::default();
    let app = target();
    let space = app.tuning_space();
    let machine = MachineConfig::new("cori", "haswell", NODES, 32);
    let session = {
        let _span = trace::span("core.session.open");
        CrowdSession::open(&setup.db, &setup.meta).expect("constant meta description parses")
    };
    if traced {
        // `source_tasks` queries inside the call; the traced run issues
        // the same query once more to time the db layer on its own.
        let mut span = trace::span("db.query");
        match out.db_call(session.query_function_evaluations(), "query") {
            Some(records) => out.returned += records.len() as u64,
            None => span.fail(),
        }
    }
    let sources = {
        let _span = trace::span("core.session.source_tasks");
        out.db_call(session.source_tasks(MIN_SOURCE_SAMPLES), "source_tasks")
            .unwrap_or_default()
    };
    if sources.len() != SOURCE_SIZES.len() {
        out.problems.push(format!(
            "{} source tasks, expected {}",
            sources.len(),
            SOURCE_SIZES.len()
        ));
    }
    out.records = sources.iter().map(|s| s.data.len() as u64).sum();

    let mut strategy = strategy(index, traced);
    let config = TuneConfig {
        budget: BUDGET,
        seed: crowd::session_seed(seed, index),
        ..Default::default()
    };
    let mut noise = StdRng::seed_from_u64(config.seed ^ 0xAB0BA);
    let mut clock = crowd::GapClock::default();
    let mut objective = |p: &crowdtune_space::Point| {
        clock.eval(|| app.evaluate(p, &mut noise).map_err(|e| e.to_string()))
    };
    let constraint = |p: &crowdtune_space::Point| app.validate_config(p);
    let result = {
        let _span = trace::span("tuner.tune");
        tune_tla_constrained(
            &space,
            &mut objective,
            &sources,
            strategy.as_mut(),
            &config,
            Some(&constraint),
        )
    };
    out.gaps_ms = std::mem::take(&mut clock.gaps_ms);
    out.absorb_history(&result.history, |y| y);
    if result.history.len() != BUDGET {
        out.problems.push(format!(
            "{} evaluations, budget {BUDGET}",
            result.history.len()
        ));
    }
    if let Some(bad) = result
        .history
        .iter()
        .find(|r| !app.validate_config(&r.point))
    {
        out.problems
            .push(format!("invalid configuration tuned: {:?}", bad.point));
    }
    for rec in &result.history {
        let eval = crowd::upload_of(&app, &space, rec, &machine);
        let mut span = trace::span("db.upload");
        match out.db_call(session.upload(eval), "upload") {
            Some(Some(_id)) => {}
            Some(None) => out.problems.push("upload not acked".into()),
            None => span.fail(),
        }
    }
    out
}

/// How many evaluations of the target task the repository holds.
fn stored(setup: &Setup) -> usize {
    let m = TARGET_SIZE as f64;
    let spec = QuerySpec::all_of("PDGEQRF")
        .with_filter(Filter::Between("task.m".into(), m, m + 1.0))
        .including_failures();
    setup.db.query_public(&spec).len()
}

/// Run the workload; a traced run returns its spans.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Vec<Span> {
    println!(
        "input           {} crowd records for {} source tasks, target m=n={TARGET_SIZE}, budget {BUDGET}",
        SOURCE_SIZES.len() * SAMPLES_PER_SOURCE,
        SOURCE_SIZES.len()
    );
    if !traced {
        crowd::timing_run(
            &PLAN,
            seconds,
            report,
            &mut || crowd::timed(|| setup(seed)),
            Some(&stored),
            &mut |setup, i| session(setup, seed, i, false),
        );
        return Vec::new();
    }
    let setup = setup(seed);
    let mut run_session = |i: usize, t: bool| session(&setup, seed, i, t);
    let (spans, outcomes, overhead) = crowd::traced_run(&PLAN, seconds, report, &mut run_session);
    let (expected, found) = (2 * outcomes.len() * BUDGET, stored(&setup));
    report.check(
        format!("all {expected} target evaluations were uploaded and stored ({found} found)"),
        found == expected,
    );
    layers::report(
        &spans,
        &LayerExtras::from_sessions(&outcomes, overhead),
        report,
    );
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = crowd_data();
        assert_eq!(a.len(), SOURCE_SIZES.len() * SAMPLES_PER_SOURCE);
        assert_eq!(a, crowd_data());
        for i in 0..8 {
            assert_eq!(crowd::session_seed(11, i), crowd::session_seed(11, i));
            assert_ne!(crowd::session_seed(11, i), crowd::session_seed(12, i));
        }
    }

    #[test]
    fn wrapped_ensemble_reproduces_proposed_default() {
        assert_eq!(strategy(3, true).name(), strategy(3, false).name());
        let setup = setup(1);
        let plain = session(&setup, 1, 3, false);
        let wrapped = session(&setup, 1, 3, true);
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        assert_eq!(plain.history.len(), BUDGET);
        assert_eq!(plain.history, wrapped.history);
    }
}
