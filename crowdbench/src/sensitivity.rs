//! `crowd_sensitivity`: the paper's Table V -> Fig. 7 flow on Hypre.
//!
//! The repository holds Hypre crowd samples. Each session runs a Sobol
//! analysis over a surrogate fitted to them, keeps the most sensitive
//! parameters, pins the rest to the crowd's best configuration, and tunes
//! the reduced space with NoTLA over a long budget. No LCM runs here.

use crate::crowd::{self, mix, SessionOutcome, SessionPlan};
use crate::layers::{self, LayerExtras};
use crate::report::Report;
use crate::trace::{self, Span};
use crowdtune_apps::{Application, HypreAmg, MachineModel};
use crowdtune_core::data::scalar_to_value;
use crowdtune_core::tuner::{tune_notla, TuneConfig};
use crowdtune_core::{query_sensitivity_analysis, query_surrogate_model, CrowdSession};
use crowdtune_db::{FunctionEvaluation, HistoryDb, MachineConfig};
use crowdtune_sensitivity::{analyze_space, AnalysisConfig};
use crowdtune_space::{Point, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

const SAMPLES: usize = 200;
/// Saltelli base sample count: `N * (d + 2)` surrogate evaluations.
const SOBOL_N: usize = 1024;
/// Parameters kept tunable: the two high and three moderate
/// total-effect parameters of Table V.
const KEEP: usize = 5;
const BUDGET: usize = 150;
/// The EXPERIMENTS.md Table V shape: these two lead on total effect.
const TOP_TWO: [&str; 2] = ["smooth_type", "agg_num_levels"];
const PLAN: SessionPlan = SessionPlan {
    rotation: 1,
    min_sessions: 3,
    uploads_per_session: 0,
};

fn app() -> HypreAmg {
    HypreAmg::new(100, 100, 100, MachineModel::cori_haswell(1))
}

/// The crowd's Hypre samples (see [`crowd::CROWD_SEED`]).
fn crowd_data() -> Vec<FunctionEvaluation> {
    let machine = MachineConfig::new("cori", "haswell", 1, 32);
    crowd::crowd_samples(&app(), SAMPLES, mix(crowd::CROWD_SEED, 100), &machine)
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
    let meta = format!(
        r#"{{
        "api_key": "{key}",
        "tuning_problem_name": "Hypre",
        "problem_space": {{
            "input_space": [],
            "parameter_space": {},
            "output_space": [{{"name": "runtime", "type": "real"}}]
        }},
        "sync_crowd_repo": "no"
    }}"#,
        crowd::param_descs(&app().tuning_space()),
    );
    Setup { db, meta }
}

fn session(setup: &Setup, seed: u64, index: usize, traced: bool) -> SessionOutcome {
    let mut out = SessionOutcome::default();
    let app = app();
    let session = {
        let _span = trace::span("core.session.open");
        CrowdSession::open(&setup.db, &setup.meta).expect("constant meta description parses")
    };
    // Every session analyses the same data with a seed of its own, so the
    // surrogate fits of a run differ as its tunes do and a run's mean
    // evens both out.
    let analysis = AnalysisConfig {
        n_samples: SOBOL_N,
        seed: mix(crowd::session_seed(seed, index), 7),
    };
    let sobol = if traced {
        // `query_sensitivity_analysis` split at its layer boundary: the
        // surrogate fit, then the Saltelli design over the surrogate.
        let model = {
            let _span = trace::span("gp.surrogate_fit");
            out.db_call(
                query_surrogate_model(&session, analysis.seed),
                "surrogate model",
            )
        };
        model.map(|model| {
            out.records = model.n_samples as u64;
            let _span = trace::span("sensitivity.analyze");
            let evals = AtomicU64::new(0);
            let space = session.tuning_space.clone();
            let result = analyze_space(&session.tuning_space, &analysis, |x| {
                evals.fetch_add(1, Ordering::Relaxed);
                let mut u = x.to_vec();
                space.snap_unit(&mut u);
                model.predict_unit(&u).0
            });
            out.model_evals = evals.into_inner();
            result
        })
    } else {
        out.db_call(
            query_sensitivity_analysis(&session, &analysis, analysis.seed),
            "sensitivity analysis",
        )
    };
    let Some(sobol) = sobol else {
        return out;
    };
    let ranked: Vec<&str> = sobol
        .result
        .ranking_by_total_effect()
        .into_iter()
        .map(|i| sobol.names[i].as_str())
        .collect();
    if !(ranked[..2].contains(&TOP_TWO[0]) && ranked[..2].contains(&TOP_TWO[1])) {
        out.problems.push(format!(
            "top total-effect parameters {:?}, expected {TOP_TWO:?}",
            &ranked[..2]
        ));
    }

    // Pin the inert parameters to the crowd's best configuration.
    let records = {
        let mut span = trace::span("db.query");
        let r = out.db_call(session.query_function_evaluations(), "query");
        if r.is_none() {
            span.fail();
        }
        r.unwrap_or_default()
    };
    out.returned = records.len() as u64;
    let Some(best) = records
        .iter()
        .filter_map(|r| Some((r, r.result.output(app.output_name())?)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(r, _)| r)
    else {
        out.problems.push("no successful crowd record".into());
        return out;
    };
    let space = &session.tuning_space;
    let pins: Vec<(&str, Value)> = ranked[KEEP..]
        .iter()
        .map(|&name| {
            let domain = &space.params()[space.index_of(name).expect("ranked name")].domain;
            let value = best
                .tuning_parameters
                .get(name)
                .and_then(|s| scalar_to_value(s, domain))
                .expect("crowd records carry every tuning parameter");
            (name, value)
        })
        .collect();
    // Kept in space order, so the reduced space is the same whenever the
    // same parameters are kept.
    let mut kept = ranked[..KEEP].to_vec();
    kept.sort_by_key(|name| space.index_of(name));
    let reduced = space
        .reduce(&kept, &pins)
        .expect("kept and pinned names partition the space");

    let config = TuneConfig {
        budget: BUDGET,
        n_init: KEEP + 1,
        seed: crowd::session_seed(seed, index),
        ..Default::default()
    };
    let mut noise = StdRng::seed_from_u64(config.seed ^ 0xAB0BA);
    let mut clock = crowd::GapClock::default();
    let mut invalid = 0usize;
    // Log-runtime objective, as in Fig. 7.
    let mut objective = |p: &Point| {
        let full = reduced.expand(p).map_err(|e| e.to_string())?;
        if !app.validate_config(&full) {
            invalid += 1;
        }
        clock.eval(|| {
            app.evaluate(&full, &mut noise)
                .map(f64::ln)
                .map_err(|e| e.to_string())
        })
    };
    let result = {
        let _span = trace::span("tuner.tune");
        tune_notla(reduced.sub_space(), &mut objective, &config)
    };
    out.gaps_ms = std::mem::take(&mut clock.gaps_ms);
    out.absorb_history(&result.history, f64::exp);
    if invalid > 0 || result.history.len() != BUDGET {
        out.problems.push(format!(
            "{} evaluations (budget {BUDGET}), {invalid} invalid configurations",
            result.history.len()
        ));
    }
    out
}

/// Run the workload; a traced run returns its spans.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Vec<Span> {
    println!(
        "input           {SAMPLES} Hypre crowd samples, Saltelli N={SOBOL_N}, keep {KEEP}, NoTLA budget {BUDGET}"
    );
    if !traced {
        crowd::timing_run(
            &PLAN,
            seconds,
            report,
            &mut || crowd::timed(|| setup(seed)),
            None,
            &mut |setup, i| session(setup, seed, i, false),
        );
        return Vec::new();
    }
    let setup = setup(seed);
    let mut run_session = |i: usize, t: bool| session(&setup, seed, i, t);
    let (spans, outcomes, overhead) = crowd::traced_run(&PLAN, seconds, report, &mut run_session);
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
        assert_eq!(a.len(), SAMPLES);
        assert_eq!(a, crowd_data());
    }
}
