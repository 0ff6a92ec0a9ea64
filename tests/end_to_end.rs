//! Cross-crate integration tests: the full crowd-tuning pipelines,
//! exercised through the public facade crate exactly as a downstream
//! user would.

use crowdtune::apps::{DemoFunction, HypreAmg, Nimrod, Pdgeqrf};
use crowdtune::prelude::*;
use crowdtune::tuner::data::value_to_scalar;
use crowdtune::tuner::tune_tla_constrained;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Upload `n` valid random samples of an application to the db.
fn upload_samples(db: &HistoryDb, key: &str, app: &dyn Application, n: usize, seed: u64) -> usize {
    let space = app.tuning_space();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut count = 0;
    let mut tries = 0;
    while count < n && tries < 100 * n {
        tries += 1;
        let point = crowdtune::space::sample_uniform(&space, 1, &mut rng)
            .pop()
            .unwrap();
        if !app.validate_config(&point) {
            continue;
        }
        let outcome = match app.evaluate(&point, &mut rng) {
            Ok(y) => EvalOutcome::single(app.output_name(), y),
            Err(e) => EvalOutcome::Failed {
                reason: e.to_string(),
            },
        };
        let mut eval = FunctionEvaluation::new(app.name(), "tester");
        eval.task_parameters = app.task_parameters();
        for (param, value) in space.params().iter().zip(&point) {
            eval.tuning_parameters
                .insert(param.name.clone(), value_to_scalar(value, &param.domain));
        }
        db.submit(key, eval.outcome(outcome)).expect("submit");
        count += 1;
    }
    count
}

#[test]
fn notla_tunes_pdgeqrf_under_constraints() {
    let app = Pdgeqrf::new(8_000, 8_000, MachineModel::cori_haswell(8));
    let space = app.tuning_space();
    let mut noise = StdRng::seed_from_u64(17);
    let mut objective = |p: &Point| app.evaluate(p, &mut noise).map_err(|e| e.to_string());
    let constraint = |p: &Point| app.validate_config(p);
    let config = TuneConfig {
        budget: 12,
        seed: 5,
        ..Default::default()
    };
    let result = tune(
        &space,
        &mut objective,
        &[],
        &mut NoTla::new(),
        &config,
        Some(&constraint),
        None,
    )
    .unwrap();
    // No structural failures at all: the constraint filters them.
    assert_eq!(result.failures(), 0, "history: {:?}", result.history);
    let (_, best) = result.best().unwrap();
    // A decent configuration is clearly under 3 seconds in this model.
    assert!(best < 3.0, "best = {best}");
}

#[test]
fn transfer_learning_beats_no_transfer_on_demo() {
    // The paper's core claim, at miniature scale and with fixed seeds:
    // at a 5-evaluation budget, ensemble TLA with a correlated source
    // should match or beat NoTLA on the demo function.
    let source_app = DemoFunction::new(0.8);
    let target = DemoFunction::new(1.0);
    let space = target.tuning_space();

    // Source data.
    let mut ds = Dataset::default();
    let mut rng = StdRng::seed_from_u64(3);
    for p in crowdtune::space::sample_uniform(&space, 60, &mut rng) {
        let y = source_app.evaluate(&p, &mut rng).unwrap();
        ds.push(space.to_unit(&p).unwrap(), y);
    }
    let sources = vec![SourceTask::fit("t=0.8", ds, &dims_of(&space), &mut rng).unwrap()];

    let mut best_tla = f64::INFINITY;
    let mut best_notla = f64::INFINITY;
    for seed in [1u64, 2, 3] {
        let config = TuneConfig {
            budget: 5,
            seed,
            ..Default::default()
        };
        let mut noise = StdRng::seed_from_u64(seed);
        let mut obj = |p: &Point| target.evaluate(p, &mut noise).map_err(|e| e.to_string());
        let mut ensemble = Ensemble::proposed_default();
        let r = tune_tla_constrained(&space, &mut obj, &sources, &mut ensemble, &config, None);
        best_tla = best_tla.min(r.best().unwrap().1);

        let mut noise = StdRng::seed_from_u64(seed);
        let mut obj = |p: &Point| target.evaluate(p, &mut noise).map_err(|e| e.to_string());
        let r = crowdtune::tuner::tune_notla(&space, &mut obj, &config);
        best_notla = best_notla.min(r.best().unwrap().1);
    }
    assert!(
        best_tla <= best_notla + 0.05,
        "tla {best_tla} should be <= notla {best_notla} at tiny budget"
    );
}

#[test]
fn meta_description_session_roundtrip() {
    let db = HistoryDb::new();
    let mut rng = StdRng::seed_from_u64(1);
    let key = db
        .register_user("tester", "t@x.org", true, &mut rng)
        .unwrap();
    let app = Pdgeqrf::new(10_000, 10_000, MachineModel::cori_haswell(8));
    let n = upload_samples(&db, &key, &app, 40, 77);
    assert_eq!(n, 40);

    let meta = format!(
        r#"{{
        "api_key": "{key}",
        "tuning_problem_name": "PDGEQRF",
        "problem_space": {{
            "input_space": [
                {{"name": "m", "type": "integer", "lower_bound": 1000, "upper_bound": 20000}},
                {{"name": "n", "type": "integer", "lower_bound": 1000, "upper_bound": 20000}}
            ],
            "parameter_space": [
                {{"name": "mb", "type": "integer", "lower_bound": 1, "upper_bound": 16}},
                {{"name": "nb", "type": "integer", "lower_bound": 1, "upper_bound": 16}},
                {{"name": "lg2npernode", "type": "integer", "lower_bound": 0, "upper_bound": 5}},
                {{"name": "p", "type": "integer", "lower_bound": 1, "upper_bound": 256}}
            ],
            "output_space": [{{"name": "runtime", "type": "real"}}]
        }},
        "sync_crowd_repo": "yes"
    }}"#
    );
    let session = CrowdSession::open(&db, &meta).unwrap();
    let evals = session.query_function_evaluations().unwrap();
    assert!(!evals.is_empty());
    let tasks = session.source_tasks(10).unwrap();
    assert_eq!(tasks.len(), 1, "one task group (m=n=10000)");
    assert!(tasks[0].data.len() >= 10);

    // Surrogate + prediction utilities run end to end.
    let model = crowdtune::tuner::query_surrogate_model(&session, 0).unwrap();
    assert!(model.n_samples >= 10);
    let some_point = vec![Value::Int(4), Value::Int(4), Value::Int(3), Value::Int(8)];
    let (mean, std) = model.predict(&some_point).unwrap();
    assert!(mean.is_finite() && std >= 0.0);
}

#[test]
fn sensitivity_to_reduction_pipeline_on_hypre() {
    let db = HistoryDb::new();
    let mut rng = StdRng::seed_from_u64(2);
    let key = db
        .register_user("tester", "t@x.org", true, &mut rng)
        .unwrap();
    let app = HypreAmg::new(60, 60, 60, MachineModel::cori_haswell(1));
    upload_samples(&db, &key, &app, 250, 123);

    let cats = |list: &[&str]| -> String {
        list.iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let meta = format!(
        r#"{{
        "api_key": "{key}",
        "tuning_problem_name": "Hypre",
        "problem_space": {{
            "input_space": [],
            "parameter_space": [
                {{"name": "Px", "type": "integer", "lower_bound": 1, "upper_bound": 32}},
                {{"name": "Py", "type": "integer", "lower_bound": 1, "upper_bound": 32}},
                {{"name": "Nproc", "type": "integer", "lower_bound": 1, "upper_bound": 32}},
                {{"name": "strong_threshold", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}},
                {{"name": "trunc_factor", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}},
                {{"name": "P_max_elmts", "type": "integer", "lower_bound": 1, "upper_bound": 12}},
                {{"name": "coarsen_type", "type": "categorical", "categories": [{}]}},
                {{"name": "relax_type", "type": "categorical", "categories": [{}]}},
                {{"name": "smooth_type", "type": "categorical", "categories": [{}]}},
                {{"name": "smooth_num_levels", "type": "integer", "lower_bound": 0, "upper_bound": 5}},
                {{"name": "interp_type", "type": "categorical", "categories": [{}]}},
                {{"name": "agg_num_levels", "type": "integer", "lower_bound": 0, "upper_bound": 5}}
            ],
            "output_space": [{{"name": "runtime", "type": "real"}}]
        }},
        "sync_crowd_repo": "no"
    }}"#,
        cats(&crowdtune::apps::COARSEN_TYPES),
        cats(&crowdtune::apps::RELAX_TYPES),
        cats(&crowdtune::apps::SMOOTH_TYPES),
        cats(&crowdtune::apps::INTERP_TYPES),
    );
    let session = CrowdSession::open(&db, &meta).unwrap();
    let analysis = crowdtune::tuner::query_sensitivity_analysis(
        &session,
        &AnalysisConfig {
            n_samples: 256,
            seed: 0,
        },
        0,
    )
    .unwrap();
    // The nearly-inert parameters must score near zero on the surrogate.
    for name in ["strong_threshold", "trunc_factor", "P_max_elmts", "Px"] {
        let p = analysis.for_param(name).unwrap();
        assert!(p.st < 0.1, "{name} ST = {}", p.st);
    }
    // Something must be influential, and it must include one of the
    // smoother/aggregation knobs.
    let infl = analysis.influential_names(0.1);
    assert!(!infl.is_empty());
    assert!(
        infl.iter()
            .any(|n| { ["smooth_type", "smooth_num_levels", "agg_num_levels"].contains(n) }),
        "influential: {infl:?}"
    );

    // Reduce and tune the reduced space — must produce a valid result.
    let space = session.tuning_space.clone();
    let reduced = space
        .reduce(
            &["smooth_type", "smooth_num_levels", "agg_num_levels"],
            &[
                ("Px", Value::Int(4)),
                ("Py", Value::Int(4)),
                ("Nproc", Value::Int(16)),
                ("strong_threshold", Value::Real(0.25)),
                ("trunc_factor", Value::Real(0.0)),
                ("P_max_elmts", Value::Int(4)),
                ("coarsen_type", Value::Cat(2)),
                ("relax_type", Value::Cat(3)),
                ("interp_type", Value::Cat(0)),
            ],
        )
        .unwrap();
    let mut noise = StdRng::seed_from_u64(9);
    let mut obj = |p: &Point| {
        let full = reduced.expand(p).unwrap();
        app.evaluate(&full, &mut noise).map_err(|e| e.to_string())
    };
    let config = TuneConfig {
        budget: 8,
        seed: 4,
        ..Default::default()
    };
    let result = crowdtune::tuner::tune_notla(reduced.sub_space(), &mut obj, &config);
    assert!(result.best().is_some());
}

#[test]
fn nimrod_oom_failures_recorded_not_fitted() {
    // The big NIMROD task has a genuine OOM region at high npz; the tuner
    // must keep going and report failures in the history.
    let app = Nimrod::new(6, 8, 1, MachineModel::cori_haswell(64));
    let space = app.tuning_space();
    let mut noise = StdRng::seed_from_u64(8);
    let mut objective = |p: &Point| app.evaluate(p, &mut noise).map_err(|e| e.to_string());
    let constraint = |p: &Point| app.validate_config(p);
    let config = TuneConfig {
        budget: 10,
        seed: 21,
        ..Default::default()
    };
    let result = tune(
        &space,
        &mut objective,
        &[],
        &mut NoTla::new(),
        &config,
        Some(&constraint),
        None,
    )
    .unwrap();
    assert_eq!(result.history.len(), 10);
    assert!(
        result.best().is_some(),
        "some configuration must fit in memory"
    );
    // Any recorded failures must be OOM (structural ones are filtered).
    for rec in &result.history {
        if let Err(e) = &rec.result {
            assert!(e.contains("memory"), "unexpected failure: {e}");
        }
    }
}

#[test]
fn tla_strategies_all_run_on_a_real_app() {
    let machine = MachineModel::cori_haswell(8);
    let src_app = Pdgeqrf::new(10_000, 10_000, machine.clone());
    let space = src_app.tuning_space();
    let mut rng = StdRng::seed_from_u64(4);
    let mut ds = Dataset::default();
    while ds.len() < 50 {
        let p = crowdtune::space::sample_uniform(&space, 1, &mut rng)
            .pop()
            .unwrap();
        if !src_app.validate_config(&p) {
            continue;
        }
        if let Ok(y) = src_app.evaluate(&p, &mut rng) {
            ds.push(space.to_unit(&p).unwrap(), y);
        }
    }
    let sources = vec![SourceTask::fit("src", ds, &dims_of(&space), &mut rng).unwrap()];
    let target = Pdgeqrf::new(12_000, 12_000, machine);

    let strategies: Vec<Box<dyn TlaStrategy>> = vec![
        Box::new(MultitaskPs::new()),
        Box::new(MultitaskTs::new()),
        Box::new(WeightedSum::equal()),
        Box::new(WeightedSum::dynamic()),
        Box::new(Stacking::new()),
        Box::new(Ensemble::proposed_default()),
        Box::new(Ensemble::new(
            vec![Box::new(WeightedSum::dynamic()), Box::new(Stacking::new())],
            EnsemblePolicy::Toggling,
        )),
    ];
    for mut strategy in strategies {
        let mut noise = StdRng::seed_from_u64(5);
        let mut obj = |p: &Point| target.evaluate(p, &mut noise).map_err(|e| e.to_string());
        let constraint = |p: &Point| target.validate_config(p);
        let config = TuneConfig {
            budget: 4,
            seed: 11,
            ..Default::default()
        };
        let result = tune_tla_constrained(
            &space,
            &mut obj,
            &sources,
            strategy.as_mut(),
            &config,
            Some(&constraint),
        );
        assert_eq!(result.history.len(), 4, "{}", strategy.name());
        assert!(result.best().is_some(), "{} found nothing", strategy.name());
    }
}
