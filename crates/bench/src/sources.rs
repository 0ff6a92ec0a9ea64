//! Source-task data collection for the transfer-learning experiments.
//!
//! The paper collects each source dataset as "randomly chosen parameter
//! configurations" evaluated on the source task. This module does the
//! same against the simulated applications, and can optionally route the
//! data through the shared [`HistoryDb`] (upload + re-query) so the
//! benchmark exercises the full crowd pipeline rather than passing
//! vectors around.

use crowdtune_apps::Application;
use crowdtune_core::data::{value_to_scalar, Dataset};
use crowdtune_core::tuner::dims_of;
use crowdtune_core::SourceTask;
use crowdtune_db::{EvalOutcome, FunctionEvaluation, HistoryDb, QuerySpec};
use crowdtune_space::sample_uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Evaluate `n` uniformly random configurations of `app`, returning the
/// successful ones as a unit-cube dataset (failures are dropped, as the
/// paper's surrogate fitting does).
fn collect_source_data(app: &dyn Application, n: usize, seed: u64) -> Dataset {
    let space = app.tuning_space();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::default();
    let mut tries = 0usize;
    // Structurally invalid draws are re-drawn (a crowd user's tuning
    // script enforces the same constraints); genuine runtime failures
    // (OOM) are kept out of the dataset, as the paper's fitting does.
    while ds.len() < n && tries < n * 60 {
        tries += 1;
        let point = sample_uniform(&space, 1, &mut rng)
            .pop()
            .expect("one point");
        if !app.validate_config(&point) {
            continue;
        }
        if let Ok(y) = app.evaluate(&point, &mut rng) {
            let unit = space.to_unit(&point).expect("sampled point valid");
            ds.push(unit, y);
        }
    }
    ds
}

/// Collect source data and fit the cached source GP in one step.
pub fn source_task_from_app(app: &dyn Application, name: &str, n: usize, seed: u64) -> SourceTask {
    let ds = collect_source_data(app, n, seed);
    let dims = dims_of(&app.tuning_space());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    SourceTask::fit(name, ds, &dims, &mut rng).expect("source GP fit")
}

/// Evaluate `n` random configurations of `app` and upload every outcome
/// (including failures) to the shared database under `api_key`. Returns
/// the number of successful runs.
pub fn upload_source_data(
    db: &HistoryDb,
    api_key: &str,
    app: &dyn Application,
    n: usize,
    seed: u64,
) -> usize {
    let space = app.tuning_space();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ok = 0;
    let mut uploaded = 0usize;
    let mut tries = 0usize;
    while uploaded < n && tries < n * 60 {
        tries += 1;
        let point = sample_uniform(&space, 1, &mut rng)
            .pop()
            .expect("one point");
        if !app.validate_config(&point) {
            continue;
        }
        uploaded += 1;
        let outcome = match app.evaluate(&point, &mut rng) {
            Ok(y) => {
                ok += 1;
                EvalOutcome::single(app.output_name(), y)
            }
            Err(e) => EvalOutcome::Failed {
                reason: e.to_string(),
            },
        };
        let mut eval = FunctionEvaluation::new(app.name(), "bench");
        eval.task_parameters = app.task_parameters();
        for (param, value) in space.params().iter().zip(&point) {
            eval.tuning_parameters
                .insert(param.name.clone(), value_to_scalar(value, &param.domain));
        }
        eval = eval.outcome(outcome);
        db.submit(api_key, eval).expect("bench upload");
    }
    ok
}

/// Re-query uploaded data for an application and build a [`SourceTask`]
/// from it (the full crowd round trip).
pub fn source_task_from_db(
    db: &HistoryDb,
    api_key: &str,
    app: &dyn Application,
    name: &str,
) -> SourceTask {
    let space = app.tuning_space();
    let records = db
        .query(api_key, &QuerySpec::all_of(app.name()))
        .expect("bench query");
    let (ds, _skipped) = crowdtune_core::records_to_dataset(&records, &space, app.output_name());
    let dims = dims_of(&space);
    let mut rng = StdRng::seed_from_u64(0xDB);
    SourceTask::fit(name, ds, &dims, &mut rng).expect("source GP fit from db")
}
