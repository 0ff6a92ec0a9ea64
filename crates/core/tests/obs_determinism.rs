//! Enabling observability must not change tuner output: the metrics and
//! journal layers are observation-only (no RNG consumption, no
//! floating-point reassociation), so a run with obs fully enabled is
//! bitwise identical to the same run with obs disabled.
//!
//! CI runs this file twice — on the default rayon pool and with
//! `RAYON_NUM_THREADS=1` — because the thread count is fixed per process.

use crowdtune_apps::{Application, DemoFunction};
use crowdtune_core::tuner::{tune_notla, tune_tla_constrained, TuneConfig, TuneResult};
use crowdtune_core::{dims_of, Dataset, SourceTask, WeightedSum};
use crowdtune_obs as obs;
use crowdtune_space::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A bitwise fingerprint of a tuning history: unit coordinates and
/// objective values as raw `f64` bits, plus proposer labels and failure
/// reasons verbatim.
fn fingerprint(result: &TuneResult) -> Vec<(Vec<u64>, Result<u64, String>, String)> {
    result
        .history
        .iter()
        .map(|r| {
            (
                r.unit.iter().map(|v| v.to_bits()).collect(),
                r.result.as_ref().map(|y| y.to_bits()).map_err(Clone::clone),
                r.proposed_by.clone(),
            )
        })
        .collect()
}

fn source_task() -> SourceTask {
    let app = DemoFunction::new(0.8);
    let space = app.tuning_space();
    let mut ds = Dataset::default();
    for i in 0..30 {
        let x = (i as f64 + 0.5) / 30.0;
        ds.push(vec![x], DemoFunction::value(0.8, x));
    }
    let mut rng = StdRng::seed_from_u64(3);
    SourceTask::fit("t=0.8", ds, &dims_of(&space), &mut rng).expect("source fit")
}

fn run_notla(seed: u64) -> TuneResult {
    let app = DemoFunction::new(1.2);
    let space = app.tuning_space();
    let mut noise_rng = StdRng::seed_from_u64(seed ^ 0xAB);
    let mut calls = 0usize;
    let mut objective = |p: &Point| {
        calls += 1;
        if calls == 3 {
            // One deterministic failure so the failure path is covered.
            return Err("synthetic failure".to_string());
        }
        app.evaluate(p, &mut noise_rng).map_err(|e| e.to_string())
    };
    let config = TuneConfig {
        budget: 8,
        n_init: 3,
        seed,
        ..Default::default()
    };
    tune_notla(&space, &mut objective, &config)
}

fn run_tla(seed: u64, source: &SourceTask) -> TuneResult {
    let app = DemoFunction::new(1.2);
    let space = app.tuning_space();
    let mut noise_rng = StdRng::seed_from_u64(seed ^ 0xCD);
    let mut objective = |p: &Point| app.evaluate(p, &mut noise_rng).map_err(|e| e.to_string());
    let config = TuneConfig {
        budget: 6,
        seed,
        ..Default::default()
    };
    let mut strategy = WeightedSum::dynamic();
    tune_tla_constrained(
        &space,
        &mut objective,
        std::slice::from_ref(source),
        &mut strategy,
        &config,
        None,
    )
}

/// Run `f` once with obs disabled, once with metrics + a journal
/// installed, and once with request tracing also enabled; all three
/// histories must match bit for bit.
fn assert_obs_invariant<F: Fn() -> TuneResult>(label: &str, f: F) {
    obs::set_metrics_enabled(false);
    let baseline = fingerprint(&f());

    let dir = std::env::temp_dir().join("crowdtune_obs_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{label}.jsonl"));
    obs::set_metrics_enabled(true);
    let journal = Arc::new(obs::Journal::create(&path).unwrap());
    obs::install_journal(journal);
    let instrumented = fingerprint(&f());

    // Request tracing on top: the trace layer records timestamps into
    // thread-local rings and never consumes RNG, so it must not move a
    // single bit either.
    obs::set_tracing_enabled(true);
    let traced = fingerprint(&f());
    obs::set_tracing_enabled(false);
    obs::reset_traces();
    obs::uninstall_journal();
    obs::set_metrics_enabled(false);

    assert_eq!(
        baseline, instrumented,
        "{label}: instrumented run diverged from baseline"
    );
    assert_eq!(
        baseline, traced,
        "{label}: traced run diverged from baseline"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn notla_output_unchanged_by_obs() {
    assert_obs_invariant("notla", || run_notla(41));
}

#[test]
fn tla_output_unchanged_by_obs() {
    let source = source_task();
    assert_obs_invariant("tla", || run_tla(42, &source));
}

#[test]
fn run_stats_populated_when_obs_enabled() {
    obs::set_metrics_enabled(true);
    let result = run_notla(7);
    obs::set_metrics_enabled(false);
    assert_eq!(result.stats.iterations, 8);
    assert_eq!(result.stats.failures, 1);
    assert!(result.stats.total_time_ns > 0);
    // The NoTLA loop refits its GP after initialization, so fit time and
    // refit counts must be visible in the scope-derived stats.
    assert!(result.stats.surrogate_refits > 0);
    assert!(result.stats.fit_time_ns > 0);
    assert!(result.stats.eval_time_ns > 0);
}
