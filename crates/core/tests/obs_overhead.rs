//! Disabled-path overhead guard: with metrics off and no journal, every
//! instrumentation site costs one relaxed atomic load. This test bounds
//! the total disabled-path cost of a small `tune_notla` run to well
//! under 2% of its runtime.
//!
//! Measuring "the same binary without instrumentation" is impossible, so
//! the guard is built the robust way: measure the per-call cost of the
//! disabled hooks directly, multiply by a generous overestimate of the
//! number of instrumentation sites the run executes, and compare against
//! the measured run time. Medians over repeated measurements keep the
//! test stable on noisy CI machines.

use crowdtune_apps::{Application, DemoFunction};
use crowdtune_core::tuner::{tune_notla, TuneConfig};
use crowdtune_obs as obs;
use crowdtune_space::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Median per-call cost (ns) of one disabled counter hit, one disabled
/// journal record, and one full disabled request-trace interaction
/// (context creation plus a stage record) — the hooks a service op
/// executes when tracing is off.
fn disabled_hook_cost_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..CALLS {
            obs::count(obs::names::CTR_TUNE_ITERATIONS, i & 1);
            obs::record_with(|| obs::Event::LineSearch { iteration: i });
            let ctx = obs::RequestCtx::new(obs::OpKind::Query, i as u32);
            ctx.record(obs::TraceStage::Op, obs::NO_SHARD, ctx.begin());
            std::hint::black_box(ctx.trace_id);
        }
        samples.push(start.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    median(samples)
}

fn timed_small_run() -> f64 {
    let app = DemoFunction::new(1.0);
    let space = app.tuning_space();
    let mut samples = Vec::new();
    for rep in 0..3 {
        let mut noise_rng = StdRng::seed_from_u64(rep);
        let mut objective = |p: &Point| app.evaluate(p, &mut noise_rng).map_err(|e| e.to_string());
        let config = TuneConfig {
            budget: 10,
            n_init: 4,
            seed: rep,
            ..Default::default()
        };
        let start = Instant::now();
        let result = tune_notla(&space, &mut objective, &config);
        samples.push(start.elapsed().as_nanos() as f64);
        assert_eq!(result.history.len(), 10);
    }
    median(samples)
}

#[test]
fn disabled_path_overhead_below_two_percent() {
    obs::set_metrics_enabled(false);
    let per_call = disabled_hook_cost_ns();
    let run_ns = timed_small_run();

    // Generous overestimate of disabled hook executions one iteration can
    // reach: the iteration hooks, a GP fit with its per-restart events,
    // line-search and jitter hooks (taken only on their failure branches),
    // an acquisition batch, and the span enter/exits — a few dozen in
    // practice, bounded here at 500.
    let sites_per_iter = 500.0;
    let budget = 10.0;
    let overhead_ns = per_call * sites_per_iter * budget;

    let ratio = overhead_ns / run_ns;
    assert!(
        ratio < 0.02,
        "disabled-path overhead {:.4}% (per-call {per_call:.2} ns, run {:.2} ms)",
        ratio * 100.0,
        run_ns / 1e6,
    );
}
