//! Instrumented end-to-end smoke run for the observability layer.
//!
//! Enables metrics, installs a per-run event journal, and drives the
//! full crowd pipeline through every instrumented subsystem: source data
//! is uploaded to and re-queried from the shared database (upload,
//! dbquery — including an access-control denial), a Sobol sensitivity
//! analysis and space reduction run (saltelli, sobol, spacereduce), a
//! transfer-learning tune runs with deterministic early failures
//! (iteration, fit, restart, acquisition, weights, exclusion,
//! runstart/runend, profile), a `NoTLA` tune on a tight refit schedule
//! exercises the amortized surrogate (refit, warmstart — and, with a
//! journal installed, calibration events from the held-out scoring
//! hook), a degenerate Gram factorization exercises jitter escalation
//! (jitter), and a quality scorer is driven over a synthetic stream
//! with one outlier and one duplicate disagreement (qualityscore,
//! quarantine). The journal is then validated with
//! `crowdtune-report report --require-kinds <every kind above>` in CI.
//!
//! With `--expose <addr>` the live metrics are additionally served in
//! Prometheus text format for the duration of the run (and scraped once
//! before exit); `--expose-oneshot <path>` writes a final scrape to a
//! file instead of opening a socket.
//!
//! Run: `cargo run --release -p crowdtune-bench --bin obs_smoke \
//!       [--journal results/obs_journal.jsonl] [--budget 12] \
//!       [--expose 127.0.0.1:9184] [--expose-oneshot results/metrics.prom]`

use crowdtune_apps::{Application, DemoFunction};
use crowdtune_bench::{arg_value, upload_source_data};
use crowdtune_core::tuner::{tune_notla, tune_tla_constrained, SurrogateTier, TuneConfig};
use crowdtune_core::{
    dims_of, records_to_dataset, QualityConfig, QualityScorer, SourceTask, WeightedSum,
};
use crowdtune_db::{Access, EvalOutcome, FunctionEvaluation, HistoryDb, QuerySpec};
use crowdtune_gp::{Prediction, RefitSchedule};
use crowdtune_linalg::{Cholesky, Matrix};
use crowdtune_obs as obs;
use crowdtune_sensitivity::{sobol_indices, SaltelliDesign};
use crowdtune_space::{Param, Point, Space, Value};
use crowdtune_telemetry::ExpositionServer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let journal_path =
        arg_value("--journal").unwrap_or_else(|| "results/obs_journal.jsonl".to_string());
    let budget: usize = arg_value("--budget")
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);

    obs::set_metrics_enabled(true);
    let journal = Arc::new(obs::Journal::create(&journal_path).expect("create journal"));
    obs::install_journal(Arc::clone(&journal));

    // Optional live exposition for the whole run.
    let server = arg_value("--expose").map(|addr| {
        let server = ExpositionServer::start(&addr).expect("bind exposition endpoint");
        eprintln!("exposing metrics at http://{}/metrics", server.local_addr());
        server
    });

    // --- Crowd database round trip: upload source data, query it back ---
    let db = HistoryDb::new();
    let mut rng = StdRng::seed_from_u64(0x0B5);
    let key = db
        .register_user("smoke", "smoke@crowdtune.dev", true, &mut rng)
        .unwrap();
    let other = db
        .register_user("other", "other@crowdtune.dev", true, &mut rng)
        .unwrap();
    let source_app = DemoFunction::new(0.8);
    let ok = upload_source_data(&db, &key, &source_app, 40, 11);
    eprintln!("uploaded {ok}/40 successful source samples");

    // A private record owned by another user: the smoke user's query must
    // scan past it, producing an access-control denial in the journal.
    let private = FunctionEvaluation::new("demo", "ignored")
        .param("x", 0.5)
        .outcome(EvalOutcome::single("y", 1.0))
        .with_access(Access::Private);
    db.submit(&other, private).expect("private upload");

    let records = db.query(&key, &QuerySpec::all_of("demo")).expect("query");
    let space = source_app.tuning_space();
    let (mut ds, _skipped) = records_to_dataset(&records, &space, "y");

    // Exactly repeated configurations make the source kernel matrix
    // singular, pushing the source GP fit toward jitter escalation.
    for i in 0..ds.len().min(4) {
        let (x, y) = (ds.x[i].clone(), ds.y[i]);
        ds.push(x, y);
    }
    let dims = dims_of(&space);
    let mut fit_rng = StdRng::seed_from_u64(0x5EED);
    let source = SourceTask::fit("t=0.8", ds, &dims, &mut fit_rng).expect("source fit");

    // Deterministic numerical-recovery probe: a rank-1 Gram matrix is PSD
    // but singular, so the factorization must escalate jitter to recover.
    let v = [1.0, 0.5, 0.25, 0.125];
    let mut gram = Matrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            gram[(i, j)] = v[i] * v[j];
        }
    }
    Cholesky::with_jitter(&gram, 0.0, 1e-3).expect("jitter recovery");

    // --- Instrumented sensitivity analysis + space reduction ------------
    // A mini Sobol study on an Ishigami-style model: enough samples for
    // the journal to carry real saltelli/sobol events, cheap enough for a
    // smoke run. The (insensitive) third parameter is then fixed via
    // `Space::reduce`, journaling the spacereduce event.
    let design = SaltelliDesign::generate(3, 64, 0x50B01);
    let evals = design.evaluate(|x| {
        let map = |u: f64| -std::f64::consts::PI + 2.0 * std::f64::consts::PI * u;
        map(x[0]).sin() + 7.0 * map(x[1]).sin().powi(2)
    });
    let sens = sobol_indices(&evals, 0x50B02);
    eprintln!(
        "sensitivity: ST = {:?}",
        sens.params.iter().map(|p| p.st).collect::<Vec<_>>()
    );
    let sens_space = Space::new(vec![
        Param::real("a", 0.0, 1.0),
        Param::real("b", 0.0, 1.0),
        Param::real("c", 0.0, 1.0),
    ])
    .expect("sensitivity space");
    sens_space
        .reduce(&["a", "b"], &[("c", Value::Real(0.5))])
        .expect("space reduction");

    // --- Instrumented transfer-learning tune ----------------------------
    let target = DemoFunction::new(1.2);
    let mut noise_rng = StdRng::seed_from_u64(0xF00D);
    let mut calls = 0usize;
    let mut objective = |p: &Point| {
        calls += 1;
        // The first two evaluations fail deterministically (a synthetic
        // OOM), so the run exercises failure recording and the candidate
        // exclusion path.
        if calls <= 2 {
            return Err("synthetic failure".to_string());
        }
        target
            .evaluate(p, &mut noise_rng)
            .map_err(|e| e.to_string())
    };
    let config = TuneConfig {
        budget,
        seed: 0xC0FFEE,
        ..Default::default()
    };
    let mut strategy = WeightedSum::dynamic();
    let result = tune_tla_constrained(
        &space,
        &mut objective,
        &[source],
        &mut strategy,
        &config,
        None,
    );
    eprintln!(
        "tuned: best {:?}, {} iterations ({} failures), fit {:.1} ms, acquisition {:.1} ms",
        result.best().map(|(_, y)| y),
        result.stats.iterations,
        result.stats.failures,
        result.stats.fit_time_ns as f64 / 1e6,
        result.stats.acquisition_time_ns as f64 / 1e6,
    );

    // --- NoTLA on a tight refit schedule: refit + warmstart events ------
    // `every: 4` forces several full refits within a small budget, so the
    // journal carries both incremental-append refit events and at least
    // one warm-started (reduced-restart-eligible) full refit.
    let mut notla_rng = StdRng::seed_from_u64(0xA11C);
    let mut notla_objective = |p: &Point| {
        target
            .evaluate(p, &mut notla_rng)
            .map_err(|e| e.to_string())
    };
    let notla_config = TuneConfig {
        budget: budget.max(10),
        seed: 0xC0FFEE,
        refit: RefitSchedule {
            every: 4,
            min_points: 3,
            ..RefitSchedule::default()
        },
        ..Default::default()
    };
    let notla = tune_notla(&space, &mut notla_objective, &notla_config);
    eprintln!(
        "notla (amortized): best {:?}, {} refits across {} iterations",
        notla.best().map(|(_, y)| y),
        notla.stats.surrogate_refits,
        notla.stats.iterations,
    );

    // --- NoTLA with a crowd-scale tier threshold: tierswitch event ------
    // A threshold far below the budget forces the escalation from the
    // exact GP to the sparse inducing-point tier mid-run, so the journal
    // deterministically carries a `tierswitch` event (and the sparse
    // tier's own refit/reselection events).
    let mut tier_rng = StdRng::seed_from_u64(0x71E2);
    let mut tier_objective =
        |p: &Point| target.evaluate(p, &mut tier_rng).map_err(|e| e.to_string());
    let tier_config = TuneConfig {
        budget: budget.max(14),
        seed: 0xC0FFEE,
        tier: SurrogateTier {
            threshold: 8,
            m_inducing: 6,
        },
        ..Default::default()
    };
    let tiered = tune_notla(&space, &mut tier_objective, &tier_config);
    eprintln!(
        "notla (sparse tier): best {:?} across {} iterations",
        tiered.best().map(|(_, y)| y),
        tiered.stats.iterations,
    );

    // --- Data-quality scoring: qualityscore + quarantine events ---------
    // The NoTLA loop above already journals `calibration` events; here a
    // scorer is driven directly with a synthetic stream containing one
    // gross outlier and one duplicate-config disagreement, so the journal
    // deterministically carries flagged `qualityscore` events and their
    // `quarantine` lifecycle markers.
    let mut scorer = QualityScorer::new("smoke", QualityConfig::default());
    for i in 0..8u64 {
        let x = i as f64 * 0.1;
        scorer.observe(
            i,
            &[x],
            1.0 + 0.01 * x,
            Some(Prediction {
                mean: 1.0,
                std: 0.1,
            }),
        );
    }
    // Same configuration, wildly different measurement: duplicate
    // disagreement.
    scorer.observe(
        8,
        &[0.0],
        3.0,
        Some(Prediction {
            mean: 1.0,
            std: 0.1,
        }),
    );
    // A measurement hundreds of sigma from a confident prediction:
    // guaranteed outlier flag.
    scorer.observe(
        9,
        &[0.95],
        500.0,
        Some(Prediction {
            mean: 1.0,
            std: 0.1,
        }),
    );
    let quality = scorer.finalize(None);
    eprintln!(
        "quality: {} scored, {} flagged, {} duplicate disagreements",
        scorer.scored(),
        quality.flagged.len(),
        quality.duplicates,
    );
    assert!(
        !quality.flagged.is_empty(),
        "synthetic outlier must be flagged"
    );

    obs::journal_flush();
    let lines = journal.lines();
    obs::uninstall_journal();

    // Export the live process-metrics snapshot next to the journal.
    let snapshot = obs::snapshot();
    let metrics_path = "results/obs_metrics.json";
    std::fs::write(
        metrics_path,
        serde_json::to_string_pretty(&snapshot).expect("snapshot serializes"),
    )
    .expect("write metrics snapshot");

    // Serve/export the Prometheus view after the full pipeline has run.
    if let Some(server) = server {
        let scraped = crowdtune_telemetry::exposition::scrape(server.local_addr())
            .expect("self-scrape exposition endpoint");
        let families = scraped.lines().filter(|l| l.starts_with("# TYPE")).count();
        println!("exposition: {families} metric families served live");
        server.shutdown();
    }
    if let Some(path) = arg_value("--expose-oneshot") {
        crowdtune_telemetry::write_oneshot(&path).expect("write oneshot exposition");
        println!("exposition: {path}");
    }

    println!("journal: {journal_path} ({lines} events)");
    println!("metrics: {metrics_path}");
    assert!(lines > 0, "journal must not be empty");
}
