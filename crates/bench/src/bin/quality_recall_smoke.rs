//! End-to-end corruption-recall smoke for the data-quality pipeline
//! (ISSUE 8 acceptance criteria), CI-runnable and fully deterministic.
//!
//! Two tunes of the same seeded problem run under online quality
//! scoring:
//!
//! 1. **alice** runs the objective untouched — her scorer must produce
//!    **zero** flags (no false positives on clean data);
//! 2. **mallory** runs the identical objective through a noise-only
//!    [`FaultPlan`] that silently inflates ~30% of her measurements —
//!    her scorer must flag **≥ 90%** of the injected corruptions,
//!    cross-checked against the injector's own ground-truth decisions.
//!
//! Both histories are then uploaded to a shared [`HistoryDb`] with full
//! provenance (mallory's records carry the fault-plan seed and call
//! index via [`Provenance::simulated`]), the journal is rolled up into
//! the fleet-level [`QualityRollup`], and the rollup must name mallory —
//! and only mallory — as the worst contributor. The Prometheus view of
//! the rollup is written for CI to scrape, and the metrics snapshot is
//! exported for SLO evaluation against `examples/slo_quality.json`.
//!
//! The journal (default `results/quality_journal.jsonl`) comes out
//! covering `upload`, `faultinject`, `qualityscore`, `quarantine`, and
//! `calibration`; CI validates it with `crowdtune-report report --quality`.
//! Any violated invariant panics, so the process exits non-zero.
//!
//! Run: `cargo run --release -p crowdtune-bench --bin quality_recall_smoke \
//!       [--journal results/quality_journal.jsonl]`

use std::collections::HashSet;
use std::sync::Arc;

use crowdtune_apps::{Application, DemoFunction, FaultInjector, FaultPlan, InjectedFault};
use crowdtune_bench::arg_value;
use crowdtune_core::tuner::{tune, TuneConfig, TuneResult};
use crowdtune_core::{NoTla, QualityConfig, QualityScorer};
use crowdtune_db::{EvalOutcome, FunctionEvaluation, HistoryDb, Provenance};
use crowdtune_obs as obs;
use crowdtune_space::Point;
use crowdtune_telemetry::{render_quality_prometheus, render_quality_rollup, QualityRollup};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mirrors `crates/core/tests/quality_recall.rs`: same budget, tune
/// seed, and plan seed, so the recall characteristics are the
/// test-validated ones.
const BUDGET: usize = 28;
const TUNE_SEED: u64 = 0x0051;
const PLAN_SEED: u64 = 20;

fn noise_plan() -> FaultPlan {
    FaultPlan {
        seed: PLAN_SEED,
        p_transient: 0.0,
        p_timeout: 0.0,
        p_corrupt: 0.0,
        p_noise: 0.3,
        deadline_s: f64::INFINITY,
        max_noise_factor: 30.0,
    }
}

fn config() -> TuneConfig {
    TuneConfig {
        budget: BUDGET,
        seed: TUNE_SEED,
        ..Default::default()
    }
}

/// Upload a tuning history to the shared database under the named
/// contributor; simulated runs stamp fault-plan coordinates.
fn upload_history(
    db: &HistoryDb,
    key: &str,
    user: &str,
    result: &TuneResult,
    fault_seed: Option<u64>,
) -> usize {
    let mut ok = 0;
    for (i, rec) in result.history.iter().enumerate() {
        let Ok(y) = rec.result else { continue };
        let mut prov = Provenance::contributor(user);
        if let Some(seed) = fault_seed {
            prov = prov.simulated(seed, i as u64);
        }
        let eval = FunctionEvaluation::new("demo", user)
            .param("x", rec.unit[0])
            .outcome(EvalOutcome::single("y", y))
            .with_provenance(prov);
        if db.submit(key, eval).is_ok() {
            ok += 1;
        }
    }
    ok
}

fn main() {
    let journal_path =
        arg_value("--journal").unwrap_or_else(|| "results/quality_journal.jsonl".to_string());

    obs::set_metrics_enabled(true);
    let journal = Arc::new(obs::Journal::create(&journal_path).expect("create journal"));
    obs::install_journal(Arc::clone(&journal));

    let app = DemoFunction::new(1.2);
    let space = app.tuning_space();

    // --- 1. Clean tune under scoring: zero flags -------------------------
    let mut alice = QualityScorer::new("alice", QualityConfig::default());
    let clean = {
        let mut rng = StdRng::seed_from_u64(9);
        let mut objective = |p: &Point| app.evaluate(p, &mut rng).map_err(|e| e.to_string());
        let notla = &mut NoTla::with_quality(&mut alice);
        tune(&space, &mut objective, &[], notla, &config(), None, None)
            .expect("a fresh run has no replay to diverge from")
    };
    let clean_report = alice.report().expect("finalized clean report").clone();
    assert!(
        clean_report.flagged.is_empty(),
        "false flags on clean data: {:?}",
        clean_report.flagged
    );
    eprintln!(
        "clean run (alice): {} scored, 0 flagged, best {:?}",
        clean_report.scored,
        clean.best().map(|(_, y)| y),
    );

    // --- 2. Corrupted tune: scorer must recall the injections -----------
    let plan = noise_plan();
    let corrupted_iters: Vec<u64> = (0..BUDGET as u64)
        .filter(|i| matches!(plan.decide(*i), Some(InjectedFault::Noise { .. })))
        .collect();
    assert!(
        corrupted_iters.len() >= 5,
        "plan must inject enough corruptions to measure recall"
    );
    let mut mallory = QualityScorer::new("mallory", QualityConfig::default());
    let corrupted = {
        let mut rng = StdRng::seed_from_u64(9);
        let mut injector = FaultInjector::new(plan);
        let mut calls = 0u64;
        let mut objective = |p: &Point| {
            calls += 1;
            let y = app.evaluate(p, &mut rng).map_err(|e| e.to_string());
            // The noise-only plan never fails a call, so call index ==
            // iteration and the scorer's doc ordinal (1-based) == calls.
            injector.apply_to(y, calls)
        };
        let notla = &mut NoTla::with_quality(&mut mallory);
        tune(&space, &mut objective, &[], notla, &config(), None, None)
            .expect("a fresh run has no replay to diverge from")
    };
    let report = mallory
        .report()
        .expect("finalized corrupted report")
        .clone();
    let flagged: HashSet<u64> = report.flagged.iter().map(|f| f.iter).collect();
    let hits = corrupted_iters
        .iter()
        .filter(|i| flagged.contains(i))
        .count();
    let recall = hits as f64 / corrupted_iters.len() as f64;
    eprintln!(
        "corrupted run (mallory): {} scored, {} flagged, recall {hits}/{} = {recall:.2}",
        report.scored,
        report.flagged.len(),
        corrupted_iters.len(),
    );
    assert!(
        recall >= 0.9,
        "recall {recall:.2} below 0.9 (corrupted {corrupted_iters:?}, flagged {flagged:?})"
    );
    let (worst, _) = report.worst_contributor().expect("flags imply a worst");
    assert_eq!(worst, "mallory", "report must name the bad contributor");

    // --- 3. Upload both histories with provenance ------------------------
    let db = HistoryDb::new();
    let mut reg_rng = StdRng::seed_from_u64(0xDB);
    let alice_key = db
        .register_user("alice", "alice@crowdtune.dev", true, &mut reg_rng)
        .expect("register alice");
    let mallory_key = db
        .register_user("mallory", "mallory@crowdtune.dev", true, &mut reg_rng)
        .expect("register mallory");
    let a = upload_history(&db, &alice_key, "alice", &clean, None);
    let m = upload_history(&db, &mallory_key, "mallory", &corrupted, Some(PLAN_SEED));
    let counts = db.contributor_counts();
    eprintln!("uploaded {a} (alice) + {m} (mallory) records; per-contributor {counts:?}");
    for user in ["alice", "mallory"] {
        assert!(
            counts.iter().any(|(c, n)| c == user && *n > 0),
            "contributor index must track {user}"
        );
    }

    // --- 4. Fleet rollup: the journal names mallory ----------------------
    obs::journal_flush();
    let lines = journal.lines();
    obs::uninstall_journal();
    let events = obs::read_journal(&journal_path).expect("re-read journal");
    let mut rollup = QualityRollup::default();
    rollup.ingest("demo", &events);
    let kinds = &rollup.scenarios["demo"].event_counts;
    for required in [
        "upload",
        "faultinject",
        "qualityscore",
        "quarantine",
        "calibration",
    ] {
        assert!(
            kinds.contains_key(required),
            "journal missing `{required}` events (got {:?})",
            kinds.keys()
        );
    }
    print!("{}", render_quality_rollup(&rollup));
    let (_, worst, _) = rollup.worst_contributor().expect("rollup has a worst");
    assert_eq!(worst, "mallory", "rollup must name the bad contributor");

    // --- 5. Exports for CI: Prometheus rollup + metrics snapshot ---------
    let prom_path = "results/quality_rollup.prom";
    std::fs::write(prom_path, render_quality_prometheus(&rollup)).expect("write rollup prom");
    let metrics_path = "results/quality_metrics.json";
    std::fs::write(
        metrics_path,
        serde_json::to_string_pretty(&obs::snapshot()).expect("snapshot serializes"),
    )
    .expect("write metrics snapshot");

    println!(
        "journal: {journal_path} ({lines} events, {} kinds)",
        kinds.len()
    );
    println!("rollup exposition: {prom_path}");
    println!("metrics: {metrics_path}");
    println!("quality recall smoke: all invariants held");
}
