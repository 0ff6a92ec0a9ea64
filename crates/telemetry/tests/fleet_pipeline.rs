//! End-to-end fleet telemetry: drive real tuning runs with a journal
//! installed, ingest the journal into the telemetry collection, and
//! answer the fleet questions the ISSUE calls out — per-stage p50/p95
//! grouped by TLA algorithm, and a collapsed-stack profile with real
//! nesting depth.

use std::sync::Arc;

use crowdtune_apps::{Application, DemoFunction};
use crowdtune_core::tuner::{tune_notla, tune_tla_constrained, TuneConfig};
use crowdtune_core::{dims_of, Dataset, SourceTask, WeightedSum};
use crowdtune_obs as obs;
use crowdtune_space::Point;
use crowdtune_telemetry::{
    fleet_stage_percentiles, ingest_into, Access, FleetQuery, IngestMeta, TelemetryCollection,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_notla(seed: u64) {
    let app = DemoFunction::new(1.2);
    let space = app.tuning_space();
    let mut noise_rng = StdRng::seed_from_u64(seed ^ 0xAB);
    let mut objective = |p: &Point| app.evaluate(p, &mut noise_rng).map_err(|e| e.to_string());
    let config = TuneConfig {
        budget: 8,
        n_init: 3,
        seed,
        ..Default::default()
    };
    tune_notla(&space, &mut objective, &config);
}

fn run_tla(seed: u64) {
    let src_app = DemoFunction::new(0.8);
    let src_space = src_app.tuning_space();
    let mut ds = Dataset::default();
    for i in 0..30 {
        let x = (i as f64 + 0.5) / 30.0;
        ds.push(vec![x], DemoFunction::value(0.8, x));
    }
    let mut rng = StdRng::seed_from_u64(3);
    let source = SourceTask::fit("t=0.8", ds, &dims_of(&src_space), &mut rng).expect("source fit");

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
        std::slice::from_ref(&source),
        &mut strategy,
        &config,
        None,
    );
}

#[test]
fn journal_to_fleet_percentiles_and_profile() {
    let dir = std::env::temp_dir().join("crowdtune_telemetry_pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.jsonl");

    obs::set_metrics_enabled(true);
    let journal = Arc::new(obs::Journal::create(&path).unwrap());
    obs::install_journal(journal);
    run_notla(11);
    run_notla(12);
    run_tla(13);
    obs::uninstall_journal();
    obs::set_metrics_enabled(false);

    let collection = TelemetryCollection::new();
    let meta = IngestMeta::public("demo", "ci-box", "alice");
    let n = ingest_into(&collection, &path, &meta).expect("ingest");
    assert_eq!(n, 3, "three tuning runs, three records");

    // Fleet question from the ISSUE: fit-time percentiles by algorithm.
    let query = FleetQuery::all().for_app("demo").on_machine("ci-box");
    let groups = fleet_stage_percentiles(&collection, Some("bob"), &query, "fit");
    assert_eq!(
        groups.keys().collect::<Vec<_>>(),
        vec!["NoTLA", "WeightedSum(dynamic)"],
        "runs group by TLA algorithm"
    );
    for (tuner, s) in &groups {
        assert!(s.samples > 0, "{tuner}: pooled fit samples");
        assert!(
            s.p50_us <= s.p95_us && s.p95_us <= s.max_us,
            "{tuner}: percentiles must be monotone"
        );
    }
    assert_eq!(groups["NoTLA"].runs, 2);

    // Per-iteration stage exists too, and filtering by tuner narrows it.
    let notla_only = query.clone().with_tuner("NoTLA");
    let iter_groups = fleet_stage_percentiles(&collection, None, &notla_only, "iteration");
    assert_eq!(iter_groups.len(), 1);
    assert_eq!(iter_groups["NoTLA"].samples, 16, "8 iterations x 2 runs");

    // The ingested profile is a real collapsed stack: at least one path
    // three frames deep (tune;propose;gp_fit or deeper).
    let records = collection.query(None, &query);
    let depth = records
        .iter()
        .flat_map(|r| r.profile.keys())
        .map(|path| path.split(';').count())
        .max()
        .unwrap_or(0);
    assert!(
        depth >= 3,
        "collapsed-stack profile must resolve >= 3 stack depths, got {depth}"
    );
    assert!(records
        .iter()
        .flat_map(|r| r.profile.keys())
        .all(|path| path.starts_with("tune")));

    std::fs::remove_file(&path).ok();
}

#[test]
fn fleet_queries_respect_record_access() {
    let collection = TelemetryCollection::new();
    let events = synthetic_run("NoTLA", "alice-private");
    let mut meta = IngestMeta::public("demo", "ci-box", "alice");
    meta.access = Access::Private;
    for rec in crowdtune_telemetry::ingest_events(&events, &meta) {
        collection.insert(rec);
    }
    let mut meta_pub = IngestMeta::public("demo", "ci-box", "carol");
    meta_pub.access = Access::Shared {
        with: vec!["bob".to_string()],
    };
    for rec in
        crowdtune_telemetry::ingest_events(&synthetic_run("NoTLA", "carol-shared"), &meta_pub)
    {
        collection.insert(rec);
    }

    let query = FleetQuery::all();
    // Bob sees only the record shared with him; the private run never
    // leaks into his fleet percentiles.
    let bob = collection.query(Some("bob"), &query);
    assert_eq!(bob.len(), 1);
    assert_eq!(bob[0].run, "carol-shared");
    let bob_groups = fleet_stage_percentiles(&collection, Some("bob"), &query, "fit");
    assert_eq!(bob_groups["NoTLA"].runs, 1);
    // An anonymous fleet query sees neither.
    assert!(collection.query(None, &query).is_empty());
    // Owners see their own.
    assert_eq!(collection.query(Some("alice"), &query).len(), 1);
}

fn synthetic_run(tuner: &str, run: &str) -> Vec<obs::Event> {
    vec![
        obs::Event::RunStart {
            run: run.to_string(),
            tuner: tuner.to_string(),
            dim: 2,
            budget: 4,
            seed: 1,
        },
        obs::Event::Fit {
            model: "gp".into(),
            points: 8,
            restarts: 2,
            nll: Some(0.5),
            duration_us: 120,
            fallback: false,
            evaluations: None,
            gradients: None,
        },
        obs::Event::RunEnd {
            iterations: 4,
            failures: 0,
            best: Some(0.5),
            duration_us: 5000,
        },
    ]
}
