//! Chaos smoke run: the fault-tolerance pipeline end to end, with a
//! fixed seed so every failure is reproducible.
//!
//! The run drives every piece of the fault model at once:
//!
//! 1. A **reference tune** runs to completion under dense fault
//!    injection (transient worker deaths, simulated-walltime timeouts,
//!    corrupted uploads, flaky-noise episodes) — the ground truth.
//! 2. The same run is **killed mid-flight**: the budget is cut short
//!    after its second checkpoint landed in a WAL-backed durable store.
//! 3. The store's write-ahead log is then **torn** — garbage bytes are
//!    appended, simulating a crash mid-append — and reopened; recovery
//!    must truncate the tail and report it.
//! 4. The run **resumes** from the recovered checkpoint with a
//!    fast-forwarded fault injector and must reproduce the reference
//!    run's history *bitwise* — same points, same values, same injected
//!    faults, same retries.
//!
//! The per-run journal (default `results/chaos_journal.jsonl`) must come
//! out covering the fault-tolerance event kinds (`retry`, `faultinject`,
//! `checkpoint`, `recovery`); CI validates it with `crowdtune-report report`.
//! Any violated invariant panics, so the process exits non-zero.
//!
//! Run: `cargo run --release -p crowdtune-bench --bin chaos_smoke \
//!       [--journal results/chaos_journal.jsonl] [--budget 30] [--seed 42]`

use crowdtune_apps::{Application, DemoFunction, FaultInjector, FaultPlan};
use crowdtune_bench::arg_value;
use crowdtune_core::{
    tune, tune_notla, Checkpointing, NoTla, TuneConfig, TuneResult, TunerCheckpoint,
};
use crowdtune_db::{CrowdService, ServiceConfig};
use crowdtune_obs as obs;
use crowdtune_space::Point;
use std::sync::Arc;

/// Assert two tuning histories are bitwise identical (floats compared
/// through `to_bits`).
fn assert_identical(a: &TuneResult, b: &TuneResult, what: &str) {
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (i, (ra, rb)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(ra.point, rb.point, "{what}: iter {i} point");
        for (ua, ub) in ra.unit.iter().zip(&rb.unit) {
            assert_eq!(ua.to_bits(), ub.to_bits(), "{what}: iter {i} unit");
        }
        match (&ra.result, &rb.result) {
            (Ok(ya), Ok(yb)) => {
                assert_eq!(ya.to_bits(), yb.to_bits(), "{what}: iter {i} value")
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{what}: iter {i} error"),
            _ => panic!("{what}: iter {i} outcome class differs"),
        }
        assert_eq!(ra.attempts, rb.attempts, "{what}: iter {i} attempts");
    }
}

fn main() {
    let journal_path =
        arg_value("--journal").unwrap_or_else(|| "results/chaos_journal.jsonl".to_string());
    let budget: usize = arg_value("--budget")
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    let seed: u64 = arg_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let kill_at = budget / 2 + 3; // past the second checkpoint below
    let every = budget / 6;

    obs::set_metrics_enabled(true);
    let journal = Arc::new(obs::Journal::create(&journal_path).expect("create journal"));
    obs::install_journal(Arc::clone(&journal));

    let app = DemoFunction::new(1.2);
    let space = app.tuning_space();
    // The objective under test everywhere below: the demo function with
    // counter-indexed measurement noise (resumable by construction),
    // wrapped in the fault injector.
    let plan = FaultPlan::dense(seed ^ 0xFA_17);

    // --- 1. Reference run: never crashes --------------------------------
    let config = TuneConfig {
        budget,
        seed,
        ..Default::default()
    };
    let mut inj = FaultInjector::new(plan.clone());
    let mut objective = |p: &Point| {
        let mut call_rng = inj.call_rng();
        let raw = app.evaluate(p, &mut call_rng).map_err(|e| e.to_string());
        inj.apply(raw)
    };
    let reference = tune_notla(&space, &mut objective, &config);
    let retries: u32 = reference.history.iter().map(|r| r.attempts - 1).sum();
    eprintln!(
        "reference: {} iterations, {} failures, {} retries, best {:?}",
        reference.history.len(),
        reference.failures(),
        retries,
        reference.best().map(|(_, y)| y),
    );
    assert!(retries > 0, "dense fault plan must trigger retries");

    // --- 2. The doomed run: killed mid-flight after a checkpoint --------
    let store_dir = std::env::temp_dir().join(format!("crowdtune_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let (store, _) = CrowdService::open_durable(&store_dir, ServiceConfig::default())
        .expect("open durable store");
    let doomed_config = TuneConfig {
        budget: kill_at,
        seed,
        checkpoint: Some(Checkpointing::new(Arc::new(store), "chaos-tune", every)),
        ..Default::default()
    };
    let mut inj = FaultInjector::new(plan.clone());
    let mut objective = |p: &Point| {
        let mut call_rng = inj.call_rng();
        let raw = app.evaluate(p, &mut call_rng).map_err(|e| e.to_string());
        inj.apply(raw)
    };
    let doomed = tune_notla(&space, &mut objective, &doomed_config);
    assert_identical(
        &TuneResult {
            history: reference.history[..kill_at].to_vec(),
            ..TuneResult::default()
        },
        &doomed,
        "killed-run prefix",
    );
    drop(doomed_config); // the crash: the store handle dies with the process
    eprintln!("killed the run at iteration {kill_at} (checkpoint every {every})");

    // --- 3. Tear the WAL, then recover ----------------------------------
    let wal_path = store_dir.join("wal.log");
    let intact = std::fs::metadata(&wal_path).expect("wal exists").len();
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .expect("open wal for tearing");
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x42]).expect("tear");
    }
    let (store, report) = CrowdService::open_durable(&store_dir, ServiceConfig::default())
        .expect("recover torn store");
    assert!(report.torn, "recovery must flag the torn tail");
    assert_eq!(report.torn_bytes, 5, "exactly the garbage is discarded");
    assert_eq!(report.wal_bytes, intact, "the acked prefix survives");
    eprintln!(
        "recovered store: {} WAL records replayed, torn tail of {} bytes truncated",
        report.wal_records, report.torn_bytes
    );

    // --- 4. Resume from the recovered checkpoint ------------------------
    let ckpt = TunerCheckpoint::load(&store, "chaos-tune")
        .expect("checkpoint parses")
        .expect("checkpoint exists");
    assert!(ckpt.iter < kill_at, "checkpoint predates the kill");
    let mut inj = FaultInjector::new(plan);
    inj.advance_to(ckpt.objective_calls());
    let mut objective = |p: &Point| {
        let mut call_rng = inj.call_rng();
        let raw = app.evaluate(p, &mut call_rng).map_err(|e| e.to_string());
        inj.apply(raw)
    };
    let resumed = tune(
        &space,
        &mut objective,
        &[],
        &mut NoTla::new(),
        &config,
        None,
        Some(&ckpt),
    )
    .expect("resume accepts the checkpoint");
    assert_identical(&reference, &resumed, "resumed run");
    eprintln!(
        "resumed from iteration {}: bitwise identical to the uninterrupted run",
        ckpt.iter
    );

    // --- Journal must cover the fault-tolerance kinds --------------------
    obs::journal_flush();
    let lines = journal.lines();
    obs::uninstall_journal();
    let events = obs::read_journal(&journal_path).expect("re-read journal");
    let kinds = obs::summarize(&journal_path, &events).event_counts;
    for required in ["retry", "faultinject", "checkpoint", "recovery"] {
        assert!(
            kinds.contains_key(required),
            "journal missing `{required}` events (got {:?})",
            kinds.keys()
        );
    }
    std::fs::remove_dir_all(&store_dir).ok();
    println!(
        "journal: {journal_path} ({lines} events, {} kinds)",
        kinds.len()
    );
    println!("chaos smoke: all invariants held");
}
