//! The checkpoint/resume contract: a run that crashes and resumes from
//! its last durable checkpoint produces a result *bitwise identical* to
//! the run that never crashed — under fault injection, with retries —
//! and the retry policy distinguishes transient from permanent failures.

use crowdtune_apps::{FaultInjector, FaultPlan};
use crowdtune_core::{
    tune, tune_notla, tune_tla_constrained, Checkpointing, Constraint, NoTla, ResumeError,
    RetryPolicy, SourceTask, TlaStrategy, TuneConfig, TuneResult, TunerCheckpoint, WeightedSum,
};
use crowdtune_db::{CrowdService, ServiceConfig};
use crowdtune_space::{Param, Point, Space, Value};
use std::path::PathBuf;
use std::sync::Arc;

fn quad_space() -> Space {
    Space::new(vec![Param::real("x", 0.0, 1.0)]).unwrap()
}

fn quad_objective(p: &Point) -> Result<f64, String> {
    match &p[0] {
        Value::Real(x) => Ok(3.0 + 10.0 * (x - 0.4) * (x - 0.4)),
        _ => Err("bad".into()),
    }
}

/// A correlated source task, same shape the tuner tests use.
fn quad_source() -> Vec<SourceTask> {
    use rand::SeedableRng;
    let mut x = 0.05f64;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    while x < 1.0 {
        xs.push(vec![x]);
        ys.push(2.0 + 8.0 * (x - 0.3) * (x - 0.3));
        x += 0.05;
    }
    let dims = crowdtune_core::dims_of(&quad_space());
    let mut src_rng = rand::rngs::StdRng::seed_from_u64(0);
    vec![SourceTask::fit(
        "src",
        crowdtune_core::Dataset { x: xs, y: ys },
        &dims,
        &mut src_rng,
    )
    .unwrap()]
}

/// Resume a `NoTLA` run from `ckpt`.
fn resume_notla(
    objective: &mut dyn FnMut(&Point) -> Result<f64, String>,
    config: &TuneConfig,
    ckpt: &TunerCheckpoint,
) -> Result<TuneResult, ResumeError> {
    let space = quad_space();
    tune(
        &space,
        objective,
        &[],
        &mut NoTla::new(),
        config,
        None,
        Some(ckpt),
    )
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("crowdtune_checkpoint_resume")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bitwise comparison of two histories: every float via `to_bits`.
fn assert_history_identical(a: &TuneResult, b: &TuneResult) {
    assert_eq!(a.history.len(), b.history.len(), "history length");
    for (i, (ra, rb)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(ra.point, rb.point, "iter {i}: point");
        assert_eq!(ra.unit.len(), rb.unit.len(), "iter {i}: unit dim");
        for (ua, ub) in ra.unit.iter().zip(&rb.unit) {
            assert_eq!(ua.to_bits(), ub.to_bits(), "iter {i}: unit bits");
        }
        match (&ra.result, &rb.result) {
            (Ok(ya), Ok(yb)) => assert_eq!(ya.to_bits(), yb.to_bits(), "iter {i}: value bits"),
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "iter {i}: error"),
            _ => panic!("iter {i}: outcome class differs"),
        }
        assert_eq!(ra.proposed_by, rb.proposed_by, "iter {i}: proposer");
        assert_eq!(ra.attempts, rb.attempts, "iter {i}: attempts");
    }
}

#[test]
fn resumed_notla_run_is_bitwise_identical_under_fault_injection() {
    let space = quad_space();
    let plan = FaultPlan::dense(99);

    // Reference: the run that never crashes (no checkpointing at all, so
    // this also proves checkpointing is transparent to the trajectory).
    let config_a = TuneConfig {
        budget: 30,
        seed: 42,
        ..Default::default()
    };
    let mut inj_a = FaultInjector::new(plan.clone());
    let mut obj_a = |p: &Point| inj_a.apply(quad_objective(p));
    let a = tune_notla(&space, &mut obj_a, &config_a);
    assert_eq!(a.history.len(), 30);

    // The doomed run: checkpoints every 5 iterations into a durable
    // store, "crashes" at iteration 13 (budget truncated mid-run).
    let dir = temp_dir("notla_bitwise");
    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let config_b = TuneConfig {
        budget: 13,
        seed: 42,
        checkpoint: Some(Checkpointing::new(Arc::new(store), "tune", 5)),
        ..Default::default()
    };
    let mut inj_b = FaultInjector::new(plan.clone());
    let mut obj_b = |p: &Point| inj_b.apply(quad_objective(p));
    let b = tune_notla(&space, &mut obj_b, &config_b);
    assert_history_identical(
        &TuneResult {
            history: a.history[..13].to_vec(),
            ..TuneResult::default()
        },
        &b,
    );
    drop(config_b); // release the store, as a crashed process would

    // Recovery: reopen the store (WAL replay), load the last checkpoint,
    // fast-forward a fresh injector, and resume to the full budget.
    let (store, report) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    assert!(report.wal_records >= 2, "both checkpoints hit the WAL");
    let ckpt = TunerCheckpoint::load(&store, "tune")
        .unwrap()
        .expect("checkpoint exists");
    assert_eq!(ckpt.iter, 10, "last checkpoint before the crash");
    let config_r = TuneConfig {
        budget: 30,
        seed: 42,
        ..Default::default()
    };
    let mut inj_r = FaultInjector::new(plan);
    inj_r.advance_to(ckpt.objective_calls());
    let mut obj_r = |p: &Point| inj_r.apply(quad_objective(p));
    let r = resume_notla(&mut obj_r, &config_r, &ckpt).unwrap();
    assert_history_identical(&a, &r);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_tla_run_is_bitwise_identical() {
    let space = quad_space();
    let sources = quad_source();

    let config_a = TuneConfig {
        budget: 8,
        seed: 7,
        ..Default::default()
    };
    let mut obj_a = quad_objective;
    let mut strat_a = WeightedSum::dynamic();
    let a = tune_tla_constrained(&space, &mut obj_a, &sources, &mut strat_a, &config_a, None);

    // Crash at iteration 7; last checkpoint at 6.
    let dir = temp_dir("tla_bitwise");
    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let config_b = TuneConfig {
        budget: 7,
        seed: 7,
        checkpoint: Some(Checkpointing::new(Arc::new(store), "tla", 3)),
        ..Default::default()
    };
    let mut obj_b = quad_objective;
    let mut strat_b = WeightedSum::dynamic();
    let _ = tune_tla_constrained(&space, &mut obj_b, &sources, &mut strat_b, &config_b, None);
    drop(config_b);

    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let ckpt = TunerCheckpoint::load(&store, "tla")
        .unwrap()
        .expect("checkpoint exists");
    assert_eq!(ckpt.iter, 6);
    let config_r = TuneConfig {
        budget: 8,
        seed: 7,
        ..Default::default()
    };
    let mut obj_r = quad_objective;
    let mut strat_r = WeightedSum::dynamic();
    let r = tune(
        &space,
        &mut obj_r,
        &sources,
        &mut strat_r,
        &config_r,
        None,
        Some(&ckpt),
    )
    .unwrap();
    assert_history_identical(&a, &r);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_can_extend_a_finished_run() {
    let space = quad_space();
    let dir = temp_dir("extend");
    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let config = TuneConfig {
        budget: 6,
        seed: 42,
        checkpoint: Some(Checkpointing::new(Arc::new(store), "tune", 3)),
        ..Default::default()
    };
    let mut obj = quad_objective;
    let short = tune_notla(&space, &mut obj, &config);
    drop(config);

    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let ckpt = TunerCheckpoint::load(&store, "tune").unwrap().unwrap();
    assert_eq!(ckpt.iter, 6, "checkpoint covers the whole finished run");
    let extended = TuneConfig {
        budget: 10,
        seed: 42,
        ..Default::default()
    };
    let mut obj = quad_objective;
    let long = resume_notla(&mut obj, &extended, &ckpt).unwrap();
    assert_eq!(long.history.len(), 10);
    assert_history_identical(
        &short,
        &TuneResult {
            history: long.history[..6].to_vec(),
            ..TuneResult::default()
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_mismatched_config_and_tampered_history() {
    let space = quad_space();
    let dir = temp_dir("reject");
    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let config = TuneConfig {
        budget: 6,
        seed: 42,
        checkpoint: Some(Checkpointing::new(Arc::new(store), "tune", 3)),
        ..Default::default()
    };
    let mut obj = quad_objective;
    let _ = tune_notla(&space, &mut obj, &config);
    drop(config);
    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let ckpt = TunerCheckpoint::load(&store, "tune").unwrap().unwrap();

    // Wrong seed is refused up front.
    let bad_seed = TuneConfig {
        budget: 6,
        seed: 43,
        ..Default::default()
    };
    let mut obj = quad_objective;
    assert!(matches!(
        resume_notla(&mut obj, &bad_seed, &ckpt),
        Err(ResumeError::Incompatible(_))
    ));

    // A tampered history diverges from the deterministic replay and is
    // caught at the first mismatching iteration.
    let mut tampered = ckpt.clone();
    tampered.history[1].unit[0] = (tampered.history[1].unit[0] + 0.31) % 1.0;
    tampered.history[1].point = vec![Value::Real(tampered.history[1].unit[0])];
    let good = TuneConfig {
        budget: 6,
        seed: 42,
        ..Default::default()
    };
    let mut obj = quad_objective;
    assert!(matches!(
        resume_notla(&mut obj, &good, &tampered),
        Err(ResumeError::Incompatible(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_failures_are_retried_and_permanent_ones_are_not() {
    let space = quad_space();
    // Fails transiently twice, then succeeds: default policy (3
    // attempts) absorbs it into a single successful record.
    let mut calls = 0u32;
    let mut obj = |p: &Point| {
        calls += 1;
        if calls <= 2 {
            Err("transient: flaky worker".to_string())
        } else {
            quad_objective(p)
        }
    };
    let config = TuneConfig {
        budget: 1,
        seed: 5,
        ..Default::default()
    };
    let res = tune_notla(&space, &mut obj, &config);
    assert_eq!(res.history.len(), 1);
    assert!(res.history[0].result.is_ok());
    assert_eq!(res.history[0].attempts, 3);
    assert_eq!(calls, 3);

    // A permanent failure is recorded on the first attempt.
    let mut calls = 0u32;
    let mut obj = |_: &Point| {
        calls += 1;
        Err::<f64, String>("OOM".to_string())
    };
    let res = tune_notla(&space, &mut obj, &config);
    assert_eq!(res.history[0].attempts, 1);
    assert_eq!(calls, 1);

    // RetryPolicy::never restores the old single-shot behaviour even
    // for transient errors.
    let mut calls = 0u32;
    let mut obj = |_: &Point| {
        calls += 1;
        Err::<f64, String>("transient: flaky".to_string())
    };
    let never = TuneConfig {
        budget: 1,
        seed: 5,
        retry: RetryPolicy::never(),
        ..Default::default()
    };
    let res = tune_notla(&space, &mut obj, &never);
    assert_eq!(res.history[0].attempts, 1);
    assert_eq!(calls, 1);
}

#[test]
fn retry_exhaustion_keeps_the_final_error() {
    let space = quad_space();
    let mut obj = |_: &Point| Err::<f64, String>("timeout: walltime exceeded".to_string());
    let config = TuneConfig {
        budget: 2,
        seed: 1,
        retry: RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let res = tune_notla(&space, &mut obj, &config);
    assert_eq!(res.history.len(), 2);
    for rec in &res.history {
        assert_eq!(rec.attempts, 2);
        assert!(rec.result.as_ref().unwrap_err().starts_with("timeout:"));
    }
    assert!(res.best().is_none());
}

#[test]
fn injected_faults_never_abort_the_run() {
    // A dense fault plan perturbs roughly one in three evaluations with
    // every failure class; the run must still complete its full budget
    // and find the optimum basin.
    let space = quad_space();
    let plan = FaultPlan::dense(7);
    let mut inj = FaultInjector::new(plan);
    let mut obj = |p: &Point| inj.apply(quad_objective(p));
    let config = TuneConfig {
        budget: 40,
        seed: 3,
        ..Default::default()
    };
    let res = tune_notla(&space, &mut obj, &config);
    assert_eq!(res.history.len(), 40);
    assert!(res.best().is_some());
    assert!(
        res.history.iter().any(|r| r.attempts > 1),
        "dense plan should have triggered at least one retry"
    );
}

/// `x < 0.35`: rejects most of a 4-point Latin-hypercube design on the
/// quad space (its strata cover all of [0, 1]), so a constrained run
/// re-draws initial points and filters candidates.
fn below_035(p: &Point) -> bool {
    matches!(p[0], Value::Real(x) if x < 0.35)
}

/// Kill a constrained run after its checkpoint at iteration 8, resume it
/// with the same constraint, and require the uninterrupted history bit
/// for bit. Returns the uninterrupted run and the checkpoint.
fn constrained_kill_and_resume(
    name: &str,
    sources: &[SourceTask],
    strategy: fn() -> Box<dyn TlaStrategy>,
) -> (TuneResult, TunerCheckpoint) {
    let space = quad_space();
    let constraint: Option<&Constraint<'_>> = Some(&below_035);
    let config = |budget| TuneConfig {
        budget,
        n_init: 4,
        seed: 19,
        ..Default::default()
    };
    let mut obj = quad_objective;
    let mut run = |config: &TuneConfig, resume| {
        tune(
            &space,
            &mut obj,
            sources,
            strategy().as_mut(),
            config,
            constraint,
            resume,
        )
    };
    let a = run(&config(12), None).unwrap();
    assert!(a.history.iter().all(|r| below_035(&r.point)), "{name}");

    let dir = temp_dir(name);
    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let killed = TuneConfig {
        checkpoint: Some(Checkpointing::new(Arc::new(store), "ckpt", 4)),
        ..config(9)
    };
    run(&killed, None).unwrap();
    drop(killed);
    let (store, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
    let ckpt = TunerCheckpoint::load(&store, "ckpt").unwrap().unwrap();
    assert_eq!(ckpt.iter, 8, "{name}: last checkpoint before the kill");
    let r = run(&config(12), Some(&ckpt)).unwrap();
    assert_history_identical(&a, &r);
    std::fs::remove_dir_all(&dir).ok();
    (a, ckpt)
}

#[test]
fn constrained_notla_run_resumes_bitwise() {
    let (a, ckpt) =
        constrained_kill_and_resume("notla_constrained", &[], || Box::new(NoTla::new()));
    assert_eq!(a.history[3].proposed_by, "LHS-init");
    // The replay needs the constraint: without it the initial design is
    // not re-drawn and the replay diverges at once.
    let config = TuneConfig {
        budget: 12,
        n_init: 4,
        seed: 19,
        ..Default::default()
    };
    let mut obj = quad_objective;
    assert!(matches!(
        resume_notla(&mut obj, &config, &ckpt),
        Err(ResumeError::Incompatible(_))
    ));
}

#[test]
fn constrained_tla_run_resumes_bitwise() {
    let (a, _) = constrained_kill_and_resume("tla_constrained", &quad_source(), || {
        Box::new(WeightedSum::dynamic())
    });
    assert_eq!(a.history[1].proposed_by, "WeightedSum(dynamic)");
}
