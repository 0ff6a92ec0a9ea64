//! Warm-started `Multitask(TS)` refits (DESIGN.md §6.6).
//!
//! Each refit after the first starts projected L-BFGS from the previous
//! fit's θ with a 10-iteration cap. On a fixed-seed PDGEQRF crowd (three
//! source tasks × 40 records, Fig. 4(b) sizes) whose target grows to 12
//! samples, this file checks that:
//!
//! 1. the warm refits are as good as the cold fit they replace — the
//!    default start, 35 iterations, unbounded L-BFGS against the +∞ wall
//!    just outside the hyperparameter box: at least 90% of warm refits
//!    land within 1 nat of it, and the median difference is not positive;
//! 2. every warm refit is journaled as a `warmstart` event with
//!    `model: "lcm"`, no more than 10 iterations, and a fitted NLL no
//!    worse than the warm start's;
//! 3. `Multitask(TS)` and `Ensemble(proposed)` histories are bitwise
//!    identical between twin runs, and between `RAYON_NUM_THREADS=1`
//!    and `2` (the test re-runs this binary as a child process at each
//!    thread count, since the pool size is fixed per process).

use crowdtune_apps::{Application, MachineModel, Pdgeqrf};
use crowdtune_core::tuner::{dims_of, tune_tla_constrained, TuneConfig, TuneResult};
use crowdtune_core::{Dataset, Ensemble, MultitaskTs, SourceTask, TlaStrategy};
use crowdtune_gp::{Lcm, LcmConfig, LcmLikelihood, TaskData};
use crowdtune_linalg::{lbfgs, LbfgsOptions};
use crowdtune_obs as obs;
use crowdtune_space::{sample_uniform, Point, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, MutexGuard};

const SOURCE_SIZES: [u64; 3] = [10_000, 8_000, 6_000];
const TARGET_SIZE: u64 = 12_000;
const RECORDS_PER_SOURCE: usize = 40;
const BUDGET: usize = 12;
/// Iteration caps of `MultitaskTs`: cold first fit, warm refits.
const COLD_ITERS: usize = 35;
const WARM_ITERS: usize = 10;

/// Serializes the in-process tests: one of them installs the
/// process-global journal, which would otherwise also record the
/// others' fits.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn machine() -> MachineModel {
    MachineModel::cori_haswell(8)
}

/// Three PDGEQRF source tasks with 40 valid, successful records each.
fn fixture() -> (Space, Vec<SourceTask>) {
    let space = Pdgeqrf::new(TARGET_SIZE, TARGET_SIZE, machine()).tuning_space();
    let dims = dims_of(&space);
    let mut rng = StdRng::seed_from_u64(2024);
    let sources = SOURCE_SIZES
        .iter()
        .map(|&size| {
            let app = Pdgeqrf::new(size, size, machine());
            let mut data = Dataset::default();
            while data.len() < RECORDS_PER_SOURCE {
                let p = sample_uniform(&space, 1, &mut rng)
                    .pop()
                    .expect("one point");
                if !app.validate_config(&p) {
                    continue;
                }
                if let Ok(y) = app.evaluate(&p, &mut rng) {
                    data.push(space.to_unit(&p).expect("sampled in space"), y);
                }
            }
            SourceTask::fit(format!("pdgeqrf-{size}"), data, &dims, &mut rng)
                .expect("source GP fit")
        })
        .collect();
    (space, sources)
}

fn tune(
    space: &Space,
    sources: &[SourceTask],
    strategy: &mut dyn TlaStrategy,
    seed: u64,
) -> TuneResult {
    let target = Pdgeqrf::new(TARGET_SIZE, TARGET_SIZE, machine());
    let mut noise = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut objective = |p: &Point| target.evaluate(p, &mut noise).map_err(|e| e.to_string());
    let constraint = |p: &Point| target.validate_config(p);
    let config = TuneConfig {
        budget: BUDGET,
        seed,
        ..Default::default()
    };
    tune_tla_constrained(
        space,
        &mut objective,
        sources,
        strategy,
        &config,
        Some(&constraint),
    )
}

/// The LCM tasks `Multitask(TS)` fits once the target holds `target`.
fn lcm_tasks(sources: &[SourceTask], target: &[(Vec<f64>, f64)]) -> Vec<TaskData> {
    let mut tasks: Vec<TaskData> = sources
        .iter()
        .map(|s| TaskData {
            x: s.data.x.clone(),
            y: s.data.y.clone(),
        })
        .collect();
    tasks.push(TaskData {
        x: target.iter().map(|(x, _)| x.clone()).collect(),
        y: target.iter().map(|&(_, y)| y).collect(),
    });
    tasks
}

fn lcm_config(space: &Space, max_opt_iter: usize) -> LcmConfig {
    let mut config = LcmConfig::new(dims_of(space));
    config.restarts = 0;
    config.max_opt_iter = max_opt_iter;
    config
}

/// Raw NLL of the cold fit without the box projection: the default
/// start, 35 iterations of unbounded L-BFGS, and an infinite objective
/// outside the hyperparameter box.
fn cold_unprojected_nll(tasks: &[TaskData], config: &LcmConfig) -> f64 {
    let lik = LcmLikelihood::new(tasks, config).expect("valid tasks");
    let bounds = lik.bounds();
    let objective = |theta: &[f64]| {
        let wall = (f64::INFINITY, vec![0.0; theta.len()]);
        if !bounds.contains(theta) {
            return wall;
        }
        lik.nll_with_grad(theta).unwrap_or(wall)
    };
    let opts = LbfgsOptions {
        max_iter: COLD_ITERS,
        ..Default::default()
    };
    let res = lbfgs(&lik.default_start(), objective, &opts, None);
    lik.raw_nll(res.f)
}

#[test]
fn warm_refits_match_cold_unprojected_fits() {
    let _serial = serial();
    let (space, sources) = fixture();
    let mut diffs = Vec::new();
    for seed in 1..=8 {
        let run = tune(&space, &sources, &mut MultitaskTs::new(), seed);
        let target: Vec<(Vec<f64>, f64)> = run
            .history
            .iter()
            .filter_map(|r| r.result.as_ref().ok().map(|&y| (r.unit.clone(), y)))
            .collect();
        assert!(target.len() >= 8, "seed {seed}: too few successes");
        // Replay the strategy's refit chain over the growing target.
        let mut prev: Option<Lcm> = None;
        for k in 1..=target.len() {
            let tasks = lcm_tasks(&sources, &target[..k]);
            let mut rng = StdRng::seed_from_u64(0);
            let Some(last) = prev.take() else {
                let cold = Lcm::fit(&tasks, &lcm_config(&space, COLD_ITERS), &mut rng);
                prev = Some(cold.expect("cold fit"));
                continue;
            };
            let warm = Lcm::fit_with_starts(
                &tasks,
                &lcm_config(&space, WARM_ITERS),
                &mut rng,
                Some(&last.pack_theta()),
            )
            .expect("warm refit");
            assert!(warm.fit_stats().iterations <= WARM_ITERS);
            let reference = cold_unprojected_nll(&tasks, &lcm_config(&space, COLD_ITERS));
            diffs.push(warm.nll_raw() - reference);
            prev = Some(warm);
        }
    }
    let within = diffs.iter().filter(|&&d| d <= 1.0).count();
    assert!(
        within * 10 >= diffs.len() * 9,
        "only {within} of {} warm refits within 1 nat of the cold fit: {diffs:?}",
        diffs.len()
    );
    let mut sorted = diffs.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    assert!(median <= 0.0, "median warm - cold NLL {median}: {diffs:?}");
}

#[test]
fn warm_refits_are_journaled() {
    let _serial = serial();
    let (space, sources) = fixture();
    let dir = std::env::temp_dir().join("crowdtune_tla_warm_refit");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("journal_{}.jsonl", std::process::id()));
    obs::install_journal(Arc::new(obs::Journal::create(&path).expect("journal")));
    let run = tune(&space, &sources, &mut MultitaskTs::new(), 5);
    obs::uninstall_journal();
    let events = obs::read_journal(&path).expect("schema-valid journal");
    std::fs::remove_file(&path).ok();

    let successes = run.history.iter().filter(|r| r.result.is_ok()).count();
    let mut refits = 0;
    for ev in &events {
        if let obs::Event::Warmstart {
            model,
            warm_nll,
            best_nll,
            restarts,
            reduced,
            iterations,
        } = ev
        {
            assert_eq!(model, "lcm");
            assert_eq!((*restarts, *reduced), (1, true));
            let it = iterations.expect("LCM refits report iterations");
            assert!((1..=WARM_ITERS as u64).contains(&it), "{it} iterations");
            let (warm, best) = (warm_nll.expect("finite"), best_nll.expect("finite"));
            assert!(best <= warm, "fit ended above its start: {best} > {warm}");
            refits += 1;
        }
    }
    // The cold-start proposal and the first LCM fit are not warm; every
    // later proposal after a success refits warm.
    assert!(
        refits + 2 >= successes && refits < BUDGET,
        "{refits} warm refits for {successes} successes"
    );
}

/// Raw bits of every history entry of both strategies' runs.
fn fingerprint(space: &Space, sources: &[SourceTask], seed: u64) -> String {
    let mut out = String::new();
    let strategies: [Box<dyn TlaStrategy>; 2] = [
        Box::new(MultitaskTs::new()),
        Box::new(Ensemble::proposed_default()),
    ];
    for mut strategy in strategies {
        let run = tune(space, sources, strategy.as_mut(), seed);
        assert_eq!(run.history.len(), BUDGET);
        for r in &run.history {
            for v in &r.unit {
                out.push_str(&format!("{:x},", v.to_bits()));
            }
            match &r.result {
                Ok(y) => out.push_str(&format!("={:x};", y.to_bits())),
                Err(e) => out.push_str(&format!("!{e};")),
            }
        }
        out.push('|');
    }
    out
}

#[test]
fn twin_runs_are_bitwise_identical() {
    let _serial = serial();
    let (space, sources) = fixture();
    assert_eq!(
        fingerprint(&space, &sources, 7),
        fingerprint(&space, &sources, 7)
    );
}

const CHILD_ENV: &str = "CROWDTUNE_WARM_REFIT_CHILD";
const FP_MARKER: &str = "warm-refit-fingerprint:";

/// Child-process half of the thread-count test: prints the fingerprint
/// when spawned by `histories_identical_at_one_and_two_threads`, and does
/// nothing in a normal test run.
#[test]
fn fingerprint_child() {
    if std::env::var_os(CHILD_ENV).is_none() {
        return;
    }
    let (space, sources) = fixture();
    println!("{FP_MARKER}{}", fingerprint(&space, &sources, 7));
}

fn child_fingerprint(threads: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "fingerprint_child",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("spawn the test binary");
    assert!(out.status.success(), "child at {threads} threads failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout
        .lines()
        .find_map(|l| l.split_once(FP_MARKER).map(|(_, fp)| fp))
        .unwrap_or_else(|| panic!("no fingerprint from the child at {threads} threads"))
        .to_string()
}

#[test]
fn histories_identical_at_one_and_two_threads() {
    assert_eq!(child_fingerprint("1"), child_fingerprint("2"));
}
