//! Ablation benchmarks for the design choices called out in DESIGN.md §7:
//!
//! A. ensemble selection policy (proposed vs toggling vs prob-only),
//! B. NNLS vs unconstrained least squares for `WeightedSum(dynamic)`,
//! C. LCM latent rank `Q`,
//! D. acquisition candidate-pool size.
//!
//! Run: `cargo run --release -p crowdtune-bench --bin ablations [--quick]`

use crowdtune_apps::{Application, BraninFunction, DemoFunction};
use crowdtune_bench::{quick_mode, source_task_from_app};
use crowdtune_core::acquisition::SearchOptions;
use crowdtune_core::tuner::{tune_tla_constrained, TuneConfig};
use crowdtune_core::{
    Dataset, Ensemble, EnsemblePolicy, MultitaskTs, Stacking, TlaStrategy, WeightedSum,
};
use crowdtune_gp::{Lcm, LcmConfig, TaskData};
use crowdtune_linalg::stats;
use crowdtune_space::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = quick_mode();
    let (repeats, budget, n_src) = if quick {
        (2usize, 6usize, 50usize)
    } else {
        (5, 15, 150)
    };

    // Shared setup: Branin with one source task.
    let mut task_rng = StdRng::seed_from_u64(42);
    let src_task = BraninFunction::random_task(&mut task_rng, 0.15);
    let tgt_task = BraninFunction::random_task(&mut task_rng, 0.15);
    let sources = vec![source_task_from_app(&src_task, "S", n_src, 1)];

    let run = |strategy_factory: &dyn Fn() -> Box<dyn TlaStrategy>,
               config_mod: &dyn Fn(&mut TuneConfig)| {
        let mut bests = Vec::new();
        for rep in 0..repeats {
            let seed = 9000 + rep as u64 * 7919;
            let mut noise = StdRng::seed_from_u64(seed);
            let mut obj = |p: &Point| tgt_task.evaluate(p, &mut noise).map_err(|e| e.to_string());
            let mut config = TuneConfig {
                budget,
                seed,
                ..Default::default()
            };
            config_mod(&mut config);
            let mut strategy = strategy_factory();
            let space = tgt_task.tuning_space();
            let r =
                tune_tla_constrained(&space, &mut obj, &sources, strategy.as_mut(), &config, None);
            bests.push(r.best().unwrap().1);
        }
        (stats::mean(&bests), stats::std_dev(&bests))
    };

    // --- A: ensemble policy --------------------------------------------------
    println!("=== A. Ensemble selection policy (Branin, budget {budget}, {repeats} seeds) ===");
    for policy in [
        EnsemblePolicy::Proposed,
        EnsemblePolicy::Toggling,
        EnsemblePolicy::ProbOnly,
    ] {
        let (m, s) = run(
            &|| {
                Box::new(Ensemble::new(
                    vec![
                        Box::new(MultitaskTs::new()),
                        Box::new(WeightedSum::dynamic()),
                        Box::new(Stacking::new()),
                    ],
                    policy,
                ))
            },
            &|_| {},
        );
        println!("  {policy:?}: best = {m:.4} ± {s:.4}");
    }

    // --- B: NNLS vs unconstrained weights ------------------------------------
    println!("\n=== B. Dynamic-weight solver ===");
    for (label, factory) in [
        (
            "NNLS (paper)",
            &WeightedSum::dynamic as &dyn Fn() -> WeightedSum,
        ),
        ("unconstrained LS", &WeightedSum::dynamic_unconstrained),
    ] {
        let (m, s) = run(&|| Box::new(factory()), &|_| {});
        println!("  {label}: best = {m:.4} ± {s:.4}");
    }

    // --- C: LCM latent rank Q -------------------------------------------------
    println!("\n=== C. LCM latent rank Q (demo function, joint LML and target RMSE) ===");
    let src_app = DemoFunction::new(0.8);
    let tgt_app = DemoFunction::new(1.0);
    let mut rng = StdRng::seed_from_u64(7);
    let collect = |app: &DemoFunction, n: usize, rng: &mut StdRng| {
        let space = app.tuning_space();
        let mut ds = Dataset::default();
        for p in crowdtune_space::sample_uniform(&space, n, rng) {
            let y = app.evaluate(&p, rng).unwrap();
            ds.push(space.to_unit(&p).unwrap(), y);
        }
        ds
    };
    let src = collect(&src_app, 60, &mut rng);
    let tgt = collect(&tgt_app, 6, &mut rng);
    for q in [1usize, 2, 3] {
        let mut config = LcmConfig::continuous(1);
        config.q = q;
        config.restarts = 1;
        let tasks = vec![
            TaskData {
                x: src.x.clone(),
                y: src.y.clone(),
            },
            TaskData {
                x: tgt.x.clone(),
                y: tgt.y.clone(),
            },
        ];
        let mut fit_rng = StdRng::seed_from_u64(13);
        let lcm = Lcm::fit(&tasks, &config, &mut fit_rng).expect("lcm fit");
        // RMSE of target prediction on a grid.
        let mut se = 0.0;
        let grid = 50;
        for i in 0..grid {
            let x = (i as f64 + 0.5) / grid as f64;
            let truth = DemoFunction::value(1.0, x);
            let pred = lcm.predict(1, &[x]).mean;
            se += (pred - truth).powi(2);
        }
        println!(
            "  Q = {q}: joint LML = {:.2}, target grid RMSE = {:.4}",
            lcm.log_marginal_likelihood(),
            (se / grid as f64).sqrt()
        );
    }

    // --- D: acquisition candidate-pool size ------------------------------------
    println!("\n=== D. Acquisition candidate pool (uniform candidates per proposal) ===");
    for n_uniform in [32usize, 128, 512] {
        let (m, s) = run(&|| Box::new(WeightedSum::dynamic()), &|config| {
            config.search = SearchOptions {
                n_uniform,
                ..Default::default()
            };
        });
        println!("  {n_uniform:>4} candidates: best = {m:.4} ± {s:.4}");
    }
}
