//! Hot-path benchmark of the sparse surrogate tier: writes
//! `results/bench_hotpath.json` for `bench_gate`.
//!
//! crowdbench's sessions never reach the sparse tier (its switch
//! threshold is crowd scale), so it is timed here, in units of a probe:
//! a 256×256 `Matrix::matmul` at the run's thread count. The probe runs
//! right before and after every timed run, and each run is divided by
//! the mean of the two, so a host that is slower for a while slows both
//! alike (six runs of one build timed the probe alone at 2.8–5.2 ms).
//! A substrate's `probe_units` is the median of its runs' ratios.
//!
//! 1. `sparse_fit_acq_n2000` — `SparseGp::fit` (inducing selection,
//!    subset hyperparameter fit, Nyström assembly) plus a 2000-candidate
//!    batched acquisition sweep, at the largest n where the exact GP
//!    still runs. The exact build plus the same sweep is timed too: both
//!    are live paths the tier switches between, and the sparse one must
//!    win by ≥ 20x (asserted).
//! 2. `sparse_scale_n100000` (`_n10000_smoke`) — sparse fit plus
//!    acquisition at crowd scale, where the exact GP cannot run.
//!
//! Run: `cargo run --release -p crowdtune-bench --bin bench_hotpath`.
//! Pass `--smoke` to shrink the crowd-scale substrate (and suffix the
//! substrates' names with `_smoke` so the gate never compares
//! smoke-scale stats against full-scale baselines) — that is what CI
//! runs.

use crowdtune_gp::{DimKind, Gp, Kernel, KernelKind, Prediction, SparseGp, SparseGpConfig};
use crowdtune_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Wall-clock seconds of one run of `f`.
fn seconds(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The probe: the fastest of three 256×256 products.
struct Probe {
    a: Matrix,
    b: Matrix,
}

impl Probe {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(41);
        let mut random = || Matrix::from_fn(256, 256, |_, _| rng.gen::<f64>() - 0.5);
        Probe {
            a: random(),
            b: random(),
        }
    }

    fn seconds(&self) -> f64 {
        (0..3)
            .map(|_| {
                seconds(&mut || {
                    std::hint::black_box(self.a.matmul(&self.b));
                })
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// `f`'s time in probe units (the median over `reps` runs, each
    /// divided by the mean probe time on either side of it) and its
    /// median time in seconds.
    fn units(&self, reps: usize, mut f: impl FnMut()) -> (f64, f64) {
        let mut before = self.seconds();
        let (mut ratios, mut times) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let t = seconds(&mut f);
            let after = self.seconds();
            ratios.push(2.0 * t / (before + after));
            times.push(t);
            before = after;
        }
        (median(ratios), median(times))
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn unit_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen()).collect())
        .collect()
}

/// The synthetic 4-d objective the sparse substrates fit.
fn objective(p: &[f64]) -> f64 {
    (p[0] * 5.0).sin() + p[1] * p[2]
}

/// Index of the best expected improvement over `best`.
fn ei_argmax(preds: &[Prediction], best: f64) -> usize {
    let mut best_score = f64::NEG_INFINITY;
    let mut best_idx = 0;
    for (i, p) in preds.iter().enumerate() {
        let sc = crowdtune_core::expected_improvement(p.mean, p.std, best);
        if sc.is_finite() && sc > best_score {
            best_score = sc;
            best_idx = i;
        }
    }
    best_idx
}

/// The sparse tier's configuration as the substrates fit it.
fn sparse_config(d: usize) -> SparseGpConfig {
    let mut config = SparseGpConfig::continuous(d);
    config.base.restarts = 0;
    config.base.max_opt_iter = 8;
    config
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let suffix = if smoke { "_smoke" } else { "" };
    let threads = rayon::current_num_threads();
    let probe = Probe::new();
    let mut rows: Vec<String> = Vec::new();

    // Substrate 1: the sparse tier against the exact GP at n = 2000, the
    // largest n where the exact build is still runnable. The ≥ 20x floor
    // is the tier's headline claim and is asserted, not just reported.
    {
        let (n, d) = (2000, 4);
        let x = unit_points(n, d, 71);
        let y: Vec<f64> = x.iter().map(|p| objective(p)).collect();
        let mut kernel = Kernel::new(KernelKind::Matern52, vec![DimKind::Continuous; d]);
        for l in kernel.log_lengthscales.iter_mut() {
            *l = (0.3f64).ln();
        }
        let log_noise = (1e-4f64).ln();
        let cands = unit_points(2000, d, 72);
        let best = y.iter().cloned().fold(f64::INFINITY, f64::min);
        // The exact side costs ~40x the sparse one: one run of it is
        // enough for the assertion.
        let (_, exact) = probe.units(if smoke { 1 } else { 3 }, || {
            let gp = Gp::with_hypers(kernel.clone(), log_noise, &x, &y).unwrap();
            std::hint::black_box(ei_argmax(&gp.predict_batch(&cands), best));
        });
        let config = sparse_config(d);
        let (units, sparse) = probe.units(5, || {
            let mut rng = StdRng::seed_from_u64(73);
            let sparse = SparseGp::fit(&x, &y, &config, &mut rng).unwrap();
            std::hint::black_box(ei_argmax(&sparse.predict_batch(&cands), best));
        });
        let speedup = exact / sparse;
        assert!(
            speedup >= 20.0,
            "sparse tier must beat exact by >= 20x at n = {n} (got {speedup:.1}x)"
        );
        eprintln!("sparse vs exact at n = {n}: {speedup:.1}x");
        rows.push(substrate_row(
            &format!("sparse_fit_acq_n{n}{suffix}"),
            units,
            &format!(", \"seconds\": {sparse:.6}, \"exact_seconds\": {exact:.6}"),
        ));
    }

    // Substrate 2: sparse fit + acquisition at crowd scale, where the
    // exact GP is not runnable.
    {
        let (n, d) = (if smoke { 10_000 } else { 100_000 }, 4);
        let x = unit_points(n, d, 81);
        let y: Vec<f64> = x.iter().map(|p| objective(p)).collect();
        let cands = unit_points(2000, d, 82);
        let config = sparse_config(d);
        let (units, secs) = probe.units(if smoke { 3 } else { 1 }, || {
            let mut rng = StdRng::seed_from_u64(83);
            let sparse = SparseGp::fit(&x, &y, &config, &mut rng).unwrap();
            std::hint::black_box(sparse.predict_batch(&cands).len());
        });
        rows.push(substrate_row(
            &format!("sparse_scale_n{n}{suffix}"),
            units,
            &format!(", \"seconds\": {secs:.6}"),
        ));
    }

    let json = format!(
        "{{\n  \"threads\": {},\n  \"probe\": \"matmul_256\",\n  \"substrates\": [\n{}\n  ]\n}}\n",
        threads,
        rows.join(",\n")
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/bench_hotpath.json", &json).expect("write bench_hotpath.json");
    println!("{json}");
}

/// A substrate row; `extra` is empty or starts with a comma.
fn substrate_row(name: &str, probe_units: f64, extra: &str) -> String {
    format!("    {{\"name\": \"{name}\", \"probe_units\": {probe_units:.6}{extra}}}")
}
