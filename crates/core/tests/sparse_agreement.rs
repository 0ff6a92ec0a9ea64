//! Accuracy gate for the crowd-scale surrogate tier (DESIGN.md §13).
//!
//! The sparse tier is only admissible if it *ranks* candidates like the
//! exact GP it replaces — BO consumes the acquisition argmax, not the
//! posterior surface. These tests fit an exact `Gp` and a `SparseGp` on
//! the same fixed-seed history, score a shared candidate grid under
//! Expected Improvement, and pin floors on top-k overlap and Spearman
//! rank correlation. CI runs this file on
//! every push; a sparse-tier change that degrades ranking fidelity
//! fails here before it can regress tuning trajectories.

use crowdtune_core::agreement::ei_ranking_agreement;
use crowdtune_gp::{Gp, GpConfig, NoiseModel, SparseGp, SparseGpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A smooth but multi-basin 2-d objective on the unit square.
fn objective(x: &[f64]) -> f64 {
    let (a, b) = (x[0], x[1]);
    (6.0 * a).sin() * (5.0 * b).cos() + (a - 0.3) * (a - 0.3) + 0.5 * (b - 0.7) * (b - 0.7)
}

/// Fixed-seed training history: `n` uniform points plus small
/// deterministic observation noise.
fn history(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|p| objective(p) + 0.01 * (rng.gen::<f64>() - 0.5))
        .collect();
    (x, y)
}

/// A deterministic candidate grid over the unit square.
fn grid(per_side: usize) -> Vec<Vec<f64>> {
    let mut xs = Vec::with_capacity(per_side * per_side);
    for i in 0..per_side {
        for j in 0..per_side {
            xs.push(vec![
                (i as f64 + 0.5) / per_side as f64,
                (j as f64 + 0.5) / per_side as f64,
            ]);
        }
    }
    xs
}

fn exact_config() -> GpConfig {
    let mut cfg = GpConfig::continuous(2);
    // Fixed moderate noise keeps both factorizations well-conditioned so
    // the comparison measures approximation error, not jitter luck.
    cfg.noise = NoiseModel::Fixed(1e-2);
    cfg
}

#[test]
fn sparse_ei_ranking_meets_agreement_floors() {
    // n = 400 ≤ 500 keeps the exact fit runnable in a unit test.
    let (x, y) = history(400, 20_240_801);
    let best = y.iter().cloned().fold(f64::INFINITY, f64::min);

    let mut rng = StdRng::seed_from_u64(7);
    let exact = Gp::fit(&x, &y, &exact_config(), &mut rng).expect("exact fit");

    let mut scfg = SparseGpConfig::continuous(2);
    scfg.base = exact_config();
    scfg.m_inducing = 64;
    let mut rng = StdRng::seed_from_u64(7);
    let sparse = SparseGp::fit(&x, &y, &scfg, &mut rng).expect("sparse fit");

    let xs = grid(16); // 256 candidates
    let report = ei_ranking_agreement(&exact, &sparse, best, &xs, 20);

    // Floors hold with margin at this seed (observed 0.90 / 0.85) and
    // are set loose enough to survive kernel/optimizer tweaks while
    // still catching a broken approximation outright.
    assert!(
        report.top_k_overlap >= 0.6,
        "top-20 overlap {} below floor 0.6",
        report.top_k_overlap
    );
    assert!(
        report.spearman >= 0.7,
        "spearman {} below floor 0.7",
        report.spearman
    );
}

#[test]
fn sparse_update_matches_refit_through_public_api() {
    // Frozen-set appends must stay interchangeable with a rebuild at the
    // same inducing set — the tuner's between-reselection path depends
    // on it. (The gp crate pins the same identity at unit level; this
    // guards the public re-exported surface.)
    let (x, y) = history(120, 20_240_803);
    let mut scfg = SparseGpConfig::continuous(2);
    scfg.base = exact_config();
    scfg.m_inducing = 24;

    let mut rng = StdRng::seed_from_u64(11);
    let mut updated = SparseGp::fit(&x[..100], &y[..100], &scfg, &mut rng).expect("fit");
    for i in 100..120 {
        updated.update(&x[i], y[i]).expect("update");
    }
    let mut refit = updated.clone();
    refit.refit_at_current_inducing().expect("refit");

    for p in grid(8) {
        let a = updated.predict(&p);
        let b = refit.predict(&p);
        assert!(
            (a.mean - b.mean).abs() < 1e-6 && (a.std - b.std).abs() < 1e-6,
            "update/refit diverged at {p:?}: {a:?} vs {b:?}"
        );
    }
}
