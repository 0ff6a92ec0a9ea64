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

use crowdtune_core::acquisition::{expected_improvement, Surrogate};
use crowdtune_gp::{Gp, GpConfig, NoiseModel, SparseGp, SparseGpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// EI-ranking agreement between two surrogates. Both surrogates'
// Expected Improvement is scored over one shared candidate set, and the
// report gives:
//
// - **top-k overlap** — the fraction of the reference surrogate's k
//   best candidates that also appear in the candidate surrogate's k
//   best. This is the quantity the tuner actually depends on.
// - **Spearman rank correlation** — rank agreement over the whole
//   candidate set (average ranks on ties), a broader-band check that
//   catches rankings that agree at the top by luck.
//
// Both are deterministic given the inputs.

/// Agreement statistics between two surrogates' EI rankings over a
/// shared candidate set.
#[derive(Debug, Clone, PartialEq)]
struct AgreementReport {
    /// Number of candidates scored.
    pub candidates: usize,
    /// The `k` used for the overlap statistic.
    pub top_k: usize,
    /// `|top_k(reference) ∩ top_k(candidate)| / k`, in `[0, 1]`.
    pub top_k_overlap: f64,
    /// Spearman rank correlation over all candidates, in `[-1, 1]`
    /// (average ranks on ties; `1.0` when either ranking is constant,
    /// since a constant acquisition surface imposes no ordering to
    /// disagree with).
    pub spearman: f64,
}

/// Score `xs` under both surrogates' Expected Improvement (incumbent
/// `best`, minimization) and compare the rankings.
///
/// `top_k` is clamped to `xs.len()`; an empty candidate set yields a
/// degenerate report with overlap and correlation of `1.0`.
fn ei_ranking_agreement<A, B>(
    reference: &A,
    candidate: &B,
    best: f64,
    xs: &[Vec<f64>],
    top_k: usize,
) -> AgreementReport
where
    A: Surrogate + ?Sized,
    B: Surrogate + ?Sized,
{
    fn ei<S: Surrogate + ?Sized>(s: &S, xs: &[Vec<f64>], best: f64) -> Vec<f64> {
        s.predict_batch(xs)
            .into_iter()
            .map(|(m, sd)| expected_improvement(m, sd, best))
            .collect()
    }
    let a = ei(reference, xs, best);
    let b = ei(candidate, xs, best);
    let k = top_k.min(xs.len());
    AgreementReport {
        candidates: xs.len(),
        top_k: k,
        top_k_overlap: top_k_overlap(&a, &b, k),
        spearman: spearman(&a, &b),
    }
}

/// Indices of the `k` largest scores, ties broken toward the lowest
/// index so the result is deterministic.
fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&i, &j| {
        scores[j]
            .partial_cmp(&scores[i])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    idx.truncate(k);
    idx
}

/// Fraction of `a`'s top-k indices also present in `b`'s top-k.
fn top_k_overlap(a: &[f64], b: &[f64], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let ta = top_k_indices(a, k);
    let tb = top_k_indices(b, k);
    let hits = ta.iter().filter(|i| tb.contains(i)).count();
    hits as f64 / k as f64
}

/// Average ranks (1-based, ties share the mean of their positions).
fn average_ranks(scores: &[f64]) -> Vec<f64> {
    let n = scores.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| {
        scores[i]
            .partial_cmp(&scores[j])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    let mut ranks = vec![0.0; n];
    let mut pos = 0;
    while pos < n {
        let mut end = pos + 1;
        while end < n && scores[idx[end]] == scores[idx[pos]] {
            end += 1;
        }
        // positions pos..end (0-based) share rank mean of (pos+1)..=end.
        let rank = (pos + 1 + end) as f64 / 2.0;
        for &i in &idx[pos..end] {
            ranks[i] = rank;
        }
        pos = end;
    }
    ranks
}

/// Spearman rank correlation: Pearson correlation of the average
/// ranks. Returns `1.0` when either ranking is constant.
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ra = average_ranks(a);
    let rb = average_ranks(b);
    let mean = (n + 1) as f64 / 2.0;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = ra[i] - mean;
        let db = rb[i] - mean;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= 1e-300 || vb <= 1e-300 {
        return 1.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

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

fn lin(coef: f64) -> impl Surrogate {
    move |x: &[f64]| (coef * x[0], 0.1)
}

#[test]
fn identical_surrogates_agree_perfectly() {
    let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 50.0]).collect();
    let s = lin(1.0);
    let r = ei_ranking_agreement(&s, &s, 0.5, &xs, 10);
    assert_eq!(r.top_k_overlap, 1.0);
    assert!((r.spearman - 1.0).abs() < 1e-12);
}

#[test]
fn reversed_ranking_is_anticorrelated() {
    let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 50.0]).collect();
    // EI under minimization rewards low mean: coef 1.0 ranks small
    // x[0] first, coef -1.0 ranks large x[0] first.
    let r = ei_ranking_agreement(&lin(1.0), &lin(-1.0), 0.5, &xs, 10);
    assert!(r.spearman < -0.99, "spearman={}", r.spearman);
    assert_eq!(r.top_k_overlap, 0.0);
}

#[test]
fn constant_scores_yield_unit_agreement() {
    let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
    let flat = |_: &[f64]| (0.0, 0.1);
    let r = ei_ranking_agreement(&flat, &lin(1.0), 0.5, &xs, 3);
    assert_eq!(r.spearman, 1.0);
}

#[test]
fn average_ranks_handle_ties() {
    let ranks = average_ranks(&[1.0, 2.0, 2.0, 3.0]);
    assert_eq!(ranks, vec![1.0, 2.5, 2.5, 4.0]);
}

#[test]
fn empty_and_clamped_k_are_degenerate_but_defined() {
    let r = ei_ranking_agreement(&lin(1.0), &lin(1.0), 0.5, &[], 10);
    assert_eq!(r.top_k, 0);
    assert_eq!(r.top_k_overlap, 1.0);
    assert_eq!(r.spearman, 1.0);
}
