//! The tuner-comparison runner: run a grid of (tuner × seed) on one
//! target task, aggregate best-so-far curves, and print them in the
//! paper's figure shape (mean ± std per evaluation count).

use crowdtune_apps::Application;
use crowdtune_core::tuner::{tune, TuneConfig};
use crowdtune_core::{
    Ensemble, EnsemblePolicy, MultitaskPs, MultitaskTs, NoTla, SourceTask, Stacking, TlaStrategy,
    WeightedSum,
};
use crowdtune_linalg::stats;
use crowdtune_obs as obs;
use crowdtune_space::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Which tuner to run (factory: strategies are stateful, so each run
/// builds a fresh instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerSpec {
    /// Single-task BO baseline.
    NoTla,
    /// `Multitask(PS)`.
    MultitaskPs,
    /// `Multitask(TS)`.
    MultitaskTs,
    /// `WeightedSum(equal)`.
    WeightedEqual,
    /// `WeightedSum(dynamic)`.
    WeightedDynamic,
    /// `Stacking`.
    Stacking,
    /// `Ensemble(proposed)`.
    EnsembleProposed,
    /// `Ensemble(toggling)`.
    EnsembleToggling,
    /// `Ensemble(prob)`.
    EnsembleProb,
}

impl TunerSpec {
    /// Table-I-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            TunerSpec::NoTla => "NoTLA",
            TunerSpec::MultitaskPs => "Multitask(PS)",
            TunerSpec::MultitaskTs => "Multitask(TS)",
            TunerSpec::WeightedEqual => "WeightedSum(equal)",
            TunerSpec::WeightedDynamic => "WeightedSum(dynamic)",
            TunerSpec::Stacking => "Stacking",
            TunerSpec::EnsembleProposed => "Ensemble(proposed)",
            TunerSpec::EnsembleToggling => "Ensemble(toggling)",
            TunerSpec::EnsembleProb => "Ensemble(prob)",
        }
    }

    /// The full 9-tuner lineup of the paper's Fig. 3.
    pub fn all() -> Vec<TunerSpec> {
        vec![
            TunerSpec::NoTla,
            TunerSpec::MultitaskPs,
            TunerSpec::MultitaskTs,
            TunerSpec::WeightedEqual,
            TunerSpec::WeightedDynamic,
            TunerSpec::Stacking,
            TunerSpec::EnsembleProposed,
            TunerSpec::EnsembleToggling,
            TunerSpec::EnsembleProb,
        ]
    }

    /// The reduced lineup of the real-application figures (Figs. 4–5).
    pub fn application_lineup() -> Vec<TunerSpec> {
        vec![
            TunerSpec::NoTla,
            TunerSpec::MultitaskTs,
            TunerSpec::WeightedDynamic,
            TunerSpec::Stacking,
            TunerSpec::EnsembleProposed,
        ]
    }

    fn build_strategy(&self) -> Box<dyn TlaStrategy> {
        match self {
            TunerSpec::NoTla => Box::new(NoTla::new()),
            TunerSpec::MultitaskPs => Box::new(MultitaskPs::new()),
            TunerSpec::MultitaskTs => Box::new(MultitaskTs::new()),
            TunerSpec::WeightedEqual => Box::new(WeightedSum::equal()),
            TunerSpec::WeightedDynamic => Box::new(WeightedSum::dynamic()),
            TunerSpec::Stacking => Box::new(Stacking::new()),
            TunerSpec::EnsembleProposed => Box::new(Ensemble::proposed_default()),
            TunerSpec::EnsembleToggling => Box::new(Ensemble::new(
                vec![
                    Box::new(MultitaskTs::new()),
                    Box::new(WeightedSum::dynamic()),
                    Box::new(Stacking::new()),
                ],
                EnsemblePolicy::Toggling,
            )),
            TunerSpec::EnsembleProb => Box::new(Ensemble::new(
                vec![
                    Box::new(MultitaskTs::new()),
                    Box::new(WeightedSum::dynamic()),
                    Box::new(Stacking::new()),
                ],
                EnsemblePolicy::ProbOnly,
            )),
        }
    }
}

/// An aggregated best-so-far curve for one tuner.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Tuner name.
    pub tuner: &'static str,
    /// Mean best-so-far at each evaluation count (NaN where no run had a
    /// success yet — the paper omits those points).
    pub mean: Vec<f64>,
    /// Standard deviation across seeds.
    pub std: Vec<f64>,
    /// Number of runs (seeds) with at least one success at each step.
    pub n_ok: Vec<usize>,
}

impl Curve {
    /// Mean best-so-far at evaluation `k` (1-based), if defined.
    pub fn at(&self, k: usize) -> Option<f64> {
        let v = *self.mean.get(k.checked_sub(1)?)?;
        v.is_finite().then_some(v)
    }
}

/// One comparison scenario: a target application, pre-collected sources,
/// a budget and a number of repetitions.
pub struct Scenario<'a> {
    /// Display label (paper subplot id, e.g. `"(a) target t=1.0"`).
    pub label: String,
    /// The target application instance.
    pub target: &'a dyn Application,
    /// Pre-collected source tasks.
    pub sources: Vec<SourceTask>,
    /// Evaluation budget `NS`.
    pub budget: usize,
    /// Number of tuning repetitions (seeds).
    pub repeats: usize,
    /// Base seed.
    pub seed: u64,
    /// Per-task sample cap for LCM fitting. The cached source GPs (and
    /// hence the weighted-sum / stacking algorithms) always use the full
    /// source data; only the joint LCM subsamples, bounding its O(N^3)
    /// cost. 0 means the tuner default.
    pub max_lcm_samples: usize,
}

/// Run every tuner in `lineup` on the scenario and aggregate curves.
pub fn run_comparison(scenario: &Scenario<'_>, lineup: &[TunerSpec]) -> Vec<Curve> {
    lineup
        .iter()
        .map(|spec| {
            // Seeds run in parallel (each run is fully deterministic).
            let runs: Vec<Vec<Option<f64>>> = (0..scenario.repeats)
                .into_par_iter()
                .map(|rep| {
                    let seed = scenario.seed.wrapping_add(rep as u64 * 7919);
                    run_once(scenario, *spec, seed)
                })
                .collect();
            aggregate(spec.name(), scenario.budget, &runs)
        })
        .collect()
}

fn run_once(scenario: &Scenario<'_>, spec: TunerSpec, seed: u64) -> Vec<Option<f64>> {
    let space = scenario.target.tuning_space();
    // Independent noise stream for the application's timing jitter.
    let mut noise_rng = StdRng::seed_from_u64(seed ^ 0xAB0BA);
    let mut objective = |p: &Point| {
        scenario
            .target
            .evaluate(p, &mut noise_rng)
            .map_err(|e| e.to_string())
    };
    let mut config = TuneConfig {
        budget: scenario.budget,
        seed,
        ..Default::default()
    };
    if scenario.max_lcm_samples > 0 {
        config.max_lcm_samples = scenario.max_lcm_samples;
    }
    // GPTune's documented default spends NS1 = NS/2 evaluations on random
    // initialization before Bayesian optimization starts; the paper's
    // NoTLA baseline inherits that. (Transfer strategies ignore n_init —
    // their prior comes from the sources.)
    config.n_init = (scenario.budget / 2).max(2);
    // Structural constraints are known without running the app; OOM-style
    // failures still reach the tuner through the objective.
    let constraint = |p: &crowdtune_space::Point| scenario.target.validate_config(p);
    tune(
        &space,
        &mut objective,
        &scenario.sources,
        spec.build_strategy().as_mut(),
        &config,
        Some(&constraint),
        None,
    )
    .expect("a fresh run has no replay to diverge from")
    .best_so_far()
}

fn aggregate(tuner: &'static str, budget: usize, runs: &[Vec<Option<f64>>]) -> Curve {
    let mut mean = Vec::with_capacity(budget);
    let mut std = Vec::with_capacity(budget);
    let mut n_ok = Vec::with_capacity(budget);
    for k in 0..budget {
        let vals: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get(k).copied().flatten())
            .collect();
        n_ok.push(vals.len());
        // The paper draws a point only when every repetition has a
        // successful evaluation by step k (failures push curves right).
        if vals.len() == runs.len() && !vals.is_empty() {
            mean.push(stats::mean(&vals));
            std.push(stats::std_dev(&vals));
        } else {
            mean.push(f64::NAN);
            std.push(f64::NAN);
        }
    }
    Curve {
        tuner,
        mean,
        std,
        n_ok,
    }
}

/// Print curves as an aligned table: one row per evaluation count, one
/// `mean±std` column per tuner — the textual equivalent of the paper's
/// line charts.
fn print_curves(label: &str, curves: &[Curve]) {
    println!("\n=== {label} ===");
    print!("{:>4}", "eval");
    for c in curves {
        print!("  {:>22}", c.tuner);
    }
    println!();
    let budget = curves.first().map(|c| c.mean.len()).unwrap_or(0);
    for k in 0..budget {
        print!("{:>4}", k + 1);
        for c in curves {
            if c.mean[k].is_finite() {
                print!("  {:>13.4} ±{:>6.4}", c.mean[k], c.std[k]);
            } else {
                print!("  {:>22}", "-");
            }
        }
        println!();
    }
}

/// Machine-readable form of one tuner's aggregated curve. The `NaN`
/// cells of [`Curve`] (steps where some repetition had no success yet)
/// become `None`, which serializes as JSON `null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveJson {
    /// Tuner name.
    pub tuner: String,
    /// Mean best-so-far per evaluation count.
    pub mean: Vec<Option<f64>>,
    /// Standard deviation across seeds per evaluation count.
    pub std: Vec<Option<f64>>,
    /// Number of runs with at least one success at each step.
    pub n_ok: Vec<u64>,
}

/// Machine-readable comparison result written alongside the human
/// tables, tagged with the active per-run event journal (when one is
/// installed) so figures can be joined with their trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonJson {
    /// Scenario label.
    pub label: String,
    /// Path of the installed obs journal, if any.
    pub journal: Option<String>,
    /// One aggregated curve per tuner.
    pub curves: Vec<CurveJson>,
    /// Evaluation count the speedups are measured at.
    pub speedup_at: u64,
    /// Speedup over the NoTLA baseline per tuner; a tuner is absent when
    /// either curve has no defined point at `speedup_at`.
    pub speedups: BTreeMap<String, f64>,
}

/// Convert aggregated curves to the machine-readable comparison form,
/// with speedups over NoTLA taken at evaluation `k`.
fn comparison_json(label: &str, curves: &[Curve], k: usize) -> ComparisonJson {
    let base = curves
        .iter()
        .find(|c| c.tuner == "NoTLA")
        .and_then(|c| c.at(k));
    let mut speedups = BTreeMap::new();
    if let Some(base) = base {
        for c in curves {
            if c.tuner == "NoTLA" {
                continue;
            }
            if let Some(v) = c.at(k) {
                speedups.insert(c.tuner.to_string(), base / v);
            }
        }
    }
    ComparisonJson {
        label: label.to_string(),
        journal: obs::journal_path().map(|p| p.display().to_string()),
        curves: curves
            .iter()
            .map(|c| CurveJson {
                tuner: c.tuner.to_string(),
                mean: c.mean.iter().copied().map(obs::finite).collect(),
                std: c.std.iter().copied().map(obs::finite).collect(),
                n_ok: c.n_ok.iter().map(|&n| n as u64).collect(),
            })
            .collect(),
        speedup_at: k as u64,
        speedups,
    }
}

/// Print the human tables for one comparison and write the
/// machine-readable JSON next to them under `dir` (filename derived from
/// the label). Returns the JSON path.
pub fn report_comparison(
    dir: &Path,
    label: &str,
    curves: &[Curve],
    k: usize,
) -> std::io::Result<PathBuf> {
    print_curves(label, curves);
    print_speedups(curves, k);
    let json = comparison_json(label, curves, k);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("curves_{}.json", label_slug(label)));
    let text = serde_json::to_string_pretty(&json).expect("comparison serializes");
    std::fs::write(&path, text)?;
    println!("-- wrote {}", path.display());
    Ok(path)
}

fn label_slug(label: &str) -> String {
    let mut s = String::with_capacity(label.len());
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            s.push(ch.to_ascii_lowercase());
        } else if !s.is_empty() && !s.ends_with('_') {
            s.push('_');
        }
    }
    s.trim_end_matches('_').to_string()
}

/// Report the paper's headline ratio: tuned performance of each tuner
/// relative to `NoTLA` at evaluation `k` (values > 1 mean the tuner's
/// configuration is that many times faster).
fn print_speedups(curves: &[Curve], k: usize) {
    let Some(base) = curves
        .iter()
        .find(|c| c.tuner == "NoTLA")
        .and_then(|c| c.at(k))
    else {
        println!("(no NoTLA baseline value at evaluation {k})");
        return;
    };
    println!("-- speedup over NoTLA at evaluation {k} (NoTLA best-so-far {base:.4}) --");
    for c in curves {
        if c.tuner == "NoTLA" {
            continue;
        }
        match c.at(k) {
            Some(v) => println!("  {:>22}: {:.2}x", c.tuner, base / v),
            None => println!("  {:>22}: (no point)", c.tuner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::source_task_from_app;
    use crowdtune_apps::DemoFunction;

    #[test]
    fn comparison_runs_and_aggregates() {
        let target = DemoFunction::new(1.0);
        let src_app = DemoFunction::new(0.8);
        let sources = vec![source_task_from_app(&src_app, "t=0.8", 30, 1)];
        let scenario = Scenario {
            label: "test".into(),
            target: &target,
            sources,
            budget: 4,
            repeats: 2,
            seed: 0,
            max_lcm_samples: 0,
        };
        let curves = run_comparison(&scenario, &[TunerSpec::NoTla, TunerSpec::WeightedDynamic]);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].mean.len(), 4);
        // Demo function never fails: every step has all runs succeeding.
        assert!(curves.iter().all(|c| c.n_ok.iter().all(|&n| n == 2)));
        assert!(curves[0].at(4).is_some());
        // Monotone non-increasing means.
        for c in &curves {
            for w in c.mean.windows(2) {
                assert!(w[1] <= w[0] + 1e-9);
            }
        }
    }

    #[test]
    fn comparison_json_round_trips_and_slugs_labels() {
        let curves = vec![
            Curve {
                tuner: "NoTLA",
                mean: vec![2.0, f64::NAN, 1.0],
                std: vec![0.1, f64::NAN, 0.05],
                n_ok: vec![2, 1, 2],
            },
            Curve {
                tuner: "Stacking",
                mean: vec![1.5, 1.25, 0.5],
                std: vec![0.2, 0.1, 0.01],
                n_ok: vec![2, 2, 2],
            },
        ];
        let json = comparison_json("Fig 3 (a) demo: t=1.0", &curves, 3);
        // NaN cells become None; finite cells survive bitwise.
        assert_eq!(json.curves[0].mean, vec![Some(2.0), None, Some(1.0)]);
        assert_eq!(json.speedups.get("Stacking"), Some(&2.0));
        let text = serde_json::to_string(&json).unwrap();
        let back: ComparisonJson = serde_json::from_str(&text).unwrap();
        assert_eq!(back, json);

        assert_eq!(label_slug("Fig 3 (a) demo: t=1.0"), "fig_3_a_demo_t_1_0");
        assert_eq!(label_slug("---"), "");

        let dir = std::env::temp_dir().join("crowdtune_runner_json");
        let path = report_comparison(&dir, "unit test label", &curves, 3).unwrap();
        let written: ComparisonJson =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(written, json_with_label(&json, "unit test label"));
        std::fs::remove_file(&path).ok();
    }

    fn json_with_label(json: &ComparisonJson, label: &str) -> ComparisonJson {
        ComparisonJson {
            label: label.to_string(),
            ..json.clone()
        }
    }

    #[test]
    fn curves_deterministic_for_seed() {
        let target = DemoFunction::new(1.2);
        let sources = vec![source_task_from_app(&DemoFunction::new(0.8), "s", 25, 3)];
        let mk = || Scenario {
            label: "det".into(),
            target: &target,
            sources: sources.clone(),
            budget: 3,
            repeats: 2,
            seed: 42,
            max_lcm_samples: 0,
        };
        let a = run_comparison(&mk(), &[TunerSpec::Stacking]);
        let b = run_comparison(&mk(), &[TunerSpec::Stacking]);
        assert_eq!(a[0].mean, b[0].mean);
    }
}
