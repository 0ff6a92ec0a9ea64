//! The tuner driver's bitwise contract: a matrix of runs — `NoTLA` with
//! and without a constraint, with the quality scorer, across the
//! sparse-tier threshold, and every strategy of the paper's lineup with
//! and without a constraint, plus runs whose objective fails and runs
//! whose constraint empties most candidate sweeps — must reproduce the
//! histories in `driver_contract.golden` bit for bit.
//!
//! Each fixture line is one run: per evaluation, the unit coordinates
//! and the objective as raw `f64` bits (or the failure message) and the
//! `proposed_by` label. The fixture was recorded before the `NoTLA` and
//! transfer drivers were merged into one loop, so a mismatch means the
//! driver changed behaviour, not just shape.

use crowdtune_core::tla::SourceTask;
use crowdtune_core::tuner::{tune, Constraint, SurrogateTier, TuneConfig, TuneResult};
use crowdtune_core::{
    dims_of, Dataset, Ensemble, EnsemblePolicy, MultitaskPs, MultitaskTs, NoTla, QualityConfig,
    QualityScorer, Stacking, TlaStrategy, WeightedSum,
};
use crowdtune_space::{Param, Point, Space, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const BUDGET: usize = 10;

/// A real range whose unit map does not round-trip exactly, so a
/// proposal and the cell it is evaluated at can differ in the last bit.
fn space() -> Space {
    Space::new(vec![Param::real("x", 0.5, 3.7), Param::integer("k", 0, 7)]).unwrap()
}

/// The point's coordinates, both scaled to [0, 1].
fn coords(p: &Point) -> (f64, f64) {
    match (&p[0], &p[1]) {
        (Value::Real(x), Value::Int(k)) => ((x - 0.5) / 3.2, *k as f64 / 7.0),
        _ => panic!("unexpected point {p:?}"),
    }
}

fn objective(p: &Point) -> Result<f64, String> {
    let (x, k) = coords(p);
    Ok(3.0 + 10.0 * (x - 0.3) * (x - 0.3) + 2.0 * (k - 0.6) * (k - 0.6))
}

/// Fails permanently on the right third of the space and on one
/// integer slice the transfer strategies favour.
fn failing_objective(p: &Point) -> Result<f64, String> {
    if coords(p).0 > 0.65 || p[1] == Value::Int(4) {
        Err("oom: simulated crash".to_string())
    } else {
        objective(p)
    }
}

fn constraint(p: &Point) -> bool {
    coords(p).0 < 0.3
}

/// A needle-thin feasible window: most candidate sweeps are empty after
/// the validity filter, which drives the rejection-sampling fallback.
fn needle(p: &Point) -> bool {
    (0.5..0.501).contains(&coords(p).0)
}

fn sources(space: &Space) -> Vec<SourceTask> {
    let dims = dims_of(space);
    let mut rng = StdRng::seed_from_u64(77);
    [0.2f64, 0.45]
        .iter()
        .enumerate()
        .map(|(s, &opt)| {
            let mut data = Dataset::default();
            for i in 0..18 {
                let x = (i as f64 + 0.5) / 18.0;
                let k = ((i * 5 + s) % 8) as f64;
                let u = vec![x, (k + 0.5) / 8.0];
                let y = 2.0 + 10.0 * (x - opt) * (x - opt) + 2.0 * (k / 7.0 - 0.6).powi(2);
                data.push(u, y);
            }
            SourceTask::fit(format!("src{s}"), data, &dims, &mut rng).unwrap()
        })
        .collect()
}

/// Builds a fresh strategy for one run.
type Build = fn() -> Box<dyn TlaStrategy>;

fn tla_specs() -> Vec<(&'static str, Build)> {
    fn members() -> Vec<Box<dyn TlaStrategy>> {
        vec![
            Box::new(MultitaskTs::new()),
            Box::new(WeightedSum::dynamic()),
            Box::new(Stacking::new()),
        ]
    }
    vec![
        ("Multitask(PS)", || Box::new(MultitaskPs::new())),
        ("Multitask(TS)", || Box::new(MultitaskTs::new())),
        ("WeightedSum(equal)", || Box::new(WeightedSum::equal())),
        ("WeightedSum(dynamic)", || Box::new(WeightedSum::dynamic())),
        ("Stacking", || Box::new(Stacking::new())),
        ("Ensemble(proposed)", || {
            Box::new(Ensemble::proposed_default())
        }),
        ("Ensemble(toggling)", || {
            Box::new(Ensemble::new(members(), EnsemblePolicy::Toggling))
        }),
        ("Ensemble(prob)", || {
            Box::new(Ensemble::new(members(), EnsemblePolicy::ProbOnly))
        }),
    ]
}

fn config(seed: u64) -> TuneConfig {
    TuneConfig {
        budget: BUDGET,
        n_init: 4,
        seed,
        ..Default::default()
    }
}

fn fingerprint(name: &str, result: &TuneResult) -> String {
    let mut line = format!("{name} =");
    for r in &result.history {
        let unit: Vec<String> = r
            .unit
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        let y = match &r.result {
            Ok(y) => format!("{:016x}", y.to_bits()),
            Err(e) => format!("err({e})"),
        };
        write!(line, " [{} {} {}]", unit.join(","), y, r.proposed_by).unwrap();
    }
    line
}

/// Runs the matrix. A run's name picks its objective and constraint:
/// `+failures` uses [`failing_objective`], `+constraint` [`constraint`]
/// and `+needle` [`needle`].
fn run_matrix() -> Vec<String> {
    let space = space();
    let sources = sources(&space);
    let mut out = Vec::new();
    // `NoTla` ignores the sources, so every run can be handed them.
    let mut run = |name: &str, strategy: &mut dyn TlaStrategy, config: TuneConfig| {
        let mut objective: fn(&Point) -> Result<f64, String> = if name.ends_with("+failures") {
            failing_objective
        } else {
            objective
        };
        let constraint: Option<&Constraint<'_>> = match name.rsplit('+').next() {
            Some("constraint") => Some(&constraint),
            Some("needle") => Some(&needle),
            _ => None,
        };
        let res = tune(
            &space,
            &mut objective,
            &sources,
            strategy,
            &config,
            constraint,
            None,
        );
        out.push(fingerprint(name, &res.unwrap()));
    };
    run("NoTLA", &mut NoTla::new(), config(1));
    run("NoTLA+constraint", &mut NoTla::new(), config(2));
    let mut scorer = QualityScorer::new("contract", QualityConfig::default());
    run(
        "NoTLA+quality",
        &mut NoTla::with_quality(&mut scorer),
        config(3),
    );
    let tiered = TuneConfig {
        budget: 16,
        tier: SurrogateTier {
            threshold: 8,
            m_inducing: 6,
        },
        ..config(4)
    };
    run("NoTLA+sparse-tier", &mut NoTla::new(), tiered);
    run("NoTLA+failures", &mut NoTla::new(), config(5));
    for (i, (name, build)) in tla_specs().into_iter().enumerate() {
        let seed = 10 + i as u64;
        run(name, build().as_mut(), config(seed));
        run(
            &format!("{name}+constraint"),
            build().as_mut(),
            config(seed),
        );
    }
    let ws = || WeightedSum::dynamic();
    run("WeightedSum(dynamic)+failures", &mut ws(), config(6));
    run("Multitask(TS)+failures", &mut MultitaskTs::new(), config(7));
    run("NoTLA+needle", &mut NoTla::new(), config(8));
    run("WeightedSum(dynamic)+needle", &mut ws(), config(9));
    out
}

#[test]
fn driver_histories_match_the_golden_fixture() {
    let golden = include_str!("driver_contract.golden");
    let expected: Vec<&str> = golden.lines().collect();
    let actual = run_matrix();
    assert_eq!(actual.len(), expected.len(), "matrix size");
    for (a, e) in actual.iter().zip(&expected) {
        let name = e.split(" =").next().unwrap_or(e);
        assert_eq!(a, e, "run {name} diverged from the golden history");
    }
}
