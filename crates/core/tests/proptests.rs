//! Property-based tests for the tuner core: acquisition invariants,
//! constraint handling, and tuning-loop bookkeeping.

use crowdtune_core::acquisition::{
    expected_improvement, propose, ProposalRequest, ProposalScratch, SearchOptions,
};
use crowdtune_core::tuner::{tune, TuneConfig};
use crowdtune_core::{tune_notla, Dataset, NoTla};
use crowdtune_space::{Param, Point, Space};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// EI is non-negative, zero when no improvement is possible under a
    /// confident model, and monotone in the incumbent value.
    #[test]
    fn ei_invariants(mean in -10.0f64..10.0, std in 0.0f64..5.0, best in -10.0f64..10.0) {
        let ei = expected_improvement(mean, std, best);
        prop_assert!(ei >= 0.0);
        prop_assert!(ei.is_finite());
        // A better incumbent (lower best) can never raise EI.
        let ei_tighter = expected_improvement(mean, std, best - 1.0);
        prop_assert!(ei_tighter <= ei + 1e-12);
    }

    /// Proposals stay in the unit cube and honor cell snapping.
    #[test]
    fn proposals_snapped_and_bounded(
        seed in 0u64..5_000,
        k1 in 2usize..8,
        k2 in 2usize..8,
    ) {
        let surrogate = |x: &[f64]| (x[0], 0.1);
        let opts = SearchOptions {
            cells: vec![Some(k1), None, Some(k2)],
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let req = ProposalRequest {
            incumbent: Some((&[0.5, 0.5, 0.5], 1.0)),
            ..ProposalRequest::new(3)
        };
        let x = propose(&surrogate, &req, &opts, &mut rng, &mut ProposalScratch::new());
        prop_assert!(x.iter().all(|&v| (0.0..1.0).contains(&v)));
        // Snapped coordinates sit exactly at cell centers.
        for (v, k) in [(x[0], k1), (x[2], k2)] {
            let cell = (v * k as f64).floor();
            let center = (cell + 0.5) / k as f64;
            prop_assert!((v - center).abs() < 1e-12, "{v} not centered for k={k}");
        }
    }

    /// Constrained proposals always satisfy the constraint.
    #[test]
    fn constraint_always_respected(seed in 0u64..5_000, threshold in 0.1f64..0.9) {
        let surrogate = |x: &[f64]| (x[0], 0.1);
        let opts = SearchOptions::default();
        let valid = move |x: &[f64]| x[0] >= threshold;
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..5 {
            let req = ProposalRequest {
                incumbent: Some((&[0.95, 0.5], 1.0)),
                valid: Some(&valid),
                ..ProposalRequest::new(2)
            };
            let x = propose(&surrogate, &req, &opts, &mut rng, &mut ProposalScratch::new());
            prop_assert!(x[0] >= threshold, "proposal {x:?} violates x0 >= {threshold}");
        }
    }

    /// The tuning loop always produces exactly `budget` records, with a
    /// monotone best-so-far and every point inside the space.
    #[test]
    fn tuning_loop_bookkeeping(seed in 0u64..2_000, budget in 1usize..8) {
        let space = Space::new(vec![
            Param::integer("i", 0, 6),
            Param::real("r", -1.0, 1.0),
            Param::categorical("c", ["a", "b", "c"]),
        ]).unwrap();
        let mut objective = |p: &Point| -> Result<f64, String> {
            let i = p[0].as_int().unwrap() as f64;
            let r = p[1].as_f64();
            Ok((i - 3.0).powi(2) + r * r + 1.0)
        };
        let config = TuneConfig { budget, seed, ..Default::default() };
        let result = tune_notla(&space, &mut objective, &config);
        prop_assert_eq!(result.history.len(), budget);
        for rec in &result.history {
            prop_assert!(space.validate(&rec.point).is_ok());
        }
        let bsf = result.best_so_far();
        let vals: Vec<f64> = bsf.iter().filter_map(|v| *v).collect();
        for w in vals.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
        // Objective is always >= 1; best must respect that.
        if let Some((_, best)) = result.best() {
            prop_assert!(best >= 1.0 - 1e-12);
        }
    }

    /// With a constraint, no evaluated point ever violates it.
    #[test]
    fn constrained_tuning_never_evaluates_invalid(seed in 0u64..2_000) {
        let space = Space::new(vec![
            Param::integer("a", 0, 10),
            Param::integer("b", 0, 10),
        ]).unwrap();
        // Constraint: a + b <= 10.
        let constraint = |p: &Point| {
            p[0].as_int().unwrap() + p[1].as_int().unwrap() <= 10
        };
        let mut objective = |p: &Point| -> Result<f64, String> {
            Ok((p[0].as_int().unwrap() - p[1].as_int().unwrap()).abs() as f64)
        };
        let config = TuneConfig { budget: 6, seed, ..Default::default() };
        let result = tune(
            &space, &mut objective, &[], &mut NoTla::new(), &config, Some(&constraint), None,
        ).unwrap();
        for rec in &result.history {
            prop_assert!(constraint(&rec.point), "evaluated invalid {:?}", rec.point);
        }
    }

    /// Dataset subsampling preserves length bounds and value membership.
    #[test]
    fn dataset_subsample_invariants(
        n in 1usize..200,
        max in 1usize..100,
    ) {
        let mut ds = Dataset::default();
        for i in 0..n {
            ds.push(vec![i as f64], i as f64);
        }
        let sub = ds.subsample(max);
        prop_assert!(sub.len() <= max.max(n.min(max)));
        prop_assert!(sub.len() == n.min(max));
        for &y in &sub.y {
            prop_assert!(ds.y.contains(&y));
        }
    }
}
