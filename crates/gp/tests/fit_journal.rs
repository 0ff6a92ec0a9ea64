//! A journaled `Gp` fit reports how many likelihood evaluations it made
//! and how many of them had their gradient computed.
//!
//! The journal is process-global, so this file holds a single test.

use std::sync::Arc;

use crowdtune_gp::{Gp, GpConfig};
use crowdtune_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn gp_fit_journals_its_likelihood_evaluations() {
    let mut rng = StdRng::seed_from_u64(5);
    let x: Vec<Vec<f64>> = (0..24)
        .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
        .collect();
    let y: Vec<f64> = x.iter().map(|p| (5.0 * p[0]).sin() + p[1]).collect();
    let mut config = GpConfig::continuous(2);
    config.restarts = 2;

    let dir = std::env::temp_dir().join("crowdtune_gp_fit_journal");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("journal_{}.jsonl", std::process::id()));
    obs::install_journal(Arc::new(obs::Journal::create(&path).expect("journal")));
    let fitted = Gp::fit(&x, &y, &config, &mut StdRng::seed_from_u64(6));
    obs::uninstall_journal();
    let events = obs::read_journal(&path).expect("schema-valid journal");
    std::fs::remove_file(&path).ok();
    fitted.expect("fit");

    let mut iterations = 0;
    let mut starts = 0;
    let mut fits = Vec::new();
    for ev in &events {
        match ev {
            obs::Event::Restart { iterations: it, .. } => {
                iterations += it;
                starts += 1;
            }
            obs::Event::Fit {
                model,
                restarts,
                evaluations,
                gradients,
                fallback,
                ..
            } => {
                assert_eq!(model, "gp");
                assert!(!fallback);
                assert_eq!(*restarts, 3);
                fits.push((
                    evaluations.expect("gp fits count their evaluations"),
                    gradients.expect("gp fits count their gradients"),
                ));
            }
            _ => {}
        }
    }
    assert_eq!(starts, 3);
    // Every start evaluates its initial point, and every L-BFGS
    // iteration evaluates at least once more.
    assert_eq!(fits.len(), 1);
    let (evaluations, gradients) = fits[0];
    assert!(
        evaluations >= starts + iterations,
        "{evaluations} evaluations for {starts} starts and {iterations} iterations"
    );
    // Every start computes its gradient; a line-search probe computes
    // one only when it passes the Armijo test, and some do not.
    assert!(
        starts <= gradients && gradients < evaluations,
        "{gradients} gradients for {evaluations} evaluations"
    );
}
