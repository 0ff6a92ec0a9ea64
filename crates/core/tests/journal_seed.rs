//! A journaled run keeps its full 64-bit seed: session seeds drawn from
//! SplitMix64 are uniform over `u64`, so half of them exceed `i64::MAX`.
//!
//! The journal is process-global, so this file holds a single test.

use crowdtune_apps::{Application, DemoFunction};
use crowdtune_core::tuner::{tune_notla, TuneConfig};
use crowdtune_obs as obs;
use crowdtune_space::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn journaled_tune_with_a_u64_max_seed_completes() {
    let app = DemoFunction::new(1.2);
    let space = app.tuning_space();
    let mut noise_rng = StdRng::seed_from_u64(5);
    let mut objective = |p: &Point| app.evaluate(p, &mut noise_rng).map_err(|e| e.to_string());
    let config = TuneConfig {
        budget: 6,
        n_init: 3,
        seed: u64::MAX,
        ..Default::default()
    };

    let dir = std::env::temp_dir().join("crowdtune_journal_seed");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("journal_{}.jsonl", std::process::id()));
    obs::install_journal(Arc::new(obs::Journal::create(&path).expect("journal")));
    let result = tune_notla(&space, &mut objective, &config);
    obs::uninstall_journal();
    let events = obs::read_journal(&path).expect("schema-valid journal");
    std::fs::remove_file(&path).ok();

    assert_eq!(result.history.len(), 6);
    let seeds: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            obs::Event::RunStart { seed, .. } => Some(*seed),
            _ => None,
        })
        .collect();
    assert_eq!(seeds, [u64::MAX]);
    assert!(events
        .iter()
        .any(|e| matches!(e, obs::Event::RunEnd { iterations: 6, .. })));
}
