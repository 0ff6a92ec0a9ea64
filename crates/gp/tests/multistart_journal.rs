//! A parallel multistart journals its events in start order: the
//! `linesearch` events of failed restarts sit beside their `restart`
//! events, so the journal is the same at every thread count.
//!
//! The thread count is fixed per process, so the test spawns this test
//! binary at 1, 2 and 8 threads and compares what each child journals.
//! The journal is process-global, so this file holds a single fit.

use std::sync::Arc;

use crowdtune_gp::{Gp, GpConfig, NoiseModel};
use crowdtune_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHILD_ENV: &str = "CROWDTUNE_MULTISTART_JOURNAL_CHILD";
const MARKER: &str = "multistart-event:";

/// A near-noise-free fit of a wiggly function: every one of its eight
/// starts ends in a failed line search.
const SEED: u64 = 11;
const N: usize = 30;
const D: usize = 2;
const RESTARTS: usize = 7;

/// The journaled events of one parallel fit, one line per event, with
/// the wall-clock `duration_us` left out.
fn journaled_fit() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let x: Vec<Vec<f64>> = (0..N)
        .map(|_| (0..D).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x.iter().map(|p| (9.0 * p[0]).sin() + 1e-3 * p[1]).collect();
    let mut config = GpConfig::continuous(D);
    config.restarts = RESTARTS;
    config.noise = NoiseModel::Fixed(1e-6);

    let dir = std::env::temp_dir().join("crowdtune_multistart_journal");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("journal_{}.jsonl", std::process::id()));
    obs::install_journal(Arc::new(obs::Journal::create(&path).expect("journal")));
    let fitted = Gp::fit(&x, &y, &config, &mut StdRng::seed_from_u64(3));
    obs::uninstall_journal();
    let events = obs::read_journal(&path).expect("schema-valid journal");
    std::fs::remove_file(&path).ok();
    fitted.expect("fit");
    events
        .into_iter()
        .map(|mut ev| {
            if let obs::Event::Fit { duration_us, .. } = &mut ev {
                *duration_us = 0;
            }
            format!("{ev:?}")
        })
        .collect()
}

/// Child half: prints the journaled events when spawned by
/// `parallel_multistart_journals_in_start_order`, nothing otherwise.
#[test]
fn journal_child() {
    if std::env::var_os(CHILD_ENV).is_none() {
        return;
    }
    for line in journaled_fit() {
        println!("{MARKER}{line}");
    }
}

fn child_events(threads: &str) -> Vec<String> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "journal_child",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("spawn the test binary");
    assert!(out.status.success(), "child at {threads} threads failed");
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter_map(|l| l.split_once(MARKER).map(|(_, ev)| ev.to_string()))
        .collect()
}

#[test]
fn parallel_multistart_journals_in_start_order() {
    let one = child_events("1");
    let failed = one.iter().filter(|l| l.starts_with("LineSearch")).count();
    assert!(failed >= 2, "{failed} failed line searches in {one:#?}");
    assert_eq!(one, child_events("2"));
    assert_eq!(one, child_events("8"));
}
