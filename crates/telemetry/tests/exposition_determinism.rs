//! Live exposition must not perturb tuning: a run scraped mid-tune by a
//! concurrent HTTP client is bitwise identical to the same run with obs
//! fully disabled. The scraper thread only reads sharded atomics, so no
//! RNG stream or float reduction order can shift.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crowdtune_apps::{Application, DemoFunction};
use crowdtune_core::tuner::{tune_notla, TuneConfig, TuneResult};
use crowdtune_obs as obs;
use crowdtune_space::Point;
use crowdtune_telemetry::{exposition::scrape, ExpositionServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fingerprint(result: &TuneResult) -> Vec<(Vec<u64>, Result<u64, String>, String)> {
    result
        .history
        .iter()
        .map(|r| {
            (
                r.unit.iter().map(|v| v.to_bits()).collect(),
                r.result.as_ref().map(|y| y.to_bits()).map_err(Clone::clone),
                r.proposed_by.clone(),
            )
        })
        .collect()
}

fn run(seed: u64) -> TuneResult {
    let app = DemoFunction::new(1.2);
    let space = app.tuning_space();
    let mut noise_rng = StdRng::seed_from_u64(seed ^ 0xAB);
    let mut objective = |p: &Point| app.evaluate(p, &mut noise_rng).map_err(|e| e.to_string());
    let config = TuneConfig {
        budget: 10,
        n_init: 3,
        seed,
        ..Default::default()
    };
    tune_notla(&space, &mut objective, &config)
}

#[test]
fn scraping_mid_tune_keeps_runs_bitwise_identical() {
    obs::set_metrics_enabled(false);
    let baseline = fingerprint(&run(91));

    let dir = std::env::temp_dir().join("crowdtune_expo_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("expo.jsonl");
    obs::set_metrics_enabled(true);
    obs::install_journal(Arc::new(obs::Journal::create(&path).unwrap()));
    let server = ExpositionServer::start("127.0.0.1:0").expect("bind exposition");
    let addr = server.local_addr();

    // Hammer the endpoint from another thread for the whole run.
    let done = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&done);
    let landed = Arc::new(AtomicUsize::new(0));
    let landed_in_thread = Arc::clone(&landed);
    let scraper = std::thread::spawn(move || {
        let mut ok = 0usize;
        while !done_flag.load(Ordering::Relaxed) {
            if scrape(addr).is_ok() {
                ok += 1;
                landed_in_thread.store(ok, Ordering::Relaxed);
            }
        }
        ok
    });

    // The release-mode run can finish in a few milliseconds — faster
    // than thread spawn + first TCP connect on a loaded machine. Wait
    // for the scraper to land its first request so the run is
    // guaranteed to overlap live scraping.
    while landed.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }

    let instrumented = fingerprint(&run(91));
    done.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    obs::uninstall_journal();
    obs::set_metrics_enabled(false);

    assert!(scrapes > 0, "scraper must have landed at least one request");
    assert_eq!(
        baseline, instrumented,
        "run scraped mid-tune diverged from the unobserved baseline"
    );

    // And a final scrape is valid Prometheus text with the tuner's
    // metric families present.
    let body = scrape(addr).expect("final scrape");
    assert!(body.contains("# TYPE"));
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
