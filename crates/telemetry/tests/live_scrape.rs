//! Live-scrape integrity: Prometheus exposition under a concurrent
//! crowd-service workload.
//!
//! Eight writer threads hammer a durable [`CrowdService`] (uploads and
//! queries, group-commit WAL) while the main thread repeatedly scrapes
//! the [`ExpositionServer`]. Every scrape must parse cleanly — no torn
//! lines, every sample numeric — and the final scrape must expose every
//! metric family the workload feeds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use crowdtune_db::{
    parse_query, CrowdService, EvalOutcome, FunctionEvaluation, MachineConfig, ServiceConfig,
    WalConfig,
};
use crowdtune_obs as obs;
use crowdtune_telemetry::{scrape, ExpositionServer};
use obs::{OpKind, RequestCtx};

fn eval(problem: &str, m: i64) -> FunctionEvaluation {
    FunctionEvaluation::new(problem, "alice")
        .task("m", m)
        .param("mb", 4i64)
        .outcome(EvalOutcome::single("runtime", m as f64))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("crowdtune_live_scrape")
        .join(format!("scrape_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Split an HTTP response into (status line, body) and assert the body
/// is a well-formed Prometheus text page: every non-comment, non-blank
/// line is `name[{labels}] value` with a numeric value. A torn line —
/// a sample interleaved with another write — fails the parse.
fn assert_well_formed(response: &str) {
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "scrape must succeed: {}",
        response.lines().next().unwrap_or("")
    );
    let body = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split")
        .1;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            assert!(parts.next().is_some(), "TYPE line names a family: {line}");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "summary" | "gauge" | "histogram"),
                "unknown family kind in {line:?}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line {line:?}");
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line lacks a value: {line:?}"));
        assert!(
            name.starts_with("crowdtune_"),
            "sample outside our namespace (torn line?): {line:?}"
        );
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("non-numeric sample {line:?}: {e}"));
    }
}

#[test]
fn concurrent_scrapes_stay_well_formed_under_live_writes() {
    obs::set_metrics_enabled(true);
    let dir = temp_dir();
    let (svc, _) = CrowdService::open_durable(
        &dir,
        ServiceConfig {
            shards: 4,
            wal: WalConfig {
                group_window_us: 200,
                compact_every: 0,
                ..WalConfig::default()
            },
        },
    )
    .unwrap();
    let server = ExpositionServer::start("127.0.0.1:0").expect("bind exposition server");
    let addr = server.local_addr();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for t in 0..8i64 {
            let svc = &svc;
            s.spawn(move || {
                let filter = parse_query("task.m >= 0").unwrap();
                for i in 0..24 {
                    svc.insert(eval(&format!("P{t}"), i)).unwrap();
                    // Query twice: reads interleave with the writers.
                    let (rows, _) = svc.query(
                        &format!("P{t}"),
                        &filter,
                        None,
                        RequestCtx::new(OpKind::Query, 0),
                    );
                    assert_eq!(rows.len() as i64, i + 1);
                    svc.query(
                        &format!("P{t}"),
                        &filter,
                        None,
                        RequestCtx::new(OpKind::Query, 0),
                    );
                }
            });
        }

        // Scrape continuously while the writers run, then once more
        // after the flag flips so at least one scrape is mid-workload.
        let done = &done;
        let scraper = s.spawn(move || {
            let mut scrapes = 0usize;
            while !done.load(Ordering::Relaxed) || scrapes == 0 {
                let response = scrape(addr).expect("live scrape");
                assert_well_formed(&response);
                scrapes += 1;
            }
            scrapes
        });

        // Writers finish when the scope's unnamed threads join; emulate
        // that by spawning a watcher that flips the flag afterwards.
        // (Scoped threads join in drop order, so flip explicitly.)
        let svc2 = &svc;
        s.spawn(move || {
            // Wait until all uploads have landed.
            let filter = parse_query("task.m >= 0").unwrap();
            loop {
                let total: usize = (0..8)
                    .map(|t| {
                        svc2.query(
                            &format!("P{t}"),
                            &filter,
                            None,
                            RequestCtx::new(OpKind::Query, 0),
                        )
                        .0
                        .len()
                    })
                    .sum();
                if total == 8 * 24 {
                    break;
                }
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });

        let scrapes = scraper.join().expect("scraper thread");
        assert!(scrapes >= 1, "at least one live scrape completed");
    });

    let final_scrape = scrape(addr).expect("final scrape");
    assert_well_formed(&final_scrape);
    // Every family the durable workload feeds is exposed by name.
    for family in [
        "crowdtune_db_wal_appends_total counter",
        "crowdtune_db_wal_fsyncs_total counter",
        "crowdtune_db_wal_records_replayed_total counter",
        "crowdtune_db_shard_lock_wait_us summary",
        "crowdtune_db_shard_lock_wait_us_max gauge",
        "crowdtune_db_wal_group_wait_us summary",
        "crowdtune_db_wal_group_wait_us_max gauge",
    ] {
        assert!(
            final_scrape.contains(&format!("# TYPE {family}\n")),
            "a live durable workload exposes {family}"
        );
    }
    server.shutdown();
    obs::set_metrics_enabled(false);
    std::fs::remove_dir_all(&dir).ok();
}
