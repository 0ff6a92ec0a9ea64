//! Overload behavior of the crowd service: typed shedding that never
//! reaches memory or the WAL, deadline-exceeded reads that never touch
//! the query cache, epoch-stamped stale serves on degraded shards,
//! recovery to Healthy after injected fault episodes, and twin-run
//! bitwise determinism of the whole admission history.

use crowdtune_db::{
    parse_query, CrowdService, EvalOutcome, FunctionEvaluation, HealthState, MachineConfig,
    OverloadConfig, ServiceConfig, ServiceFaultPlan, StoreError, WalConfig,
};
use crowdtune_obs as obs;
use obs::{OpKind, RequestCtx};
use std::path::PathBuf;

fn eval(problem: &str, m: i64) -> FunctionEvaluation {
    FunctionEvaluation::new(problem, "alice")
        .task("m", m)
        .param("mb", 4i64)
        .outcome(EvalOutcome::single("runtime", m as f64))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("crowdtune_overload_svc")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sim_overload() -> OverloadConfig {
    OverloadConfig {
        queue_limit: 3,
        base_service_us: 100,
        retry_after_ms: 7,
        ..OverloadConfig::default()
    }
}

/// A shed upload returns a typed `Overloaded` carrying the retry hint,
/// and by construction never reaches shard memory or the WAL: after a
/// reopen every admitted write is present and every shed write absent.
#[test]
fn shed_uploads_are_typed_and_never_reach_memory_or_wal() {
    let dir = temp_dir("shed");
    let config = ServiceConfig {
        shards: 1,
        wal: WalConfig {
            compact_every: 0,
            ..WalConfig::default()
        },
        overload: Some(sim_overload()),
        ..ServiceConfig::default()
    };
    {
        let (svc, _) = CrowdService::open_durable(&dir, config.clone()).unwrap();
        svc.overload().unwrap().set_now_us(1_000);
        for m in 0..3 {
            svc.insert(eval("P", m)).unwrap();
        }
        // Queue full: the fourth upload is shed, typed, with the hint.
        match svc.insert(eval("P", 99)) {
            Err(StoreError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.len(), 3, "shed write must not reach memory");
        // Checkpoint blobs are essential and always admitted.
        svc.put_blob("ckpt/run", "{\"iter\":1}").unwrap();
    }
    let (svc, report) = CrowdService::open_durable(&dir, config).unwrap();
    assert_eq!(report.wal_records, 4, "3 admitted inserts + 1 blob");
    assert_eq!(svc.len(), 3, "shed write must not replay from the WAL");
    let (hits, _) = svc
        .query(
            "P",
            &parse_query("task.m = 99").unwrap(),
            None,
            RequestCtx::new(OpKind::Query, 0),
        )
        .unwrap();
    assert!(hits.is_empty(), "shed document visible after recovery");
    assert_eq!(svc.get_blob("ckpt/run").unwrap(), "{\"iter\":1}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An expired read fails typed *before* the cache is probed: it neither
/// populates nor invalidates the cache, and the next fresh query still
/// hits the entry the earlier miss installed.
#[test]
fn deadline_exceeded_reads_never_touch_the_query_cache() {
    let svc = CrowdService::new(ServiceConfig {
        shards: 1,
        overload: Some(sim_overload()),
        ..ServiceConfig::default()
    });
    let ov = svc.overload().unwrap();
    ov.set_now_us(1_000);
    svc.insert(eval("P", 1)).unwrap();
    svc.insert(eval("P", 2)).unwrap();
    let filter = parse_query("task.m >= 0").unwrap();

    // Miss populates the cache.
    let (results, stats) = svc
        .query("P", &filter, None, RequestCtx::new(OpKind::Query, 0))
        .unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(svc.cache_counts(), (0, 1));

    // Expired request: typed failure, cache untouched.
    ov.set_now_us(10_000);
    let expired = RequestCtx::new(OpKind::Query, 0).with_deadline_us(5_000);
    let err = svc.query("P", &filter, None, expired).unwrap_err();
    assert!(matches!(err, StoreError::DeadlineExceeded));
    assert_eq!(
        svc.cache_counts(),
        (0, 1),
        "expired query must not count as hit or miss"
    );

    // The entry installed by the original miss still serves.
    let (results, stats) = svc
        .query("P", &filter, None, RequestCtx::new(OpKind::Query, 0))
        .unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.stale_served, 0);
    assert_eq!(svc.cache_counts(), (1, 1));
    assert_eq!(svc.verify_cache_coherence(), 0);

    // A still-live deadline passes through untouched.
    let live = RequestCtx::new(OpKind::Query, 0).with_deadline_us(1_000_000);
    let (results, _) = svc.query("P", &filter, None, live).unwrap();
    assert_eq!(results.len(), 2);
}

/// A Degraded shard answers repeat queries from the last cached snapshot
/// even after writes bumped the epoch — explicitly stamped
/// `stale_served`, never mistaken for a coherent hit, and never tripping
/// the cache-coherence audit.
#[test]
fn degraded_shards_serve_epoch_stamped_stale_reads() {
    let svc = CrowdService::new(ServiceConfig {
        shards: 1,
        overload: Some(OverloadConfig {
            queue_limit: 1_000,
            base_service_us: 10_000,
            degrade_depth: 1,
            enter_after: 1,
            ..OverloadConfig::default()
        }),
        ..ServiceConfig::default()
    });
    let ov = svc.overload().unwrap();
    ov.set_now_us(1_000);
    // First write observes depth 1 >= degrade_depth with enter_after=1:
    // the shard degrades immediately.
    svc.insert(eval("P", 1)).unwrap();
    assert_eq!(ov.health_snapshot(), vec![HealthState::Degraded]);

    let filter = parse_query("task.m >= 0").unwrap();
    let (results, _) = svc
        .query("P", &filter, None, RequestCtx::new(OpKind::Query, 0))
        .unwrap();
    assert_eq!(results.len(), 1);

    // A write invalidates the entry's epoch...
    svc.insert(eval("P", 2)).unwrap();
    // ...but the degraded shard serves the old snapshot, stamped stale.
    let (results, stats) = svc
        .query("P", &filter, None, RequestCtx::new(OpKind::Query, 0))
        .unwrap();
    assert_eq!(results.len(), 1, "stale serve returns the old snapshot");
    assert_eq!(stats.stale_served, 1);
    assert_eq!(stats.cache_hits, 0, "a stale serve is not a coherent hit");
    assert_eq!(stats.cache_misses, 0, "a stale serve does not rescan");
    // The old-epoch entry is invisible to the coherence audit (a lookup
    // at the current epoch would miss), so staleness stays an explicit,
    // stamped policy — not a coherence bug.
    assert_eq!(svc.verify_cache_coherence(), 0);
}

/// Driving the canonical injected-storm scenario degrades shards during
/// the episodes; once the plan goes quiet, idle observations walk every
/// shard back down the ladder to Healthy.
#[test]
fn shards_recover_to_healthy_after_fault_episodes() {
    let plan = ServiceFaultPlan::storm_scenario(42);
    let svc = CrowdService::new(ServiceConfig {
        shards: 1,
        overload: Some(OverloadConfig {
            queue_limit: 1_000,
            inflight_limit: 10_000,
            base_service_us: 100,
            enter_after: 2,
            exit_after: 2,
            plan: Some(plan.clone()),
            ..OverloadConfig::default()
        }),
        ..ServiceConfig::default()
    });
    let ov = svc.overload().unwrap();

    // Writes inside the slow-fsync episode cost ~2500us each — over the
    // fsync_slow threshold — so the shard leaves Healthy.
    for step in 0..8u64 {
        ov.set_now_us(45_000 + step * 1_000);
        svc.insert(eval("P", step as i64)).unwrap();
    }
    assert!(
        ov.health_snapshot()[0] > HealthState::Healthy,
        "slow-fsync episode should degrade the shard"
    );

    // Past the last episode, idle probes cool the ladder one rung per
    // exit_after observations until every shard reports Healthy.
    ov.set_now_us(plan.quiet_after_us() + 100_000);
    for _ in 0..8 {
        ov.observe_idle();
    }
    assert_eq!(
        ov.health_snapshot(),
        vec![HealthState::Healthy],
        "every shard must return to Healthy after the plan goes quiet"
    );
}

/// The same scripted overload schedule against twin services produces a
/// bitwise-identical admission history: same verdicts, same modeled
/// times, same fingerprint.
#[test]
fn twin_overload_runs_are_bitwise_identical() {
    fn run(seed: u64) -> (u64, usize, usize, usize) {
        let plan = ServiceFaultPlan::storm_scenario(seed);
        let svc = CrowdService::new(ServiceConfig {
            shards: 2,
            overload: Some(OverloadConfig {
                queue_limit: 8,
                base_service_us: 500,
                log_outcomes: true,
                plan: Some(plan.clone()),
                ..OverloadConfig::default()
            }),
            ..ServiceConfig::default()
        });
        let ov = svc.overload().unwrap();
        let (mut ok, mut shed, mut expired) = (0usize, 0usize, 0usize);
        let mut m = 0i64;
        for step in 0..120u64 {
            let now = step * 1_500;
            ov.set_now_us(now);
            for burst in 0..plan.storm_multiplier(now) {
                m += 1;
                let ctx = if burst % 3 == 2 {
                    RequestCtx::new(OpKind::Upload, 1).with_deadline_us(now + 1_200)
                } else {
                    RequestCtx::new(OpKind::Upload, 1)
                };
                match svc.insert_ctx(eval(if m % 2 == 0 { "P" } else { "Q" }, m), ctx) {
                    Ok(_) => ok += 1,
                    Err(StoreError::Overloaded { .. }) => shed += 1,
                    Err(StoreError::DeadlineExceeded) => expired += 1,
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
        }
        (ov.fingerprint(), ok, shed, expired)
    }

    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "twin runs must be bitwise identical");
    assert!(a.2 > 0, "the storm should shed something (shed={})", a.2);
    assert!(a.3 > 0, "some deadlines should expire (expired={})", a.3);
    let c = run(43);
    assert_ne!(a.0, c.0, "a different seed yields a different history");
}
