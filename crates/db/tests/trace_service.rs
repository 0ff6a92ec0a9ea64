//! Request-trace wiring through the crowd service: stage coverage,
//! follower→leader causal links, and tracing-on/off result equality.
//!
//! These tests share process-global tracing state (rings, the enabled
//! flag), so each drains its own trace ids out of whatever the drain
//! returns rather than assuming exclusive ownership of the journal.

use crowdtune_db::{parse_query, CrowdService, FunctionEvaluation, ServiceConfig, WalConfig};
use crowdtune_db::{EvalOutcome, MachineConfig};
use crowdtune_obs as obs;
use obs::{OpKind, RequestCtx, TraceStage};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Serialize tests: tracing state is process-global.
fn lock() -> parking_lot::MutexGuard<'static, ()> {
    static GATE: OnceLock<parking_lot::Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| parking_lot::Mutex::new(())).lock()
}

fn eval(problem: &str, m: i64) -> FunctionEvaluation {
    FunctionEvaluation::new(problem, "alice")
        .task("m", m)
        .param("mb", 4i64)
        .outcome(EvalOutcome::single("runtime", m as f64))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("crowdtune_trace_service")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Group a drained journal by trace id.
fn by_trace(records: &[obs::TraceRecord]) -> std::collections::HashMap<u64, Vec<obs::TraceRecord>> {
    let mut map: std::collections::HashMap<u64, Vec<obs::TraceRecord>> = Default::default();
    for r in records {
        map.entry(r.trace).or_default().push(r.clone());
    }
    map
}

#[test]
fn upload_and_query_stages_cover_their_op() {
    let _g = lock();
    let dir = temp_dir("stages");
    obs::reset_traces();
    obs::set_tracing_enabled(true);
    let (svc, _) = CrowdService::open_durable(
        &dir,
        ServiceConfig {
            shards: 2,
            wal: WalConfig {
                compact_every: 0,
                ..WalConfig::default()
            },
        },
    )
    .unwrap();

    let upload = RequestCtx::new(OpKind::Upload, 7);
    svc.insert_ctx(eval("P", 1), upload).unwrap();
    let filter = parse_query("task.m >= 0").unwrap();
    let first = RequestCtx::new(OpKind::Query, 7);
    svc.query("P", &filter, None, first);
    let repeat = RequestCtx::new(OpKind::Query, 7);
    svc.query("P", &filter, None, repeat);
    obs::set_tracing_enabled(false);

    let journal = obs::drain_traces();
    let traces = by_trace(&journal.records);

    let up = &traces[&upload.trace_id];
    let stages: Vec<TraceStage> = up.iter().map(|r| r.stage).collect();
    for want in [
        TraceStage::ShardLockWait,
        TraceStage::MemApply,
        TraceStage::WalEnqueue,
        TraceStage::WalFsync,
        TraceStage::Op,
    ] {
        assert!(stages.contains(&want), "upload missing stage {want:?}");
    }

    // Nothing is cached: a repeated query scans again.
    for (ctx, which) in [(first, "first"), (repeat, "repeated")] {
        let mut stages: Vec<TraceStage> = traces[&ctx.trace_id].iter().map(|r| r.stage).collect();
        stages.sort();
        assert_eq!(
            stages,
            vec![TraceStage::Op, TraceStage::Scan],
            "{which} query stages"
        );
    }

    // Per-trace accounting: child stages sum to no more than the op's
    // end-to-end duration plus slack (stages never overlap here).
    for (trace, records) in &traces {
        let Some(op) = records.iter().find(|r| r.stage == TraceStage::Op) else {
            continue;
        };
        let children: u64 = records
            .iter()
            .filter(|r| r.stage != TraceStage::Op)
            .map(|r| r.dur_ns)
            .sum();
        assert!(
            children <= op.dur_ns + op.dur_ns / 10 + 200_000,
            "trace {trace}: stages {children} ns exceed op {} ns",
            op.dur_ns
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn followers_link_to_their_leader_fsync() {
    let _g = lock();
    let dir = temp_dir("links");
    obs::reset_traces();
    obs::set_tracing_enabled(true);
    let (svc, _) = CrowdService::open_durable(
        &dir,
        ServiceConfig {
            shards: 4,
            wal: WalConfig {
                // A real coalescing window so concurrent uploads pile
                // into shared flushes and produce followers.
                group_window_us: 500,
                compact_every: 0,
                ..WalConfig::default()
            },
        },
    )
    .unwrap();

    std::thread::scope(|s| {
        for t in 0..8 {
            let svc = &svc;
            s.spawn(move || {
                for i in 0..16 {
                    let ctx = RequestCtx::new(OpKind::Upload, t as u32 + 1);
                    svc.insert_ctx(eval(&format!("P{t}"), i), ctx).unwrap();
                }
            });
        }
    });
    obs::set_tracing_enabled(false);

    assert!(
        svc.fsync_batched_count() > 0,
        "8 writers with a 500 us window must coalesce at least once"
    );
    let journal = obs::drain_traces();
    let followers: Vec<&obs::TraceRecord> = journal
        .records
        .iter()
        .filter(|r| r.stage == TraceStage::WalFollowerWait)
        .collect();
    assert!(!followers.is_empty(), "coalesced commits produce followers");
    let linked: Vec<&&obs::TraceRecord> = followers.iter().filter(|r| r.link != 0).collect();
    assert!(
        !linked.is_empty(),
        "followers carry the covering leader's trace id"
    );
    for f in &linked {
        let leader_fsynced = journal
            .records
            .iter()
            .any(|r| r.trace == f.link && r.stage == TraceStage::WalFsync);
        assert!(
            leader_fsynced,
            "follower {} links leader {} which has no fsync stage",
            f.trace, f.link
        );
        assert_ne!(f.trace, f.link, "a follower cannot lead its own flush");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracing_does_not_change_results() {
    let _g = lock();
    let run = |traced: bool| -> (Vec<u64>, Vec<Arc<FunctionEvaluation>>) {
        obs::set_tracing_enabled(traced);
        let svc = CrowdService::new(ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        });
        let mut ids = Vec::new();
        for i in 0..40 {
            ids.push(svc.insert(eval(&format!("P{}", i % 5), i)).unwrap());
        }
        let filter = parse_query("task.m >= 10").unwrap();
        let mut rows = Vec::new();
        for p in 0..5 {
            // Twice: a repeated query agrees with the first.
            let (a, _) = svc.query(
                &format!("P{p}"),
                &filter,
                None,
                RequestCtx::new(OpKind::Query, 0),
            );
            let (b, _) = svc.query(
                &format!("P{p}"),
                &filter,
                None,
                RequestCtx::new(OpKind::Query, 0),
            );
            assert_eq!(a, b);
            rows.extend(a.iter().cloned());
        }
        obs::set_tracing_enabled(false);
        (ids, rows)
    };
    let (ids_off, rows_off) = run(false);
    let (ids_on, rows_on) = run(true);
    assert_eq!(ids_off, ids_on, "ids identical with tracing on and off");
    assert_eq!(rows_off, rows_on, "results identical with tracing on/off");
    obs::reset_traces();
}
