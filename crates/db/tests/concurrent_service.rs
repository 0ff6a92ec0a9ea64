//! Concurrent-correctness suite for the sharded crowd service: torn-read
//! freedom, access control under contention, monotone reads under a
//! concurrent writer, and the group-commit fsync-reduction guarantee.
//!
//! The stress tests are seeded and bounded (a few thousand operations)
//! so they run deterministically-enough in CI while still interleaving
//! readers and writers for real.

use crowdtune_db::{
    Access, CrowdService, EvalOutcome, FunctionEvaluation, MachineConfig, ServiceConfig, WalConfig,
};
use crowdtune_obs::{OpKind, RequestCtx};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A document whose fields are cross-correlated: task `m`, param `mb`,
/// and the runtime outcome all encode the same value, so any torn or
/// half-applied document is detectable from the document alone.
fn woven_eval(problem: &str, owner: &str, m: i64) -> FunctionEvaluation {
    FunctionEvaluation::new(problem, owner)
        .task("m", m)
        .param("mb", m * 3)
        .outcome(EvalOutcome::single("runtime", m as f64))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
}

/// Assert the cross-field invariant of [`woven_eval`] holds.
fn assert_not_torn(doc: &FunctionEvaluation) {
    let m = doc
        .task_parameters
        .get("m")
        .and_then(|s| s.as_f64())
        .expect("task.m present");
    let mb = doc
        .tuning_parameters
        .get("mb")
        .and_then(|s| s.as_f64())
        .expect("param.mb present");
    let rt = doc.result.output("runtime").expect("runtime present");
    assert_eq!(
        mb,
        m * 3.0,
        "torn document: param out of step (id {})",
        doc.id
    );
    assert_eq!(rt, m, "torn document: outcome out of step (id {})", doc.id);
    assert!(doc.id > 0, "document visible before id assignment");
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("crowdtune_concurrent_svc")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// N readers per shard scan continuously while one writer per shard
/// inserts; every document any reader ever observes must be internally
/// consistent and every visible result set fully formed.
#[test]
fn readers_never_observe_torn_documents() {
    let svc = Arc::new(CrowdService::new(ServiceConfig {
        shards: 4,
        ..ServiceConfig::default()
    }));
    let problems = ["P0", "P1", "P2", "P3"];
    let stop = Arc::new(AtomicBool::new(false));
    let filter = crowdtune_db::parse_query("task.m >= 0").unwrap();

    let readers: Vec<_> = (0..8)
        .map(|r| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let filter = filter.clone();
            std::thread::spawn(move || {
                let mut checked = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let problem = problems[r % problems.len()];
                    let (hits, _) =
                        svc.query(problem, &filter, None, RequestCtx::new(OpKind::Query, 0));
                    for doc in hits.iter() {
                        assert_not_torn(doc);
                        checked += 1;
                    }
                }
                checked
            })
        })
        .collect();

    let writers: Vec<_> = problems
        .iter()
        .map(|&problem| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for m in 1..=250i64 {
                    svc.insert(woven_eval(problem, "alice", m)).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    assert_eq!(svc.len(), 4 * 250);
    // Final scan re-verifies everything at rest.
    for problem in problems {
        let (hits, _) = svc.query(problem, &filter, None, RequestCtx::new(OpKind::Query, 0));
        assert_eq!(hits.len(), 250);
        hits.iter().for_each(|doc| assert_not_torn(doc));
    }
}

/// Private documents must stay invisible to other users and anonymous
/// readers at every instant, including while the owner is mid-upload on
/// the same shard.
#[test]
fn access_control_holds_under_concurrency() {
    let svc = Arc::new(CrowdService::new(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let filter = crowdtune_db::parse_query("task.m >= 0").unwrap();

    // Anonymous + wrong-user readers race the writer.
    let snoops: Vec<_> = [None, Some("bob")]
        .into_iter()
        .map(|user: Option<&'static str>| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let filter = filter.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (hits, _) =
                        svc.query("SECRETS", &filter, user, RequestCtx::new(OpKind::Query, 0));
                    for doc in hits.iter() {
                        assert!(
                            doc.access == Access::Public || doc.owner == "bob",
                            "user {user:?} read a private doc owned by {}",
                            doc.owner
                        );
                    }
                }
            })
        })
        .collect();

    let owner_reader = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        let filter = filter.clone();
        std::thread::spawn(move || {
            let mut max_seen = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (hits, _) = svc.query(
                    "SECRETS",
                    &filter,
                    Some("alice"),
                    RequestCtx::new(OpKind::Query, 0),
                );
                // Monotone visibility for the owner: inserts only, so the
                // owner's view must never shrink.
                assert!(
                    hits.len() >= max_seen,
                    "owner view shrank: {} < {max_seen}",
                    hits.len()
                );
                max_seen = hits.len();
            }
            max_seen
        })
    };

    for m in 1..=300i64 {
        let access = if m % 3 == 0 {
            Access::Public
        } else {
            Access::Private
        };
        svc.insert(woven_eval("SECRETS", "alice", m).with_access(access))
            .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for s in snoops {
        s.join().unwrap();
    }
    owner_reader.join().unwrap();

    let (public, _) = svc.query("SECRETS", &filter, None, RequestCtx::new(OpKind::Query, 0));
    assert_eq!(public.len(), 100);
    let (own, _) = svc.query(
        "SECRETS",
        &filter,
        Some("alice"),
        RequestCtx::new(OpKind::Query, 0),
    );
    assert_eq!(own.len(), 300);
}

/// Seeded read-your-history stress: readers repeat one query while a
/// writer keeps uploading to the same shard. Each reader's view must be
/// a prefix of the acked uploads that never shrinks, and once the writer
/// joins every query must equal a brute-force filter of the acked
/// records.
#[test]
fn queries_never_shrink_and_match_a_fresh_scan() {
    for seed in [1u64, 7, 42] {
        let svc = Arc::new(CrowdService::new(ServiceConfig {
            shards: 1, // every reader and the writer on one shard
            ..ServiceConfig::default()
        }));
        let total = 200 + (seed as i64 % 3) * 50;
        let stop = Arc::new(AtomicBool::new(false));
        let filter = crowdtune_db::parse_query("task.m >= 0").unwrap();

        let readers: Vec<_> = (0..6)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let stop = Arc::clone(&stop);
                let filter = filter.clone();
                std::thread::spawn(move || {
                    let mut max_seen = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let (hits, _) =
                            svc.query("P", &filter, None, RequestCtx::new(OpKind::Query, 0));
                        assert!(
                            hits.len() >= max_seen,
                            "view shrank from {max_seen} to {}",
                            hits.len()
                        );
                        // One writer, ids from 1: a view is the first
                        // `len` uploads, in order.
                        for (i, doc) in hits.iter().enumerate() {
                            assert_eq!(doc.id, i as u64 + 1, "view is not a prefix");
                            assert_not_torn(doc);
                        }
                        max_seen = hits.len();
                    }
                })
            })
            .collect();

        // Writer paced by the seed so interleavings differ across runs.
        let mut acked = Vec::new();
        for m in 1..=total {
            let doc = woven_eval("P", "alice", m);
            acked.push((svc.insert(doc.clone()).unwrap(), doc));
            if m % (3 + (seed as i64 % 4)) == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }

        // Quiescent: each query equals a brute-force filter of the acked
        // records, field for field.
        for text in ["task.m >= 0", "task.m BETWEEN 50 AND 120", "param.mb <= 90"] {
            let filter = crowdtune_db::parse_query(text).unwrap();
            let (hits, _) = svc.query("P", &filter, None, RequestCtx::new(OpKind::Query, 0));
            let want: Vec<&(u64, FunctionEvaluation)> =
                acked.iter().filter(|(_, d)| filter.matches(d)).collect();
            assert_eq!(hits.len(), want.len(), "{text} (seed {seed})");
            for (got, (id, doc)) in hits.iter().zip(want) {
                assert_eq!(got.id, *id, "{text} (seed {seed})");
                assert_eq!(got.task_parameters, doc.task_parameters);
                assert_eq!(got.tuning_parameters, doc.tuning_parameters);
            }
        }
    }
}

/// Group commit must strictly reduce physical fsyncs under concurrent
/// uploads at equal durability: fewer fsyncs than records, every record
/// either led a flush or rode on one, and every acknowledged record is
/// replayed after reopen.
#[test]
fn group_commit_reduces_fsyncs_at_equal_durability() {
    let threads = 8usize;
    let per_thread = 25usize;
    let total = (threads * per_thread) as u64;
    let no_compact = |shards| ServiceConfig {
        shards,
        wal: WalConfig {
            compact_every: 0, // keep every record in the log
            ..WalConfig::default()
        },
    };

    let dir = temp_dir("fsync_grouped");
    let (fsyncs, batched) = {
        let (svc, _) = CrowdService::open_durable(&dir, no_compact(4)).unwrap();
        let svc = Arc::new(svc);
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let m = (t * per_thread + i) as i64;
                        svc.insert(woven_eval(&format!("P{}", t % 4), "alice", m))
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        (svc.fsync_count(), svc.fsync_batched_count())
    };

    // Strictly fewer fsyncs than records; the difference is exactly the
    // records that rode on another record's fsync.
    assert!(
        fsyncs < total,
        "group commit did not reduce fsyncs: {fsyncs} for {total} records"
    );
    assert_eq!(fsyncs + batched, total);

    // Equal durability: the log replays every acknowledged record.
    let (svc, report) = CrowdService::open_durable(&dir, no_compact(8)).unwrap();
    assert_eq!(report.wal_records as u64, total);
    assert!(!report.torn);
    assert_eq!(svc.len() as u64, total);
    std::fs::remove_dir_all(&dir).ok();
}

/// After concurrent insertion the shards together hold every document,
/// untorn, under unique ids that are dense from 1.
#[test]
fn shards_hold_every_document_after_concurrent_writes() {
    let svc = Arc::new(CrowdService::new(ServiceConfig {
        shards: 8,
        ..ServiceConfig::default()
    }));
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for i in 0..100i64 {
                    svc.insert(woven_eval(&format!("P{}", (t * 100 + i) % 7), "alice", i))
                        .unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    assert_eq!(svc.len(), 400);
    let filter = crowdtune_db::parse_query("task.m >= 0").unwrap();
    let mut all = Vec::new();
    for p in 0..7 {
        let (hits, _) = svc.query(
            &format!("P{p}"),
            &filter,
            None,
            RequestCtx::new(OpKind::Query, 0),
        );
        all.extend(hits.iter().cloned());
    }
    for doc in &all {
        assert_not_torn(doc);
    }
    assert_eq!(all.len(), 400);
    // Ids are unique and dense 1..=400 (global allocator, no drops).
    let mut ids: Vec<u64> = all.iter().map(|d| d.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 400);
    assert_eq!(*ids.first().unwrap(), 1);
    assert_eq!(*ids.last().unwrap(), 400);
}
