//! Crash-recovery guarantees of the WAL-backed durable crowd service.
//!
//! The kill-point matrix simulates a crash at *every byte position* of
//! the write-ahead log — record boundaries and mid-record — and asserts
//! that recovery restores exactly the acknowledged prefix: every record
//! whose final byte reached disk is replayed, everything after the cut
//! is discarded, and the [`RecoveryReport`] says so.

use crowdtune_db::{
    parse_query, CrowdService, DbError, EvalOutcome, FunctionEvaluation, HistoryDb, MachineConfig,
    ServiceConfig, StoreError, WalConfig,
};
use crowdtune_obs::{OpKind, RequestCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn eval(m: i64) -> FunctionEvaluation {
    FunctionEvaluation::new("P", "alice")
        .task("m", m)
        .param("mb", 4i64)
        .outcome(EvalOutcome::single("runtime", m as f64 * 0.5))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
}

/// A database holding `n` uploads by alice.
fn db_with(n: i64) -> HistoryDb {
    let db = HistoryDb::new();
    let key = db
        .register_user("alice", "a@x.org", true, &mut StdRng::seed_from_u64(1))
        .unwrap();
    for m in 0..n {
        db.submit(&key, eval(m)).unwrap();
    }
    db
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("crowdtune_wal_recovery")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Frame boundaries of a WAL file: byte offsets at which a record ends.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut bounds = Vec::new();
    let mut off = 0usize;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let end = off + 8 + len;
        if end > bytes.len() {
            break;
        }
        bounds.push(end);
        off = end;
    }
    bounds
}

#[test]
fn kill_point_matrix_recovers_exactly_the_acked_prefix() {
    // Build a reference WAL: 6 inserts, 1 delete, 1 blob — no
    // auto-compaction so the whole history stays in the log.
    let src = temp_dir("kill_src");
    let no_compact = ServiceConfig {
        wal: WalConfig {
            compact_every: 0,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    };
    {
        let (store, _) = CrowdService::open_durable(&src, no_compact.clone()).unwrap();
        for m in 0..6 {
            store.insert(eval(m)).unwrap();
        }
        store
            .delete_owned("alice", &parse_query("task.m = 2").unwrap())
            .unwrap();
        store.put_blob("ckpt", "{\"iter\":3}").unwrap();
    }
    let wal = std::fs::read(src.join("wal.log")).unwrap();
    let bounds = record_boundaries(&wal);
    assert_eq!(bounds.len(), 8, "6 inserts + 1 delete + 1 blob");

    // Expected store size after the first k complete records.
    let docs_after = |k: usize| -> usize {
        // Records 1..=6 are inserts, record 7 deletes one doc, record 8
        // is a blob.
        if k <= 6 {
            k
        } else {
            5
        }
    };
    let blobs_after = |k: usize| -> usize { usize::from(k >= 8) };

    // Crash after every byte of the log (the file existed up to `cut`).
    let work = temp_dir("kill_work");
    for cut in 0..=wal.len() {
        let complete = bounds.iter().filter(|&&b| b <= cut).count();
        let at_boundary = cut == 0 || bounds.contains(&cut);
        std::fs::write(work.join("wal.log"), &wal[..cut]).unwrap();
        let (store, report) = CrowdService::open_durable(&work, no_compact.clone()).unwrap();
        assert_eq!(
            report.wal_records, complete,
            "cut at byte {cut}: wrong record count"
        );
        assert_eq!(
            store.len(),
            docs_after(complete),
            "cut at byte {cut}: wrong doc count"
        );
        assert_eq!(
            usize::from(store.get_blob("ckpt").is_some()),
            blobs_after(complete),
            "cut at byte {cut}: wrong blob count"
        );
        assert_eq!(
            report.torn, !at_boundary,
            "cut at byte {cut}: torn flag wrong (complete={complete})"
        );
        if report.torn {
            let valid_prefix = bounds
                .iter()
                .filter(|&&b| b <= cut)
                .max()
                .copied()
                .unwrap_or(0);
            assert_eq!(report.wal_bytes, valid_prefix as u64);
            assert_eq!(report.torn_bytes, (cut - valid_prefix) as u64);
            // The torn tail was physically truncated.
            assert_eq!(
                std::fs::metadata(work.join("wal.log")).unwrap().len(),
                valid_prefix as u64,
                "cut at byte {cut}: tail not truncated"
            );
        }
        drop(store);
    }
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&work).ok();
}

/// Kill-point matrix under grouped fsyncs: concurrent uploads commit
/// through a coalescing group-commit window, so most records ride on
/// another writer's fsync. A crash at every byte of the resulting log
/// must recover exactly the records completed before the cut: each
/// record boundary adds one acked write to the previous boundary's set,
/// a cut inside a record recovers the previous boundary's set, and the
/// whole log recovers every acked write.
#[test]
fn kill_points_under_grouped_fsyncs_keep_every_acked_write() {
    let src = temp_dir("kill_group_src");
    let config = ServiceConfig {
        shards: 2,
        wal: WalConfig {
            compact_every: 0,
            group_window_us: 500,
            ..WalConfig::default()
        },
    };
    let (threads, per_thread) = (4i64, 4i64);
    let acked: std::collections::BTreeSet<u64> = {
        let (svc, _) = CrowdService::open_durable(&src, config.clone()).unwrap();
        let acked = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let svc = &svc;
                    scope.spawn(move || {
                        (0..per_thread)
                            .map(|k| svc.insert(eval(t * 100 + k)).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert!(
            svc.fsync_batched_count() > 0,
            "4 writers with a 500 us window must share an fsync"
        );
        acked
    };
    let wal = std::fs::read(src.join("wal.log")).unwrap();
    let bounds = record_boundaries(&wal);
    assert_eq!(bounds.len(), acked.len(), "one WAL record per acked write");

    let all = parse_query("task.m >= 0").unwrap();
    let recovered_ids = |svc: &CrowdService| -> std::collections::BTreeSet<u64> {
        let (docs, _) = svc.query("P", &all, None, RequestCtx::new(OpKind::Query, 0));
        docs.iter().map(|d| d.id).collect()
    };
    let work = temp_dir("kill_group_work");
    let mut at_boundary: std::collections::BTreeSet<u64> = Default::default();
    for cut in 0..=wal.len() {
        let complete = bounds.iter().filter(|&&b| b <= cut).count();
        std::fs::write(work.join("wal.log"), &wal[..cut]).unwrap();
        let (svc, report) = CrowdService::open_durable(&work, config.clone()).unwrap();
        assert_eq!(report.wal_records, complete, "cut at byte {cut}");
        let ids = recovered_ids(&svc);
        assert_eq!(ids.len(), complete, "cut at byte {cut}: wrong doc count");
        if bounds.contains(&cut) {
            // One more complete record: exactly one more acked write.
            assert!(at_boundary.is_subset(&ids), "cut at byte {cut}: write lost");
            at_boundary = ids;
        } else {
            assert_eq!(ids, at_boundary, "cut at byte {cut}: torn record applied");
        }
        drop(svc);
    }
    assert_eq!(at_boundary, acked, "the whole log holds every acked write");
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn flipped_bit_in_tail_record_is_detected_by_checksum() {
    let dir = temp_dir("bitrot");
    let no_compact = ServiceConfig {
        wal: WalConfig {
            compact_every: 0,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    };
    {
        let (store, _) = CrowdService::open_durable(&dir, no_compact.clone()).unwrap();
        for m in 0..4 {
            store.insert(eval(m)).unwrap();
        }
    }
    let wal_path = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let bounds = record_boundaries(&bytes);
    // Flip a payload bit inside the final record.
    let target = bounds[2] + 12;
    bytes[target] ^= 0x01;
    std::fs::write(&wal_path, &bytes).unwrap();
    let (store, report) = CrowdService::open_durable(&dir, no_compact).unwrap();
    assert!(report.torn, "checksum must catch the flipped bit");
    assert_eq!(report.wal_records, 3);
    assert_eq!(store.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atomic_save_leaves_no_temp_file_and_replaces_whole() {
    let dir = temp_dir("atomic");
    let path = dir.join("db.json");
    db_with(10).save_documents(&path).unwrap();
    assert!(
        !path.with_extension("tmp").exists(),
        "temp file left behind"
    );
    // Overwrite with a smaller collection; the file must be fully
    // replaced, not partially overwritten.
    db_with(1).save_documents(&path).unwrap();
    let loaded = HistoryDb::load_documents(&path).unwrap();
    assert_eq!(loaded.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let dir = temp_dir("truncated");
    let path = dir.join("db.json");
    db_with(10).save_documents(&path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    // Tear the snapshot at several byte positions; every cut must be
    // reported as Truncated, never as an opaque JSON error.
    for frac in [1, 3, 7, 9] {
        let cut = json.len() * frac / 10;
        std::fs::write(&path, &json[..cut]).unwrap();
        match HistoryDb::load_documents(&path) {
            Err(DbError::Store(StoreError::Truncated { bytes, .. })) => {
                assert_eq!(bytes, cut as u64, "cut at {cut}")
            }
            Err(other) => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            Ok(_) => panic!("cut at {cut}: torn snapshot loaded successfully"),
        }
    }
    // A complete-but-malformed file keeps its parse error.
    std::fs::write(&path, "{\"docs\": \"nope\"}").unwrap();
    assert!(matches!(
        HistoryDb::load_documents(&path),
        Err(DbError::Store(StoreError::Json(_)))
    ));
    // So does a durable snapshot cut mid-write: reopening the directory
    // fails typed instead of starting empty.
    let durable = temp_dir("truncated_durable");
    {
        let (svc, _) = CrowdService::open_durable(&durable, ServiceConfig::default()).unwrap();
        for m in 0..10 {
            svc.insert(eval(m)).unwrap();
        }
        svc.compact().unwrap();
    }
    let snapshot = durable.join("snapshot.json");
    let json = std::fs::read_to_string(&snapshot).unwrap();
    std::fs::write(&snapshot, &json[..json.len() / 2]).unwrap();
    assert!(matches!(
        CrowdService::open_durable(&durable, ServiceConfig::default()),
        Err(StoreError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&durable).ok();
    std::fs::remove_dir_all(&dir).ok();
}
