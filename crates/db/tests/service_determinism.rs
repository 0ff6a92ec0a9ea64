//! Determinism guard: a single-client run through the crowd service is
//! indistinguishable from the single-lock embedded store it replaced —
//! same document ids, same query results, same event journal (timings
//! aside), and in durable mode byte-identical write-ahead log and
//! snapshot files — at any shard count.
//!
//! The reference is `storage_contract.golden`, recorded from the
//! embedded store and its durable WAL wrapper before they were deleted:
//! one `rows` line per query result, one `event` line per journal event
//! (durations stripped), and `wal` / `snapshot` lines giving each file's
//! length and CRC-32.
//!
//! Everything lives in ONE test function because the obs journal is
//! process-global: a second test emitting events concurrently would
//! interleave into whichever journal is installed.

use crowdtune_db::{
    crc32, CrowdService, EvalOutcome, FunctionEvaluation, HistoryDb, MachineConfig, QuerySpec,
    ServiceConfig, WalConfig,
};
use crowdtune_obs::{install_journal, read_journal, uninstall_journal, Journal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn eval(problem: &str, m: i64) -> FunctionEvaluation {
    FunctionEvaluation::new(problem, "ignored")
        .task("m", m)
        .param("mb", m % 7)
        .outcome(EvalOutcome::single("runtime", (m as f64) * 0.5))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
}

/// The scripted single-client session: register, upload across three
/// problems, and run a fixed set of queries. Returns every query's
/// result rows for cross-backend comparison.
fn run_script(db: &HistoryDb) -> Vec<Vec<Arc<FunctionEvaluation>>> {
    let mut rng = StdRng::seed_from_u64(42);
    let key = db
        .register_user("alice", "a@x.org", true, &mut rng)
        .unwrap();
    for m in 1..=30i64 {
        let problem = ["PDGEQRF", "PDGETRF", "QuantumCircuit"][(m % 3) as usize];
        db.submit(&key, eval(problem, m)).unwrap();
    }
    let mut results = Vec::new();
    for problem in ["PDGEQRF", "PDGETRF", "QuantumCircuit", "NOSUCH"] {
        let spec = QuerySpec::all_of(problem)
            .with_filter(crowdtune_db::parse_query("task.m >= 5").unwrap());
        results.push(db.query(&key, &spec).unwrap());
        // Repeat the exact query: it must return identical rows.
        results.push(db.query(&key, &spec).unwrap());
    }
    results
}

/// Record a journal for one scripted run.
fn journal_of(db: &HistoryDb, path: &PathBuf) -> (Vec<String>, Vec<String>) {
    let _ = std::fs::remove_file(path);
    install_journal(Arc::new(Journal::create(path).unwrap()));
    let results = run_script(db);
    let journal = uninstall_journal().unwrap();
    journal.flush().unwrap();
    let events = read_journal(path)
        .unwrap()
        .iter()
        .map(|e| {
            let mut v = serde_json::parse(&serde_json::to_string(e).unwrap()).unwrap();
            // Wall-clock timings are the one permitted difference.
            if let serde_json::Value::Object(fields) = &mut v {
                fields.retain(|(k, _)| k != "duration_us");
            }
            format!("event {}", serde_json::to_string(&v).unwrap())
        })
        .collect();
    (rows_lines(&results), events)
}

fn rows_lines(results: &[Vec<Arc<FunctionEvaluation>>]) -> Vec<String> {
    results
        .iter()
        .map(|rows| format!("rows {}", serde_json::to_string(rows).unwrap()))
        .collect()
}

/// A file's golden line: tag, byte length, CRC-32.
fn file_line(tag: &str, path: &Path) -> String {
    let bytes = std::fs::read(path).unwrap();
    format!("{tag} {} {:08x}", bytes.len(), crc32(&bytes))
}

/// The golden lines starting with `tag `.
fn golden(tag: &str) -> Vec<String> {
    let prefix = format!("{tag} ");
    include_str!("storage_contract.golden")
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .map(str::to_string)
        .collect()
}

fn assert_lines_eq(got: &[String], want: &[String], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: line count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: line {i}");
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("crowdtune_svc_determinism")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The durable-mode script.
fn durable_ops_service(svc: &CrowdService) {
    for m in 1..=12i64 {
        svc.insert(eval(["PDGEQRF", "PDGETRF"][(m % 2) as usize], m))
            .unwrap();
    }
    svc.delete_owned("ignored", &crowdtune_db::parse_query("task.m = 4").unwrap())
        .unwrap();
    svc.put_blob("ckpt/run", "{\"iter\":3}").unwrap();
}

#[test]
fn single_client_service_is_bitwise_identical_to_embedded() {
    // ---- Journal + results against the embedded store's golden. ----
    let dir = temp_dir("journals");
    let (want_rows, want_events) = (golden("rows"), golden("event"));
    let (rows, events) = journal_of(&HistoryDb::new(), &dir.join("new.jsonl"));
    assert_lines_eq(&rows, &want_rows, "HistoryDb::new query rows");
    assert_lines_eq(&events, &want_events, "HistoryDb::new journal");

    for shards in [1usize, 2, 8] {
        // The journal (counters included) must match the embedded store
        // event for event.
        let svc_path = dir.join(format!("service_{shards}.jsonl"));
        let db = HistoryDb::concurrent(ServiceConfig {
            shards,
            ..ServiceConfig::default()
        });
        let (svc_rows, svc_events) = journal_of(&db, &svc_path);
        assert_lines_eq(
            &svc_rows,
            &want_rows,
            &format!("query results at {shards} shards"),
        );
        assert_lines_eq(
            &svc_events,
            &want_events,
            &format!("event journal at {shards} shards"),
        );
    }

    // ---- WAL and snapshot bytes against the golden. ----
    for shards in [1usize, 4] {
        let svc_dir = temp_dir(&format!("wal_service_{shards}"));
        {
            let (svc, _) = CrowdService::open_durable(
                &svc_dir,
                ServiceConfig {
                    shards,
                    wal: WalConfig {
                        compact_every: 0,
                        ..WalConfig::default()
                    },
                },
            )
            .unwrap();
            durable_ops_service(&svc);
        }
        assert_lines_eq(
            &[file_line("wal", &svc_dir.join("wal.log"))],
            &golden("wal"),
            &format!("WAL bytes at {shards} shards"),
        );

        // And after compaction the snapshot bytes match too.
        {
            let (svc, _) = CrowdService::open_durable(
                &svc_dir,
                ServiceConfig {
                    shards,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            svc.compact().unwrap();
        }
        assert_lines_eq(
            &[file_line("snapshot", &svc_dir.join("snapshot.json"))],
            &golden("snapshot"),
            &format!("snapshot bytes at {shards} shards"),
        );
        std::fs::remove_dir_all(&svc_dir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}
