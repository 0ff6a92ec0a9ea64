//! Heap allocations of compaction and recovery.
//!
//! The service owns persistence; a shard's store is only an index. So
//! writing a snapshot serializes the shared records and indexes none of
//! them, and recovering from a snapshot indexes each record once, in the
//! shard that serves it. These tests count allocations to pin that,
//! against what the same records cost to serialize, parse and index on
//! their own.
//!
//! The counters are thread-local, as in `query_allocs.rs`: compaction
//! and recovery run on the calling thread.

use crowdtune_db::{
    CrowdService, EvalOutcome, FieldIndexes, FunctionEvaluation, MachineConfig, ServiceConfig,
    WalConfig,
};
use serde::Deserialize;
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. Counting touches only a
// thread-local `Cell` with a const initializer and no destructor, so it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocations it made on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Records in the snapshot. Each carries its own task, parameter and
/// output values, so indexing one allocates postings for every field.
const RECORDS: usize = 400;

fn record(m: usize) -> FunctionEvaluation {
    let m = m as i64;
    FunctionEvaluation::new("PDGEQRF", "alice")
        .task("m", m)
        .task("n", 2 * m + 1)
        .param("mb", 3 * m + 2)
        .outcome(EvalOutcome::single("runtime", 1.0 + m as f64 / 8.0))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
}

/// `record(i)` as the service stores it: ids and logical times count
/// from 1 in insertion order.
fn stored(i: usize) -> FunctionEvaluation {
    let mut doc = record(i);
    doc.id = i as u64 + 1;
    doc.logical_time = i as u64 + 1;
    doc
}

/// Allocations of indexing `docs` into fresh field indexes: the cost a
/// store pays per indexing of these records.
fn index_allocs(docs: &[FunctionEvaluation]) -> u64 {
    let mut indexes = FieldIndexes::default();
    let ((), n) = allocs_during(|| {
        for (pos, doc) in docs.iter().enumerate() {
            indexes.insert_doc(pos, doc);
        }
    });
    n
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("crowdtune_snapshot_allocs")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable service holding `RECORDS` records, every one still in the
/// log.
fn filled(dir: &Path) -> CrowdService {
    let config = ServiceConfig {
        wal: WalConfig {
            compact_every: 0,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    };
    let (svc, _) = CrowdService::open_durable(dir, config).unwrap();
    for i in 0..RECORDS {
        svc.insert(record(i)).unwrap();
    }
    svc
}

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    let Value::Object(fields) = value else {
        panic!("not an object")
    };
    &fields.iter().find(|(k, _)| k == name).unwrap().1
}

#[test]
fn compaction_builds_no_field_index() {
    let dir = temp_dir("compact");
    let svc = filled(&dir);
    let docs: Vec<FunctionEvaluation> = (0..RECORDS).map(stored).collect();
    let (_, serialize) = allocs_during(|| serde_json::to_string(&docs).unwrap());
    let index = index_allocs(&docs);
    let ((), compact) = allocs_during(|| svc.compact().unwrap());
    // Serializing the records is the work; indexing them again would
    // add at least `index` allocations.
    assert!(
        compact < serialize + index / 2,
        "compacting {RECORDS} records allocated {compact} times: serializing \
         them costs {serialize}, indexing them {index}"
    );
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_indexes_each_snapshot_record_once() {
    let dir = temp_dir("recover");
    filled(&dir).compact().unwrap();
    let json = std::fs::read_to_string(dir.join("snapshot.json")).unwrap();
    // What reading the snapshot costs on its own: the outer object, then
    // the documents it embeds as a string, each record behind an `Arc`.
    let (outer, parse_outer) = allocs_during(|| serde_json::parse(&json).unwrap());
    let Value::Str(inner) = field(&outer, "store") else {
        panic!("snapshot store is not a string")
    };
    let (docs, parse_docs) = allocs_during(|| {
        let tree = serde_json::parse(inner).unwrap();
        let Value::Array(items) = field(&tree, "docs") else {
            panic!("snapshot docs are not an array")
        };
        items
            .iter()
            .map(|item| Arc::new(FunctionEvaluation::from_value(item).unwrap()))
            .collect::<Vec<_>>()
    });
    assert_eq!(docs.len(), RECORDS);
    let docs: Vec<FunctionEvaluation> = docs.iter().map(|d| (**d).clone()).collect();
    let index = index_allocs(&docs);
    let parse = parse_outer + parse_docs;

    let ((svc, report), open) =
        allocs_during(|| CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap());
    assert_eq!((report.snapshot_docs, report.wal_records), (RECORDS, 0));
    assert_eq!(svc.len(), RECORDS);
    // One indexing of each record, plus parsing; a second indexing would
    // add `index` allocations more.
    assert!(
        open < parse + index * 3 / 2,
        "recovering {RECORDS} records allocated {open} times: parsing the \
         snapshot costs {parse}, indexing the records {index}"
    );
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}
