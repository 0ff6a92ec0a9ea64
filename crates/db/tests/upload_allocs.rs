//! Heap allocations of an upload.
//!
//! An upload authenticates its key, normalizes the record's machine and
//! software tags, stamps its provenance and indexes the record into its
//! problem's field indexes. Tag names that are already canonical stay in
//! their own buffers, and index paths and string keys that exist are
//! looked up by reference, so in a warm repository an upload allocates
//! only the authenticated username, the stored record's new provenance
//! strings, its `Arc`, the postings of values seen for the first time
//! (its runtime and its upload batch) and the growth of index storage.
//! This test pins that count for uploads shaped like the crowd's PDGEQRF
//! samples.
//!
//! The counters are thread-local, as in `query_allocs.rs`: an in-memory
//! repository indexes an upload on the calling thread.

use crowdtune_db::{
    EvalOutcome, FunctionEvaluation, HistoryDb, MachineConfig, ServiceConfig, SoftwareConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Distinct problems the uploads spread over.
const PROBLEMS: usize = 64;
/// Uploads before measuring: every problem, field path and string key
/// the measured uploads use exists by then.
const WARM_UP: usize = 2_048;
const MEASURED: usize = 8_192;
/// Allocations one upload may make (7.3 measured). When every string
/// index key, field path and tag name was rebuilt per upload, the same
/// uploads made 25.5.
const MAX_ALLOCS_PER_UPLOAD: f64 = 8.0;

const MACHINES: [(&str, &str); 3] = [("cori", "haswell"), ("cori", "knl"), ("perlmutter", "cpu")];
const NODE_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];
const VERSIONS: [[u32; 3]; 3] = [[2, 0, 2], [2, 1, 0], [2, 2, 0]];

/// A crowd upload: a PDGEQRF run of size `m x m` built with ScaLAPACK
/// and GCC, 5% of them failed.
fn record(rng: &mut StdRng) -> FunctionEvaluation {
    let m = rng.gen_range(1..17i64) * 1_000;
    let (machine, node_type) = MACHINES[rng.gen_range(0..MACHINES.len())];
    let nodes = NODE_COUNTS[rng.gen_range(0..NODE_COUNTS.len())];
    let mut sw = SoftwareConfig::new("scalapack", VERSIONS[rng.gen_range(0..VERSIONS.len())]);
    sw.compiler = Some(("gcc".into(), [8, 3, 0]));
    let outcome = if rng.gen_range(0..100) < 5 {
        EvalOutcome::Failed {
            reason: "out of memory".into(),
        }
    } else {
        EvalOutcome::single("runtime", rng.gen_range(1.0..10.0))
    };
    FunctionEvaluation::new(&format!("app-{:02}", rng.gen_range(0..PROBLEMS)), "crowd")
        .task("m", m)
        .task("n", m)
        .param("mb", rng.gen_range(1..16i64))
        .outcome(outcome)
        .on_machine(MachineConfig::new(machine, node_type, nodes, 32))
        .with_software(sw)
}

#[test]
fn warm_uploads_allocate_only_what_they_store() {
    let db = HistoryDb::concurrent(ServiceConfig::default());
    let mut rng = StdRng::seed_from_u64(9);
    let key = db
        .register_user("crowd", "c@x.org", true, &mut rng)
        .unwrap();
    for _ in 0..WARM_UP {
        db.submit(&key, record(&mut rng)).unwrap();
    }
    // The records are built before counting: only the uploads count.
    let records: Vec<FunctionEvaluation> = (0..MEASURED).map(|_| record(&mut rng)).collect();
    let ((), allocs) = allocs_during(|| {
        for doc in records {
            db.submit(&key, doc).unwrap();
        }
    });
    assert_eq!(db.len(), WARM_UP + MEASURED);
    let per_upload = allocs as f64 / MEASURED as f64;
    println!("allocations per upload: {per_upload:.2}");
    assert!(
        per_upload <= MAX_ALLOCS_PER_UPLOAD,
        "an upload allocated {per_upload:.2} times, more than \
         {MAX_ALLOCS_PER_UPLOAD}"
    );
}
