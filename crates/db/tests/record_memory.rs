//! Live heap bytes per stored record.
//!
//! A counting allocator tracks the bytes allocated and not yet freed
//! while a sharded repository takes uploads shaped like the crowd's
//! PDGEQRF samples: two task parameters, one tuning parameter, one
//! output (or a failure), a machine and a ScaLAPACK build. What stays
//! live per upload is the stored record, its `Arc`, its provenance and
//! its share of the shard indexes. The fence holds a record to its
//! compact layout: parameter and output maps as sorted vectors with no
//! spare slot. With B-tree maps, whose leaves are sized for eleven
//! entries, the same records need about 2.7 kB each.
//!
//! The counter is process-global, so this binary holds one test.

use crowdtune_db::{
    EvalOutcome, FunctionEvaluation, HistoryDb, MachineConfig, ServiceConfig, SoftwareConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches one atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Distinct problems the uploads spread over.
const PROBLEMS: usize = 64;
/// Uploads before measuring: every problem, field path and index key
/// the measured uploads use exists by then.
const WARM_UP: usize = 1_024;
const MEASURED: usize = 8_192;
/// Live heap bytes one stored record may cost.
const MAX_BYTES_PER_RECORD: i64 = 1_600;

const MACHINES: [(&str, &str); 3] = [("cori", "haswell"), ("cori", "knl"), ("perlmutter", "cpu")];
const NODE_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];
const VERSIONS: [[u32; 3]; 3] = [[2, 0, 2], [2, 1, 0], [2, 2, 0]];

/// A crowd upload: a PDGEQRF run of size `m x m`, 5% of them failed.
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
fn stored_record_stays_compact() {
    let db = HistoryDb::concurrent(ServiceConfig::default());
    let mut rng = StdRng::seed_from_u64(5);
    let key = db
        .register_user("crowd", "c@x.org", true, &mut rng)
        .unwrap();
    let mut upload = |n: usize| {
        for _ in 0..n {
            db.submit(&key, record(&mut rng)).unwrap();
        }
    };
    upload(WARM_UP);
    let before = LIVE.load(Ordering::Relaxed);
    upload(MEASURED);
    let per_record = (LIVE.load(Ordering::Relaxed) - before) / MEASURED as i64;
    println!("live heap per stored record: {per_record} B");
    assert_eq!(db.len(), WARM_UP + MEASURED);
    assert!(
        per_record <= MAX_BYTES_PER_RECORD,
        "a stored record keeps {per_record} B of heap live, more than \
         {MAX_BYTES_PER_RECORD} B"
    );
}
