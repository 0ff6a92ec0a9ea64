//! Heap allocations of a repository query.
//!
//! The store, the query cache and a query's result share the stored
//! records by `Arc`. `HistoryDb::query` filters that shared snapshot by
//! reference and copies only the records it returns. These tests count
//! allocations to pin that: what a query allocates grows with the records
//! it returns, not with the candidates it scans.
//!
//! The counters are thread-local. A test reads only what its own thread
//! allocated, so tests running in parallel cannot disturb each other.

use crowdtune_db::{
    parse_spack_spec, ConfigurationQuery, EvalOutcome, FunctionEvaluation, HistoryDb,
    MachineConfig, MachineFilter, QuerySpec, ServiceConfig, SoftwareFilter,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// A record shaped like the crowd's PDGEQRF samples.
fn record(problem: &str, m: i64) -> FunctionEvaluation {
    FunctionEvaluation::new(problem, "ignored")
        .task("m", m)
        .task("n", m)
        .param("mb", 4i64)
        .outcome(EvalOutcome::single("runtime", 1.0 + m as f64))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
        .with_software(parse_spack_spec("scalapack@2.1.0%gcc@8.3.0").unwrap())
}

/// A cached repository with two uploaders: the trusted `keeper` and
/// `other`, whose records a `keeper`-only query scans and drops.
struct Repo {
    db: HistoryDb,
    keeper: String,
    other: String,
}

impl Repo {
    fn new() -> Self {
        let db = HistoryDb::concurrent(ServiceConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let keeper = db
            .register_user("keeper", "k@x.org", true, &mut rng)
            .unwrap();
        let other = db
            .register_user("other", "o@x.org", true, &mut rng)
            .unwrap();
        Repo { db, keeper, other }
    }

    /// Fill `problem` with `total` records, `kept` of them by `keeper`,
    /// spread evenly through the others.
    fn fill(&self, problem: &str, kept: usize, total: usize) {
        for i in 0..total {
            let key = if i * kept % total < kept {
                &self.keeper
            } else {
                &self.other
            };
            self.db.submit(key, record(problem, i as i64)).unwrap();
        }
    }

    /// Rows and allocations of a query that misses the cache. The query
    /// runs once first, so one-time state (the shard's cache table) is
    /// in place; an upload by `other` then invalidates the entry, and the
    /// measured run scans again.
    fn miss_allocs(&self, spec: &QuerySpec) -> (Vec<FunctionEvaluation>, u64) {
        self.db.query(&self.keeper, spec).unwrap();
        self.db
            .submit(&self.other, record(&spec.problem, -1))
            .unwrap();
        allocs_during(|| self.db.query(&self.keeper, spec).unwrap())
    }
}

fn with_configuration(problem: &str, configuration: ConfigurationQuery) -> QuerySpec {
    QuerySpec::all_of(problem).with_configuration(configuration)
}

#[test]
fn rejected_candidates_cost_no_allocations() {
    let repo = Repo::new();
    repo.fill("SMALL", 0, 16);
    repo.fill("LARGE", 0, 1024);
    // One configuration rejects every record by uploader, the other by
    // machine (with a software constraint the records would meet).
    let configurations = [
        ConfigurationQuery {
            users: vec!["nobody".into()],
            ..ConfigurationQuery::any()
        },
        ConfigurationQuery {
            machines: vec![MachineFilter::named("Perlmutter")],
            software: vec![SoftwareFilter::new("scalapack", [2, 0, 0], [3, 0, 0])],
            users: vec![],
        },
        // Compiler constraints: every record was built with gcc 8.3.0,
        // inside the version range, so each one's compiler name is
        // compared. One names another compiler; the other is the paper's
        // "GCC in [8.0.0, 9.0.0)", met by every record, which the
        // uploader filter after it then rejects.
        ConfigurationQuery {
            software: vec![SoftwareFilter::new("clang", [8, 0, 0], [9, 0, 0])],
            ..ConfigurationQuery::any()
        },
        ConfigurationQuery {
            software: vec![SoftwareFilter::new("GCC", [8, 0, 0], [9, 0, 0])],
            users: vec!["nobody".into()],
            ..ConfigurationQuery::any()
        },
    ];
    for configuration in configurations {
        let (small_rows, small) =
            repo.miss_allocs(&with_configuration("SMALL", configuration.clone()));
        let (large_rows, large) =
            repo.miss_allocs(&with_configuration("LARGE", configuration.clone()));
        assert_eq!((small_rows.len(), large_rows.len()), (0, 0));
        assert_eq!(
            small, large,
            "a query that returns nothing allocated {small} times over 17 \
             records and {large} times over 1025 ({configuration:?})"
        );
    }
}

#[test]
fn allocations_follow_returned_records_not_scanned_ones() {
    let repo = Repo::new();
    repo.fill("A", 8, 64);
    repo.fill("B", 8, 1024);
    repo.fill("C", 64, 1024);
    let trusted = |problem: &str| {
        with_configuration(
            problem,
            ConfigurationQuery {
                users: vec!["keeper".into()],
                ..ConfigurationQuery::any()
            },
        )
    };
    let (a_rows, a) = repo.miss_allocs(&trusted("A"));
    let (b_rows, b) = repo.miss_allocs(&trusted("B"));
    let (c_rows, c) = repo.miss_allocs(&trusted("C"));
    assert_eq!((a_rows.len(), b_rows.len(), c_rows.len()), (8, 8, 64));

    // 16x the scanned records, the same returned ones: same allocations.
    assert_eq!(
        a, b,
        "8 of 65 records cost {a} allocations, 8 of 1025 cost {b}"
    );
    // 56 more returned records cost 56 copies, plus the growth of the
    // result vector.
    let (_, per_record) = allocs_during(|| c_rows[0].clone());
    let copies = 56 * per_record;
    assert!(
        (copies..=copies + 8).contains(&(c - b)),
        "64 returned records cost {c} allocations, 8 cost {b}: {} more, \
         against {copies} for 56 copies of {per_record} allocations",
        c - b
    );
}
