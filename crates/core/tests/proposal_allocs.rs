//! Heap allocations of the pooled proposal path.
//!
//! A tuner keeps one [`ProposalScratch`] for a whole run, so the
//! candidate buffers of one proposal are recycled by the next. This test
//! drives the same Bayesian-optimization loop with a fresh scratch per
//! proposal and with one persistent scratch, and pins that the reuse
//! strictly cuts the allocations.
//!
//! The counters are thread-local: the loop's own thread is what is
//! compared, and tests running in parallel cannot disturb each other.

use crowdtune_core::acquisition::{propose, CandidatePool, ProposalRequest, ProposalScratch};
use crowdtune_core::SearchOptions;
use crowdtune_gp::{GpConfig, IncrementalGp, RefitSchedule};
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

/// A 48-evaluation BO loop over a synthetic 3-d objective: an
/// incrementally updated GP on the default refit schedule, proposing
/// from a run-long candidate pool. Returns the evaluated points.
fn tune_loop(persistent_scratch: bool) -> Vec<Vec<f64>> {
    const D: usize = 3;
    const N_INIT: usize = 8;
    const BUDGET: usize = 48;
    let objective =
        |p: &[f64]| (p[0] * 4.0).sin() + 10.0 * (p[1] - 0.4) * (p[1] - 0.4) + 0.5 * p[2];
    let mut rng = StdRng::seed_from_u64(51);
    let opts = SearchOptions {
        n_uniform: 128,
        n_local: 16,
        local_scales: vec![0.1],
        ..SearchOptions::default()
    };
    let mut gp_config = GpConfig::continuous(D);
    gp_config.restarts = 0;
    gp_config.max_opt_iter = 8;
    let mut surrogate = IncrementalGp::new(gp_config, RefitSchedule::default());
    let pool = CandidatePool::new(D, &opts, &mut rng);
    let mut scratch = ProposalScratch::new();
    let (mut x, mut y): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
    for i in 0..BUDGET {
        let cand: Vec<f64> = if i < N_INIT {
            (0..D).map(|_| rng.gen()).collect()
        } else {
            let best = (0..y.len()).min_by(|&a, &b| y[a].total_cmp(&y[b])).unwrap();
            let req = ProposalRequest {
                incumbent: Some((&x[best], y[best])),
                evaluated: &x,
                pool: Some(&pool),
                ..ProposalRequest::new(D)
            };
            if !persistent_scratch {
                scratch = ProposalScratch::new();
            }
            let gp = surrogate.gp().expect("fitted after the initial design");
            propose(gp, &req, &opts, &mut rng, &mut scratch)
        };
        let value = objective(&cand);
        surrogate.observe(&cand, value, &mut rng).expect("observe");
        x.push(cand);
        y.push(value);
    }
    x
}

#[test]
fn a_persistent_scratch_cuts_proposal_allocations() {
    let (fresh_points, fresh) = allocs_during(|| tune_loop(false));
    let (kept_points, kept) = allocs_during(|| tune_loop(true));
    // Reusing buffers changes no proposal.
    assert_eq!(fresh_points, kept_points);
    assert!(
        kept < fresh,
        "a persistent ProposalScratch allocated {kept} times, \
         a fresh one per proposal {fresh} times"
    );
}
