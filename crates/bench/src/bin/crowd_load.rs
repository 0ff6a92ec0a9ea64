//! Fleet-scale load generator for the crowd repository: many concurrent
//! clients running a mixed upload + TLA-style query workload against
//! the sharded [`CrowdService`] with request tracing on. It measures
//! nothing it gates: the repository's end-to-end throughput and query
//! latency come from crowdbench's `crowd_repo` workload.
//!
//! Run: `cargo run --release -p crowdtune-bench --bin crowd_load -- --trace`.
//! Pass `--smoke` for the CI-sized workload, and `--threads N` to
//! change the client count (default 8).
//!
//! `--trace` runs the service read mix and a durable upload burst with
//! request tracing on: every op carries a [`RequestCtx`], the drained
//! journal lands in `results/crowd_trace.jsonl` (metrics snapshot in
//! `results/crowd_metrics.json`), stage durations are reconciled
//! against op wall time, follower commits are checked for causal links
//! to their leader's fsync, and the p99 dominant stage per op kind is
//! printed.
//! `--ring-capacity N` sizes the per-thread capture ring (default
//! 65536 slots); overflow drops are warned about and counted in the
//! `obs.trace_dropped` counter instead of aborting the run.

use crowdtune_db::{
    CrowdService, EvalOutcome, Filter, FunctionEvaluation, MachineConfig, ServiceConfig, WalConfig,
};
use crowdtune_obs as obs;
use obs::{OpKind, RequestCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn eval_doc(problem: &str, m: i64, rng: &mut StdRng) -> FunctionEvaluation {
    FunctionEvaluation::new(problem, "crowd")
        .task("m", m)
        .task("n", m * 2)
        .param("mb", rng.gen_range(1..64) as i64)
        .param("nb", rng.gen_range(1..64) as i64)
        .outcome(EvalOutcome::single("runtime", rng.gen::<f64>() * 10.0))
        .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
}

/// The TLA query mix: what a transfer-learning tuner actually asks the
/// crowd database on every fit — "all samples for my problem", plus
/// narrowing variants.
fn query_mix() -> Vec<Filter> {
    [
        "task.m >= 0",
        "task.m BETWEEN 100 AND 5000",
        "param.mb <= 32",
        "task.n >= 200 AND param.nb <= 48",
    ]
    .iter()
    .map(|q| crowdtune_db::parse_query(q).expect("query parses"))
    .collect()
}

/// Drive `threads` clients through `ops_per_thread` mixed operations
/// (1 upload per 32 ops, the rest problem-scoped queries) against an
/// engine exposed as (query, upload) closures. Closures receive the
/// client-thread index so a traced run can stamp per-client contexts.
fn drive<Q, U>(
    threads: usize,
    ops_per_thread: usize,
    problems: &[String],
    filters: &[Filter],
    query: Q,
    upload: U,
) where
    Q: Fn(usize, &str, &Filter) -> usize + Sync,
    U: Fn(usize, FunctionEvaluation) + Sync,
{
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (query, upload) = (&query, &upload);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x10ad + t as u64);
                for i in 0..ops_per_thread {
                    if i % 32 == 31 {
                        let problem = &problems[rng.gen_range(0..problems.len())];
                        upload(t, eval_doc(problem, rng.gen_range(0..10_000), &mut rng));
                    } else {
                        let problem = &problems[(t + i) % problems.len()];
                        let filter = &filters[i % filters.len()];
                        std::hint::black_box(query(t, problem, filter));
                    }
                }
            });
        }
    });
}

const USAGE: &str = "usage: crowd_load --trace [--smoke] [--threads N] [--ring-capacity N]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if !args.iter().any(|a| a == "--trace") {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let threads: usize = arg_value(&args, "--threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let (n_problems, docs_per_problem, ops_per_thread, durable_uploads) = if smoke {
        (4usize, 25usize, 96usize, 10usize)
    } else {
        (16, 200, 800, 50)
    };
    let problems: Vec<String> = (0..n_problems).map(|p| format!("PROBLEM{p}")).collect();
    let filters = query_mix();

    // ---- Prepopulate the service. ----
    let mut rng = StdRng::seed_from_u64(7);
    let corpus: Vec<FunctionEvaluation> = problems
        .iter()
        .flat_map(|p| {
            (0..docs_per_problem)
                .map(|i| eval_doc(p, i as i64, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect();
    let service = CrowdService::new(ServiceConfig {
        shards: 16,
        ..ServiceConfig::default()
    });
    for doc in corpus {
        service.insert(doc).expect("in-memory insert");
    }

    let ring_capacity: usize = arg_value(&args, "--ring-capacity")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 16);
    println!(
        "crowd_load --trace: {threads} client threads, {n_problems} problems x {docs_per_problem} docs"
    );
    run_traced(
        threads,
        ops_per_thread,
        durable_uploads,
        &problems,
        &filters,
        &service,
        ring_capacity,
    );
}

/// The `--trace` phase: drive the service read mix and a durable
/// upload burst with request tracing enabled, write the trace journal
/// (`results/crowd_trace.jsonl`) and metrics snapshot
/// (`results/crowd_metrics.json`), assert the accounting holds — stage
/// totals reconcile with op wall time, followers causally link a
/// leader fsync — and print the p99 tail attribution per op kind. The
/// trace journal holds one `tracedropped` event with the drop count and
/// one `trace` event per drained record. Ring capacity
/// comes from `--ring-capacity` (default 64Ki slots per thread); an
/// undersized ring degrades to a loud warning plus the
/// `obs.trace_dropped` counter rather than aborting, so operators can
/// trade capture memory against completeness.
fn run_traced(
    threads: usize,
    ops_per_thread: usize,
    durable_uploads: usize,
    problems: &[String],
    filters: &[Filter],
    service: &CrowdService,
    ring_capacity: usize,
) {
    obs::reset_traces();
    obs::set_metrics_enabled(true);
    obs::configure_tracing(&obs::TraceConfig { ring_capacity });

    drive(
        threads,
        ops_per_thread,
        problems,
        filters,
        |t, problem, filter| {
            let ctx = RequestCtx::new(OpKind::Query, t as u32 + 1);
            service.query(problem, filter, None, ctx).0.len()
        },
        |t, doc| {
            let ctx = RequestCtx::new(OpKind::Upload, t as u32 + 1);
            service.insert_ctx(doc, ctx).expect("traced insert");
        },
    );

    // Traced durable burst under a coalescing group-commit window so
    // follower commits (and their causal links) appear.
    let dir = std::env::temp_dir().join(format!("crowdtune_crowd_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _) = CrowdService::open_durable(
        &dir,
        ServiceConfig {
            shards: 16,
            wal: WalConfig {
                group_window_us: 200,
                compact_every: 0,
                ..WalConfig::default()
            },
        },
    )
    .expect("open traced durable service");
    std::thread::scope(|scope| {
        for t in 0..threads {
            let durable = &durable;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x7ace + t as u64);
                for _ in 0..durable_uploads {
                    let problem = &problems[rng.gen_range(0..problems.len())];
                    let ctx = RequestCtx::new(OpKind::Upload, t as u32 + 1);
                    durable
                        .insert_ctx(eval_doc(problem, rng.gen_range(0..10_000), &mut rng), ctx)
                        .expect("traced durable insert");
                }
            });
        }
    });
    let batched = durable.fsync_batched_count();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    obs::set_tracing_enabled(false);
    let journal = obs::drain_traces();
    if journal.dropped > 0 {
        eprintln!(
            "WARNING: {} trace record(s) dropped (ring capacity {ring_capacity} slots/thread); \
             raise --ring-capacity for complete capture",
            journal.dropped
        );
    }

    // Stage durations must reconcile with op wall time: per trace the
    // children may not exceed the op by more than 5% + 200 us, and in
    // aggregate the stages must explain a sane share of the wall time.
    let rec = crowdtune_telemetry::reconcile(&journal.records, 0.05, 200_000);
    assert!(rec.ops > 0, "traced run produced no complete operations");
    assert_eq!(
        rec.overruns, 0,
        "stage totals exceed op wall time on {} op(s)",
        rec.overruns
    );
    assert!(
        rec.coverage > 0.0 && rec.coverage <= 1.0,
        "aggregate stage coverage {} outside (0, 1]",
        rec.coverage
    );

    if batched > 0 {
        let linked = journal.records.iter().any(|r| {
            r.stage == obs::TraceStage::WalFollowerWait
                && r.link != 0
                && journal
                    .records
                    .iter()
                    .any(|l| l.trace == r.link && l.stage == obs::TraceStage::WalFsync)
        });
        assert!(
            linked,
            "coalesced fsyncs ({batched}) but no follower links a leader fsync"
        );
    }

    let rows = crowdtune_telemetry::tail_attribution(&journal.records, 0.99);
    let aggregates: Vec<_> = rows.iter().filter(|r| r.shard.is_none()).collect();
    assert!(!aggregates.is_empty(), "attribution names no op kinds");
    println!(
        "  traced: {} records across {} ops, stage coverage {:.2}",
        journal.records.len(),
        rec.ops,
        rec.coverage
    );
    for row in &aggregates {
        println!(
            "    p99 dominant stage for {}: {} (tail {} us, n_tail={})",
            row.op, row.dominant_stage, row.tail_us, row.tail_count
        );
    }

    let out = obs::Journal::create("results/crowd_trace.jsonl").expect("create trace journal");
    out.record(&obs::Event::TraceDropped {
        records: journal.dropped,
    })
    .expect("write trace journal");
    for record in journal.records {
        out.record(&obs::Event::Trace { record })
            .expect("write trace journal");
    }
    out.flush().expect("flush trace journal");
    let snap = serde_json::to_string(&obs::snapshot()).expect("render metrics snapshot");
    std::fs::write("results/crowd_metrics.json", snap).expect("write metrics snapshot");
    obs::set_metrics_enabled(false);
}
