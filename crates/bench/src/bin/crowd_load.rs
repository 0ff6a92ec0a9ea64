//! Fleet-scale load generator for the crowd repository: many concurrent
//! clients running a mixed upload + TLA-style query workload against
//! the sharded [`CrowdService`], in one of two modes. It measures
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
//!
//! `--overload [--seed N]` runs the service-level fault-injection
//! scenario instead: breaker-gated clients drive storm bursts against
//! a durable service with admission control in *simulated* time, twin
//! runs are checked for bitwise determinism, and the acked/shed/
//! deadline accounting, modeled p99, WAL-replay zero-loss cross-check,
//! and recovery-to-Healthy invariants are asserted (metrics snapshot in
//! `results/overload_metrics.json`, which CI holds to
//! `examples/slo_overload.json`).

use crowdtune_db::{
    crc32, AdmitVerdict, Backoff, CircuitBreaker, CrowdService, EvalOutcome, Filter,
    FunctionEvaluation, HealthState, MachineConfig, OverloadConfig, ServiceConfig,
    ServiceFaultPlan, StoreError, WalConfig,
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

const USAGE: &str = "usage: crowd_load --trace [--smoke] [--threads N] [--ring-capacity N]
       crowd_load --overload [--smoke] [--seed N]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--overload") {
        run_overload(&args, smoke);
        return;
    }
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
        cache_capacity: 128,
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
            service.query(problem, filter, None, ctx).unwrap().0.len()
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
            ..ServiceConfig::default()
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
    assert_eq!(service.verify_cache_coherence(), 0, "stale cache entries");
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

/// One overload-scenario run: everything the twin comparison and the
/// invariant checks need to see.
struct OverloadRun {
    fingerprint: u64,
    wal_crc: u32,
    admitted: u64,
    shed: u64,
    deadline_writes: u64,
    deadline_reads: u64,
    breaker_refusals: u64,
    breaker_opens: u64,
    stale_serves: u64,
    p99_us: u64,
    recovered_healthy: bool,
    metrics_json: Option<String>,
}

/// The `--overload` phase: a seed-deterministic discrete-event overload
/// scenario in *simulated* time. A fault plan injects a slow-fsync
/// episode, a shard stall, and a request storm; breaker-gated clients
/// drive upload bursts (some with deadlines) plus the read mix against
/// a durable service with admission control on. The run asserts the
/// ISSUE invariants: every refusal is typed, admitted-request modeled
/// p99 stays under the analytic bound, every acked write survives a WAL
/// replay while no shed write does, all shards recover to Healthy once
/// the plan goes quiet, and a twin run with the same seed is bitwise
/// identical (same admission fingerprint, same WAL bytes). The metrics
/// snapshot lands in `results/overload_metrics.json`.
fn run_overload(args: &[String], smoke: bool) {
    let seed: u64 = arg_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    // Admitted sojourn <= queue backlog x worst per-write cost: depth at
    // admission is < queue_limit, and no injected episode costs more
    // than the 20ms shard stall (+ base + jitter margin).
    let queue_limit = 16usize;
    let p99_bound_us = queue_limit as u64 * 21_000;

    let a = overload_run(seed, smoke, 0, true);
    let b = overload_run(seed, smoke, 1, false);

    // Twin-run bitwise determinism: same admission history, same log.
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "twin overload runs diverged: admission fingerprints differ"
    );
    assert_eq!(
        a.wal_crc, b.wal_crc,
        "twin overload runs diverged: WAL bytes differ"
    );
    assert_eq!(
        (a.admitted, a.shed, a.deadline_writes, a.deadline_reads),
        (b.admitted, b.shed, b.deadline_writes, b.deadline_reads),
        "twin overload runs diverged: verdict counts differ"
    );

    // The storm must actually exercise every degradation path.
    assert!(a.shed > 0, "the storm should shed at least one upload");
    assert!(a.deadline_writes > 0, "some upload deadlines should expire");
    assert!(a.deadline_reads > 0, "some read deadlines should expire");
    assert!(
        a.breaker_opens > 0,
        "client breakers should open under shed"
    );
    assert!(
        a.p99_us <= p99_bound_us,
        "admitted p99 {} us exceeds the {} us bound",
        a.p99_us,
        p99_bound_us
    );
    assert!(
        a.recovered_healthy,
        "shards did not return to Healthy after the fault plan went quiet"
    );

    println!(
        "crowd_load --overload: seed {seed}, twin runs bitwise identical (fingerprint {:#018x})",
        a.fingerprint
    );
    println!(
        "  admitted {} / shed {} / write deadlines {} / read deadlines {}",
        a.admitted, a.shed, a.deadline_writes, a.deadline_reads
    );
    println!(
        "  breaker: {} local refusals, {} opens   stale serves: {}",
        a.breaker_refusals, a.breaker_opens, a.stale_serves
    );
    println!(
        "  admitted modeled p99 {} us (bound {} us)   recovery: all shards Healthy",
        a.p99_us, p99_bound_us
    );
    println!("  zero acked-write loss confirmed by WAL replay cross-check");

    std::fs::create_dir_all("results").expect("create results dir");
    if let Some(snap) = &a.metrics_json {
        std::fs::write("results/overload_metrics.json", snap).expect("write overload metrics");
        println!("  metrics snapshot: results/overload_metrics.json");
    }
}

/// Drive one overload scenario against a fresh durable service and
/// tear it down, returning everything the caller asserts on. With
/// `capture_metrics` the obs counters are reset, enabled for the run,
/// and snapshotted for `results/overload_metrics.json`.
fn overload_run(seed: u64, smoke: bool, twin: usize, capture_metrics: bool) -> OverloadRun {
    let (clients, tick_us) = if smoke { (4usize, 1_000u64) } else { (8, 500) };
    let plan = ServiceFaultPlan::storm_scenario(seed);
    let horizon_us = plan.quiet_after_us() + 60_000;
    let dir =
        std::env::temp_dir().join(format!("crowdtune_overload_{}_{twin}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        shards: 4,
        cache_capacity: 64,
        wal: WalConfig {
            compact_every: 0,
            ..WalConfig::default()
        },
        overload: Some(OverloadConfig {
            queue_limit: 16,
            base_service_us: 200,
            log_outcomes: true,
            plan: Some(plan.clone()),
            ..OverloadConfig::default()
        }),
    };

    if capture_metrics {
        obs::reset_metrics();
        obs::set_metrics_enabled(true);
    }

    let (svc, _) = CrowdService::open_durable(&dir, config.clone()).expect("open overload service");
    let problems: Vec<String> = (0..8).map(|p| format!("PROBLEM{p}")).collect();
    let filters = query_mix();
    let mut breakers: Vec<CircuitBreaker> = (0..clients)
        .map(|c| {
            CircuitBreaker::new(
                Backoff {
                    seed: seed ^ (c as u64 + 1),
                    ..Backoff::default()
                },
                3,
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acked: Vec<(u64, i64)> = Vec::new();
    let mut shed_ms: Vec<i64> = Vec::new();
    let mut deadline_ms: Vec<i64> = Vec::new();
    let (mut deadline_reads, mut breaker_refusals, mut stale_serves) = (0u64, 0u64, 0u64);
    let mut m: i64 = 0;

    let (fingerprint, p99_us, recovered_healthy) = {
        let ov = svc.overload().expect("overload configured");
        for step in 0..horizon_us / tick_us {
            let now = step * tick_us;
            ov.set_now_us(now);
            // A checkpoint blob lands mid-storm: essential, always admitted.
            if now == 100_000 {
                svc.put_blob("ckpt/storm", "{\"iter\":9}")
                    .expect("blob always admitted");
            }
            let burst = plan.storm_multiplier(now);
            for c in 0..clients {
                if !breakers[c].allow(now) {
                    breaker_refusals += 1;
                    continue;
                }
                for _ in 0..burst {
                    m += 1;
                    let doc = eval_doc(&problems[m as usize % problems.len()], m, &mut rng);
                    // Every fourth upload carries a client deadline.
                    let ctx = if m % 4 == 0 {
                        RequestCtx::new(OpKind::Upload, c as u32 + 1).with_deadline_us(now + 2_500)
                    } else {
                        RequestCtx::new(OpKind::Upload, c as u32 + 1)
                    };
                    match svc.insert_ctx(doc, ctx) {
                        Ok(id) => {
                            breakers[c].on_success();
                            acked.push((id, m));
                        }
                        Err(StoreError::Overloaded { retry_after_ms }) => {
                            breakers[c].on_overload(now, retry_after_ms);
                            shed_ms.push(m);
                        }
                        Err(StoreError::DeadlineExceeded) => {
                            breakers[c].on_overload(now, 0);
                            deadline_ms.push(m);
                        }
                        Err(other) => panic!("untyped overload failure: {other}"),
                    }
                }
                // The TLA read mix rides along; degraded shards may
                // answer from epoch-stamped stale snapshots.
                if step % 5 == c as u64 % 5 {
                    let filter = &filters[(step as usize + c) % filters.len()];
                    let (res, stats) = svc
                        .query(
                            &problems[c % problems.len()],
                            filter,
                            None,
                            RequestCtx::new(OpKind::Query, 0),
                        )
                        .unwrap();
                    stale_serves += stats.stale_served as u64;
                    std::hint::black_box(res.len());
                }
                // A client that slept through a breaker cooldown issues
                // a query whose deadline predates the nap: typed refusal.
                if step % 35 == 34 {
                    let ctx = RequestCtx::new(OpKind::Query, c as u32 + 1)
                        .with_deadline_us(now.saturating_sub(500));
                    match svc.query(&problems[c % problems.len()], &filters[0], None, ctx) {
                        Err(StoreError::DeadlineExceeded) => deadline_reads += 1,
                        Ok(_) => {}
                        Err(other) => panic!("untyped read failure: {other}"),
                    }
                }
            }
        }

        // Recovery: once the plan is quiet, idle observations must walk
        // every shard back down the ladder to Healthy.
        for i in 1..=40u64 {
            ov.set_now_us(horizon_us + i * tick_us);
            ov.observe_idle();
        }
        let recovered = ov
            .health_snapshot()
            .iter()
            .all(|h| *h == HealthState::Healthy);

        // Modeled sojourn p99 over admitted uploads.
        let mut sojourns: Vec<u64> = ov
            .outcomes()
            .iter()
            .filter(|o| o.verdict == AdmitVerdict::Admitted && o.op == OpKind::Upload)
            .map(|o| o.completion_us - o.arrival_us)
            .collect();
        sojourns.sort_unstable();
        let p99 = if sojourns.is_empty() {
            0
        } else {
            sojourns[((sojourns.len() - 1) as f64 * 0.99).round() as usize]
        };
        (ov.fingerprint(), p99, recovered)
    };
    drop(svc);

    let metrics_json = if capture_metrics {
        let snap = serde_json::to_string(&obs::snapshot()).expect("render metrics snapshot");
        obs::set_metrics_enabled(false);
        Some(snap)
    } else {
        None
    };

    let wal_crc = crc32(&std::fs::read(dir.join("wal.log")).expect("read wal"));

    // Zero acked-write loss: replay the WAL (admission off — recovery
    // replays history, it does not re-admit) and cross-check that every
    // acked write survived and no shed or expired write was revived.
    let replay_config = ServiceConfig {
        overload: None,
        ..config
    };
    let (svc, report) = CrowdService::open_durable(&dir, replay_config).expect("replay service");
    assert_eq!(
        svc.len(),
        acked.len(),
        "replayed doc count differs from acked count (wal_records={})",
        report.wal_records
    );
    let all = parse_query_all();
    let mut recovered_ms: std::collections::HashSet<i64> = std::collections::HashSet::new();
    for problem in &problems {
        let (docs, _) = svc
            .query(problem, &all, None, RequestCtx::new(OpKind::Query, 0))
            .unwrap();
        recovered_ms.extend(docs.iter().map(|d| {
            d.task_parameters
                .get("m")
                .and_then(|s| s.as_f64())
                .expect("task m") as i64
        }));
    }
    for &(_, am) in &acked {
        assert!(
            recovered_ms.contains(&am),
            "acked write m={am} lost in replay"
        );
    }
    for sm in shed_ms.iter().chain(deadline_ms.iter()) {
        assert!(
            !recovered_ms.contains(sm),
            "refused write m={sm} revived by replay"
        );
    }
    assert_eq!(
        svc.get_blob("ckpt/storm").expect("blob survives"),
        "{\"iter\":9}"
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);

    OverloadRun {
        fingerprint,
        wal_crc,
        admitted: acked.len() as u64,
        shed: shed_ms.len() as u64,
        deadline_writes: deadline_ms.len() as u64,
        deadline_reads,
        breaker_refusals,
        breaker_opens: breakers.iter().map(|b| b.opens()).sum(),
        stale_serves,
        p99_us,
        recovered_healthy,
        metrics_json,
    }
}

fn parse_query_all() -> Filter {
    crowdtune_db::parse_query("task.m >= 0").expect("query parses")
}
