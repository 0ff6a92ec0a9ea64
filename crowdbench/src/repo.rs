//! `crowd_repo`: repository traffic against the sharded crowd service.
//!
//! Two clients run a closed loop, each executing its own seeded stream
//! of tuning sessions. A session makes the db calls of a `crowd_tla`
//! session: one meta-description query (task range, machine and software
//! filters, the constraints of `crowd_tla`'s meta description) for its
//! problem, then one upload per evaluation of `crowd_tla`'s budget to the
//! same problem. Problems are pre-filled with as many records as
//! `crowd_tla`'s crowd holds. Sessions pick problems Zipf-skewed, so hot
//! problems repeat; the exponent and the number of problems are
//! assumptions, not measurements. Each upload invalidates its shard's
//! query cache. Uploads carry task sizes outside the query's range, as
//! `crowd_tla`'s target lies outside its sources' range, so what a query
//! returns stays the same size while the repository grows, and the
//! stream has a fixed length so the repository grows by the same amount
//! whatever the speed.

use crate::crowd::mix;
use crate::layers::{self, LayerExtras};
use crate::report::Report;
use crate::stats::{geomean, median, percentile, reference_s, reference_scales, REFERENCE_S};
use crate::tla;
use crate::trace::{self, Span};
use crowdtune_core::MetaDescription;
use crowdtune_db::{
    EvalOutcome, FunctionEvaluation, HistoryDb, MachineConfig, QuerySpec, ServiceConfig,
    SoftwareConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Barrier;
use std::time::Instant;

/// Distinct problems in the repository (an assumption).
const PROBLEMS: usize = 64;
/// Records per problem before traffic: `crowd_tla`'s crowd.
const RECORDS_PER_PROBLEM: usize = tla::SOURCE_SIZES.len() * tla::SAMPLES_PER_SOURCE;
/// Uploads per session: `crowd_tla`'s budget.
const SESSION_UPLOADS: usize = tla::BUDGET;
const CLIENTS: usize = 2;
/// Zipf exponent of the problem choice (an assumption).
const ZIPF_S: f64 = 1.1;
/// Sessions per client in one round.
const SESSIONS_PER_CLIENT: usize = 400;
/// Rounds a traced run traces, each right after an untraced one.
const TRACED_ROUNDS: usize = 4;
const FAILED_PERCENT: u32 = 5;
/// Ops per timed chunk of a client's stream.
const CHUNK: usize = 1_000;
/// Brute-force-checked queries after the traffic.
const SAMPLED_QUERIES: usize = 48;

const MACHINES: [(&str, &str); 3] = [("cori", "haswell"), ("cori", "knl"), ("perlmutter", "cpu")];
const NODE_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];
const VERSIONS: [[u32; 3]; 3] = [[2, 0, 2], [2, 1, 0], [2, 2, 0]];
/// Tuners' task sizes; contributors upload sizes from `UPLOAD_SIZES`.
const TASK_SIZES: std::ops::Range<i64> = 1..12;
const UPLOAD_SIZES: std::ops::Range<i64> = 12..17;

/// The query constraints of `crowd_tla`'s meta description: task range
/// `[lo, hi)` on `m`, machine and node type, node range, ScaLAPACK
/// version range `[from, to)`.
const TASK_RANGE: (i64, i64) = (5_000, 12_000);
const MACHINE: (&str, &str) = ("cori", "haswell");
const NODE_RANGE: (u32, u32) = (1, 16);
const VERSION_RANGE: ([u32; 3], [u32; 3]) = ([2, 0, 0], [3, 0, 0]);

/// A generated record, kept alongside the repository as the known corpus.
#[derive(Debug, Clone, PartialEq)]
struct Doc {
    problem: usize,
    m: i64,
    machine: usize,
    nodes: u32,
    version: usize,
    mb: i64,
    runtime: Option<f64>,
}

impl Doc {
    fn generate(problem: usize, sizes: std::ops::Range<i64>, rng: &mut StdRng) -> Self {
        Doc {
            problem,
            m: rng.gen_range(sizes) * 1_000,
            machine: rng.gen_range(0..MACHINES.len()),
            nodes: NODE_COUNTS[rng.gen_range(0..NODE_COUNTS.len())],
            version: rng.gen_range(0..VERSIONS.len()),
            mb: rng.gen_range(1..16),
            runtime: (rng.gen_range(0..100) >= FAILED_PERCENT).then(|| rng.gen_range(1.0..10.0)),
        }
    }

    fn to_eval(&self) -> FunctionEvaluation {
        let (machine, node_type) = MACHINES[self.machine];
        let outcome = match self.runtime {
            Some(y) => EvalOutcome::single("runtime", y),
            None => EvalOutcome::Failed {
                reason: "out of memory".into(),
            },
        };
        let mut sw = SoftwareConfig::new("scalapack", VERSIONS[self.version]);
        sw.compiler = Some(("gcc".into(), [8, 3, 0]));
        FunctionEvaluation::new(&problem_name(self.problem), "crowd")
            .task("m", self.m)
            .task("n", self.m)
            .param("mb", self.mb)
            .outcome(outcome)
            .on_machine(MachineConfig::new(machine, node_type, self.nodes, 32))
            .with_software(sw)
    }

    /// The brute-force answer to "does the query on `problem` return
    /// this record".
    fn matches(&self, problem: usize) -> bool {
        let v = VERSIONS[self.version];
        self.problem == problem
            && self.runtime.is_some()
            && (TASK_RANGE.0..TASK_RANGE.1).contains(&self.m)
            && MACHINES[self.machine] == MACHINE
            && (NODE_RANGE.0..=NODE_RANGE.1).contains(&self.nodes)
            && v >= VERSION_RANGE.0
            && v < VERSION_RANGE.1
    }
}

fn problem_name(p: usize) -> String {
    format!("app-{p:02}")
}

/// One op of a client's stream.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Tuner query for a problem.
    Query(usize),
    /// Contributor upload.
    Upload(Doc),
}

/// The generated inputs of one seed.
#[derive(Debug, PartialEq)]
struct Inputs {
    /// Records pre-filled into the repository.
    pub corpus: Vec<Doc>,
    /// One op stream per client.
    pub streams: Vec<Vec<Op>>,
}

/// Generate the corpus and the client streams of one round.
fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0));
    let corpus = (0..PROBLEMS)
        .flat_map(|p| (0..RECORDS_PER_PROBLEM).map(move |_| p))
        .map(|p| Doc::generate(p, TASK_SIZES, &mut rng))
        .collect();
    let weights: Vec<f64> = (0..PROBLEMS)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let streams = (0..CLIENTS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 100 + c as u64));
            let mut ops = Vec::with_capacity(SESSIONS_PER_CLIENT * (1 + SESSION_UPLOADS));
            for _ in 0..SESSIONS_PER_CLIENT {
                let u: f64 = rng.gen();
                let problem = cdf.partition_point(|&c| c < u).min(PROBLEMS - 1);
                ops.push(Op::Query(problem));
                ops.extend(
                    (0..SESSION_UPLOADS)
                        .map(|_| Op::Upload(Doc::generate(problem, UPLOAD_SIZES, &mut rng))),
                );
            }
            ops
        })
        .collect();
    Inputs { corpus, streams }
}

fn spec(problem: usize) -> QuerySpec {
    let [f, t] = [VERSION_RANGE.0, VERSION_RANGE.1];
    let meta = format!(
        r#"{{
        "api_key": "",
        "tuning_problem_name": "{}",
        "problem_space": {{
            "input_space": [{{"name": "m", "type": "integer", "lower_bound": {}, "upper_bound": {}}}]
        }},
        "configuration_space": {{
            "machine_configurations": [{{"machine_name": "{}", "node_type": "{}", "nodes_from": {}, "nodes_to": {}}}],
            "software_configurations": [{{"name": "scalapack", "version_from": {f:?}, "version_to": {t:?}}}]
        }}
    }}"#,
        problem_name(problem),
        TASK_RANGE.0,
        TASK_RANGE.1,
        MACHINE.0,
        MACHINE.1,
        NODE_RANGE.0,
        NODE_RANGE.1,
    );
    MetaDescription::from_json(&meta)
        .expect("generated meta description parses")
        .to_query_spec()
}

struct Setup {
    inputs: Inputs,
    db: HistoryDb,
    /// Per client: api key and username.
    clients: Vec<(String, String)>,
    /// The query of each problem.
    specs: Vec<QuerySpec>,
    /// Known corpus: every stored record by id.
    known: BTreeMap<u64, Doc>,
}

fn setup(seed: u64) -> Setup {
    let inputs = inputs(seed);
    let db = HistoryDb::concurrent(ServiceConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut register = |name: &str| {
        db.register_user(name, &format!("{name}@example.org"), true, &mut rng)
            .expect("fresh registry accepts the user")
    };
    let crowd = register("crowd");
    let clients = (0..CLIENTS)
        .map(|c| {
            let name = format!("tuner{c}");
            (register(&name), name)
        })
        .collect();
    let known = inputs
        .corpus
        .iter()
        .map(|d| {
            (
                db.submit(&crowd, d.to_eval()).expect("setup upload"),
                d.clone(),
            )
        })
        .collect();
    let specs = (0..PROBLEMS).map(spec).collect();
    Setup {
        inputs,
        db,
        clients,
        specs,
        known,
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientRun {
    query_ms: Vec<f64>,
    upload_ms: Vec<f64>,
    /// Wall time of each whole chunk of `CHUNK` ops.
    chunk_s: Vec<f64>,
    failed: u64,
    returned: u64,
    /// Acked uploads: id and record.
    acked: Vec<(u64, Doc)>,
    /// Acked uploads a later query by the same client did not return.
    missing: usize,
    spans: Vec<Span>,
}

fn client(setup: &Setup, c: usize, ops: &[Op], traced: bool) -> ClientRun {
    let (key, _) = &setup.clients[c];
    let mut run = ClientRun::default();
    if traced {
        trace::start();
    }
    let mut chunk = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if i > 0 && i % CHUNK == 0 {
            run.chunk_s.push(chunk.elapsed().as_secs_f64());
            chunk = Instant::now();
        }
        trace::set_session(((c as u64) << 32) | i as u64);
        let _request = trace::span("request");
        match op {
            Op::Query(problem) => {
                let spec = &setup.specs[*problem];
                let mut span = trace::span("db.query");
                let start = Instant::now();
                let r = setup.db.query(key, spec);
                run.query_ms.push(start.elapsed().as_secs_f64() * 1e3);
                match r {
                    Ok(rows) => run.returned += rows.len() as u64,
                    Err(_) => {
                        run.failed += 1;
                        span.fail();
                    }
                }
            }
            Op::Upload(doc) => {
                let eval = doc.to_eval();
                let mut span = trace::span("db.upload");
                let start = Instant::now();
                let r = setup.db.submit(key, eval);
                run.upload_ms.push(start.elapsed().as_secs_f64() * 1e3);
                match r {
                    Ok(id) => run.acked.push((id, doc.clone())),
                    Err(_) => {
                        run.failed += 1;
                        span.fail();
                    }
                }
            }
        }
    }
    run.spans = trace::finish();
    // Read-your-writes: every acked upload is visible to a later query
    // from the same client.
    let mut by_problem: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    for (id, doc) in &run.acked {
        by_problem.entry(doc.problem).or_default().insert(*id);
    }
    for (problem, ids) in by_problem {
        let spec = QuerySpec::all_of(&problem_name(problem)).including_failures();
        let seen: BTreeSet<u64> = setup
            .db
            .query(key, &spec)
            .map(|rows| rows.into_iter().map(|r| r.id).collect())
            .unwrap_or_default();
        run.missing += ids.difference(&seen).count();
    }
    run
}

/// Run every client's stream concurrently; returns the client runs and
/// the wall time from the common start.
fn traffic(setup: &Setup, traced: bool) -> (Vec<ClientRun>, f64) {
    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    client(setup, c, &setup.inputs.streams[c], traced)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, start.elapsed().as_secs_f64())
    })
}

fn cache_counts(setup: &Setup) -> (u64, u64) {
    setup.db.service().map_or((0, 0), |s| s.cache_counts())
}

/// Queries that must equal a brute-force filter over the known corpus;
/// returns how many were sampled and how many differ.
fn check_sampled_queries(setup: &Setup, acked: &[(u64, Doc)]) -> (usize, usize) {
    let mut known = setup.known.clone();
    known.extend(acked.iter().cloned());
    let sampled: Vec<usize> = setup.inputs.streams[0]
        .iter()
        .filter_map(|op| match op {
            Op::Query(p) => Some(*p),
            Op::Upload(_) => None,
        })
        .take(SAMPLED_QUERIES)
        .collect();
    let (key, _) = &setup.clients[0];
    let mismatched = sampled
        .iter()
        .filter(|&&p| {
            let want: BTreeSet<u64> = known
                .iter()
                .filter(|(_, d)| d.matches(p))
                .map(|(id, _)| *id)
                .collect();
            let got: BTreeSet<u64> = setup
                .db
                .query(key, &setup.specs[p])
                .map(|rows| rows.into_iter().map(|r| r.id).collect())
                .unwrap_or_default();
            got != want
        })
        .count();
    (sampled.len(), mismatched)
}

/// One round: a fresh repository, both clients' traffic, the checks.
#[derive(Default)]
struct Round {
    setup_s: f64,
    traffic_s: f64,
    runs: Vec<ClientRun>,
    /// Best runtime each problem's query returns before traffic.
    bests: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    acked: usize,
    missing: usize,
    sampled: usize,
    mismatched: usize,
    stale: usize,
}

fn round(seed: u64, traced: bool) -> Round {
    let start = Instant::now();
    let setup = setup(seed);
    let setup_s = start.elapsed().as_secs_f64();
    let (key, _) = &setup.clients[0];
    let bests = (0..PROBLEMS)
        .filter_map(|p| {
            let rows = setup.db.query(key, &setup.specs[p]).ok()?;
            rows.iter()
                .filter_map(|r| r.result.output("runtime"))
                .min_by(f64::total_cmp)
        })
        .collect();
    let before = cache_counts(&setup);
    let (mut runs, traffic_s) = traffic(&setup, traced);
    let after = cache_counts(&setup);
    let acked: Vec<(u64, Doc)> = runs
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.acked))
        .collect();
    let (sampled, mismatched) = check_sampled_queries(&setup, &acked);
    Round {
        setup_s,
        traffic_s,
        bests,
        cache_hits: after.0 - before.0,
        cache_misses: after.1 - before.1,
        acked: acked.len(),
        missing: runs.iter().map(|r| r.missing).sum(),
        sampled,
        mismatched,
        stale: setup
            .db
            .service()
            .map_or(usize::MAX, |s| s.verify_cache_coherence()),
        runs,
    }
}

fn ms_line(name: &str, samples: &[f64], q: f64) {
    match percentile(samples, q) {
        Some(v) => println!("{name:<15} {v:.4} ms (n={})", samples.len()),
        None => println!("{name:<15} n/a (n={} too few)", samples.len()),
    }
}

/// Run the workload; a traced run returns its spans.
///
/// Each round builds a fresh repository from the same inputs and runs
/// the same traffic, so memory stays bounded and rounds are repeats of
/// one measurement. A timing run makes at least `min_rounds` rounds and
/// goes on for `seconds`; `setup_s` is the median set-up time of its
/// rounds. A traced run makes untraced rounds for half of `seconds`,
/// then `TRACED_ROUNDS` pairs of an untraced and a traced round; the
/// overhead is the median over pairs of traced against untraced traffic
/// time.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    min_rounds: usize,
    report: &mut Report,
) -> Vec<Span> {
    let ops_per_round: usize = inputs(seed).streams.iter().map(Vec::len).sum();
    println!(
        "input           {PROBLEMS} problems x {RECORDS_PER_PROBLEM} records; per round {CLIENTS} clients x {SESSIONS_PER_CLIENT} sessions of 1 query + {SESSION_UPLOADS} uploads ({ops_per_round} ops)"
    );
    let start = Instant::now();
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let (mut rounds, mut references) = (Vec::new(), vec![reference_s()]);
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < untraced_s {
        rounds.push(round(seed, false));
        references.push(reference_s());
    }
    let (mut traced_rounds, mut ratios) = (Vec::new(), Vec::new());
    for _ in 0..if traced { TRACED_ROUNDS } else { 0 } {
        let plain = round(seed, false);
        let traced = round(seed, true);
        ratios.push(traced.traffic_s / plain.traffic_s);
        rounds.push(plain);
        traced_rounds.push(traced);
    }

    let all = || rounds.iter().chain(&traced_rounds);
    let runs = || all().flat_map(|r| &r.runs);
    // A timing run reports its times on the calibration machine's clock,
    // each round's scaled by the host references on either side of it
    // (see `crowd::timing_run`); a traced run reports no times.
    let scales = if traced {
        vec![1.0; rounds.len() + traced_rounds.len()]
    } else {
        reference_scales(&references)
    };
    let scaled = |times: fn(&ClientRun) -> &[f64]| -> Vec<f64> {
        all()
            .zip(&scales)
            .flat_map(|(r, &k)| {
                r.runs
                    .iter()
                    .flat_map(move |c| times(c).iter().map(move |t| t * k))
            })
            .collect()
    };
    let query_ms = scaled(|c| &c.query_ms);
    let upload_ms = scaled(|c| &c.upload_ms);
    let done = (query_ms.len() + upload_ms.len()) as u64;
    report.attempted += done;
    report.failed += runs().map(|r| r.failed).sum::<u64>();
    let (hits, misses) = all().fold((0, 0), |(h, m), r| (h + r.cache_hits, m + r.cache_misses));
    println!(
        "traffic         {} rounds, {done} ops; cache hits {hits}, misses {misses}; threads {CLIENTS} clients, rayon {}",
        rounds.len() + traced_rounds.len(),
        rayon::current_num_threads()
    );
    ms_line("query_ms_p50", &query_ms, 0.5);
    ms_line("query_ms_p99", &query_ms, 0.99);
    ms_line("upload_ms_p50", &upload_ms, 0.5);
    ms_line("upload_ms_p99", &upload_ms, 0.99);

    let sum = |f: fn(&Round) -> usize| all().map(f).sum::<usize>();
    let (acked, missing) = (sum(|r| r.acked), sum(|r| r.missing));
    report.check(
        format!("{acked} acked uploads returned by a later query from the same client ({missing} missing)"),
        missing == 0,
    );
    let (sampled, mismatched) = (sum(|r| r.sampled), sum(|r| r.mismatched));
    report.check(
        format!(
            "{sampled} sampled queries equal a brute-force filter of the known corpus ({mismatched} differ)"
        ),
        mismatched == 0,
    );
    let stale = sum(|r| r.stale);
    report.check(
        format!("query cache is coherent after every round ({stale} stale entries)"),
        stale == 0,
    );
    let first_bests = &rounds[0].bests;
    report.check(
        "every round's queries return the same records before traffic",
        all().all(|r| r.bests == *first_bests),
    );

    let mut spans = Vec::new();
    if traced {
        let overhead = (median(&ratios) - 1.0) * 100.0;
        println!("rounds          {TRACED_ROUNDS} traced after untraced (median overhead {overhead:+.2}%)");
        spans = traced_rounds
            .iter()
            .flat_map(|r| &r.runs)
            .flat_map(|r| r.spans.clone())
            .collect();
        let extras = LayerExtras {
            cache_hits: traced_rounds.iter().map(|r| r.cache_hits).sum(),
            cache_misses: traced_rounds.iter().map(|r| r.cache_misses).sum(),
            records_returned: traced_rounds
                .iter()
                .flat_map(|r| &r.runs)
                .map(|r| r.returned)
                .sum(),
            overhead_pct: overhead,
            ..Default::default()
        };
        layers::report(&spans, &extras, report);
    } else {
        let setup_s: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let raw_chunk_s: Vec<f64> = runs().flat_map(|r| r.chunk_s.clone()).collect();
        let raw_query_ms: Vec<f64> = runs().flat_map(|r| r.query_ms.clone()).collect();
        println!(
            "unscaled        setup_s {:.6} ops_per_s {:.3} wait_ms_p50 {:.6} wait_ms_p90 {:.6}; host reference median {:.3} ms (calibration {:.3} ms)",
            median(&setup_s),
            (CLIENTS * CHUNK) as f64 / median(&raw_chunk_s),
            percentile(&raw_query_ms, 0.5).unwrap_or(f64::NAN),
            percentile(&raw_query_ms, 0.9).unwrap_or(f64::NAN),
            median(&references) * 1e3,
            REFERENCE_S * 1e3
        );
        let setup_s: Vec<f64> = setup_s.iter().zip(&scales).map(|(t, k)| t * k).collect();
        report.metric("setup_s", median(&setup_s), "s");
        // Throughput of the median chunk: a burst of load from outside
        // the process slows a few chunks, not the median one.
        let chunk_s = scaled(|c| &c.chunk_s);
        report.metric(
            "ops_per_s",
            (CLIENTS * CHUNK) as f64 / median(&chunk_s),
            "1/s",
        );
        report.metric(
            "wait_ms_p50",
            percentile(&query_ms, 0.5).unwrap_or(f64::NAN),
            "ms",
        );
        report.metric(
            "wait_ms_p90",
            percentile(&query_ms, 0.9).unwrap_or(f64::NAN),
            "ms",
        );
        report.metric(
            "tuned_objective",
            if first_bests.is_empty() {
                f64::NAN
            } else {
                geomean(first_bests)
            },
            "s",
        );
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = inputs(3);
        assert_eq!(a.corpus.len(), PROBLEMS * RECORDS_PER_PROBLEM);
        assert_eq!(a.streams.len(), CLIENTS);
        assert_eq!(a, inputs(3));
        assert_ne!(a, inputs(4));
    }

    #[test]
    fn sessions_are_a_query_then_uploads_outside_its_range() {
        let a = inputs(3);
        for session in a.streams[0].chunks(1 + SESSION_UPLOADS) {
            let Op::Query(p) = session[0] else {
                panic!("session starts with an upload")
            };
            assert_eq!(session.len(), 1 + SESSION_UPLOADS);
            for op in &session[1..] {
                let Op::Upload(d) = op else {
                    panic!("two queries in a session")
                };
                assert_eq!(d.problem, p);
                assert!((0..PROBLEMS).all(|q| !d.matches(q)));
            }
        }
    }
}
