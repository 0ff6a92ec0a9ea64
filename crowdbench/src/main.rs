//! `crowdbench`: the crowd-tuning benchmark.
//!
//! ```text
//! cargo run --release --manifest-path crowdbench/Cargo.toml -- \
//!     --workload <crowd_tla|crowd_sensitivity|crowd_repo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload through the public APIs of the crowdtune
//! crates, checks its outputs, and prints every metric as a text line and
//! then, as the last line, one JSON object. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` is the separate traced
//! run that reports the per-layer metrics and writes its spans to
//! `.bench_out/`. The exit code is non-zero when any check fails.

mod crowd;
mod layers;
mod repo;
mod report;
mod sensitivity;
mod stats;
mod tla;
mod trace;

use report::Report;
use std::process::ExitCode;

/// End-to-end metrics every timing run reports, in print order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "wait_ms_p50",
    "wait_ms_p90",
    "tuned_objective",
    "peak_rss_mb",
];

/// Fewest rounds a `crowd_repo` run makes, each with a set-up of its
/// own; `setup_s` is their median.
const REPO_MIN_ROUNDS: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() -> ExitCode {
    // One thread per parallel region of the program, whatever the
    // environment says: on the two-vCPU machine the benchmark was
    // calibrated on, two-thread regions made crowd_tla slower and tripled
    // its run-to-run spread. Crowd_repo's two clients still run
    // concurrently.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crowdbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload        {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads()
    );
    let mut report = Report::default();
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let spans = match args.workload.as_str() {
        "crowd_tla" => tla::run(seed, secs, traced, &mut report),
        "crowd_sensitivity" => sensitivity::run(seed, secs, traced, &mut report),
        "crowd_repo" => repo::run(seed, secs, traced, REPO_MIN_ROUNDS, &mut report),
        other => {
            eprintln!("crowdbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if traced {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{seed}.jsonl", args.workload));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => println!(
                "trace           {} spans -> {}",
                spans.len(),
                path.display()
            ),
            Err(e) => report.check(format!("write {}: {e}", path.display()), false),
        }
    } else {
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
        report
            .metrics
            .sort_by_key(|m| END_TO_END.iter().position(|&n| n == m.0));
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0.as_str()).collect();
        report.check("every end-to-end metric reported once", names == END_TO_END);
    }
    println!(
        "error_rate      {:.6} ({} failed of {} db calls and sessions)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>14.6} {unit}");
    }
    for (what, ok) in &report.checks {
        println!("check {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
