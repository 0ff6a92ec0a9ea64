//! Performance regression gate CLI.
//!
//! Reads the final lines of the crowdbench runs from a directory
//! (`<workload>-trace0.json` for every `BENCHMARK.json` workload and
//! `<workload>-trace1.json` for those with gated layers) and
//! `results/bench_hotpath.json`, turns them into stats (see
//! `crowdtune_bench::gate`), then either:
//!
//! - `--record`: appends a `TrajectoryEntry` to the trajectory file, or
//! - `--check`: compares every stat with its recorded baseline at the
//!   run's thread count and exits non-zero, naming each stat, when one
//!   is past its band, has too few recorded values, or went unmeasured.
//!
//! Run it from the repository root:
//!
//! ```text
//! bench_gate --record [--label ci-2026-10-19]
//! bench_gate --check
//!     [--crowdbench .bench_out/gate]
//!     [--trajectory results/bench_trajectory.json]
//! ```

use std::process::ExitCode;

use crowdtune_bench::arg_value;
use crowdtune_bench::gate::{
    check, crowdbench_stats, hotpath_stats, load_trajectory, save_trajectory, Benchmark,
    TrajectoryEntry,
};

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let record = std::env::args().any(|a| a == "--record");
    let do_check = std::env::args().any(|a| a == "--check");
    if record == do_check {
        return Err("pass exactly one of --record or --check".to_string());
    }
    let dir = arg_value("--crowdbench").unwrap_or_else(|| ".bench_out/gate".to_string());
    let trajectory_path =
        arg_value("--trajectory").unwrap_or_else(|| "results/bench_trajectory.json".to_string());

    let benchmark = Benchmark::parse(&read("BENCHMARK.json")?)?;
    let (threads, mut stats) = hotpath_stats(&read("results/bench_hotpath.json")?)?;
    stats.extend(crowdbench_stats(&benchmark, |workload, traced| {
        read(&format!("{dir}/{workload}-trace{}.json", u8::from(traced)))
    })?);
    let mut history = load_trajectory(&trajectory_path)?;

    if record {
        let label = arg_value("--label").unwrap_or_else(|| "local".to_string());
        println!(
            "recording {} stat(s) as `{label}` (threads={threads}) into {trajectory_path}",
            stats.len()
        );
        for (name, stat) in &stats {
            println!("  {name:<50} {:.6}", stat.value);
        }
        history.push(TrajectoryEntry {
            label,
            threads,
            stats: stats.iter().map(|(k, s)| (k.clone(), s.value)).collect(),
        });
        save_trajectory(&trajectory_path, &history)?;
        println!("trajectory now holds {} entr(ies)", history.len());
        return Ok(ExitCode::SUCCESS);
    }

    let verdict = check(&history, threads, &stats);
    if verdict.passed() {
        println!(
            "bench gate: {} stat(s) within their bands at threads={threads} ({} trajectory entr(ies))",
            stats.len(),
            history.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprint!("{}", verdict.render(threads));
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::FAILURE
        }
    }
}
