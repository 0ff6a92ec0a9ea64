//! Performance regression gate CLI.
//!
//! Distills `results/bench_hotpath.json` plus the obs journal into
//! dimensionless stats (see `crowdtune_bench::gate`), then either:
//!
//! - `--record`: appends a `TrajectoryEntry` to the trajectory file, or
//! - `--check`: compares against the per-stat median of the recorded
//!   trajectory at the run's thread count and exits non-zero with a
//!   readable diff when any stat exceeds `baseline * (1 + band)` or has
//!   no recorded baseline at that thread count.
//!
//! ```text
//! bench_gate --record [--label ci-2026-08-06]
//! bench_gate --check [--band 0.75]
//!     [--hotpath results/bench_hotpath.json]
//!     [--journal results/obs_journal.jsonl]
//!     [--trajectory results/bench_trajectory.json]
//! ```

use std::process::ExitCode;

use crowdtune_bench::arg_value;
use crowdtune_bench::gate::{
    check, collect_stats, load_trajectory, save_trajectory, TrajectoryEntry, DEFAULT_BAND,
};

fn run() -> Result<ExitCode, String> {
    let record = std::env::args().any(|a| a == "--record");
    let do_check = std::env::args().any(|a| a == "--check");
    if record == do_check {
        return Err("pass exactly one of --record or --check".to_string());
    }
    let hotpath_path =
        arg_value("--hotpath").unwrap_or_else(|| "results/bench_hotpath.json".to_string());
    let journal_path =
        arg_value("--journal").unwrap_or_else(|| "results/obs_journal.jsonl".to_string());
    let trajectory_path =
        arg_value("--trajectory").unwrap_or_else(|| "results/bench_trajectory.json".to_string());
    let band: f64 = match arg_value("--band") {
        Some(v) => v.parse().map_err(|e| format!("bad --band {v:?}: {e}"))?,
        None => DEFAULT_BAND,
    };

    let hotpath =
        std::fs::read_to_string(&hotpath_path).map_err(|e| format!("read {hotpath_path}: {e}"))?;
    let events = crowdtune_obs::read_journal(&journal_path)
        .map_err(|e| format!("read {journal_path}: {e}"))?;
    let (threads, stats) = collect_stats(&hotpath, &events)?;
    let history = load_trajectory(&trajectory_path)?;

    if record {
        let label = arg_value("--label").unwrap_or_else(|| "local".to_string());
        let mut history = history;
        println!(
            "recording {} stat(s) as `{label}` (threads={threads}) into {trajectory_path}",
            stats.len()
        );
        for (stat, value) in &stats {
            println!("  {stat:<28} {value:.4}");
        }
        history.push(TrajectoryEntry {
            label,
            threads,
            stats,
        });
        save_trajectory(&trajectory_path, &history)?;
        println!("trajectory now holds {} entr(ies)", history.len());
        return Ok(ExitCode::SUCCESS);
    }

    if history.is_empty() {
        return Err(format!(
            "no trajectory at {trajectory_path}; run bench_gate --record first"
        ));
    }
    let verdict = check(&history, threads, &stats, band);
    if verdict.passed() {
        println!(
            "bench gate: {} stat(s) within baseline * {:.2} at threads={threads} ({} trajectory entr(ies))",
            stats.len(),
            1.0 + band,
            history.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprint!("{}", verdict.render(band, threads));
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
