//! `crowdtune-report` — summarize a per-run JSONL event journal, or
//! evaluate SLOs against a request-trace journal.
//!
//! ```text
//! crowdtune-report <journal.jsonl> [--snapshot <path>] [--require-kinds <a,b,…>] [--profile] [--quality]
//! crowdtune-report --slo <spec.json> [--trace <trace.jsonl>] [--metrics <metrics.json>]
//! ```
//!
//! In journal mode it reads the journal, schema-checking every line,
//! prints a per-stage time/count breakdown, and writes the aggregated
//! metrics snapshot to `--snapshot` (default `results/obs_snapshot.json`).
//! With `--profile` it instead prints the run's merged collapsed-stack
//! span profile (one `frame;frame;frame nanoseconds` line per stack —
//! pipe into any flamegraph renderer). With `--quality` it prints only
//! the data-quality section: per-contributor outlier/duplicate/
//! quarantine rollup and surrogate calibration diagnostics, failing if
//! the journal carries no quality or calibration events. In SLO mode a
//! `--trace` journal whose capture ring overflowed (dropped records)
//! prints a warning to stderr. Exits non-zero on an unreadable,
//! truncated or empty journal, any schema violation, or — in every
//! journal mode — a journal lacking any event kind named in the
//! comma-separated `--require-kinds` list (the error names each missing
//! kind).
//!
//! In SLO mode (`--slo`) it parses the declarative objective spec,
//! evaluates latency objectives with multi-window burn rates over the
//! `--trace` journal (written by `crowd_load --trace`) and counter
//! objectives against the `--metrics` snapshot, prints the per-objective
//! report, and exits non-zero if any objective breached.

use std::process::ExitCode;

use crowdtune_obs::{
    evaluate_slos, parse_slo_file, read_journal, read_trace_journal, render_profile,
    render_quality, render_report, render_slo_report, summarize, MetricsSnapshot,
};
use serde::Deserialize;

fn run_slo(
    spec_path: &str,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
) -> Result<(), String> {
    let spec = parse_slo_file(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let traces = match trace_path {
        Some(p) => {
            let journal = read_trace_journal(p).map_err(|e| format!("{p}: {e}"))?;
            if journal.dropped > 0 {
                eprintln!(
                    "crowdtune-report: warning: {} trace record(s) dropped at capture \
                     (ring over capacity); latency quantiles may be biased",
                    journal.dropped
                );
            }
            journal.records
        }
        None => Vec::new(),
    };
    let snapshot = match metrics_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let value = serde_json::parse(&text).map_err(|e| format!("{p}: {e}"))?;
            Some(MetricsSnapshot::from_value(&value).map_err(|e| format!("{p}: {e}"))?)
        }
        None => None,
    };
    let report = evaluate_slos(&spec, &traces, snapshot.as_ref());
    print!("{}", render_slo_report(&report));
    if report.any_breached() {
        return Err(format!(
            "{} objective(s) breached",
            report.outcomes.iter().filter(|o| o.breached).count()
        ));
    }
    println!(
        "all {} objectives within budget ({} trace records)",
        report.outcomes.len(),
        traces.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    const USAGE: &str = "usage: crowdtune-report <journal.jsonl> [--snapshot <path>] \
         [--require-kinds <a,b,...>] [--profile] [--quality] | --slo <spec.json> \
         [--trace <trace.jsonl>] [--metrics <metrics.json>]";
    let mut args = std::env::args().skip(1);
    let mut journal_path: Option<String> = None;
    let mut snapshot_path = String::from("results/obs_snapshot.json");
    let mut required_kinds: Vec<String> = Vec::new();
    let mut profile = false;
    let mut quality = false;
    let mut slo_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--snapshot" => {
                snapshot_path = args.next().ok_or("--snapshot requires a path")?;
            }
            "--require-kinds" => {
                let list = args.next().ok_or("--require-kinds requires a kind list")?;
                required_kinds = list
                    .split(',')
                    .map(str::trim)
                    .filter(|k| !k.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--profile" => profile = true,
            "--quality" => quality = true,
            "--slo" => slo_path = Some(args.next().ok_or("--slo requires a spec path")?),
            "--trace" => trace_path = Some(args.next().ok_or("--trace requires a path")?),
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics requires a path")?),
            other if !other.starts_with('-') && journal_path.is_none() => {
                journal_path = Some(other.to_string());
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }

    if let Some(spec) = &slo_path {
        return run_slo(spec, trace_path.as_deref(), metrics_path.as_deref());
    }
    let journal_path = journal_path.ok_or(USAGE)?;

    let events = read_journal(&journal_path).map_err(|e| format!("{journal_path}: {e}"))?;
    if events.is_empty() {
        return Err(format!("{journal_path}: journal is empty"));
    }
    let report = summarize(&journal_path, &events);
    let missing: Vec<&str> = required_kinds
        .iter()
        .filter(|k| !report.event_counts.contains_key(k.as_str()))
        .map(String::as_str)
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{journal_path}: missing required event kinds: {} (present: {:?})",
            missing.join(", "),
            report.event_counts.keys().collect::<Vec<_>>()
        ));
    }
    if profile {
        if report.profile.is_empty() {
            return Err(format!(
                "{journal_path}: no profile events in journal (run with a journal installed \
                 so the tuner emits its collapsed-stack profile)"
            ));
        }
        print!("{}", render_profile(&report));
        return Ok(());
    }
    if quality {
        if report.quality_scored == 0 && report.calibration_points == 0 {
            return Err(format!(
                "{journal_path}: no quality or calibration events in journal (run the tuner \
                 through `NoTla::with_quality` with a journal installed)"
            ));
        }
        print!("{}", render_quality(&report));
        return Ok(());
    }
    print!("{}", render_report(&report));

    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(parent) = std::path::Path::new(&snapshot_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{snapshot_path}: {e}"))?;
        }
    }
    std::fs::write(&snapshot_path, json).map_err(|e| format!("{snapshot_path}: {e}"))?;
    println!("\nsnapshot written to {snapshot_path}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crowdtune-report: {e}");
            ExitCode::FAILURE
        }
    }
}
