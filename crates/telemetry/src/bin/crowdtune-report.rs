//! `crowdtune-report` — the one reader of what crowdtune writes: run and
//! request-trace journals (both read by `read_journal`, which rejects a
//! blank or unterminated line), metrics snapshots and the fleet store.
//! `USAGE` below lists every subcommand and flag.
//!
//! - `report` prints a journal's per-stage breakdown (`summarize`), and
//!   with `--snapshot` writes it as JSON; `--profile` prints the merged
//!   collapsed-stack profile instead, `--quality` only the data-quality
//!   section. Every mode fails on a journal lacking a kind named in
//!   `--require-kinds`, naming each missing one.
//! - `slo` evaluates an SLO spec: latency objectives over the `--trace`
//!   journal, counter objectives over the `--metrics` snapshot. It fails
//!   if any objective breached and warns when trace records were dropped.
//! - `attribute` names the stage dominating each op kind's and shard's
//!   q-quantile tail in a trace journal.
//! - `ingest` appends a journal's runs to the fleet store; `query` lists
//!   matching runs, or with `--stage` prints exact per-algorithm
//!   percentiles of that stage.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crowdtune_obs::{
    evaluate_slos, parse_slo_file, read_journal, render_profile, render_quality, render_report,
    render_slo_report, summarize, MetricsSnapshot, TraceJournal,
};
use crowdtune_telemetry::{
    fleet_stage_percentiles, ingest_into, render_attribution, render_stage_table, tail_attribution,
    Access, FleetQuery, IngestMeta, TelemetryCollection,
};
use serde::Deserialize;

const USAGE: &str = "usage: crowdtune-report <report|slo|attribute|ingest|query> ...

report    <journal.jsonl> [--snapshot <path>] [--require-kinds <a,b,...>]
          [--profile] [--quality]
slo       <spec.json> [--trace <trace.jsonl>] [--metrics <metrics.json>]
attribute <trace.jsonl> [--q <quantile>] [--op <kind>]
ingest    <journal.jsonl> --app <name> --machine <name>
          [--owner <user>] [--private] [--store <path>]
query     [--store <path>] [--app <name>] [--machine <name>]
          [--tuner <name>] [--stage <name>] [--user <name>]
";

const DEFAULT_STORE: &str = "results/telemetry.json";

/// One subcommand's parsed arguments: at most one positional path, and
/// the flags its spec lists (`--name=` takes a value, `--name` is a
/// switch and maps to an empty value).
struct Args {
    path: Option<String>,
    flags: BTreeMap<&'static str, String>,
}

impl Args {
    fn parse(args: &[String], spec: &'static str) -> Result<Args, String> {
        let mut parsed = Args {
            path: None,
            flags: BTreeMap::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match spec
                .split_whitespace()
                .find(|f| f.trim_end_matches('=') == arg)
            {
                Some(f) if f.ends_with('=') => {
                    let flag = f.trim_end_matches('=');
                    let value = it.next().ok_or(format!("{flag} requires a value"))?;
                    parsed.flags.insert(flag, value.clone());
                }
                Some(flag) => {
                    parsed.flags.insert(flag, String::new());
                }
                None if !arg.starts_with('-') && parsed.path.is_none() => {
                    parsed.path = Some(arg.clone());
                }
                None => return Err(format!("unknown argument `{arg}`\n{USAGE}")),
            }
        }
        Ok(parsed)
    }

    fn path(&self, what: &str) -> Result<String, String> {
        self.path
            .clone()
            .ok_or_else(|| format!("missing {what} path\n{USAGE}"))
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    fn switch(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }
}

fn read_traces(path: &str) -> Result<TraceJournal, String> {
    let events = read_journal(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(TraceJournal::from_events(&events))
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, "--snapshot= --require-kinds= --profile --quality")?;
    let journal_path = args.path("journal")?;
    let events = read_journal(&journal_path).map_err(|e| format!("{journal_path}: {e}"))?;
    if events.is_empty() {
        return Err(format!("{journal_path}: journal is empty"));
    }
    let report = summarize(&journal_path, &events);
    let missing: Vec<&str> = args
        .value("--require-kinds")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|k| !k.is_empty() && !report.event_counts.contains_key(*k))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{journal_path}: missing required event kinds: {} (present: {:?})",
            missing.join(", "),
            report.event_counts.keys().collect::<Vec<_>>()
        ));
    }
    if args.switch("--profile") {
        if report.profile.is_empty() {
            return Err(format!(
                "{journal_path}: no profile events in journal (run with a journal installed \
                 so the tuner emits its collapsed-stack profile)"
            ));
        }
        print!("{}", render_profile(&report));
        return Ok(());
    }
    if args.switch("--quality") {
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

    if let Some(snapshot_path) = args.value("--snapshot") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        create_parent(snapshot_path)?;
        std::fs::write(snapshot_path, json).map_err(|e| format!("{snapshot_path}: {e}"))?;
        println!("\nsnapshot written to {snapshot_path}");
    }
    Ok(())
}

fn cmd_slo(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, "--trace= --metrics=")?;
    let spec_path = args.path("SLO spec")?;
    let spec = parse_slo_file(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let traces = match args.value("--trace") {
        Some(p) => {
            let journal = read_traces(p)?;
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
    let snapshot = match args.value("--metrics") {
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

fn cmd_attribute(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, "--q= --op=")?;
    let trace = args.path("trace journal")?;
    let q: f64 = match args.value("--q") {
        Some(s) => s.parse().map_err(|e| format!("--q: {e}"))?,
        None => 0.99,
    };
    let journal = read_traces(&trace)?;
    let mut rows = tail_attribution(&journal.records, q);
    if let Some(op) = args.value("--op") {
        rows.retain(|r| r.op == op);
    }
    if rows.is_empty() {
        return Err(format!(
            "{trace}: no complete operations to attribute ({} records, {} dropped)",
            journal.records.len(),
            journal.dropped
        ));
    }
    print!("{}", render_attribution(&rows, q));
    if journal.dropped > 0 {
        println!(
            "note: {} trace record(s) were dropped at capture",
            journal.dropped
        );
    }
    Ok(())
}

fn create_parent(path: &str) -> Result<(), String> {
    match Path::new(path).parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent)
            .map_err(|e| format!("failed to create {}: {e}", parent.display())),
        _ => Ok(()),
    }
}

fn load_store(path: &str) -> Result<TelemetryCollection, String> {
    if Path::new(path).exists() {
        TelemetryCollection::load(path).map_err(|e| format!("failed to load store {path}: {e}"))
    } else {
        Ok(TelemetryCollection::new())
    }
}

fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, "--app= --machine= --owner= --store= --private")?;
    let journal = args.path("journal")?;
    let app = args.value("--app").ok_or("ingest: --app is required")?;
    let machine = args
        .value("--machine")
        .ok_or("ingest: --machine is required")?;
    let owner = args.value("--owner").unwrap_or("anonymous");
    let store = args.value("--store").unwrap_or(DEFAULT_STORE);
    let mut meta = IngestMeta::public(app, machine, owner);
    if args.switch("--private") {
        meta.access = Access::Private;
    }

    let collection = load_store(store)?;
    let n = ingest_into(&collection, &journal, &meta)
        .map_err(|e| format!("failed to ingest {journal}: {e}"))?;
    create_parent(store)?;
    collection
        .save(store)
        .map_err(|e| format!("failed to save store {store}: {e}"))?;
    println!(
        "ingested {n} run record(s) from {journal} into {store} ({} total)",
        collection.len()
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, "--store= --app= --machine= --tuner= --stage= --user=")?;
    if let Some(path) = &args.path {
        return Err(format!("unknown argument `{path}`\n{USAGE}"));
    }
    let store = args.value("--store").unwrap_or(DEFAULT_STORE);
    let collection = load_store(store)?;
    let mut query = FleetQuery::all();
    if let Some(app) = args.value("--app") {
        query = query.for_app(app);
    }
    if let Some(machine) = args.value("--machine") {
        query = query.on_machine(machine);
    }
    if let Some(tuner) = args.value("--tuner") {
        query = query.with_tuner(tuner);
    }
    let user = args.value("--user");

    if let Some(stage) = args.value("--stage") {
        let groups = fleet_stage_percentiles(&collection, user, &query, stage);
        if groups.is_empty() {
            return Err(format!(
                "no readable runs in {store} journaled stage `{stage}` for this query"
            ));
        }
        print!("{}", render_stage_table(stage, &groups));
        return Ok(());
    }

    let records = collection.query(user, &query);
    println!(
        "{} readable run(s) in {store} match the query",
        records.len()
    );
    for rec in &records {
        println!(
            "  {:<28} app={:<10} machine={:<10} tuner={:<10} iters={:>4} best={}",
            rec.run,
            rec.app,
            rec.machine,
            rec.tuner,
            rec.iterations,
            rec.best.map_or("-".to_string(), |b| format!("{b:.6}")),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("report") => cmd_report(rest),
        Some("slo") => cmd_slo(rest),
        Some("attribute") => cmd_attribute(rest),
        Some("ingest") => cmd_ingest(rest),
        Some("query") => cmd_query(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("crowdtune-report: {msg}");
            ExitCode::FAILURE
        }
    }
}
