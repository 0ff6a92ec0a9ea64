//! Journal ingestion: per-run JSONL event journals → indexed
//! [`RunRecord`]s for the fleet-telemetry collection.
//!
//! A journal is a flat event stream; a run is the slice between a
//! `runstart` and its `runend`. The ingester walks the stream once,
//! distilling each run into one record: identity from `runstart`,
//! outcome from `runend`, event counts and the collapsed-stack profile
//! from the run window's [`summarize`] summary, and raw per-stage
//! durations from every timed event ([`Event::stage`]) in the window.
//! Events *outside* a run window (the database round trip a
//! driver performs before tuning, a jitter probe) are attributed to the
//! **next** run that starts — they are part of that run's session — and
//! dropped if no run follows.
//!
//! Journals do not know what application or machine produced them, so
//! the caller supplies that (plus ownership and access control) via
//! [`IngestMeta`].

use std::collections::BTreeMap;
use std::path::Path;

use crowdtune_db::{Access, RunRecord, TelemetryCollection};
use crowdtune_obs::{read_journal, summarize, Event, JournalError};

/// Run metadata the journal itself cannot know, supplied at ingest time.
#[derive(Debug, Clone)]
pub struct IngestMeta {
    /// Application the journal's runs tuned.
    pub app: String,
    /// Machine the runs executed on.
    pub machine: String,
    /// Username the records will be owned by.
    pub owner: String,
    /// Access control applied to every ingested record.
    pub access: Access,
}

impl IngestMeta {
    /// Metadata with public access (the common crowd-contribution case).
    pub fn public(app: &str, machine: &str, owner: &str) -> Self {
        IngestMeta {
            app: app.to_string(),
            machine: machine.to_string(),
            owner: owner.to_string(),
            access: Access::Public,
        }
    }
}

/// Distills a parsed event stream into one [`RunRecord`] per completed
/// run. A trailing run with no `runend` (the process died mid-tune) is
/// still emitted, with outcome fields left at their defaults.
pub fn ingest_events(events: &[Event], meta: &IngestMeta) -> Vec<RunRecord> {
    let mut records = Vec::new();
    // First event not yet attributed to a run: a run's window starts
    // here, so it includes the events before its `runstart`.
    let mut window_start = 0;
    let mut open: Option<RunRecord> = None;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::RunStart {
                run,
                tuner,
                dim,
                budget,
                seed,
            } => {
                // A new run start closes any run left open by a crashed writer.
                if let Some(rec) = open.take() {
                    records.push(distill(rec, &events[window_start..i]));
                    window_start = i;
                }
                open = Some(RunRecord {
                    id: 0,
                    run: run.clone(),
                    app: meta.app.clone(),
                    machine: meta.machine.clone(),
                    tuner: tuner.clone(),
                    dim: *dim,
                    budget: *budget,
                    seed: *seed,
                    iterations: 0,
                    failures: 0,
                    best: None,
                    event_counts: BTreeMap::new(),
                    stage_us: BTreeMap::new(),
                    profile: BTreeMap::new(),
                    owner: meta.owner.clone(),
                    access: meta.access.clone(),
                });
            }
            Event::RunEnd {
                iterations,
                failures,
                best,
                ..
            } => {
                if let Some(mut rec) = open.take() {
                    rec.iterations = *iterations;
                    rec.failures = *failures;
                    rec.best = *best;
                    records.push(distill(rec, &events[window_start..=i]));
                    window_start = i + 1;
                }
            }
            _ => {}
        }
    }
    if let Some(rec) = open {
        records.push(distill(rec, &events[window_start..]));
    }
    records
}

/// Fills a run record's event counts and profile from the summary of its
/// window, and its raw stage durations from the window's timed events.
fn distill(mut rec: RunRecord, window: &[Event]) -> RunRecord {
    let summary = summarize(&rec.run, window);
    rec.event_counts = summary.event_counts;
    rec.profile = summary.profile;
    for (stage, us) in window.iter().filter_map(Event::stage) {
        rec.stage_us.entry(stage.to_string()).or_default().push(us);
    }
    rec
}

/// Reads and schema-checks a journal, then ingests its runs into a
/// collection; returns how many run records were inserted.
pub fn ingest_into<P: AsRef<Path>>(
    collection: &TelemetryCollection,
    path: P,
    meta: &IngestMeta,
) -> Result<usize, JournalError> {
    let records = ingest_events(&read_journal(path)?, meta);
    let n = records.len();
    for rec in records {
        collection.insert(rec);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_events(tuner: &str, seed: u64, fit_us: &[u64]) -> Vec<Event> {
        let mut ev = vec![Event::RunStart {
            run: format!("{tuner}-seed{seed}"),
            tuner: tuner.to_string(),
            dim: 2,
            budget: fit_us.len() as u64,
            seed,
        }];
        for (i, &us) in fit_us.iter().enumerate() {
            ev.push(Event::Fit {
                model: "gp".into(),
                points: 10,
                restarts: 2,
                nll: Some(1.0),
                duration_us: us,
                fallback: false,
                evaluations: None,
                gradients: None,
            });
            ev.push(Event::Iteration {
                iter: i as u64,
                point: vec![0.5, 0.5],
                value: Some(1.0),
                ok: true,
                proposed_by: tuner.to_string(),
                best: Some(1.0),
                duration_us: us + 5,
            });
        }
        ev.push(Event::Profile {
            folded: [
                ("tune".to_string(), 1000u64),
                ("tune;propose;gp_fit".to_string(), 600),
            ]
            .into_iter()
            .collect(),
        });
        ev.push(Event::RunEnd {
            iterations: fit_us.len() as u64,
            failures: 0,
            best: Some(0.75),
            duration_us: 9000,
        });
        ev
    }

    #[test]
    fn splits_runs_and_collects_stages() {
        let meta = IngestMeta::public("demo", "local", "alice");
        let mut events = run_events("NoTLA", 1, &[100, 200]);
        events.extend(run_events("LCM-BO", 2, &[300]));
        let records = ingest_events(&events, &meta);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].tuner, "NoTLA");
        assert_eq!(records[0].stage_us["fit"], vec![100, 200]);
        assert_eq!(records[0].best, Some(0.75));
        assert_eq!(records[0].profile["tune;propose;gp_fit"], 600);
        assert_eq!(records[1].tuner, "LCM-BO");
        assert_eq!(records[1].stage_us["fit"], vec![300]);
        assert_eq!(records[1].event_counts["iteration"], 1);
    }

    #[test]
    fn preamble_events_attach_to_the_next_run() {
        let meta = IngestMeta::public("demo", "local", "alice");
        let mut events = vec![Event::DbQuery {
            query: "demo".into(),
            scanned: 40,
            returned: 38,
            denied: 1,
            duration_us: 55,
        }];
        events.extend(run_events("NoTLA", 1, &[100]));
        let records = ingest_events(&events, &meta);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].stage_us["db_query"], vec![55]);
        assert_eq!(records[0].event_counts["dbquery"], 1);
    }

    #[test]
    fn unterminated_run_is_still_emitted() {
        let meta = IngestMeta::public("demo", "local", "alice");
        let mut events = run_events("NoTLA", 1, &[100]);
        events.truncate(events.len() - 2); // drop profile + runend
        let records = ingest_events(&events, &meta);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].iterations, 0, "no runend: outcome unknown");
        assert_eq!(records[0].stage_us["fit"], vec![100]);
    }
}
