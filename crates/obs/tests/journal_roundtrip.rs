//! Journal round-trip: every event variant serializes to one JSONL line,
//! parses back to the identical value, and malformed lines are rejected
//! as schema violations.

use crowdtune_obs::{read_journal, Event, Journal, JournalError};
use std::sync::Arc;

/// One instance of every event variant, with representative payloads
/// (including a non-finite-derived `None` where the field allows it).
fn all_variants() -> Vec<Event> {
    vec![
        Event::RunStart {
            run: "NoTLA-seed7".into(),
            tuner: "NoTLA".into(),
            dim: 3,
            budget: 20,
            seed: 7,
        },
        Event::Iteration {
            iter: 4,
            point: vec![0.25, 0.5, -1.0],
            value: Some(1.625),
            ok: true,
            proposed_by: "EI".into(),
            best: Some(1.5),
            duration_us: 830,
        },
        Event::Iteration {
            iter: 5,
            point: vec![0.1],
            value: crowdtune_obs::finite(f64::NAN),
            ok: false,
            proposed_by: "EI".into(),
            best: None,
            duration_us: 12,
        },
        Event::Fit {
            model: "gp".into(),
            points: 18,
            restarts: 4,
            nll: Some(-3.75),
            duration_us: 12_000,
            fallback: false,
        },
        Event::Restart {
            index: 2,
            nll: None,
            iterations: 31,
            stop: "gradient_small".into(),
        },
        Event::Acquisition {
            kind: "ei".into(),
            candidates: 400,
            best_score: Some(0.125),
            duration_us: 900,
        },
        Event::Jitter {
            dim: 12,
            jitter: 1e-9,
            attempts: 3,
            recovered: true,
        },
        Event::LineSearch { iteration: 17 },
        Event::Exclusion {
            failed: 2,
            removed: 31,
            pool: 369,
        },
        Event::Weights {
            strategy: "WeightedSum(dynamic)".into(),
            weights: vec![0.5, 0.25, 0.25],
            chosen: "Stacking".into(),
        },
        Event::DbQuery {
            query: "PDGEQRF".into(),
            scanned: 100,
            returned: 40,
            denied: 3,
            cache_hits: 1,
            cache_misses: 2,
            stale_served: 1,
            duration_us: 55,
        },
        Event::Upload {
            accepted: 10,
            rejected: 1,
            contributor: "alice".into(),
            batch: 3,
            duration_us: 70,
        },
        Event::Saltelli {
            dim: 3,
            n: 128,
            total_evals: 640,
            scheme: "sobol".into(),
            duration_us: 210,
        },
        Event::Sobol {
            dim: 3,
            n: 128,
            bootstrap: 100,
            variance: crowdtune_obs::finite(f64::INFINITY),
            duration_us: 950,
        },
        Event::SpaceReduce {
            full_dim: 12,
            kept: 4,
            fixed: 8,
        },
        Event::Profile {
            folded: [
                ("tune".to_string(), 120_000u64),
                ("tune;propose".to_string(), 80_000),
                ("tune;propose;gp_fit".to_string(), 55_000),
            ]
            .into_iter()
            .collect(),
        },
        Event::Refit {
            model: "gp".into(),
            points: 130,
            reason: "schedule".into(),
            full: true,
            updates_since_full: 16,
            nll_per_point: Some(1.375),
        },
        Event::Refit {
            model: "gp".into(),
            points: 131,
            reason: "append".into(),
            full: false,
            updates_since_full: 1,
            nll_per_point: crowdtune_obs::finite(f64::NAN),
        },
        Event::Warmstart {
            model: "lcm".into(),
            warm_nll: Some(-12.5),
            best_nll: Some(-12.625),
            restarts: 1,
            reduced: true,
            iterations: Some(7),
        },
        Event::Retry {
            iter: 6,
            attempt: 1,
            backoff_s: 2.5,
            error: "transient: simulated node failure".into(),
        },
        Event::FaultInject {
            index: 13,
            kind: "timeout".into(),
            detail: "evaluation exceeded 600s deadline (simulated)".into(),
            doc: 27,
        },
        Event::QualityScore {
            iter: 9,
            doc: 27,
            contributor: "mallory".into(),
            residual: Some(14.5),
            score: Some(9.25),
            flagged: true,
            duplicate: false,
        },
        Event::Quarantine {
            iter: 9,
            doc: 27,
            contributor: "mallory".into(),
            reason: "outlier".into(),
            state: "flagged".into(),
        },
        Event::Calibration {
            model: "gp".into(),
            points: 40,
            coverage90: Some(0.875),
            nll_pp: Some(1.25),
            drift: crowdtune_obs::finite(f64::NAN),
            best: Some(0.0625),
        },
        Event::Checkpoint {
            iter: 10,
            bytes: 4096,
            key: "ckpt/NoTLA-seed7".into(),
        },
        Event::Recovery {
            source: "wal".into(),
            docs: 42,
            records: 7,
            torn: true,
            resumed_iter: None,
        },
        Event::Recovery {
            source: "checkpoint".into(),
            docs: 10,
            records: 0,
            torn: false,
            resumed_iter: Some(10),
        },
        Event::Shed {
            op: "upload".into(),
            shard: 3,
            reason: "queue_full".into(),
            retry_after_ms: 5,
            queue_depth: 8,
        },
        Event::Health {
            shard: 3,
            from: "healthy".into(),
            to: "degraded".into(),
            queue_depth: 6,
        },
        Event::RunEnd {
            iterations: 20,
            failures: 2,
            best: Some(0.875),
            duration_us: 1_000_000,
        },
    ]
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("crowdtune_obs_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn every_variant_round_trips_bitwise() {
    let path = temp_path("all_variants.jsonl");
    let events = all_variants();
    {
        let journal = Arc::new(Journal::create(&path).unwrap());
        for ev in &events {
            journal.record(ev).unwrap();
        }
        journal.flush().unwrap();
        assert_eq!(journal.lines(), events.len() as u64);
    }
    let back = read_journal(&path).unwrap();
    assert_eq!(back, events);
    // All 27 kinds distinct.
    let mut kinds: Vec<&str> = back.iter().map(|e| e.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 27);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_event_tag_is_a_schema_violation() {
    let path = temp_path("bad_tag.jsonl");
    std::fs::write(
        &path,
        "{\"event\":\"runstart\",\"run\":\"r\",\"tuner\":\"t\",\"dim\":1,\"budget\":1,\"seed\":0}\n{\"event\":\"frobnicate\",\"x\":1}\n",
    )
    .unwrap();
    match read_journal(&path) {
        Err(JournalError::Schema { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected schema error, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_record_truncation_is_detected() {
    // A record cut mid-write (no trailing newline) must be reported as
    // truncation, not parsed or silently dropped.
    let path = temp_path("truncated.jsonl");
    std::fs::write(&path, "{\"event\":\"linesearch\",\"iter").unwrap();
    assert!(matches!(
        read_journal(&path),
        Err(JournalError::Truncated { line: 1 })
    ));

    // Even a tail that is complete JSON counts as truncated without its
    // terminating newline — Journal::record always writes one.
    std::fs::write(
        &path,
        "{\"event\":\"linesearch\",\"iteration\":1}\n{\"event\":\"linesearch\",\"iteration\":2}",
    )
    .unwrap();
    match read_journal(&path) {
        Err(JournalError::Truncated { line }) => assert_eq!(line, 2),
        other => panic!("expected truncation error, got {other:?}"),
    }

    // The error message names the line and the cause.
    let msg = read_journal(&path).unwrap_err().to_string();
    assert!(msg.contains("truncated"), "message: {msg}");
    assert!(msg.contains("line 2"), "message: {msg}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_field_is_a_schema_violation() {
    let path = temp_path("missing_field.jsonl");
    // `upload` requires accepted/rejected/duration_us.
    std::fs::write(&path, "{\"event\":\"upload\",\"accepted\":1}\n").unwrap();
    assert!(matches!(
        read_journal(&path),
        Err(JournalError::Schema { line: 1, .. })
    ));
    std::fs::remove_file(&path).ok();
}
