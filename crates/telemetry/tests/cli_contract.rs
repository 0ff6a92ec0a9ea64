//! `crowdtune-report` against `cli_contract.golden`: the stdout, exit
//! status and written files of every mode CI runs, recorded from the two
//! CLIs this binary replaced (`crowdtune-report` in `crowdtune-obs` and
//! `crowdtune-telemetry`), run over the frozen journals, trace file,
//! metrics snapshots and SLO specs in `fixtures/cli/`.
//!
//! The fixtures are the files those CLIs read, except `crowd_trace.jsonl`:
//! its old `{"dropped":n}` header and bare record lines are rewritten as
//! one `tracedropped` event and one `trace` event per record, the journal
//! format `crowd_load --trace` now writes. Every mode must print the same
//! bytes; a failing mode also compares its stderr, with the program name
//! that opens each line replaced by `<prog>`.
//!
//! Golden layout: `=== <mode> exit <code>` opens a mode, followed by
//! blocks `--- <name> <byte length>`, each holding exactly that many
//! bytes and a newline. Never regenerate the golden from this binary: it
//! pins the behaviour of the code the binary replaced.

use std::path::{Path, PathBuf};
use std::process::Command;

const OBS_KINDS: &str = "acquisition,calibration,dbquery,exclusion,fit,iteration,jitter,\
    linesearch,profile,qualityscore,quarantine,refit,restart,runend,runstart,saltelli,sobol,\
    spacereduce,tierswitch,upload,warmstart,weights";
const CHAOS_KINDS: &str = "acquisition,calibration,checkpoint,exclusion,faultinject,fit,\
    iteration,linesearch,profile,recovery,refit,restart,retry,runend,runstart,warmstart";
const QUALITY_KINDS: &str = "acquisition,calibration,faultinject,fit,iteration,linesearch,\
    profile,qualityscore,quarantine,refit,restart,runend,runstart,upload,warmstart";

/// One recorded mode: its exit code and named byte blocks (`stdout`,
/// `stderr`, `file <name>`).
struct Mode {
    name: String,
    exit: i32,
    blocks: Vec<(String, Vec<u8>)>,
}

fn golden() -> Vec<Mode> {
    let data: &[u8] = include_bytes!("cli_contract.golden");
    let mut modes: Vec<Mode> = Vec::new();
    let mut at = 0;
    while at < data.len() {
        let eol = at + data[at..].iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&data[at..eol]).unwrap();
        at = eol + 1;
        if let Some(rest) = header.strip_prefix("=== ") {
            let (name, exit) = rest.split_once(" exit ").unwrap();
            modes.push(Mode {
                name: name.to_string(),
                exit: exit.parse().unwrap(),
                blocks: Vec::new(),
            });
        } else {
            let rest = header.strip_prefix("--- ").expect("block header");
            let (name, len) = rest.rsplit_once(' ').unwrap();
            let len: usize = len.parse().unwrap();
            let bytes = data[at..at + len].to_vec();
            assert_eq!(
                data[at + len],
                b'\n',
                "block `{name}` must end in a newline"
            );
            at += len + 1;
            modes
                .last_mut()
                .unwrap()
                .blocks
                .push((name.to_string(), bytes));
        }
    }
    modes
}

/// A scratch directory holding a copy of every fixture.
fn fixture_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli_contract_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cli");
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// Runs one command line; `$OBS`, `$CHAOS` and `$QUALITY` stand for the
/// event kinds CI requires of each smoke journal.
fn run(dir: &Path, command: &str) -> std::process::Output {
    let args = command.split_whitespace().map(|arg| match arg {
        "$OBS" => OBS_KINDS,
        "$CHAOS" => CHAOS_KINDS,
        "$QUALITY" => QUALITY_KINDS,
        arg => arg,
    });
    Command::new(env!("CARGO_BIN_EXE_crowdtune-report"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run crowdtune-report")
}

/// Each recorded mode's name, then its new command line, in recording
/// order (the queries read the store the ingest wrote).
const COMMANDS: &[&str] = &[
    "report-obs report obs_journal.jsonl --snapshot obs_snapshot.json --require-kinds $OBS",
    "report-obs-profile report obs_journal.jsonl --profile",
    "report-chaos report chaos_journal.jsonl --snapshot chaos_snapshot.json --require-kinds $CHAOS",
    "report-quality report quality_journal.jsonl --quality --require-kinds $QUALITY",
    "report-missing-kind report obs_journal.jsonl --require-kinds fit,nosuchkind",
    "ingest ingest obs_journal.jsonl --app demo --machine ci --owner ci --store telemetry.json",
    "query-stage query --store telemetry.json --stage fit",
    "query query --store telemetry.json",
    "slo-overload slo slo_overload.json --metrics overload_metrics.json",
    "slo-smoke slo slo_smoke.json --trace crowd_trace.jsonl --metrics crowd_metrics.json",
    "slo-quality slo slo_quality.json --metrics quality_metrics.json",
    "attribute attribute crowd_trace.jsonl --q 0.99",
];

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn every_mode_matches_the_recorded_cli() {
    let modes = golden();
    assert_eq!(modes.len(), COMMANDS.len());
    let dir = fixture_dir("modes");
    for (mode, line) in modes.iter().zip(COMMANDS) {
        let (name, command) = line.split_once(' ').unwrap();
        assert_eq!(name, mode.name, "golden modes and commands differ");
        let out = run(&dir, command);
        assert_eq!(
            out.status.code(),
            Some(mode.exit),
            "{name}: exit status (stderr: {})",
            text(&out.stderr)
        );
        for (block, want) in &mode.blocks {
            let got = match block.as_str() {
                "stdout" => out.stdout.clone(),
                "stderr" => text(&out.stderr)
                    .replace("crowdtune-report: ", "<prog>: ")
                    .into_bytes(),
                file => std::fs::read(dir.join(file.strip_prefix("file ").unwrap()))
                    .unwrap_or_else(|e| panic!("{name}: {file}: {e}")),
            };
            assert!(
                got == *want,
                "{name}: {block} differs\n--- got\n{}\n--- want\n{}",
                text(&got),
                text(want)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_writes_a_snapshot_only_when_asked() {
    let modes = golden();
    let chaos = modes.iter().find(|m| m.name == "report-chaos").unwrap();
    let (_, stdout) = chaos.blocks.iter().find(|(b, _)| b == "stdout").unwrap();
    let want = text(stdout)
        .strip_suffix("\nsnapshot written to chaos_snapshot.json\n")
        .expect("the recorded run wrote a snapshot")
        .to_string();

    let dir = fixture_dir("nosnap");
    let before = std::fs::read_dir(&dir).unwrap().count();
    let out = run(&dir, "report chaos_journal.jsonl --require-kinds $CHAOS");
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert_eq!(text(&out.stdout), want);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        before,
        "no file may be written without --snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
