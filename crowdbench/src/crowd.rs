//! Pieces shared by the two crowd-session workloads: seeded crowd data,
//! meta-description fragments, the suggest-gap clock, and the session
//! loop for the timing and traced runs.

use crate::report::Report;
use crate::stats::{
    geomean, interquartile_mean, median, percentile, reference_s, reference_scales, REFERENCE_S,
};
use crate::trace::{self, Span};
use crowdtune_apps::Application;
use crowdtune_core::data::value_to_scalar;
use crowdtune_core::EvalRecord;
use crowdtune_db::{parse_spack_spec, EvalOutcome, FunctionEvaluation, MachineConfig, ParamMap};
use crowdtune_space::{sample_uniform, Domain, Point, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The software stack every simulated contributor reports.
pub const SOFTWARE_SPEC: &str = "scalapack@2.1.0%gcc@8.3.0";

/// Seed of the crowd data in the session workloads' repositories.
///
/// The crowd data is one fixed draw, like the single collected data set
/// behind each of the paper's figures: how fast an LCM or GP fit
/// converges depends on the data set, and a fresh draw per run seed
/// moved session throughput by a factor of two between seeds. The run
/// seed drives each session's tuner, measurement noise and analysis.
pub const CROWD_SEED: u64 = 0x5EED_C20D;

/// The tuner seed of session `index` of a run with seed `seed`.
pub fn session_seed(seed: u64, index: usize) -> u64 {
    mix(seed, 1_000 + index as u64)
}

/// Derive an independent stream seed from the run seed (SplitMix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The meta-description `parameter_space` entries declaring `space`.
pub fn param_descs(space: &Space) -> String {
    let descs: Vec<String> = space
        .params()
        .iter()
        .map(|p| match &p.domain {
            Domain::Integer { lo, hi } => format!(
                r#"{{"name": "{}", "type": "integer", "lower_bound": {lo}, "upper_bound": {hi}}}"#,
                p.name
            ),
            Domain::Real { lo, hi } => format!(
                r#"{{"name": "{}", "type": "real", "lower_bound": {lo:?}, "upper_bound": {hi:?}}}"#,
                p.name
            ),
            Domain::Categorical { categories } => {
                let cats: Vec<String> = categories.iter().map(|c| format!("\"{c}\"")).collect();
                format!(
                    r#"{{"name": "{}", "type": "categorical", "categories": [{}]}}"#,
                    p.name,
                    cats.join(", ")
                )
            }
        })
        .collect();
    format!("[{}]", descs.join(", "))
}

/// A crowd record of `app` evaluated at `point`.
fn record(
    app: &dyn Application,
    task: &ParamMap,
    space: &Space,
    point: &Point,
    outcome: EvalOutcome,
    machine: &MachineConfig,
) -> FunctionEvaluation {
    let mut eval = FunctionEvaluation::new(app.name(), "crowd")
        .outcome(outcome)
        .on_machine(machine.clone())
        .with_software(parse_spack_spec(SOFTWARE_SPEC).expect("constant spec parses"));
    eval.task_parameters = task.clone();
    for (param, value) in space.params().iter().zip(point) {
        eval.tuning_parameters
            .insert(param.name.clone(), value_to_scalar(value, &param.domain));
    }
    eval
}

/// `n` crowd records of `app` at uniformly random valid configurations,
/// every outcome kept (out-of-memory runs are crowd data too).
pub fn crowd_samples(
    app: &dyn Application,
    n: usize,
    seed: u64,
    machine: &MachineConfig,
) -> Vec<FunctionEvaluation> {
    let space = app.tuning_space();
    let task = app.task_parameters();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let point = sample_uniform(&space, 1, &mut rng)
            .pop()
            .expect("one point");
        if !app.validate_config(&point) {
            continue;
        }
        let outcome = match app.evaluate(&point, &mut rng) {
            Ok(y) => EvalOutcome::single(app.output_name(), y),
            Err(e) => EvalOutcome::Failed {
                reason: e.to_string(),
            },
        };
        out.push(record(app, &task, &space, &point, outcome, machine));
    }
    out
}

/// A tuning-history entry as a crowd upload.
pub fn upload_of(
    app: &dyn Application,
    space: &Space,
    rec: &EvalRecord,
    machine: &MachineConfig,
) -> FunctionEvaluation {
    let outcome = match &rec.result {
        Ok(y) => EvalOutcome::single(app.output_name(), *y),
        Err(reason) => EvalOutcome::Failed {
            reason: reason.clone(),
        },
    };
    record(
        app,
        &app.task_parameters(),
        space,
        &rec.point,
        outcome,
        machine,
    )
}

/// Times the user's idle gaps: from one evaluation returning to the
/// next configuration being handed to the objective. Wrap every
/// objective call in [`GapClock::eval`].
#[derive(Default)]
pub struct GapClock {
    returned: Option<Instant>,
    /// Gaps in milliseconds, in order.
    pub gaps_ms: Vec<f64>,
}

impl GapClock {
    /// Run one objective evaluation, recording the gap before it (and an
    /// `apps.eval` span on a tracing thread).
    pub fn eval(&mut self, f: impl FnOnce() -> Result<f64, String>) -> Result<f64, String> {
        if let Some(t) = self.returned {
            self.gaps_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let out = {
            let mut span = trace::span("apps.eval");
            let out = f();
            if out.is_err() {
                span.fail();
            }
            out
        };
        self.returned = Some(Instant::now());
        out
    }
}

/// What one crowd session produced.
#[derive(Debug, Default)]
pub struct SessionOutcome {
    /// Best objective within the budget (`None`: every evaluation failed).
    pub best: Option<f64>,
    /// Suggest gaps in milliseconds.
    pub gaps_ms: Vec<f64>,
    /// Evaluated unit points and results, to compare runs bitwise.
    pub history: Vec<(Vec<f64>, Result<f64, String>)>,
    /// Db calls made, and how many failed.
    pub db_calls: u64,
    /// Failed or rejected db calls.
    pub db_failed: u64,
    /// Records the session's db queries returned.
    pub returned: u64,
    /// Crowd records the session's models were built from.
    pub records: u64,
    /// Surrogate evaluations made by the sensitivity analysis.
    pub model_evals: u64,
    /// Failed correctness conditions.
    pub problems: Vec<String>,
}

impl SessionOutcome {
    /// Fold a tuning history into the outcome; `to_runtime` maps the
    /// tuner's objective back to application runtime.
    pub fn absorb_history(&mut self, history: &[EvalRecord], to_runtime: impl Fn(f64) -> f64) {
        self.history = history
            .iter()
            .map(|r| (r.unit.clone(), r.result.clone()))
            .collect();
        self.best = history
            .iter()
            .filter_map(|r| r.result.as_ref().ok().copied())
            .map(to_runtime)
            .min_by(f64::total_cmp);
    }

    /// Count one db call.
    pub fn db_call<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.db_calls += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.db_failed += 1;
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }

    fn failed(&self) -> bool {
        self.best.is_none() || !self.problems.is_empty()
    }
}

/// How many sessions a run makes: whole rotations of `rotation`
/// sessions, at least `min_sessions`, until `seconds` have passed.
pub struct SessionPlan {
    /// Sessions per rotation of the lineup.
    pub rotation: usize,
    /// Sessions every timing run makes; `tuned_objective` is taken over
    /// exactly these, so it is a pure function of the seed.
    pub min_sessions: usize,
    /// Evaluations a session uploads to the repository.
    pub uploads_per_session: usize,
}

/// Run `f` and return its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run sessions with tracing off and report the end-to-end metrics.
///
/// Every rotation runs on a repository of its own from `set_up`, which
/// returns it with its set-up time, so the repository and `peak_rss_mb`
/// do not grow with the number of rotations a fast machine makes. Where
/// sessions upload, `stored` must count a rotation's uploads in its
/// repository after the rotation.
///
/// The host reference runs before every rotation and after the last, and
/// every time is reported on the calibration machine's clock: scaled by
/// the references on either side of the rotation it was measured in (see
/// [`reference_scales`]). A shared host that runs at a different speed
/// for seconds or minutes then moves the references with the program's
/// own work and drops out of the metrics; the unscaled values are
/// printed as well.
pub fn timing_run<S>(
    plan: &SessionPlan,
    seconds: f64,
    report: &mut Report,
    set_up: &mut dyn FnMut() -> (S, f64),
    stored: Option<&dyn Fn(&S) -> usize>,
    session: &mut dyn FnMut(&S, usize) -> SessionOutcome,
) {
    let start = Instant::now();
    let (mut outcomes, mut rotation_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut references, mut unstored) = (Vec::new(), 0);
    while outcomes.len() < plan.min_sessions || start.elapsed().as_secs_f64() < seconds {
        references.push(reference_s());
        let (repo, s) = set_up();
        setup_s.push(s);
        let rotation = Instant::now();
        for _ in 0..plan.rotation {
            let mut outcome = session(&repo, outcomes.len());
            // Only the traced run compares histories; dropping them keeps
            // memory flat however many sessions a fast program fits in.
            outcome.history = Vec::new();
            outcomes.push(outcome);
        }
        rotation_s.push(rotation.elapsed().as_secs_f64());
        if stored.is_some_and(|count| count(&repo) != plan.rotation * plan.uploads_per_session) {
            unstored += 1;
        }
    }
    references.push(reference_s());
    if stored.is_some() {
        report.check(
            format!(
                "every rotation's {} evaluations were uploaded and stored ({unstored} of {} rotations short)",
                plan.rotation * plan.uploads_per_session,
                rotation_s.len()
            ),
            unstored == 0,
        );
    }
    let elapsed = start.elapsed().as_secs_f64();
    let scales = reference_scales(&references);
    let scaled =
        |times: &[f64]| -> Vec<f64> { times.iter().zip(&scales).map(|(t, k)| t * k).collect() };
    let gaps: Vec<f64> = outcomes.iter().flat_map(|o| o.gaps_ms.clone()).collect();
    let scaled_gaps: Vec<f64> = outcomes
        .chunks(plan.rotation)
        .zip(&scales)
        .flat_map(|(rotation, &k)| {
            rotation
                .iter()
                .flat_map(move |o| o.gaps_ms.iter().map(move |g| g * k))
        })
        .collect();
    let bests: Vec<f64> = outcomes[..plan.min_sessions]
        .iter()
        .filter_map(|o| o.best)
        .collect();
    println!(
        "sessions        {} in {elapsed:.2} s ({} rotations, each on a fresh repository); suggest gaps n={}",
        outcomes.len(),
        rotation_s.len(),
        gaps.len()
    );
    println!(
        "unscaled        setup_s {:.6} ops_per_s {:.6} wait_ms_p50 {:.6} wait_ms_p90 {:.6}; host reference median {:.3} ms (calibration {:.3} ms)",
        median(&setup_s),
        plan.rotation as f64 / interquartile_mean(&rotation_s),
        percentile(&gaps, 0.5).unwrap_or(f64::NAN),
        percentile(&gaps, 0.9).unwrap_or(f64::NAN),
        median(&references) * 1e3,
        REFERENCE_S * 1e3
    );
    report.metric("setup_s", median(&scaled(&setup_s)), "s");
    // Throughput over the middle half of the rotations: session times
    // vary with the session seed, which the mean of many rotations
    // evens out, and a burst of load from outside the process stretches
    // a few rotations, which the trim drops.
    report.metric(
        "ops_per_s",
        plan.rotation as f64 / interquartile_mean(&scaled(&rotation_s)),
        "1/s",
    );
    report.metric(
        "wait_ms_p50",
        percentile(&scaled_gaps, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "wait_ms_p90",
        percentile(&scaled_gaps, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "tuned_objective",
        if bests.is_empty() {
            f64::NAN
        } else {
            geomean(&bests)
        },
        "s",
    );
    tally(&outcomes, report);
}

/// The traced run: every rotation of sessions once with tracing off and
/// then once on, interleaved so that a change in the machine's speed hits
/// both alike. Checks that tracing changed no result, and returns the
/// spans, the traced outcomes and the tracing overhead in percent of wall
/// time (the median over rotations of traced against untraced time).
pub fn traced_run(
    plan: &SessionPlan,
    seconds: f64,
    report: &mut Report,
    session: &mut dyn FnMut(usize, bool) -> SessionOutcome,
) -> (Vec<Span>, Vec<SessionOutcome>, f64) {
    let start = Instant::now();
    let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ratios, mut traced_s) = (Vec::new(), 0.0);
    while plain.len() < plan.rotation || start.elapsed().as_secs_f64() < seconds {
        let first = plain.len();
        let rotation = Instant::now();
        for i in first..first + plan.rotation {
            plain.push(session(i, false));
        }
        let plain_s = rotation.elapsed().as_secs_f64();
        trace::start();
        let rotation = Instant::now();
        for i in first..first + plan.rotation {
            trace::set_session(i as u64);
            let _root = trace::span("session");
            traced.push(session(i, true));
        }
        let rotation_s = rotation.elapsed().as_secs_f64();
        spans.extend(trace::finish());
        ratios.push(rotation_s / plain_s);
        traced_s += rotation_s;
    }
    let same = plain
        .iter()
        .zip(&traced)
        .all(|(a, b)| a.history == b.history && a.best == b.best);
    report.check(
        format!(
            "traced sessions reproduce the untraced ones exactly ({} sessions)",
            plain.len()
        ),
        same,
    );
    let overhead = (median(&ratios) - 1.0) * 100.0;
    println!(
        "sessions        {} untraced and {} traced in {} interleaved rotations, traced {traced_s:.2} s (median overhead {overhead:+.2}%)",
        plain.len(),
        traced.len(),
        ratios.len()
    );
    // Layer self times must account for each session's wall time: a
    // session root's own (unattributed) time is the benchmark's glue and
    // must be a small share of it. The session spans in turn must cover
    // the traced rotations as timed by a clock outside the spans.
    let sessions = trace::reconcile(&spans);
    let unattributed = sessions
        .iter()
        .map(|r| r.root_self_ns as f64 / r.wall_ns as f64)
        .fold(0.0, f64::max);
    let covered = sessions.iter().map(|r| r.wall_ns).sum::<u64>() as f64 / 1e9 / traced_s;
    report.check(
        format!(
            "layer self times account for session wall time (largest unattributed share {:.3}%)",
            unattributed * 100.0
        ),
        unattributed < 0.01,
    );
    report.check(
        format!(
            "session spans cover the traced rotations' wall time ({:.3}% of {traced_s:.2} s)",
            covered * 100.0
        ),
        sessions.len() == traced.len() && covered > 0.99 && covered <= 1.0,
    );
    tally(&plain, report);
    tally(&traced, report);
    (spans, traced, overhead)
}

fn tally(outcomes: &[SessionOutcome], report: &mut Report) {
    for (i, o) in outcomes.iter().enumerate() {
        for p in &o.problems {
            report.check(format!("session {i}: {p}"), false);
        }
        report.attempted += 1 + o.db_calls;
        report.failed += u64::from(o.failed()) + o.db_failed;
    }
}
