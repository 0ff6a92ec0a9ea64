//! The `crowdtune` command-line interface: tune the built-in simulated
//! applications, inspect a saved database, or run a sensitivity
//! analysis, from the shell.
//!
//! ```text
//! crowdtune tune --app pdgeqrf --budget 15 --seed 3 [--nodes 8] [--tla]
//! crowdtune sensitivity --app hypre --samples 400
//! crowdtune db-stats <saved-documents.json>
//! crowdtune apps
//! ```

use crowdtune::apps::{HypreAmg, Nimrod, Pdgeqrf, SparseMatrix, SuperLuDist};
use crowdtune::prelude::*;
use crowdtune::sensitivity::{analyze_space, AnalysisConfig};
use crowdtune::tuner::tune_tla_constrained;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn build_app(name: &str, nodes: u32) -> Box<dyn Application> {
    match name {
        "pdgeqrf" => Box::new(Pdgeqrf::new(
            10_000,
            10_000,
            MachineModel::cori_haswell(nodes),
        )),
        "nimrod" => Box::new(Nimrod::new(
            5,
            7,
            1,
            MachineModel::cori_haswell(nodes.max(8)),
        )),
        "superlu" => Box::new(SuperLuDist::new(
            SparseMatrix::si5h12(),
            MachineModel::cori_haswell(nodes),
        )),
        "hypre" => Box::new(HypreAmg::new(100, 100, 100, MachineModel::cori_haswell(1))),
        other => {
            eprintln!("unknown app '{other}' (try: pdgeqrf, nimrod, superlu, hypre)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    match cmd.as_str() {
        "tune" => cmd_tune(),
        "sensitivity" => cmd_sensitivity(),
        "db-stats" => cmd_db_stats(),
        "apps" => cmd_apps(),
        _ => {
            eprintln!("usage: crowdtune <tune|sensitivity|db-stats|apps> [options]");
            eprintln!("  tune        --app <name> [--budget N] [--seed S] [--nodes N] [--tla]");
            eprintln!("  sensitivity --app <name> [--samples N] [--seed S]");
            eprintln!("  db-stats    <documents.json>");
            eprintln!("  apps        (list the built-in simulated applications)");
            std::process::exit(2);
        }
    }
}

fn cmd_apps() {
    println!("built-in simulated applications:");
    println!("  pdgeqrf  ScaLAPACK distributed QR (m=n=10000)");
    println!("  nimrod   NIMROD MHD time-marching ({{mx:5,my:7,lphi:1}})");
    println!("  superlu  SuperLU_DIST sparse LU (Si5H12)");
    println!("  hypre    Hypre GMRES+BoomerAMG (100^3 Poisson)");
}

fn cmd_tune() {
    let app_name = arg("--app").unwrap_or_else(|| "pdgeqrf".into());
    let budget: usize = arg("--budget").and_then(|v| v.parse().ok()).unwrap_or(15);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(0);
    let nodes: u32 = arg("--nodes").and_then(|v| v.parse().ok()).unwrap_or(8);
    let app = build_app(&app_name, nodes);
    let space = app.tuning_space();
    println!(
        "tuning {} ({} parameters, budget {budget}, seed {seed})",
        app.name(),
        space.dim()
    );

    let mut noise = StdRng::seed_from_u64(seed ^ 0xAB0BA);
    let app_ref: &dyn Application = app.as_ref();
    let mut objective = |p: &Point| app_ref.evaluate(p, &mut noise).map_err(|e| e.to_string());
    let constraint = |p: &Point| app_ref.validate_config(p);
    let config = TuneConfig {
        budget,
        seed,
        ..Default::default()
    };

    // One driver for both: NoTLA is the strategy that ignores sources.
    let (sources, mut strategy): (Vec<SourceTask>, Box<dyn TlaStrategy>) = if flag("--tla") {
        // Bootstrap a source task from the same app family (here: the
        // same task; in real use the crowd provides different tasks).
        println!("collecting 60 source samples for transfer learning...");
        let mut ds = Dataset::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50);
        while ds.len() < 60 {
            let p = crowdtune::space::sample_uniform(&space, 1, &mut rng)
                .pop()
                .expect("one point");
            if !app_ref.validate_config(&p) {
                continue;
            }
            if let Ok(y) = app_ref.evaluate(&p, &mut rng) {
                ds.push(space.to_unit(&p).unwrap(), y);
            }
        }
        let source = SourceTask::fit("self", ds, &dims_of(&space), &mut rng).expect("source fit");
        (vec![source], Box::new(Ensemble::proposed_default()))
    } else {
        (Vec::new(), Box::new(NoTla::new()))
    };
    let result = tune_tla_constrained(
        &space,
        &mut objective,
        &sources,
        strategy.as_mut(),
        &config,
        Some(&constraint),
    );

    for (i, (rec, best)) in result.history.iter().zip(result.best_so_far()).enumerate() {
        let outcome = match &rec.result {
            Ok(y) => format!("{y:.4}"),
            Err(e) => format!("failed: {e}"),
        };
        println!(
            "  {:>3}  [{:<22}] {:<28} best {:.4}",
            i + 1,
            rec.proposed_by,
            outcome,
            best.unwrap_or(f64::NAN)
        );
    }
    match result.best() {
        Some((p, y)) => {
            println!("\nbest = {y:.4} at:");
            for (param, v) in space.params().iter().zip(p) {
                println!("  {:<18} = {v:?}", param.name);
            }
        }
        None => println!("no successful evaluation"),
    }
}

fn cmd_sensitivity() {
    let app_name = arg("--app").unwrap_or_else(|| "hypre".into());
    let n: usize = arg("--samples")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(0);
    let app = build_app(&app_name, 4);
    let space = app.tuning_space();
    println!(
        "Sobol sensitivity of the {} cost model ({} Saltelli base samples):",
        app.name(),
        n
    );
    let app_ref: &dyn Application = app.as_ref();
    let result = analyze_space(&space, &AnalysisConfig { n_samples: n, seed }, |u| {
        let mut v = u.to_vec();
        space.snap_unit(&mut v);
        let p = space.from_unit(&v).expect("dim matches");
        // Invalid or failed configurations contribute a large penalty so
        // the estimators see a finite (worst-case) surface.
        const PENALTY: f64 = 20.0; // ln-scale, ~5e8 seconds
        if !app_ref.validate_config(&p) {
            return PENALTY;
        }
        let mut rng = StdRng::seed_from_u64(0);
        app_ref
            .evaluate(&p, &mut rng)
            .map(|y| y.ln())
            .unwrap_or(PENALTY)
    });
    let names = space.names();
    println!("{:<20} {:>7} {:>7}", "parameter", "S1", "ST");
    for (name, p) in names.iter().zip(&result.result.params) {
        println!("{:<20} {:>7.3} {:>7.3}", name, p.s1, p.st);
    }
}

fn cmd_db_stats() {
    let Some(path) = std::env::args().nth(2) else {
        eprintln!("usage: crowdtune db-stats <documents.json>");
        std::process::exit(2);
    };
    let db = match HistoryDb::load_documents(std::path::Path::new(&path)) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot load '{path}': {e}");
            std::process::exit(1);
        }
    };
    println!("{path}: {} documents", db.len());
    for problem in db.problems() {
        let all = db.query_public(&QuerySpec::all_of(&problem).including_failures());
        let ok = all.iter().filter(|d| d.result.is_ok()).count();
        let owners: std::collections::BTreeSet<&str> =
            all.iter().map(|d| d.owner.as_str()).collect();
        println!(
            "  {problem}: {} samples ({} ok, {} failed) from {} user(s)",
            all.len(),
            ok,
            all.len() - ok,
            owners.len()
        );
    }
}
