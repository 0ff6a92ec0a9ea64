//! Quickstart: autotune ScaLAPACK's PDGEQRF (simulated) on 8 Cori
//! Haswell nodes with plain Bayesian optimization.
//!
//! Run: `cargo run --release --example quickstart`

use crowdtune::apps::Pdgeqrf;
use crowdtune::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The application instance: QR-factorize a 10000 x 10000 matrix on an
    // 8-node Haswell allocation (256 cores).
    let app = Pdgeqrf::new(10_000, 10_000, MachineModel::cori_haswell(8));
    let space = app.tuning_space();
    println!(
        "tuning {} over {} parameters: {:?}",
        app.name(),
        space.dim(),
        space.names()
    );

    // The tuner sees a black box: a configuration in, a runtime (or a
    // failure) out. The RNG models run-to-run system noise.
    let mut noise = StdRng::seed_from_u64(7);
    let mut objective = |p: &Point| app.evaluate(p, &mut noise).map_err(|e| e.to_string());

    let config = TuneConfig {
        budget: 20,
        seed: 42,
        ..Default::default()
    };
    // The process-grid constraint is structural — tell the tuner so it
    // never wastes budget on configurations ScaLAPACK would reject.
    let constraint = |p: &Point| app.validate_config(p);
    let result = tune(
        &space,
        &mut objective,
        &[],
        &mut NoTla::new(),
        &config,
        Some(&constraint),
        None,
    )
    .expect("a fresh run has no replay to diverge from");

    println!("\n eval  proposed-by           runtime       best-so-far");
    for (record, best) in result.history.iter().zip(result.best_so_far()) {
        let outcome = match &record.result {
            Ok(y) => format!("{y:>10.4}s"),
            Err(e) => format!("failed: {e}"),
        };
        println!(
            "{:>5}  {:<20} {:<18} {:>10.4}s",
            result
                .history
                .iter()
                .position(|r| std::ptr::eq(r, record))
                .unwrap()
                + 1,
            record.proposed_by,
            outcome,
            best.unwrap_or(f64::NAN),
        );
    }

    let (best_point, best_y) = result.best().expect("at least one success");
    println!(
        "\nbest configuration after {} evaluations: {best_y:.4}s",
        config.budget
    );
    for (param, value) in space.params().iter().zip(best_point) {
        println!("  {:<14} = {value:?}", param.name);
    }
}
