//! A tour of the shared crowd-tuning database: registration and API
//! keys, automatic environment capture, SQL-like queries, access
//! control, and JSON persistence.
//!
//! Run: `cargo run --release --example database_tour`. It leaves the
//! saved documents in `results/database_tour.json`, which
//! `crowdtune db-stats results/database_tour.json` summarizes.

use crowdtune::db::{
    parse_query, parse_slurm_env, parse_spack_spec, Access, EvalOutcome, FunctionEvaluation,
    HistoryDb, QuerySpec,
};
use crowdtune::prelude::MachineModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let db = HistoryDb::new();
    let mut rng = StdRng::seed_from_u64(2026);

    // --- Users and keys ----------------------------------------------------
    let alice = db
        .register_user("alice", "alice@lab.gov", true, &mut rng)
        .unwrap();
    println!("alice's API key: {alice} (20 random characters)");
    // Keypair mode: the server stores only a fingerprint of the secret.
    db.users().register("bob", "bob@univ.edu", false).unwrap();
    db.users()
        .register_keypair("bob", "bob-private-secret")
        .unwrap();
    println!(
        "bob authenticated via keypair: {:?}",
        db.users().authenticate("bob-private-secret")
    );
    println!(
        "public user directory (bob opted out): {:?}",
        db.users().public_users()
    );

    // --- Automatic environment capture --------------------------------------
    let machine = MachineModel::cori_haswell(8);
    let machine_cfg = parse_slurm_env(&machine.slurm_env()).unwrap();
    let software = parse_spack_spec("SuperLU_DIST@7.2.0%GCC@9.1.0+openmp~cuda").unwrap();
    println!("\nparsed Slurm environment: {machine_cfg:?}");
    println!("parsed Spack spec:        {software:?}");

    // --- Uploads with mixed accessibility -----------------------------------
    for (m, runtime, access) in [
        (1000i64, 1.25, Access::Public),
        (2000, 2.5, Access::Public),
        (4000, 5.1, Access::Private),
        (
            8000,
            10.2,
            Access::Shared {
                with: vec!["bob".into()],
            },
        ),
    ] {
        let eval = FunctionEvaluation::new("PDGEQRF", "alice")
            .task("m", m)
            .task("n", m)
            .param("mb", 4i64)
            .param("nb", 8i64)
            .outcome(EvalOutcome::single("runtime", runtime))
            .on_machine(machine_cfg.clone())
            .with_software(software.clone())
            .with_access(access);
        db.submit(&alice, eval).unwrap();
    }
    // One failed run is recorded too.
    db.submit(
        &alice,
        FunctionEvaluation::new("PDGEQRF", "alice")
            .task("m", 16000i64)
            .task("n", 16000i64)
            .outcome(EvalOutcome::Failed {
                reason: "out of memory".into(),
            }),
    )
    .unwrap();

    // --- SQL-like queries ----------------------------------------------------
    let q = "task.m BETWEEN 1000 AND 5000 AND output.runtime < 3.0 AND NOT status = 'failed'";
    let filter = parse_query(q).unwrap();
    let spec = QuerySpec::all_of("PDGEQRF").with_filter(filter);
    println!("\nquery: {q}");
    println!("  anonymous sees {} rows", db.query_public(&spec).len());
    println!(
        "  alice sees     {} rows",
        db.query(&alice, &spec).unwrap().len()
    );
    let all = QuerySpec::all_of("PDGEQRF").including_failures();
    println!(
        "everything incl. failures, as alice: {} rows",
        db.query(&alice, &all).unwrap().len()
    );
    println!(
        "everything, as bob (shared row visible):  {} rows",
        db.query("bob-private-secret", &QuerySpec::all_of("PDGEQRF"))
            .unwrap()
            .len()
    );

    // --- Persistence ----------------------------------------------------------
    std::fs::create_dir_all("results").unwrap();
    let path = std::path::Path::new("results/database_tour.json");
    db.save_documents(path).unwrap();
    let loaded = HistoryDb::load_documents(path).unwrap();
    println!(
        "\nsaved and re-loaded the document store: {} documents in {}",
        loaded.len(),
        path.display()
    );
}
