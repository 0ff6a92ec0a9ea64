//! # crowdtune-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! GPTuneCrowd paper (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded results):
//!
//! | target | paper artifact |
//! |---|---|
//! | `--bin fig3` | Fig. 3 (a–f): TLA algorithm comparison on demo/Branin |
//! | `--bin fig4` | Fig. 4 (a–b): PDGEQRF transfer learning |
//! | `--bin fig5` | Fig. 5 (a–c): NIMROD transfer learning |
//! | `--bin table4` | Table IV: SuperLU_DIST Sobol sensitivity |
//! | `--bin fig6` | Fig. 6: SuperLU_DIST reduced-space tuning |
//! | `--bin table5` | Table V: Hypre Sobol sensitivity |
//! | `--bin fig7` | Fig. 7: Hypre reduced-space tuning |
//! | `--bin tables` | Tables I–III (static descriptions) |
//!
//! `bench_gate` is the performance regression gate over crowdbench's
//! crowd sessions (see [`gate`]); `bench_hotpath` times the sparse
//! surrogate tier, the one hot path those sessions do not reach.

pub mod gate;
pub mod runner;
pub mod sources;

pub use runner::{
    report_comparison, run_comparison, ComparisonJson, Curve, CurveJson, Scenario, TunerSpec,
};
pub use sources::{source_task_from_app, source_task_from_db, upload_source_data};

/// Parse a `--flag value` style argument from `std::env::args`.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when `--quick` was passed (smaller seeds/budgets for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}
