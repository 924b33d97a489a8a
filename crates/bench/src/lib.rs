//! Benchmark harnesses reproducing every table and figure of the LITE
//! paper's evaluation.
//!
//! Each `figs::figNN` module regenerates one figure: it builds the
//! workload the paper describes, runs it over the simulated substrate,
//! and returns the same rows/series the paper plots. The `reproduce`
//! binary runs everything and prints a report; per-figure binaries
//! (`fig04`, `fig06`, ...) run one each. Pass `--full` for paper-scale
//! parameters (default is a quick mode suitable for CI).
//!
//! Absolute numbers come from a calibrated cost model (see
//! [`rnic::CostModel`] and DESIGN.md §2); the claims under test are the
//! *shapes*: who wins, by what factor, and where the cliffs fall.

pub mod env;
pub mod facebook;
pub mod figs;
pub mod skew;
pub mod table;

pub use env::{LiteEnv, VerbsEnv};
pub use skew::SkewGate;
pub use table::{print_table, Row};

/// Quick-vs-full switch parsed from CLI args.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The path after `--json` in the CLI args, if any: where a bench
/// writes its JSON report.
pub fn json_path() -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != "--json");
    args.next()?;
    args.next()
}
