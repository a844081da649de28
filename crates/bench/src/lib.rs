//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each table/figure has a dedicated binary (see `src/bin/`):
//!
//! | Paper artifact | Binary | What it regenerates |
//! |---|---|---|
//! | Table I | `table1` | method-property evidence (convexity, trivial optima, area control) |
//! | Table II | `table2` | HPWL: ours vs AR vs PP at outlines 1:1 and 1:2 |
//! | Table III | `table3` | HPWL: ours vs Parquet-style SA vs analytical |
//! | Fig. 4 | `fig4` | α–HPWL curves per enhancement stack, with legalization failures |
//! | Fig. 5(a) | `fig5a` | convergence traces per α and benchmark size |
//! | Fig. 5(b) | `fig5b` | per-iteration runtime vs n with a log-log slope fit |
//! | extras | `ablation` | backend / warm-start / direction-carrying ablations |
//!
//! Every binary accepts `--quick` (small benchmarks, small budgets)
//! and writes CSV next to its stdout table under `results/`.

pub mod budget;
pub mod runner;
pub mod table;
pub mod trace;

pub use budget::Budget;
pub use runner::{delta_percent, MethodResult, Pipeline};
pub use table::Table;
