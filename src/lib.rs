//! # gfp — Global Floorplanning via Semidefinite Programming
//!
//! Umbrella crate for the DAC 2023 reproduction. Re-exports the
//! workspace crates under stable names:
//!
//! * [`core`] — the SDP convex-iteration floorplanner (the paper's
//!   contribution), including the [`hierarchical`](core::hierarchical)
//!   scalability extension.
//! * [`conic`] — the first-party ADMM + barrier-IPM conic solver.
//! * [`linalg`] — dense/sparse linear algebra (eigendecomposition,
//!   factorizations, CG, `svec`).
//! * [`optim`] — L-BFGS and gradient checking.
//! * [`netlist`] — circuit model, HPWL, bookshelf I/O, the synthetic
//!   benchmark suite and SVG rendering.
//! * [`baselines`] — AR, PP, QP, sequence-pair annealing and the
//!   analytical floorplanner.
//! * [`legalize`] — constraint graphs and SOCP shape optimization.
//! * [`fault`] — deterministic fault injection for robustness testing;
//!   the hooks compile to no-ops unless the `fault-inject` feature is
//!   enabled.
//!
//! For solves that must never panic or return an error — batch runs,
//! servers — wrap the floorplanner in a
//! [`SolveSupervisor`](core::SolveSupervisor): it adds budgets,
//! automatic ADMM↔IPM backend fallback and α backtracking, and always
//! returns the best-known placement together with a machine-readable
//! quality verdict.
//!
//! # End-to-end example
//!
//! ```
//! use gfp::core::{GlobalFloorplanProblem, ProblemOptions, FloorplannerSettings, SdpFloorplanner};
//! use gfp::netlist::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = suite::gsrc_n10();
//! let problem = GlobalFloorplanProblem::from_netlist(
//!     &bench.netlist,
//!     &ProblemOptions::default(),
//! )?;
//! let mut settings = FloorplannerSettings::fast();
//! settings.max_iter = 3; // doc-test budget
//! let plan = SdpFloorplanner::new(settings).solve(&problem)?;
//! assert_eq!(plan.positions.len(), 10);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for complete programs (quickstart,
//! pre-placed modules, baseline shootout, bookshelf I/O, hierarchical
//! flow) and `crates/bench` for the binaries that regenerate every
//! table and figure of the paper.

pub mod trace_analyzer;

pub use gfp_baselines as baselines;
pub use gfp_conic as conic;
pub use gfp_core as core;
pub use gfp_fault as fault;
pub use gfp_legalize as legalize;
pub use gfp_linalg as linalg;
pub use gfp_netlist as netlist;
pub use gfp_optim as optim;
