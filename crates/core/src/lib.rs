//! SDP-based global floorplanning via convex iteration.
//!
//! This crate implements the primary contribution of *"Global
//! Floorplanning via Semidefinite Programming"* (DAC 2023):
//!
//! 1. Each soft module `p_i` is a circle of radius `r_i = √(s_i/4)`.
//! 2. Wirelength `Σ A_ij ‖x_i − x_j‖²` becomes `<B, G>` over the Gram
//!    matrix `G = XᵀX` ([`problem`]).
//! 3. The lift `Z = [[I, X], [Xᵀ, G]] ⪰ 0` with `rank(Z) = 2` turns
//!    the problem into an SDP with a rank constraint ([`lifted`]).
//! 4. The rank constraint is replaced by a direction-matrix penalty
//!    `α <W, Z>` and solved by **convex iteration** between two
//!    sub-problems ([`subproblems`], [`iterate`], [`supervisor`]):
//!    sub-problem 1 is an SDP in `Z` (ADMM or barrier-IPM backend from
//!    [`gfp_conic`]); sub-problem 2 has the closed-form solution
//!    `W = U Uᵀ` over the `n` smallest eigenvectors of `Z`.
//! 5. Enhancements from Section IV-B: adaptive Manhattan reweighting,
//!    hyper-edge (HPWL) net model, boundary-pin objective terms, fixed
//!    outline bounds, pre-placed-module constraints and the non-square
//!    `k_ij` distance constraints ([`enhance`]).
//!
//! # Quickstart
//!
//! Every solve runs through [`SolveSupervisor`], which drives the α
//! rounds and returns the best placement with a verdict
//! ([`SolveQuality`]):
//!
//! ```
//! use gfp_core::{ProblemOptions, SolveSupervisor, FloorplannerSettings};
//! use gfp_netlist::suite;
//!
//! # fn main() -> Result<(), gfp_core::FloorplanError> {
//! let bench = suite::gsrc_n10();
//! let problem = gfp_core::GlobalFloorplanProblem::from_netlist(
//!     &bench.netlist,
//!     &ProblemOptions::default(),
//! )?;
//! let mut settings = FloorplannerSettings::fast();
//! settings.max_iter = 3; // demo budget
//! let result = SolveSupervisor::new(settings).solve(&problem);
//! println!("verdict: {}", result.quality.as_str());
//! assert_eq!(result.floorplan.positions.len(), 10);
//! # Ok(())
//! # }
//! ```

mod error;

pub mod checkpoint;
pub mod diagnostics;
pub mod enhance;
pub mod hierarchical;
pub mod iterate;
pub mod lifted;
pub mod neighbors;
pub mod problem;
pub mod report;
pub mod subproblems;
pub mod supervisor;

pub use error::FloorplanError;
pub use iterate::{
    Backend, BestIterate, FloorplannerSettings, GlobalFloorplan, IterTrace, OuterState,
};
pub use neighbors::{SparsifyMode, SparsifySettings};
pub use problem::{GlobalFloorplanProblem, ProblemOptions};
pub use supervisor::{
    DegradeCause, DegradedResult, SolveQuality, SolveSupervisor, SupervisorSettings,
};
