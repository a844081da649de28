//! Floorplan legalization: from module centers to non-overlapping
//! rectangles inside a fixed outline.
//!
//! Mirrors the paper's evaluation pipeline (Section V, following \[2\]
//! and TOFU \[19\]):
//!
//! 1. [`constraint_graph`] — from the global floorplan, every module
//!    pair is assigned a horizontal or a vertical ordering, whichever
//!    direction has the larger normalized separation.
//! 2. [`shape`] — widths, heights and positions are optimized as one
//!    **second-order cone program**: the soft-module area constraint
//!    `w·h ≥ s` is the rotated cone `‖(2√s, w − h)‖ ≤ w + h`, net
//!    HPWL is linearized with per-net bound variables, and the fixed
//!    outline is a set of box constraints. Solved by the workspace's
//!    own ADMM conic solver.
//! 3. The legalized HPWL (module centers + pads) is the number every
//!    table of the paper reports. When the constraint graph forces an
//!    overfull row/column the SOCP is infeasible and legalization
//!    **fails** — exactly the "missing points" of Fig. 4.
//!
//! # Example
//!
//! ```no_run
//! use gfp_legalize::{legalize, LegalizeSettings};
//! use gfp_core::{GlobalFloorplanProblem, ProblemOptions};
//! use gfp_netlist::suite;
//!
//! # fn main() -> Result<(), gfp_legalize::LegalizeError> {
//! let bench = suite::gsrc_n10();
//! let (netlist, outline) = bench.with_pads_on_outline(1.0);
//! let opts = ProblemOptions { outline: Some(outline), aspect_limit: 3.0, ..Default::default() };
//! let problem = GlobalFloorplanProblem::from_netlist(&netlist, &opts)?;
//! let centers = problem.spread_positions();
//! let legal = legalize(&netlist, &problem, &outline, &centers, &LegalizeSettings::default())?;
//! println!("legalized HPWL: {}", legal.hpwl);
//! # Ok(())
//! # }
//! ```

mod error;

pub mod constraint_graph;
pub mod shape;

pub use constraint_graph::{ConstraintGraph, Relation};
pub use error::LegalizeError;
pub use shape::{legalize, LegalFloorplan, LegalizeSettings};
