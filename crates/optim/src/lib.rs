//! Nonlinear optimization for the `gfp` workspace.
//!
//! The AR, PP and analytical floorplanning baselines minimize smooth
//! (but partly non-convex) objectives; the paper solves them with a
//! BFGS implementation from PyTorch-Minimize. This crate provides the
//! equivalent substrate:
//!
//! * [`Lbfgs`] — limited-memory BFGS with a strong-Wolfe line search,
//!   the workhorse.
//! * [`check_gradient`] — finite-difference validation used throughout
//!   the baseline tests.
//!
//! # Example
//!
//! ```
//! use gfp_optim::{Lbfgs, LbfgsSettings, Objective};
//!
//! struct Quadratic;
//! impl Objective for Quadratic {
//!     fn dim(&self) -> usize { 2 }
//!     fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
//!         grad[0] = 2.0 * (x[0] - 3.0);
//!         grad[1] = 2.0 * (x[1] + 1.0);
//!         (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2)
//!     }
//! }
//!
//! let result = Lbfgs::new(LbfgsSettings::default()).minimize(&Quadratic, &[0.0, 0.0]);
//! assert!((result.x[0] - 3.0).abs() < 1e-6);
//! ```

mod gradcheck;
mod lbfgs;
mod objective;

pub use gradcheck::{check_gradient, GradCheckReport};
pub use lbfgs::{Lbfgs, LbfgsSettings, OptimizeResult, StopReason};
pub use objective::Objective;
