//! A first-party conic solver.
//!
//! The DAC 2023 SDP floorplanning paper solves its sub-problems with
//! MOSEK; no mature pure-Rust SDP solver exists, so this crate builds
//! the substrate from scratch. It solves cone programs in the standard
//! form
//!
//! ```text
//! minimize    cᵀx
//! subject to  A x + s = b,   s ∈ K
//! ```
//!
//! where `K` is a Cartesian product of [`Cone`]s: the zero cone
//! (equalities), the nonnegative orthant (inequalities), second-order
//! cones (for the legalization SOCP) and PSD cones in scaled-`svec`
//! form (for the floorplanning SDP).
//!
//! Two backends are provided:
//!
//! * [`AdmmSolver`] — an SCS-style operator-splitting method whose
//!   linear solves reuse one sparse Cholesky factor per constraint
//!   matrix, with over-relaxation, adaptive penalty and Ruiz
//!   equilibration. Scales to the n = 200 instances.
//! * [`ipm::BarrierSdp`] — a dense log-det barrier interior-point
//!   method for small SDPs. Much more accurate per iteration; used for
//!   cross-checking and as an ablation backend.
//!
//! # Example: a tiny SDP with a known answer
//!
//! Minimize `2·Z₀₁` over correlation matrices (`Z ⪰ 0`, `diag Z = 1`);
//! the optimum is `−2` at `Z₀₁ = −1`.
//!
//! ```
//! use gfp_conic::{Cone, ConeProgramBuilder, AdmmSolver, AdmmSettings};
//! use gfp_linalg::svec::svec_index;
//!
//! # fn main() -> Result<(), gfp_conic::ConicError> {
//! let n = 2; // matrix dimension; x = svec(Z) has 3 entries
//! let mut builder = ConeProgramBuilder::new(3);
//! // objective <C, Z> with C = [[0,1],[1,0]] => sqrt(2) * x[idx(1,0)]
//! builder.set_objective_coeff(svec_index(n, 1, 0), std::f64::consts::SQRT_2);
//! builder.add_eq(&[(svec_index(n, 0, 0), 1.0)], 1.0);
//! builder.add_eq(&[(svec_index(n, 1, 1), 1.0)], 1.0);
//! builder.add_psd_vars(&(0..3).collect::<Vec<_>>());
//! let program = builder.build()?;
//! let sol = AdmmSolver::new(AdmmSettings::default()).solve(&program)?;
//! assert!((sol.objective + 2.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

mod admm;
mod anderson;
mod cone;
mod error;
mod program;
mod scaling;

pub mod ipm;

pub use admm::{
    AdmmCacheSnapshot, AdmmReuse, AdmmReuseSnapshot, AdmmSettings, AdmmSolver, AdmmWarmSnapshot,
    IterationStats,
};
pub use cone::Cone;
pub use error::ConicError;
pub use program::{ConeProgram, ConeProgramBuilder};
pub use solution::{SolveInfo, SolveStatus, Solution};

mod solution;
