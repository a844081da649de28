//! Dense and sparse linear algebra for the `gfp` workspace.
//!
//! This crate is the numerical substrate for the SDP-based global
//! floorplanner: it provides the dense [`Mat`] type, symmetric
//! eigendecomposition ([`eigh`]) and one certified partial eigensolver
//! ([`spectral_side`]), triangular factorizations
//! ([`Cholesky`], [`Ldlt`], [`Lu`]), a compressed sparse row
//! matrix ([`sparse::CsrMat`]) with its minimum-degree sparse
//! Cholesky factor ([`SparseCholesky`]) and the scaled symmetric
//! vectorization used by the conic solver ([`svec::svec`] /
//! [`svec::smat`]).
//!
//! Everything is `f64` and deterministic: one kernel, the reflector
//! application inside [`spectral_side`], is parallelized over the
//! std-only `gfp-parallel` pool, but every floating-point accumulation
//! keeps a fixed association order, so results are bitwise identical
//! for every `GFP_THREADS` setting. [`Mat::matmul`],
//! [`spectral_accumulate`], the Householder reduction behind [`eigh`]
//! and [`spectral_side`], its bisection, the CSR products and
//! [`SparseCholesky`] run serially: the solver runs no dense product
//! (`matmul` serves tests and [`Eigh::reconstruct`]),
//! [`spectral_accumulate`] builds one `W` per convex iteration, one
//! reduction step's O(m²) work is too small to pay for pool dispatch, a
//! pool dispatch of the bisection bought nothing measurable, an ADMM
//! iteration makes one `A·x`, and a triangular sweep is a chain of
//! dependent updates.
//!
//! # Example
//!
//! ```
//! use gfp_linalg::{Mat, eigh};
//!
//! # fn main() -> Result<(), gfp_linalg::LinalgError> {
//! let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
//! let eig = eigh(&a)?;
//! assert!((eig.values[0] - 1.0).abs() < 1e-12);
//! assert!((eig.values[1] - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod chol;
mod eigen;
mod error;
mod lu;
mod mat;
mod sparse_chol;
mod tridiag;

pub mod sparse;
pub mod svec;
pub mod vec_ops;

pub use chol::{Cholesky, Ldlt};
pub use eigen::{eigh, eigvalsh, spectral_accumulate, Eigh};
pub use error::LinalgError;
pub use lu::Lu;
pub use mat::Mat;
pub use sparse_chol::SparseCholesky;
pub use tridiag::{spectral_side, SideKind, SpectralSide};

/// Starts a wall-clock sample for a kernel-level telemetry counter,
/// but only when telemetry is enabled (zero cost otherwise).
pub(crate) fn kernel_timer() -> Option<std::time::Instant> {
    if gfp_telemetry::enabled() {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Finishes a [`kernel_timer`] sample: bumps `kernel.<kind>.calls`,
/// accumulates wall time into `kernel.<kind>.micros`, and records the
/// per-call time into the `kernel.<kind>.wall_micros` histogram (so
/// reports show the distribution, not just the total). The kernels
/// are hot paths, so each kind uses cached `static` handles instead
/// of per-call registry probes.
pub(crate) fn kernel_record(kind: &'static str, timer: Option<std::time::Instant>) {
    let Some(t0) = timer else { return };
    let micros = t0.elapsed().as_micros() as u64;
    macro_rules! record {
        ($calls:literal, $total:literal, $hist:literal) => {{
            static CALLS: gfp_telemetry::CounterHandle = gfp_telemetry::CounterHandle::new($calls);
            static TOTAL: gfp_telemetry::CounterHandle = gfp_telemetry::CounterHandle::new($total);
            static WALL: gfp_telemetry::HistogramHandle =
                gfp_telemetry::HistogramHandle::new($hist);
            CALLS.add(1);
            TOTAL.add(micros);
            WALL.record(micros);
        }};
    }
    match kind {
        "matmul" => record!(
            "kernel.matmul.calls",
            "kernel.matmul.micros",
            "kernel.matmul.wall_micros"
        ),
        "eigh" => record!(
            "kernel.eigh.calls",
            "kernel.eigh.micros",
            "kernel.eigh.wall_micros"
        ),
        "spectral_accumulate" => record!(
            "kernel.spectral_accumulate.calls",
            "kernel.spectral_accumulate.micros",
            "kernel.spectral_accumulate.wall_micros"
        ),
        "spectral_side" => record!(
            "kernel.spectral_side.calls",
            "kernel.spectral_side.micros",
            "kernel.spectral_side.wall_micros"
        ),
        _ => {}
    }
}
