//! The two convex sub-problems of the iteration (Eq. 18 and 19).

use std::time::Instant;

use gfp_conic::ipm::BarrierSdp;
use gfp_conic::{AdmmReuse, AdmmSettings, AdmmSolver, SolveStatus};
use gfp_linalg::{eigh, Mat};
use gfp_telemetry as telemetry;

use crate::iterate::Backend;
use crate::lifted::{
    build_admm_program, build_ipm_problem, AssemblyWorkspace, Lift, LiftedObjective,
};
use crate::{FloorplanError, GlobalFloorplanProblem};

/// Result of one sub-problem-1 solve.
#[derive(Debug, Clone)]
pub struct Sp1Result {
    /// Optimal `svec(Z)`.
    pub z: Vec<f64>,
    /// Objective value `<B̃ + αW, Z>` (without the pad constant).
    pub objective: f64,
    /// Backend status (always `Optimal` for the IPM).
    pub status: SolveStatus,
    /// Wall-clock seconds.
    pub solve_seconds: f64,
    /// Backend iterations (ADMM iterations; Newton steps for the IPM).
    pub iterations: usize,
    /// Relative primal residual (`NaN` for the IPM, which has no
    /// comparable residual — its certificate is the barrier gap).
    pub primal_residual: f64,
    /// Relative dual residual (`NaN` for the IPM).
    pub dual_residual: f64,
}

/// Solves sub-problem 1 (Eq. 18): minimize `<B̃ + αW, Z>` subject to
/// the distance, PPM, outline and PSD constraints.
///
/// * `warm` supplies a previous `svec(Z)` for the ADMM backend (ignored
///   by the IPM, which instead needs a strictly feasible start derived
///   from [`GlobalFloorplanProblem::spread_positions`]).
/// * `reuse` carries ADMM work across solves. The constraint matrix of
///   Eq. 18 depends only on the problem and the pair plan (never on
///   `α` or `W`, which enter through the objective), so across the
///   convex iteration the ADMM backend can reuse its Ruiz
///   equilibration and the x-update's sparse Cholesky factor, and
///   warm-start the duals from the previous solve — see [`AdmmReuse`].
///   The IPM ignores it; `None` solves from scratch, as the cold
///   solves `fig5b` times and the unit tests below run.
/// * `pairs` is the distance-constraint plan (see [`crate::neighbors`];
///   [`crate::neighbors::all_pairs`] for the full problem) and
///   `workspace` the reusable assembly buffers, as in
///   [`build_admm_program`].
///
/// Program assembly wall time lands in the `kernel.assembly` micros
/// histogram when telemetry is on.
///
/// # Errors
///
/// Backend and encoding failures; see [`FloorplanError`].
#[allow(clippy::too_many_arguments)]
pub fn solve_subproblem1(
    problem: &GlobalFloorplanProblem,
    a_eff: &Mat,
    objective: &LiftedObjective,
    backend: &Backend,
    warm: Option<&[f64]>,
    reuse: Option<&mut AdmmReuse>,
    pairs: &[(usize, usize)],
    workspace: &mut AssemblyWorkspace,
) -> Result<Sp1Result, FloorplanError> {
    static ASSEMBLY_WALL: telemetry::HistogramHandle =
        telemetry::HistogramHandle::new("kernel.assembly");
    let t0 = Instant::now();
    match backend {
        Backend::Admm(settings) => {
            let ta = Instant::now();
            let program = build_admm_program(problem, a_eff, objective, pairs, workspace)?;
            if telemetry::enabled() {
                ASSEMBLY_WALL.record(ta.elapsed().as_micros() as u64);
            }
            let solver = AdmmSolver::new(settings.clone());
            let (sol, _trace) = match reuse {
                Some(r) => solver.solve_with_reuse(&program, warm, r)?,
                None => solver.solve_with_trace(&program, warm)?,
            };
            Ok(Sp1Result {
                objective: sol.objective,
                status: sol.status,
                iterations: sol.info.iterations,
                primal_residual: sol.info.primal_residual,
                dual_residual: sol.info.dual_residual,
                z: sol.x,
                solve_seconds: t0.elapsed().as_secs_f64(),
            })
        }
        Backend::Ipm(settings) => {
            let ta = Instant::now();
            let sdp = build_ipm_problem(problem, a_eff, objective, pairs)?;
            if telemetry::enabled() {
                ASSEMBLY_WALL.record(ta.elapsed().as_micros() as u64);
            }
            let lift = Lift::new(problem.n);
            let x0 = lift.embed_positions(&problem.spread_positions(), 1.0);
            let sol = BarrierSdp::new(settings.clone()).solve_from(&sdp, &x0)?;
            Ok(Sp1Result {
                objective: sol.objective,
                status: SolveStatus::Optimal,
                iterations: sol.newton_iterations,
                primal_residual: f64::NAN,
                dual_residual: f64::NAN,
                z: sol.x,
                solve_seconds: t0.elapsed().as_secs_f64(),
            })
        }
    }
}

/// Solves sub-problem 2 (Eq. 19) in closed form: the minimizer of
/// `<W, Z>` over `0 ⪯ W ⪯ I`, `trace W = n` is `W = U Uᵀ` with `U`
/// spanning the eigenvectors of the `n` smallest eigenvalues of `Z`.
///
/// Returns `(W, <W, Z>)`; the inner product is the **rank gap** — it
/// vanishes exactly when `rank(Z) ≤ 2`.
///
/// One dense [`eigh`] of `Z` per call, at every size: one per convex
/// iteration, next to a sub-problem-1 solve whose every ADMM
/// iteration projects a PSD block of the same order.
///
/// # Errors
///
/// Propagates eigendecomposition failures.
///
/// # Panics
///
/// Panics if `z_mat` is not `(n+2) x (n+2)`.
pub fn solve_subproblem2(z_mat: &Mat, n: usize) -> Result<(Mat, f64), FloorplanError> {
    assert_eq!(z_mat.nrows(), n + 2, "Z must be (n+2)x(n+2)");
    let e = eigh(z_mat)?;
    // Eigenvalues ascend: the first n are the smallest. W = U Uᵀ is a
    // unit-weight spectral sum over those columns; the shared banded
    // kernel parallelizes it on the gfp-parallel pool.
    let gap: f64 = e.values[..n].iter().sum();
    let ones = vec![1.0; e.values.len()];
    let w = gfp_linalg::spectral_accumulate(&e.vectors, &ones, 0..n, None);
    Ok((w, gap))
}

/// Cross-check: solves sub-problem 2 through the generic ADMM conic
/// solver instead of the closed form. Exists to validate the closed
/// form (and as a solver stress test); the iteration always uses
/// [`solve_subproblem2`].
///
/// # Errors
///
/// Propagates conic solver failures.
pub fn solve_subproblem2_via_sdp(z_mat: &Mat, n: usize) -> Result<(Mat, f64), FloorplanError> {
    use gfp_conic::ConeProgramBuilder;
    use gfp_linalg::svec::{smat, svec, svec_index, svec_len};
    let nn = n + 2;
    assert_eq!(z_mat.nrows(), nn, "Z must be (n+2)x(n+2)");
    let d = svec_len(nn);
    // Variables: svec(W). min <Z, W> s.t. trace W = n, W ⪰ 0, I − W ⪰ 0.
    // Encode I − W ⪰ 0 with an auxiliary PSD block S = svec(I) − svec(W):
    // variables [w (d), s (d)] with equality s + w = svec(I).
    let mut b = ConeProgramBuilder::new(2 * d);
    let zc = svec(z_mat);
    for (j, &cj) in zc.iter().enumerate() {
        b.set_objective_coeff(j, cj);
    }
    // trace W = n
    let trace_coeffs: Vec<(usize, f64)> = (0..nn).map(|i| (svec_index(nn, i, i), 1.0)).collect();
    b.add_eq(&trace_coeffs, n as f64);
    // s = svec(I) − w
    let id = svec(&Mat::identity(nn));
    for j in 0..d {
        b.add_eq(&[(j, 1.0), (d + j, 1.0)], id[j]);
    }
    b.add_psd_vars(&(0..d).collect::<Vec<_>>());
    b.add_psd_vars(&(d..2 * d).collect::<Vec<_>>());
    let program = b.build()?;
    let sol = AdmmSolver::new(AdmmSettings {
        eps: 1e-7,
        max_iter: 30_000,
    })
    .solve(&program)?;
    let w = smat(&sol.x[..d]);
    Ok((w, sol.objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifted::objective_matrix;
    use crate::neighbors::all_pairs;
    use crate::{GlobalFloorplanProblem, ProblemOptions};
    use gfp_conic::ipm::BarrierSettings;
    use gfp_netlist::suite;

    fn problem() -> GlobalFloorplanProblem {
        // Normalized, as the driver always solves it.
        let b = suite::gsrc_n10();
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default())
            .unwrap()
            .normalized()
    }

    /// Sub-problem 1 over every pair, without cross-solve reuse.
    fn solve_all_pairs(
        p: &GlobalFloorplanProblem,
        obj: &LiftedObjective,
        backend: Backend,
        warm: Option<&[f64]>,
    ) -> Sp1Result {
        let plan = all_pairs(p.n);
        let mut ws = AssemblyWorkspace::new();
        solve_subproblem1(p, &p.a, obj, &backend, warm, None, &plan, &mut ws).unwrap()
    }

    #[test]
    fn subproblem2_zero_gap_for_rank2() {
        // Z built from an exact embedding (slack 0) has rank ≤ 2 + ...
        // actually rank(Z) = 2 when G = XᵀX exactly.
        let lift = Lift::new(6);
        let pos: Vec<(f64, f64)> = (0..6)
            .map(|i| ((i as f64) * 2.0, (i % 3) as f64 * 3.0))
            .collect();
        let z = lift.embed_positions(&pos, 0.0);
        let zm = lift.z_matrix(&z);
        let (w, gap) = solve_subproblem2(&zm, 6).unwrap();
        assert!(gap.abs() < 1e-8, "gap {gap}");
        // W is a projector with trace n.
        assert!((w.trace() - 6.0).abs() < 1e-8);
        let w2 = w.matmul(&w);
        assert!((&w2 - &w).norm_max() < 1e-8);
    }

    #[test]
    fn subproblem2_positive_gap_for_slack() {
        let lift = Lift::new(5);
        let pos: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 0.0)).collect();
        let z = lift.embed_positions(&pos, 2.0);
        let zm = lift.z_matrix(&z);
        let (_w, gap) = solve_subproblem2(&zm, 5).unwrap();
        // slack adds 2.0 to each of the n Gram eigen-directions beyond
        // rank 2; gap must be positive and close to slack * n-ish.
        assert!(gap > 1.0, "gap {gap}");
    }

    #[test]
    fn closed_form_matches_sdp_solution() {
        let lift = Lift::new(4);
        let pos = [(0.0, 0.0), (4.0, 1.0), (1.0, 5.0), (-3.0, 2.0)];
        let z = lift.embed_positions(&pos, 0.7);
        let zm = lift.z_matrix(&z);
        let (_w1, gap1) = solve_subproblem2(&zm, 4).unwrap();
        let (_w2, gap2) = solve_subproblem2_via_sdp(&zm, 4).unwrap();
        assert!(
            (gap1 - gap2).abs() < 1e-3 * (1.0 + gap1.abs()),
            "closed form {gap1} vs sdp {gap2}"
        );
    }

    #[test]
    fn subproblem1_admm_satisfies_constraints() {
        let p = problem();
        let obj = objective_matrix(&p, &p.a, None);
        let res = solve_all_pairs(
            &p,
            &obj,
            Backend::Admm(AdmmSettings {
                eps: 1e-5,
                max_iter: 8000,
            }),
            None,
        );
        assert!(res.status.is_usable(), "status {:?}", res.status);
        let lift = Lift::new(p.n);
        let d = lift.distance_squares(&res.z);
        let bounds = p.distance_bounds(&p.a, &all_pairs(p.n));
        let scale = p.total_area();
        let mut worst: f64 = 0.0;
        for (dk, bk) in d.iter().zip(bounds.iter()) {
            worst = worst.max((bk - dk) / scale);
        }
        assert!(worst < 1e-3, "max relative violation {worst}");
    }

    #[test]
    fn subproblem1_warm_start_is_faster_or_equal() {
        let p = problem();
        let obj = objective_matrix(&p, &p.a, None);
        let settings = AdmmSettings {
            eps: 1e-4,
            max_iter: 8000,
        };
        let cold = solve_all_pairs(&p, &obj, Backend::Admm(settings.clone()), None);
        let warm = solve_all_pairs(&p, &obj, Backend::Admm(settings), Some(&cold.z));
        assert!(warm.status.is_usable());
        // Warm-started solve must not be dramatically worse.
        assert!(warm.objective <= cold.objective * 1.05 + 1.0);
    }

    #[test]
    fn subproblem1_ipm_close_to_admm() {
        let p = problem();
        let obj = objective_matrix(&p, &p.a, None);
        let admm = solve_all_pairs(
            &p,
            &obj,
            Backend::Admm(AdmmSettings {
                eps: 1e-6,
                max_iter: 40_000,
            }),
            None,
        );
        let ipm = solve_all_pairs(&p, &obj, Backend::Ipm(BarrierSettings::default()), None);
        let rel = (admm.objective - ipm.objective).abs() / (1.0 + ipm.objective.abs());
        assert!(
            rel < 2e-2,
            "admm {} vs ipm {} (rel {rel:.3e})",
            admm.objective,
            ipm.objective
        );
    }
}
