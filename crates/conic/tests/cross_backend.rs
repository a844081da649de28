//! Cross-validation between the ADMM and barrier-IPM backends: on the
//! same SDP both must find the same optimal value.

use gfp_conic::ipm::{BarrierSdp, BarrierSettings, SdpProblem};
use gfp_conic::{AdmmSettings, AdmmSolver, ConeProgramBuilder, SolveStatus};
use gfp_linalg::svec::{svec, svec_index, svec_len, SQRT2};
use gfp_linalg::vec_ops::norm2;
use gfp_linalg::Mat;
use gfp_rand::Rng;

/// Builds the same random SDP for both backends:
///   min <C, Z>  s.t.  diag(Z) = 1,  Z_kk' >= l (a few pairs),  Z ⪰ 0
fn random_instance(n: usize, seed: u64) -> (SdpProblem, gfp_conic::ConeProgram) {
    let mut rng = Rng::seed_from_u64(seed);
    let d = svec_len(n);
    let mut c_mat = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.gen_range(-1.0..1.0);
            c_mat[(i, j)] = v;
            c_mat[(j, i)] = v;
        }
    }
    let c = svec(&c_mat);

    let mut ipm = SdpProblem::new(n);
    ipm.c = c.clone();
    let mut admm = ConeProgramBuilder::new(d);
    for (j, &cj) in c.iter().enumerate() {
        admm.set_objective_coeff(j, cj);
    }
    for i in 0..n {
        let idx = svec_index(n, i, i);
        ipm.eq.push((vec![(idx, 1.0)], 1.0));
        admm.add_eq(&[(idx, 1.0)], 1.0);
    }
    // A couple of off-diagonal lower bounds (strictly feasible at Z = I
    // since l < 0).
    for k in 0..(n / 2) {
        let i = 2 * k + 1;
        let j = 2 * k;
        let idx = svec_index(n, i, j);
        let l = -0.8;
        // svec var = sqrt(2) Z_ij  =>  Z_ij >= l  <=>  var >= sqrt(2) l
        ipm.ineq.push((vec![(idx, 1.0)], SQRT2 * l));
        admm.add_ge(&[(idx, 1.0)], SQRT2 * l);
    }
    admm.add_psd_vars(&(0..d).collect::<Vec<_>>());
    (ipm, admm.build().expect("valid program"))
}

#[test]
fn admm_and_ipm_agree_on_random_sdps() {
    for (n, seed) in [(3usize, 7u64), (4, 11), (5, 13)] {
        let (ipm_prob, admm_prob) = random_instance(n, seed);
        let x0 = svec(&Mat::identity(n));
        let ipm_sol = BarrierSdp::new(BarrierSettings::default())
            .solve_from(&ipm_prob, &x0)
            .expect("ipm solves");
        let admm_sol = AdmmSolver::new(AdmmSettings {
            eps: 1e-8,
            max_iter: 50_000,
        })
        .solve(&admm_prob)
        .expect("admm solves");
        assert!(
            admm_sol.status.is_usable(),
            "admm status {:?} (n={n})",
            admm_sol.status
        );
        let rel = (ipm_sol.objective - admm_sol.objective).abs()
            / (1.0 + ipm_sol.objective.abs());
        assert!(
            rel < 5e-4,
            "n={n} seed={seed}: ipm {} vs admm {} (rel {rel:.2e})",
            ipm_sol.objective,
            admm_sol.objective
        );
    }
}

/// The returned `(x, s, y)` is one consistent ADMM iterate: the slack
/// lies in the cones, `Z` is PSD, and the primal and dual residuals
/// recomputed from the returned vectors are the ones the solver
/// reported and stopped on. n = 64 reaches Anderson acceleration, so an
/// extrapolated `s` or `y` that did not match `x` would show here.
#[test]
fn admm_solution_is_cone_feasible() {
    for (n, eps) in [(4, 1e-8), (64, 1e-6)] {
        let (_, admm_prob) = random_instance(n, 99);
        let sol = AdmmSolver::new(AdmmSettings {
            eps,
            ..AdmmSettings::default()
        })
        .solve(&admm_prob)
        .unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal, "n={n}");
        // Slack must lie in the cones; check block by block.
        let mut offset = 0;
        for cone in &admm_prob.cones {
            let dim = cone.dim();
            assert!(
                cone.contains(&sol.s[offset..offset + dim], 1e-5),
                "n={n}: slack block {cone:?} infeasible"
            );
            offset += dim;
        }
        // Z itself (the x variables) must be PSD up to tolerance.
        let z = gfp_linalg::svec::smat(&sol.x);
        let evals = gfp_linalg::eigvalsh(&z).unwrap();
        assert!(evals[0] > -1e-5, "n={n}: min eigenvalue {}", evals[0]);

        // Residuals from the returned vectors, in the solver's units.
        let p = &admm_prob;
        let mut r = p.a.matvec(&sol.x);
        for ((ri, si), bi) in r.iter_mut().zip(&sol.s).zip(&p.b) {
            *ri += si - bi;
        }
        let pri = norm2(&r) / (1.0 + norm2(&p.b));
        let mut q = p.a.matvec_transpose(&sol.y);
        for (qi, ci) in q.iter_mut().zip(&p.c) {
            *qi += ci;
        }
        let dua = norm2(&q) / (1.0 + norm2(&p.c));
        for (what, got, reported) in [
            ("primal", pri, sol.info.primal_residual),
            ("dual", dua, sol.info.dual_residual),
        ] {
            assert!(
                got < eps,
                "n={n}: recomputed {what} residual {got:e} ≥ eps {eps:e}"
            );
            assert!(
                (got - reported).abs() <= 1e-6 * reported + 1e-15,
                "n={n}: recomputed {what} residual {got:e}, reported {reported:e}"
            );
        }
    }
}

#[test]
fn ipm_is_more_accurate_than_loose_admm() {
    let (ipm_prob, admm_prob) = random_instance(4, 5);
    let x0 = svec(&Mat::identity(4));
    let tight = BarrierSdp::new(BarrierSettings { eps: 1e-10 })
        .solve_from(&ipm_prob, &x0)
        .unwrap();
    let loose = AdmmSolver::new(AdmmSettings {
        eps: 1e-4,
        ..AdmmSettings::default()
    })
    .solve(&admm_prob)
    .unwrap();
    // The loose ADMM objective is close but the IPM one must be at
    // least as low (it is the minimizer to much higher accuracy).
    assert!(tight.objective <= loose.objective + 1e-3);
}
