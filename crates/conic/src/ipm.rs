//! Dense log-det barrier interior-point method for small SDPs.
//!
//! Solves problems of the exact shape of the floorplanner's
//! sub-problem 1:
//!
//! ```text
//! minimize    cᵀx                        (x = svec(Z), Z symmetric N x N)
//! subject to  A_eq x  = b_eq
//!             A_in x >= b_in
//!             Z ⪰ 0
//! ```
//!
//! by minimizing `t·cᵀx − log det Z − Σ log(A_in x − b_in)` over the
//! equality-constrained affine set with damped Newton steps, then
//! increasing `t` geometrically (a textbook barrier/path-following
//! method). Dense `O(d³)` Newton solves limit it to small instances
//! (n ≲ 50 modules); the ADMM backend covers the rest. Used for
//! cross-checking ADMM accuracy and as the backend ablation in the
//! experiments.

use gfp_linalg::svec::{smat, svec_dim, svec_index, SQRT2};
use gfp_linalg::{Cholesky, Ldlt, Mat};
use gfp_telemetry as telemetry;

use crate::ConicError;

/// A small SDP in barrier form (see [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct SdpProblem {
    /// Matrix dimension `N`; variables are `svec` of an `N x N` matrix.
    pub n: usize,
    /// Objective coefficients over `svec` variables.
    pub c: Vec<f64>,
    /// Equality rows: sparse `(var, coeff)` lists with right-hand sides.
    pub eq: Vec<(Vec<(usize, f64)>, f64)>,
    /// Inequality rows (`Σ coeff·x ≥ rhs`).
    pub ineq: Vec<(Vec<(usize, f64)>, f64)>,
}

impl SdpProblem {
    /// Creates an empty problem over `svec` of an `n x n` matrix.
    pub fn new(n: usize) -> Self {
        SdpProblem {
            n,
            c: vec![0.0; n * (n + 1) / 2],
            eq: Vec::new(),
            ineq: Vec::new(),
        }
    }

    fn dim(&self) -> usize {
        self.n * (self.n + 1) / 2
    }

    /// Validates dimensions and finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`ConicError::InvalidProgram`] when inconsistent.
    pub fn validate(&self) -> Result<(), ConicError> {
        let d = self.dim();
        if self.c.len() != d {
            return Err(ConicError::InvalidProgram {
                reason: format!("c has {} entries, expected {d}", self.c.len()),
            });
        }
        if svec_dim(d) != Some(self.n) {
            return Err(ConicError::InvalidProgram {
                reason: "dimension is not triangular".into(),
            });
        }
        for (coeffs, rhs) in self.eq.iter().chain(self.ineq.iter()) {
            if !rhs.is_finite() {
                return Err(ConicError::InvalidProgram {
                    reason: "non-finite rhs".into(),
                });
            }
            for &(v, co) in coeffs {
                if v >= d || !co.is_finite() {
                    return Err(ConicError::InvalidProgram {
                        reason: format!("bad coefficient ({v}, {co})"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Barrier method tuning parameters: the target gap. The barrier
/// schedule and the Newton centering's tolerance and cap are fixed.
#[derive(Debug, Clone)]
pub struct BarrierSettings {
    /// Target duality-gap bound: stop when `m_barrier / t < eps`.
    pub eps: f64,
}

impl Default for BarrierSettings {
    fn default() -> Self {
        BarrierSettings { eps: 1e-8 }
    }
}

/// Initial barrier weight `t`.
const T_INIT: f64 = 1.0;

/// Geometric growth factor for `t`.
const MU: f64 = 10.0;

/// Newton decrement tolerance per centering step.
const NEWTON_TOL: f64 = 1e-9;

/// Newton iteration cap per centering step.
const MAX_NEWTON: usize = 60;

/// Result of a barrier solve.
#[derive(Debug, Clone)]
pub struct BarrierSolution {
    /// Optimal `svec` variables.
    pub x: Vec<f64>,
    /// Objective `cᵀx`.
    pub objective: f64,
    /// Total Newton iterations across all centering steps.
    pub newton_iterations: usize,
}

/// Dense barrier interior-point solver (see [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct BarrierSdp {
    settings: BarrierSettings,
}

impl BarrierSdp {
    /// Creates a solver with the given settings.
    pub fn new(settings: BarrierSettings) -> Self {
        BarrierSdp { settings }
    }

    /// Solves starting from a **strictly feasible** `x0`: `Z(x0) ≻ 0`,
    /// all inequalities strict, equalities satisfied exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ConicError::NoInterior`] if `x0` is not strictly
    /// feasible, or [`ConicError::Linalg`] on a failed Newton solve.
    pub fn solve_from(
        &self,
        problem: &SdpProblem,
        x0: &[f64],
    ) -> Result<BarrierSolution, ConicError> {
        problem.validate()?;
        let d = problem.dim();
        if x0.len() != d {
            return Err(ConicError::InvalidProgram {
                reason: format!("x0 has {} entries, expected {d}", x0.len()),
            });
        }
        if !is_strictly_feasible(problem, x0) {
            return Err(ConicError::NoInterior { phase: "solve_from" });
        }
        let _span = telemetry::span("ipm.solve");
        let t_start = std::time::Instant::now();
        let mut x = x0.to_vec();
        let mut t = T_INIT;
        let m_barrier = problem.n as f64 + problem.ineq.len() as f64;
        let mut total_newton = 0usize;
        let mut centerings = 0usize;
        loop {
            // Fault-injection hook at the (serial) centering boundary.
            let mut stall_this_round = false;
            let mut budget_cut = false;
            if let Some(fired) = gfp_fault::poll(gfp_fault::Site::IpmNewton) {
                match fired.kind {
                    gfp_fault::FaultKind::Nan => x[0] = f64::NAN,
                    gfp_fault::FaultKind::Inf => x[0] = f64::INFINITY,
                    gfp_fault::FaultKind::Stall => stall_this_round = true,
                    gfp_fault::FaultKind::BudgetExhaust => budget_cut = true,
                    gfp_fault::FaultKind::PerturbResidual => {
                        x[0] += fired.magnitude * (1.0 + x[0].abs());
                    }
                    _ => {}
                }
            }
            if budget_cut {
                break;
            }
            // Breakdown guard: a NaN/Inf iterate would otherwise walk
            // through the Newton linear algebra and come back as a
            // silently-NaN "solution".
            if !x.iter().all(|v| v.is_finite()) {
                return Err(ConicError::NonFinite { stage: "ipm.center" });
            }
            let newton = self.center(problem, &mut x, t)?;
            total_newton += newton;
            centerings += 1;
            if !x.iter().all(|v| v.is_finite()) {
                return Err(ConicError::NonFinite { stage: "ipm.center" });
            }
            if telemetry::enabled() {
                telemetry::event(
                    "ipm.center",
                    &[
                        ("t", t.into()),
                        ("newton_iterations", newton.into()),
                        ("gap_bound", (m_barrier / t).into()),
                    ],
                );
            }
            if m_barrier / t < self.settings.eps {
                break;
            }
            // An injected stall burns one centering round without
            // advancing the barrier weight (progress flatlines for
            // exactly that round — bounded because faults fire a
            // finite number of times).
            if !stall_this_round {
                t *= MU;
            }
        }
        let objective: f64 = problem
            .c
            .iter()
            .zip(x.iter())
            .map(|(ci, xi)| ci * xi)
            .sum();
        if telemetry::enabled() {
            telemetry::event(
                "ipm.done",
                &[
                    ("centerings", centerings.into()),
                    ("newton_iterations", total_newton.into()),
                    ("objective", objective.into()),
                    ("seconds", t_start.elapsed().as_secs_f64().into()),
                ],
            );
            static NEWTON_TOTAL: telemetry::CounterHandle =
                telemetry::CounterHandle::new("ipm.newton_iterations");
            /// Newton iterations consumed per barrier solve.
            static SOLVE_NEWTON: telemetry::HistogramHandle =
                telemetry::HistogramHandle::new("ipm.solve_newton_iterations");
            NEWTON_TOTAL.add(total_newton as u64);
            SOLVE_NEWTON.record(total_newton as u64);
        }
        Ok(BarrierSolution {
            x,
            objective,
            newton_iterations: total_newton,
        })
    }

    /// Equality-constrained Newton centering at barrier weight `t`.
    fn center(&self, p: &SdpProblem, x: &mut [f64], t: f64) -> Result<usize, ConicError> {
        let d = p.dim();
        let ne = p.eq.len();
        let mut iters = 0usize;
        for _ in 0..MAX_NEWTON {
            let (grad, hess) = barrier_grad_hess(p, x, t)?;
            // Infeasible-start Newton KKT system:
            //   [H Aᵀ; A 0] [dx; ν] = [−g; b_eq − A x]
            // The lower block re-centers onto the equality manifold each
            // step, so round-off drift cannot accumulate.
            let kdim = d + ne;
            let mut kkt = Mat::zeros(kdim, kdim);
            kkt.set_block(0, 0, &hess);
            let mut rhs = vec![0.0; kdim];
            for (r, (coeffs, rhs_val)) in p.eq.iter().enumerate() {
                let mut ax = 0.0;
                for &(v, co) in coeffs {
                    kkt[(v, d + r)] = co;
                    kkt[(d + r, v)] = co;
                    ax += co * x[v];
                }
                rhs[d + r] = rhs_val - ax;
            }
            for j in 0..d {
                rhs[j] = -grad[j];
            }
            let sol = Ldlt::new(&kkt)?.solve(&rhs);
            let dx = &sol[..d];
            // Newton decrement λ² = −gᵀdx.
            let lambda2: f64 = -grad.iter().zip(dx.iter()).map(|(g, s)| g * s).sum::<f64>();
            iters += 1;
            if lambda2 / 2.0 < NEWTON_TOL {
                break;
            }
            // Backtracking line search keeping strict feasibility.
            let mut step = 1.0;
            let f0 = barrier_value(p, x, t).expect("current point feasible");
            loop {
                let mut xt = x.to_vec();
                for j in 0..d {
                    xt[j] += step * dx[j];
                }
                if let Some(ft) = barrier_value(p, &xt, t) {
                    if ft <= f0 - 0.25 * step * lambda2 {
                        x.copy_from_slice(&xt);
                        break;
                    }
                }
                step *= 0.5;
                if step < 1e-12 {
                    // Cannot make progress; accept current point.
                    return Ok(iters);
                }
            }
        }
        Ok(iters)
    }
}

/// Strict feasibility check used by [`BarrierSdp::solve_from`].
pub fn is_strictly_feasible(p: &SdpProblem, x: &[f64]) -> bool {
    // Equalities to tight tolerance.
    for (coeffs, rhs) in &p.eq {
        let lhs: f64 = coeffs.iter().map(|&(v, co)| co * x[v]).sum();
        if (lhs - rhs).abs() > 1e-7 * (1.0 + rhs.abs()) {
            return false;
        }
    }
    barrier_value(p, x, 1.0).is_some()
}

/// Barrier objective `t·cᵀx − log det Z − Σ log slack`, or `None` when
/// outside the domain.
fn barrier_value(p: &SdpProblem, x: &[f64], t: f64) -> Option<f64> {
    let z = smat(x);
    let chol = Cholesky::new(&z).ok()?;
    let mut val = t * p
        .c
        .iter()
        .zip(x.iter())
        .map(|(ci, xi)| ci * xi)
        .sum::<f64>()
        - chol.log_det();
    for (coeffs, rhs) in &p.ineq {
        let slack: f64 = coeffs.iter().map(|&(v, co)| co * x[v]).sum::<f64>() - rhs;
        if slack <= 0.0 {
            return None;
        }
        val -= slack.ln();
    }
    Some(val)
}

/// Gradient and Hessian of the barrier objective in `svec` coordinates.
fn barrier_grad_hess(p: &SdpProblem, x: &[f64], t: f64) -> Result<(Vec<f64>, Mat), ConicError> {
    let n = p.n;
    let d = p.dim();
    let z = smat(x);
    let zinv = gfp_linalg::Lu::new(&z)?.inverse()?;

    // grad = t c − svec(Z⁻¹) − Σ a_i / slack_i
    let mut grad: Vec<f64> = p.c.iter().map(|ci| t * ci).collect();
    {
        let zinv_svec = gfp_linalg::svec::svec(&zinv);
        for j in 0..d {
            grad[j] -= zinv_svec[j];
        }
    }

    // Hessian of −log det Z in scaled svec coordinates.
    let mut hess = Mat::zeros(d, d);
    for jq in 0..n {
        for iq in jq..n {
            let q = svec_index(n, iq, jq);
            for jp in 0..n {
                for ip in jp..n {
                    let pidx = svec_index(n, ip, jp);
                    if pidx > q {
                        continue;
                    }
                    let v = if ip == jp && iq == jq {
                        zinv[(ip, iq)] * zinv[(ip, iq)]
                    } else if ip == jp {
                        SQRT2 * zinv[(ip, iq)] * zinv[(ip, jq)]
                    } else if iq == jq {
                        SQRT2 * zinv[(ip, iq)] * zinv[(jp, iq)]
                    } else {
                        zinv[(ip, iq)] * zinv[(jp, jq)] + zinv[(ip, jq)] * zinv[(jp, iq)]
                    };
                    hess[(pidx, q)] = v;
                    hess[(q, pidx)] = v;
                }
            }
        }
    }

    // Inequality barrier terms.
    for (coeffs, rhs) in &p.ineq {
        let slack: f64 = coeffs.iter().map(|&(v, co)| co * x[v]).sum::<f64>() - rhs;
        if slack <= 0.0 {
            return Err(ConicError::NoInterior {
                phase: "gradient evaluation",
            });
        }
        for &(v, co) in coeffs {
            grad[v] -= co / slack;
        }
        let inv2 = 1.0 / (slack * slack);
        for &(v1, co1) in coeffs {
            for &(v2, co2) in coeffs {
                hess[(v1, v2)] += co1 * co2 * inv2;
            }
        }
    }
    Ok((grad, hess))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_linalg::svec::{svec, svec_index};

    #[test]
    fn barrier_solves_correlation_sdp() {
        // min 2 Z01  s.t.  diag Z = 1, Z ⪰ 0  =>  opt −2.
        let mut p = SdpProblem::new(2);
        p.c[svec_index(2, 1, 0)] = SQRT2; // <C, Z> with C = offdiag(1)
        p.eq.push((vec![(svec_index(2, 0, 0), 1.0)], 1.0));
        p.eq.push((vec![(svec_index(2, 1, 1), 1.0)], 1.0));
        let x0 = svec(&Mat::identity(2));
        let sol = BarrierSdp::new(BarrierSettings::default())
            .solve_from(&p, &x0)
            .unwrap();
        assert!((sol.objective + 2.0).abs() < 1e-6, "obj {}", sol.objective);
    }

    #[test]
    fn barrier_respects_inequalities() {
        // min trace Z s.t. Z11 >= 4, Z ⪰ 0 (2x2) => Z = diag(0,4) (approx).
        let mut p = SdpProblem::new(2);
        p.c[svec_index(2, 0, 0)] = 1.0;
        p.c[svec_index(2, 1, 1)] = 1.0;
        p.ineq.push((vec![(svec_index(2, 1, 1), 1.0)], 4.0));
        let x0 = svec(&Mat::from_diag(&[1.0, 5.0]));
        let sol = BarrierSdp::new(BarrierSettings::default())
            .solve_from(&p, &x0)
            .unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-5, "obj {}", sol.objective);
    }

    #[test]
    fn rejects_infeasible_start() {
        let mut p = SdpProblem::new(2);
        p.ineq.push((vec![(svec_index(2, 0, 0), 1.0)], 10.0));
        let x0 = svec(&Mat::identity(2)); // Z00 = 1 < 10: infeasible
        assert!(matches!(
            BarrierSdp::new(BarrierSettings::default()).solve_from(&p, &x0),
            Err(ConicError::NoInterior { .. })
        ));
    }

    #[test]
    fn validate_catches_bad_index() {
        let mut p = SdpProblem::new(2);
        p.eq.push((vec![(99, 1.0)], 0.0));
        assert!(p.validate().is_err());
    }

    #[test]
    fn feasibility_checker() {
        let mut p = SdpProblem::new(2);
        p.eq.push((vec![(svec_index(2, 0, 0), 1.0)], 1.0));
        let good = svec(&Mat::from_diag(&[1.0, 2.0]));
        assert!(is_strictly_feasible(&p, &good));
        let bad = svec(&Mat::from_diag(&[2.0, 2.0]));
        assert!(!is_strictly_feasible(&p, &bad));
        let not_pd = svec(&Mat::from_diag(&[1.0, -1.0]));
        assert!(!is_strictly_feasible(&p, &not_pd));
    }
}
