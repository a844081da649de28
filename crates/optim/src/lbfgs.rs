use std::collections::VecDeque;

use gfp_linalg::vec_ops::{axpy, dot, norm_inf};

use crate::Objective;

/// Why the optimizer stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Gradient infinity norm fell below the tolerance.
    GradientTolerance,
    /// Relative objective decrease fell below the tolerance.
    ObjectiveStalled,
    /// The line search could not make progress.
    LineSearchFailed,
    /// Iteration budget exhausted.
    MaxIterations,
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Final objective value.
    pub value: f64,
    /// Final gradient infinity norm.
    pub grad_norm: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Objective evaluations performed.
    pub evaluations: usize,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// Tuning parameters for [`Lbfgs`].
#[derive(Debug, Clone)]
pub struct LbfgsSettings {
    /// Iteration budget.
    pub max_iter: usize,
    /// Stop when `‖∇f‖_∞` falls below this.
    pub grad_tol: f64,
    /// Stop when the relative objective decrease falls below this.
    pub f_tol: f64,
}

impl Default for LbfgsSettings {
    fn default() -> Self {
        LbfgsSettings {
            max_iter: 500,
            grad_tol: 1e-8,
            f_tol: 1e-12,
        }
    }
}

/// History length `m` (5–20 is typical).
const HISTORY: usize = 10;
/// Armijo constant `c₁` of the strong-Wolfe conditions.
const C1: f64 = 1e-4;
/// Curvature constant `c₂` of the strong-Wolfe conditions.
const C2: f64 = 0.9;
/// Cap on line-search evaluations in each of its two phases.
const MAX_LS: usize = 40;

/// Limited-memory BFGS with a strong-Wolfe line search.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct Lbfgs {
    settings: LbfgsSettings,
}

impl Lbfgs {
    /// Creates an optimizer with the given settings.
    pub fn new(settings: LbfgsSettings) -> Self {
        Lbfgs { settings }
    }

    /// Minimizes `f` starting from `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != f.dim()`.
    pub fn minimize<F: Objective>(&self, f: &F, x0: &[f64]) -> OptimizeResult {
        let n = f.dim();
        assert_eq!(x0.len(), n, "x0 length must match objective dimension");
        let st = &self.settings;
        let mut x = x0.to_vec();
        let mut grad = vec![0.0; n];
        let mut value = f.value_grad(&x, &mut grad);
        let mut evaluations = 1usize;
        let mut s_hist: VecDeque<Vec<f64>> = VecDeque::new();
        let mut y_hist: VecDeque<Vec<f64>> = VecDeque::new();
        let mut rho_hist: VecDeque<f64> = VecDeque::new();
        let mut reason = StopReason::MaxIterations;
        let mut iterations = 0usize;

        for iter in 0..st.max_iter {
            iterations = iter;
            if norm_inf(&grad) < st.grad_tol {
                reason = StopReason::GradientTolerance;
                break;
            }
            // Two-loop recursion for the search direction d = −H·g.
            let mut q = grad.clone();
            let k = s_hist.len();
            let mut alphas = vec![0.0; k];
            for i in (0..k).rev() {
                let a = rho_hist[i] * dot(&s_hist[i], &q);
                alphas[i] = a;
                axpy(-a, &y_hist[i], &mut q);
            }
            // Initial Hessian scaling γ = sᵀy / yᵀy.
            if k > 0 {
                let last = k - 1;
                let gamma = dot(&s_hist[last], &y_hist[last]) / dot(&y_hist[last], &y_hist[last]);
                for qi in q.iter_mut() {
                    *qi *= gamma;
                }
            }
            for i in 0..k {
                let beta = rho_hist[i] * dot(&y_hist[i], &q);
                axpy(alphas[i] - beta, &s_hist[i], &mut q);
            }
            let mut dir: Vec<f64> = q.iter().map(|v| -v).collect();
            let mut dg = dot(&dir, &grad);
            if dg >= 0.0 {
                // Not a descent direction (can happen right after noisy
                // curvature pairs): restart with steepest descent.
                s_hist.clear();
                y_hist.clear();
                rho_hist.clear();
                dir = grad.iter().map(|v| -v).collect();
                dg = dot(&dir, &grad);
            }

            // Strong-Wolfe line search.
            let ls = strong_wolfe(f, &x, value, &dir, dg, &mut evaluations);
            let (step, new_x, new_value, new_grad) = match ls {
                Some(t) => t,
                None => {
                    reason = StopReason::LineSearchFailed;
                    break;
                }
            };
            let _ = step;

            // Curvature pair.
            let s: Vec<f64> = new_x
                .iter()
                .zip(x.iter())
                .map(|(a, b)| a - b)
                .collect();
            let yv: Vec<f64> = new_grad
                .iter()
                .zip(grad.iter())
                .map(|(a, b)| a - b)
                .collect();
            let sy = dot(&s, &yv);
            if sy > 1e-10 * dot(&yv, &yv).max(1e-300) {
                if s_hist.len() == HISTORY {
                    s_hist.pop_front();
                    y_hist.pop_front();
                    rho_hist.pop_front();
                }
                rho_hist.push_back(1.0 / sy);
                s_hist.push_back(s);
                y_hist.push_back(yv);
            }

            let rel_decrease = (value - new_value).abs() / value.abs().max(1.0);
            x = new_x;
            grad = new_grad;
            let stalled = rel_decrease < st.f_tol;
            value = new_value;
            if stalled {
                reason = StopReason::ObjectiveStalled;
                break;
            }
        }

        OptimizeResult {
            grad_norm: norm_inf(&grad),
            x,
            value,
            iterations,
            evaluations,
            reason,
        }
    }
}

/// Strong-Wolfe line search (Nocedal & Wright, Algorithms 3.5/3.6).
///
/// Returns `(step, x_new, f_new, g_new)` or `None` on failure.
fn strong_wolfe<F: Objective>(
    f: &F,
    x: &[f64],
    f0: f64,
    dir: &[f64],
    dg0: f64,
    evaluations: &mut usize,
) -> Option<(f64, Vec<f64>, f64, Vec<f64>)> {
    let n = x.len();
    let eval_at = |alpha: f64, evals: &mut usize| -> (Vec<f64>, f64, Vec<f64>, f64) {
        let mut xt = x.to_vec();
        axpy(alpha, dir, &mut xt);
        let mut gt = vec![0.0; n];
        let ft = f.value_grad(&xt, &mut gt);
        *evals += 1;
        let dgt = dot(&gt, dir);
        (xt, ft, gt, dgt)
    };

    let mut alpha_prev = 0.0;
    let mut f_prev = f0;
    let mut dg_prev = dg0;
    let mut alpha = 1.0;
    let mut best: Option<(f64, Vec<f64>, f64, Vec<f64>)> = None;

    // Bracketing phase.
    let mut lo: Option<(f64, f64, f64)> = None; // (alpha, f, dg)
    let mut hi: Option<(f64, f64, f64)> = None;
    for i in 0..MAX_LS {
        let (xt, ft, gt, dgt) = eval_at(alpha, evaluations);
        if !ft.is_finite() {
            alpha *= 0.5;
            continue;
        }
        if ft > f0 + C1 * alpha * dg0 || (i > 0 && ft >= f_prev) {
            lo = Some((alpha_prev, f_prev, dg_prev));
            hi = Some((alpha, ft, dgt));
            break;
        }
        if dgt.abs() <= -C2 * dg0 {
            return Some((alpha, xt, ft, gt));
        }
        best = Some((alpha, xt, ft, gt));
        if dgt >= 0.0 {
            lo = Some((alpha, ft, dgt));
            hi = Some((alpha_prev, f_prev, dg_prev));
            break;
        }
        alpha_prev = alpha;
        f_prev = ft;
        dg_prev = dgt;
        alpha *= 2.0;
    }

    // Zoom phase.
    if let (Some(mut lo), Some(mut hi)) = (lo, hi) {
        for _ in 0..MAX_LS {
            let alpha_j = 0.5 * (lo.0 + hi.0);
            if (hi.0 - lo.0).abs() < 1e-14 {
                break;
            }
            let (xt, ft, gt, dgt) = eval_at(alpha_j, evaluations);
            if ft > f0 + C1 * alpha_j * dg0 || ft >= lo.1 {
                hi = (alpha_j, ft, dgt);
            } else {
                if dgt.abs() <= -C2 * dg0 {
                    return Some((alpha_j, xt, ft, gt));
                }
                if dgt * (hi.0 - lo.0) >= 0.0 {
                    hi = lo;
                }
                best = Some((alpha_j, xt, ft, gt));
                lo = (alpha_j, ft, dgt);
            }
        }
    }

    // Fall back to the best sufficient-decrease point seen, if any.
    if let Some(b) = best {
        if b.2 < f0 {
            return Some(b);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quadratic {
        center: Vec<f64>,
    }
    impl Objective for Quadratic {
        fn dim(&self) -> usize {
            self.center.len()
        }
        fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            let mut v = 0.0;
            for i in 0..x.len() {
                let d = x[i] - self.center[i];
                grad[i] = 2.0 * d;
                v += d * d;
            }
            v
        }
    }

    struct Rosenbrock;
    impl Objective for Rosenbrock {
        fn dim(&self) -> usize {
            2
        }
        fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            let (a, b) = (1.0, 100.0);
            let f = (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2);
            grad[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
            grad[1] = 2.0 * b * (x[1] - x[0] * x[0]);
            f
        }
    }

    #[test]
    fn quadratic_converges_fast() {
        let f = Quadratic {
            center: vec![3.0, -1.0, 0.5],
        };
        let r = Lbfgs::new(LbfgsSettings::default()).minimize(&f, &[0.0; 3]);
        assert_eq!(r.reason, StopReason::GradientTolerance);
        assert!(r.iterations < 20);
        for (xi, ci) in r.x.iter().zip(f.center.iter()) {
            assert!((xi - ci).abs() < 1e-7);
        }
    }

    #[test]
    fn rosenbrock_reaches_optimum() {
        let r = Lbfgs::new(LbfgsSettings {
            max_iter: 2000,
            ..LbfgsSettings::default()
        })
        .minimize(&Rosenbrock, &[-1.2, 1.0]);
        assert!(
            (r.x[0] - 1.0).abs() < 1e-5 && (r.x[1] - 1.0).abs() < 1e-5,
            "x = {:?} after {} iters ({:?})",
            r.x,
            r.iterations,
            r.reason
        );
    }

    #[test]
    fn max_iterations_respected() {
        let r = Lbfgs::new(LbfgsSettings {
            max_iter: 3,
            grad_tol: 0.0,
            f_tol: 0.0,
        })
        .minimize(&Rosenbrock, &[-1.2, 1.0]);
        assert_eq!(r.reason, StopReason::MaxIterations);
    }

    #[test]
    fn already_optimal_stops_immediately() {
        let f = Quadratic {
            center: vec![1.0, 2.0],
        };
        let r = Lbfgs::new(LbfgsSettings::default()).minimize(&f, &[1.0, 2.0]);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.reason, StopReason::GradientTolerance);
    }

    #[test]
    fn ill_conditioned_quadratic() {
        struct Ellipse;
        impl Objective for Ellipse {
            fn dim(&self) -> usize {
                2
            }
            fn value_grad(&self, x: &[f64], g: &mut [f64]) -> f64 {
                g[0] = 2.0 * x[0];
                g[1] = 2000.0 * x[1];
                x[0] * x[0] + 1000.0 * x[1] * x[1]
            }
        }
        let r = Lbfgs::new(LbfgsSettings::default()).minimize(&Ellipse, &[5.0, 5.0]);
        assert!(r.value < 1e-10, "value {}", r.value);
    }
}
