//! Simplified fixed-die analytical floorplanner — the "Analytical \[7\]"
//! baseline of Table III (Zhan, Feng & Sapatnekar, ASP-DAC 2006).
//!
//! Minimizes a smooth wirelength model plus a density penalty over
//! module centers:
//!
//! * Wirelength: per-net log-sum-exp HPWL smoothing
//!   `γ (ln Σ e^{x/γ} + ln Σ e^{−x/γ})` per axis, pads included.
//! * Density: each module spreads its area as an isotropic Gaussian of
//!   width proportional to its side length over a bin grid; bins above
//!   the target density are penalized quadratically. (The original
//!   paper uses bell-shaped polynomial spreading; a Gaussian preserves
//!   the smooth, gradient-friendly overflow behaviour — see DESIGN.md.)
//!
//! An outer loop doubles the density weight until overflow is small —
//! the classic non-convex analytical recipe whose local-optimum
//! behaviour on large instances Table III exhibits.

use gfp_core::GlobalFloorplanProblem;
use gfp_netlist::{Netlist, Outline, PinRef};
use gfp_optim::{Lbfgs, LbfgsSettings, Objective};

use crate::qp::QuadraticPlacer;
use crate::{BaselineError, Placement};

/// Bin grid resolution per axis.
const BINS: usize = 12;
/// Wirelength smoothing `γ` as a fraction of the outline width.
const GAMMA_REL: f64 = 0.02;
/// Initial density weight (relative to the wirelength scale).
const LAMBDA0: f64 = 1e-2;
/// Density-weight growth per outer round.
const LAMBDA_GROWTH: f64 = 4.0;
/// Outer rounds.
const ROUNDS: usize = 6;
/// L-BFGS budget per round.
const MAX_ITER: usize = 200;
/// Target bin utilization (1.0 = bins may be exactly full).
const TARGET_DENSITY: f64 = 1.0;

/// The analytical density-driven floorplanner.
#[derive(Debug, Clone, Default)]
pub struct AnalyticalFloorplanner {}

/// Smooth wirelength + density objective over flattened centers.
pub(crate) struct AnalyticalObjective<'a> {
    netlist: &'a Netlist,
    problem: &'a GlobalFloorplanProblem,
    outline: Outline,
    gamma: f64,
    lambda: f64,
    bins: usize,
    sigma: Vec<f64>,
}

impl AnalyticalObjective<'_> {
    /// Density overflow (for diagnostics): Σ_b max(ρ_b − cap, 0)².
    pub fn overflow(&self, x: &[f64]) -> f64 {
        let (_, overflow) = self.density_value_grad(x, None);
        overflow
    }

    fn bin_geometry(&self) -> (f64, f64) {
        (
            self.outline.width / self.bins as f64,
            self.outline.height / self.bins as f64,
        )
    }

    /// Gaussian density accumulation; optionally accumulates gradient.
    fn density_value_grad(&self, x: &[f64], mut grad: Option<&mut [f64]>) -> (f64, f64) {
        let n = self.problem.n;
        let b = self.bins;
        let (bw, bh) = self.bin_geometry();
        let bin_area = bw * bh;
        let cap = TARGET_DENSITY * bin_area;
        let mut rho = vec![0.0; b * b];
        // Per-module Gaussian weights per bin, cached for the gradient.
        // w_ib = s_i * gx(i, bx) * gy(i, by), with gx a normalized 1-D
        // Gaussian evaluated at the bin center.
        let mut gx = vec![0.0; n * b];
        let mut gy = vec![0.0; n * b];
        for i in 0..n {
            let (cx, cy) = (x[2 * i], x[2 * i + 1]);
            let s2 = self.sigma[i] * self.sigma[i];
            let mut sum_x = 0.0;
            let mut sum_y = 0.0;
            for k in 0..b {
                let bx = (k as f64 + 0.5) * bw;
                let by = (k as f64 + 0.5) * bh;
                let vx = (-((bx - cx) * (bx - cx)) / (2.0 * s2)).exp();
                let vy = (-((by - cy) * (by - cy)) / (2.0 * s2)).exp();
                gx[i * b + k] = vx;
                gy[i * b + k] = vy;
                sum_x += vx;
                sum_y += vy;
            }
            // Normalize so each module deposits exactly its area.
            let nx = if sum_x > 0.0 { 1.0 / sum_x } else { 0.0 };
            let ny = if sum_y > 0.0 { 1.0 / sum_y } else { 0.0 };
            for k in 0..b {
                gx[i * b + k] *= nx;
                gy[i * b + k] *= ny;
            }
            for kx in 0..b {
                for ky in 0..b {
                    rho[kx * b + ky] +=
                        self.problem.areas[i] * gx[i * b + kx] * gy[i * b + ky];
                }
            }
        }
        let mut overflow = 0.0;
        for v in &rho {
            let e = (v - cap).max(0.0);
            overflow += e * e;
        }
        if let Some(g) = grad.as_deref_mut() {
            // d overflow / d x_i = Σ_b 2 max(ρ_b − cap, 0) · s_i ·
            //   d(gx·gy)/dx_i. The normalization terms also depend on
            //   x_i; for the penalty gradient the dominant unnormalized
            //   term suffices in practice, but we differentiate the
            //   normalized weight exactly below.
            let (bw, bh) = self.bin_geometry();
            for i in 0..n {
                let (cx, cy) = (x[2 * i], x[2 * i + 1]);
                let s2 = self.sigma[i] * self.sigma[i];
                // d gx_k / d cx for the *normalized* gx: with u_k the raw
                // Gaussian and S = Σ u, gx_k = u_k/S:
                // d gx_k = (u_k' S − u_k Σ u') / S² = gx_k (u_k'/u_k − Σ gx u'/u)
                // where u'/u = (b_x − cx)/s2.
                let mut dgx = vec![0.0; b];
                let mut dgy = vec![0.0; b];
                let mut mean_rx = 0.0;
                let mut mean_ry = 0.0;
                for k in 0..b {
                    let bx = (k as f64 + 0.5) * bw;
                    let by = (k as f64 + 0.5) * bh;
                    mean_rx += gx[i * b + k] * (bx - cx) / s2;
                    mean_ry += gy[i * b + k] * (by - cy) / s2;
                }
                for k in 0..b {
                    let bx = (k as f64 + 0.5) * bw;
                    let by = (k as f64 + 0.5) * bh;
                    dgx[k] = gx[i * b + k] * ((bx - cx) / s2 - mean_rx);
                    dgy[k] = gy[i * b + k] * ((by - cy) / s2 - mean_ry);
                }
                let mut gix = 0.0;
                let mut giy = 0.0;
                for kx in 0..b {
                    for ky in 0..b {
                        let e = (rho[kx * b + ky] - cap).max(0.0);
                        if e == 0.0 {
                            continue;
                        }
                        let common = 2.0 * e * self.problem.areas[i];
                        gix += common * dgx[kx] * gy[i * b + ky];
                        giy += common * gx[i * b + kx] * dgy[ky];
                    }
                }
                g[2 * i] += self.lambda * gix;
                g[2 * i + 1] += self.lambda * giy;
            }
        }
        (overflow * self.lambda, overflow)
    }

    /// Log-sum-exp smoothed HPWL with gradient accumulation.
    fn wirelength_value_grad(&self, x: &[f64], mut grad: Option<&mut [f64]>) -> f64 {
        let gamma = self.gamma;
        let mut total = 0.0;
        for net in self.netlist.nets() {
            if net.pins.len() < 2 {
                continue;
            }
            // Collect pin coordinates: (coord, Some(module index)).
            let mut pins: Vec<(f64, f64, Option<usize>)> = Vec::with_capacity(net.pins.len());
            for pin in &net.pins {
                match pin {
                    PinRef::Module(i) => pins.push((x[2 * i], x[2 * i + 1], Some(*i))),
                    PinRef::Pad(p) => {
                        let pad = &self.netlist.pads()[*p];
                        pins.push((pad.x, pad.y, None));
                    }
                }
            }
            for axis in 0..2 {
                // LSE max and min along the axis with stable shifts.
                let coords: Vec<f64> = pins
                    .iter()
                    .map(|p| if axis == 0 { p.0 } else { p.1 })
                    .collect();
                let cmax = coords.iter().cloned().fold(f64::MIN, f64::max);
                let cmin = coords.iter().cloned().fold(f64::MAX, f64::min);
                let mut sum_hi = 0.0;
                let mut sum_lo = 0.0;
                for &c in &coords {
                    sum_hi += ((c - cmax) / gamma).exp();
                    sum_lo += ((cmin - c) / gamma).exp();
                }
                let lse_hi = cmax + gamma * sum_hi.ln();
                let lse_lo = cmin - gamma * sum_lo.ln();
                total += net.weight * (lse_hi - lse_lo);
                if let Some(g) = grad.as_deref_mut() {
                    for (kp, &c) in coords.iter().enumerate() {
                        if let Some(i) = pins[kp].2 {
                            let whi = ((c - cmax) / gamma).exp() / sum_hi;
                            let wlo = ((cmin - c) / gamma).exp() / sum_lo;
                            g[2 * i + axis] += net.weight * (whi - wlo);
                        }
                    }
                }
            }
        }
        total
    }
}

impl Objective for AnalyticalObjective<'_> {
    fn dim(&self) -> usize {
        2 * self.problem.n
    }
    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        grad.fill(0.0);
        let wl = self.wirelength_value_grad(x, Some(grad));
        let (dens, _) = self.density_value_grad(x, Some(grad));
        wl + dens
    }
}

impl AnalyticalFloorplanner {
    /// Runs the analytical optimization inside the outline.
    ///
    /// # Errors
    ///
    /// Propagates QP failures; returns [`BaselineError::InvalidProblem`]
    /// for degenerate outlines.
    pub fn place(
        &self,
        netlist: &Netlist,
        problem: &GlobalFloorplanProblem,
        outline: &Outline,
    ) -> Result<Placement, BaselineError> {
        let n = problem.n;
        if outline.width <= 0.0 || outline.height <= 0.0 {
            return Err(BaselineError::InvalidProblem {
                reason: "degenerate outline".into(),
            });
        }
        // Start from QP, clamped into the outline.
        let qp = QuadraticPlacer::default().place(problem)?;
        let mut x: Vec<f64> = Vec::with_capacity(2 * n);
        for &(px, py) in &qp.positions {
            x.push(px.clamp(0.05 * outline.width, 0.95 * outline.width));
            x.push(py.clamp(0.05 * outline.height, 0.95 * outline.height));
        }
        let sigma: Vec<f64> = problem
            .areas
            .iter()
            .map(|s| (s.sqrt() / 2.0).max(outline.width / (BINS as f64 * 4.0)))
            .collect();

        let wl_scale = {
            let pos: Vec<(f64, f64)> = (0..n).map(|i| (x[2 * i], x[2 * i + 1])).collect();
            gfp_netlist::hpwl::hpwl(netlist, &pos).max(1.0)
        };
        let mut lambda = LAMBDA0 * wl_scale
            / {
                let obj = AnalyticalObjective {
                    netlist,
                    problem,
                    outline: *outline,
                    gamma: GAMMA_REL * outline.width,
                    lambda: 1.0,
                    bins: BINS,
                    sigma: sigma.clone(),
                };
                obj.overflow(&x).max(1e-9)
            };

        let mut last_value = f64::INFINITY;
        for _ in 0..ROUNDS {
            let obj = AnalyticalObjective {
                netlist,
                problem,
                outline: *outline,
                gamma: GAMMA_REL * outline.width,
                lambda,
                bins: BINS,
                sigma: sigma.clone(),
            };
            let r = Lbfgs::new(LbfgsSettings {
                max_iter: MAX_ITER,
                grad_tol: 1e-7 * wl_scale,
                ..LbfgsSettings::default()
            })
            .minimize(&obj, &x);
            x = r.x;
            last_value = r.value;
            lambda *= LAMBDA_GROWTH;
        }
        // Clamp final centers into the outline.
        for i in 0..n {
            x[2 * i] = x[2 * i].clamp(0.0, outline.width);
            x[2 * i + 1] = x[2 * i + 1].clamp(0.0, outline.height);
        }
        let positions: Vec<(f64, f64)> = (0..n).map(|i| (x[2 * i], x[2 * i + 1])).collect();
        Ok(Placement {
            positions,
            objective: last_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_core::ProblemOptions;
    use gfp_netlist::suite;
    use gfp_optim::check_gradient;

    fn setup() -> (Netlist, GlobalFloorplanProblem, Outline) {
        let b = suite::gsrc_n10();
        let (nl, outline) = b.with_pads_on_outline(1.0);
        let p = GlobalFloorplanProblem::from_netlist(
            &nl,
            &ProblemOptions {
                outline: Some(outline),
                aspect_limit: 3.0,
                ..ProblemOptions::default()
            },
        )
        .unwrap();
        (nl, p, outline)
    }

    #[test]
    fn analytical_gradient_is_correct() {
        let (nl, p, outline) = setup();
        let sigma: Vec<f64> = p.areas.iter().map(|s| s.sqrt() / 2.0).collect();
        let obj = AnalyticalObjective {
            netlist: &nl,
            problem: &p,
            outline,
            gamma: 0.02 * outline.width,
            lambda: 3.0,
            bins: 6,
            sigma,
        };
        let x: Vec<f64> = (0..2 * p.n)
            .map(|k| 0.3 * outline.width + 0.05 * outline.width * ((k * 13 % 7) as f64))
            .collect();
        let rep = check_gradient(&obj, &x, 1e-5 * outline.width);
        assert!(rep.passes(1e-4), "max rel err {}", rep.max_rel_error);
    }

    #[test]
    fn analytical_reduces_overflow() {
        let (nl, p, outline) = setup();
        // Everything stacked at the center: high overflow.
        let stacked: Vec<f64> = (0..2 * p.n)
            .map(|k| {
                if k % 2 == 0 {
                    outline.width / 2.0
                } else {
                    outline.height / 2.0
                }
            })
            .collect();
        let sigma: Vec<f64> = p.areas.iter().map(|s| s.sqrt() / 2.0).collect();
        let probe = AnalyticalObjective {
            netlist: &nl,
            problem: &p,
            outline,
            gamma: 0.02 * outline.width,
            lambda: 1.0,
            bins: 12,
            sigma,
        };
        let before = probe.overflow(&stacked);
        let pl = AnalyticalFloorplanner::default().place(&nl, &p, &outline).unwrap();
        let xs: Vec<f64> = pl.positions.iter().flat_map(|&(x, y)| [x, y]).collect();
        let after = probe.overflow(&xs);
        assert!(
            after < 0.5 * before,
            "overflow not reduced: {before} -> {after}"
        );
        // All centers inside the outline.
        for &(x, y) in &pl.positions {
            assert!(outline.contains(x, y));
        }
    }

    #[test]
    fn lse_wirelength_upper_bounds_hpwl() {
        // LSE smoothing always over-estimates the true HPWL and
        // converges to it as gamma -> 0.
        let (nl, p, outline) = setup();
        let sigma: Vec<f64> = p.areas.iter().map(|s| s.sqrt() / 2.0).collect();
        let x: Vec<f64> = (0..2 * p.n)
            .map(|k| (k as f64 * 0.17).fract() * outline.width)
            .collect();
        let pos: Vec<(f64, f64)> = (0..p.n).map(|i| (x[2 * i], x[2 * i + 1])).collect();
        let exact = gfp_netlist::hpwl::hpwl(&nl, &pos);
        let mut last_gap = f64::INFINITY;
        for gamma_frac in [0.05, 0.01, 0.002] {
            let obj = AnalyticalObjective {
                netlist: &nl,
                problem: &p,
                outline,
                gamma: gamma_frac * outline.width,
                lambda: 0.0,
                bins: 4,
                sigma: sigma.clone(),
            };
            let smooth = obj.wirelength_value_grad(&x, None);
            assert!(smooth >= exact - 1e-9, "LSE below HPWL at γ={gamma_frac}");
            let gap = smooth - exact;
            assert!(gap <= last_gap + 1e-9, "gap not shrinking with γ");
            last_gap = gap;
        }
        assert!(last_gap / exact < 0.05, "LSE too loose at small γ");
    }
}
