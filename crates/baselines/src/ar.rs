//! The Attractor-Repeller baseline (paper Section III-A, refs \[1\], \[8\]).
//!
//! Objective per module pair (the "practical" branch of Eq. 3 used by
//! the original implementations):
//!
//! ```text
//! f_ij = A_ij · d_ij + t_ij / d_ij − 1,      d_ij = ‖x_i − x_j‖²
//! t_ij = σ (r_i + r_j)²
//! ```
//!
//! plus squared-distance attraction to fixed pads. Solved with L-BFGS
//! from the quadratic-placement start (the paper solves it with a
//! BFGS from PyTorch-Minimize). The model's trivial global optimum and
//! its `A_ij`-dependent resting distance (Fig. 2(b)) are exactly why
//! the gradient solution from a non-collapsed start is the practical
//! recipe.

use gfp_core::GlobalFloorplanProblem;
use gfp_optim::{Lbfgs, LbfgsSettings, Objective};

use crate::qp::QuadraticPlacer;
use crate::{BaselineError, Placement};

/// L-BFGS iteration budget of an AR run and of each PP start.
pub(crate) const MAX_ITER: usize = 600;
/// Guard floor on `d_ij` (relative to the chip scale), shared with PP.
pub(crate) const DISTANCE_FLOOR_REL: f64 = 1e-4;

/// The attractor-repeller floorplanner.
#[derive(Debug, Clone, Default)]
pub struct ArFloorplanner {}

/// The AR objective over flattened coordinates `[x₀, y₀, x₁, y₁, …]`,
/// with fixed modules substituted (not optimized).
pub(crate) struct PairObjective<'a> {
    pub problem: &'a GlobalFloorplanProblem,
    pub movable: Vec<usize>,
    pub floor: f64,
    pub model: PairModel,
}

/// Which pair model the shared objective evaluates.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairModel {
    /// AR: squared-distance attraction, `t/d` repulsion.
    Ar { sigma: f64 },
    /// PP: Euclidean attraction, `r/d` (scaled inside overlap) repulsion.
    Pp,
}

impl PairObjective<'_> {
    pub fn full_positions(&self, x: &[f64]) -> Vec<(f64, f64)> {
        let mut pos: Vec<(f64, f64)> = vec![(0.0, 0.0); self.problem.n];
        for (k, &i) in self.movable.iter().enumerate() {
            pos[i] = (x[2 * k], x[2 * k + 1]);
        }
        for i in 0..self.problem.n {
            if let Some(p) = self.problem.fixed[i] {
                pos[i] = p;
            }
        }
        pos
    }
}

impl Objective for PairObjective<'_> {
    fn dim(&self) -> usize {
        2 * self.movable.len()
    }

    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let p = self.problem;
        let n = p.n;
        let pos = self.full_positions(x);
        let slot: Vec<Option<usize>> = {
            let mut v = vec![None; n];
            for (k, &i) in self.movable.iter().enumerate() {
                v[i] = Some(k);
            }
            v
        };
        grad.fill(0.0);
        let mut value = 0.0;
        let add_grad = |i: usize, gx: f64, gy: f64, slot: &Vec<Option<usize>>, grad: &mut [f64]| {
            if let Some(k) = slot[i] {
                grad[2 * k] += gx;
                grad[2 * k + 1] += gy;
            }
        };

        // Module pairs.
        for i in 0..n {
            for j in (i + 1)..n {
                let w = p.a[(i, j)] + p.a[(j, i)];
                let dx = pos[i].0 - pos[j].0;
                let dy = pos[i].1 - pos[j].1;
                let (ri, rj) = (p.radii[i], p.radii[j]);
                match self.model {
                    PairModel::Ar { sigma } => {
                        let d = (dx * dx + dy * dy).max(self.floor);
                        let t = sigma * (ri + rj) * (ri + rj);
                        value += w * d + t / d - 1.0;
                        // df/dd = w − t/d²; dd/dx_i = 2(x_i − x_j).
                        let fd = w - t / (d * d);
                        let gx = fd * 2.0 * dx;
                        let gy = fd * 2.0 * dy;
                        add_grad(i, gx, gy, &slot, grad);
                        add_grad(j, -gx, -gy, &slot, grad);
                    }
                    PairModel::Pp => {
                        let d = (dx * dx + dy * dy).sqrt().max(self.floor.sqrt());
                        let r = ri + rj;
                        let s = (ri * rj) * (ri * rj);
                        let (val, fd) = if r >= d {
                            (w * d + s * (r / d - 1.0), w - s * r / (d * d))
                        } else {
                            (w * d + r / d - 1.0, w - r / (d * d))
                        };
                        value += val;
                        let gx = fd * dx / d;
                        let gy = fd * dy / d;
                        add_grad(i, gx, gy, &slot, grad);
                        add_grad(j, -gx, -gy, &slot, grad);
                    }
                }
            }
        }

        // Pad attraction (metric matches the model's attractor).
        for i in 0..n {
            for (q, &(px, py)) in p.pad_positions.iter().enumerate() {
                let w = p.pad_a[(i, q)];
                if w == 0.0 {
                    continue;
                }
                let dx = pos[i].0 - px;
                let dy = pos[i].1 - py;
                match self.model {
                    PairModel::Ar { .. } => {
                        value += w * (dx * dx + dy * dy);
                        add_grad(i, 2.0 * w * dx, 2.0 * w * dy, &slot, grad);
                    }
                    PairModel::Pp => {
                        let d = (dx * dx + dy * dy).sqrt().max(self.floor.sqrt());
                        value += w * d;
                        add_grad(i, w * dx / d, w * dy / d, &slot, grad);
                    }
                }
            }
        }
        value
    }
}

/// The repeller strength `σ = Ā · (mean diameter)²`, where `Ā` is the
/// mean connected pair weight, so that the average pair's AR
/// equilibrium sits near tangency instead of deep overlap (cf. the
/// paper's Fig. 2(b) analysis). The auto-scaling stands in for the
/// hand tuning the original AR implementations required (σ is
/// dimensionally inconsistent, one of the flaws the paper dissects in
/// Fig. 2).
pub(crate) fn ar_sigma_scale(problem: &GlobalFloorplanProblem) -> f64 {
    let n = problem.n;
    let mut w_sum = 0.0;
    let mut w_cnt = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let w = problem.a[(i, j)] + problem.a[(j, i)];
            if w > 0.0 {
                w_sum += w;
                w_cnt += 1;
            }
        }
    }
    let mean_w = if w_cnt > 0 { w_sum / w_cnt as f64 } else { 1.0 };
    let mean_diam =
        2.0 * problem.radii.iter().sum::<f64>() / n as f64;
    mean_w * mean_diam * mean_diam
}

impl ArFloorplanner {
    /// Runs AR from the quadratic-placement start.
    ///
    /// # Errors
    ///
    /// Propagates QP failures.
    pub fn place(&self, problem: &GlobalFloorplanProblem) -> Result<Placement, BaselineError> {
        let start = QuadraticPlacer::default().place(problem)?;
        let movable: Vec<usize> = (0..problem.n)
            .filter(|&i| problem.fixed[i].is_none())
            .collect();
        if movable.is_empty() {
            return Ok(start);
        }
        let scale = problem.length_scale();
        let obj = PairObjective {
            problem,
            movable: movable.clone(),
            floor: (DISTANCE_FLOOR_REL * scale).powi(2),
            model: PairModel::Ar {
                sigma: ar_sigma_scale(problem),
            },
        };
        // Jitter the (possibly nearly collapsed) QP start so the
        // repeller has a direction to push along.
        let mut x0 = Vec::with_capacity(2 * movable.len());
        for (k, &i) in movable.iter().enumerate() {
            let angle = 2.0 * std::f64::consts::PI * (k as f64) / (movable.len() as f64);
            x0.push(start.positions[i].0 + 1e-2 * scale * angle.cos());
            x0.push(start.positions[i].1 + 1e-2 * scale * angle.sin());
        }
        let result = Lbfgs::new(LbfgsSettings {
            max_iter: MAX_ITER,
            grad_tol: 1e-6 * scale,
            ..LbfgsSettings::default()
        })
        .minimize(&obj, &x0);
        let positions = obj.full_positions(&result.x);
        Ok(Placement {
            positions,
            objective: result.value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_core::ProblemOptions;
    use gfp_netlist::suite;
    use gfp_optim::check_gradient;

    fn problem() -> GlobalFloorplanProblem {
        let b = suite::gsrc_n10();
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap()
    }

    #[test]
    fn ar_gradient_is_correct() {
        let p = problem();
        let movable: Vec<usize> = (0..p.n).collect();
        let obj = PairObjective {
            problem: &p,
            movable,
            floor: 1.0,
            model: PairModel::Ar { sigma: 1.3 },
        };
        let x: Vec<f64> = (0..2 * p.n)
            .map(|k| 50.0 * ((k * 37 % 17) as f64 - 8.0))
            .collect();
        let rep = check_gradient(&obj, &x, 1e-4);
        assert!(rep.passes(1e-5), "max rel err {}", rep.max_rel_error);
    }

    #[test]
    fn ar_separates_modules() {
        let p = problem();
        let pl = ArFloorplanner::default().place(&p).unwrap();
        // Count heavily overlapping pairs (closer than half the
        // required distance).
        let mut bad = 0;
        for i in 0..p.n {
            for j in (i + 1)..p.n {
                let d2 = (pl.positions[i].0 - pl.positions[j].0).powi(2)
                    + (pl.positions[i].1 - pl.positions[j].1).powi(2);
                let req = (p.radii[i] + p.radii[j]).powi(2);
                if d2 < 0.25 * req {
                    bad += 1;
                }
            }
        }
        assert!(bad <= 20, "{bad} of 45 pairs heavily overlapping");
    }

    #[test]
    fn ar_improves_its_objective_over_start() {
        let p = problem();
        let start = QuadraticPlacer::default().place(&p).unwrap();
        let movable: Vec<usize> = (0..p.n).collect();
        let obj = PairObjective {
            problem: &p,
            movable,
            floor: (1e-4 * p.length_scale()).powi(2),
            model: PairModel::Ar {
                sigma: ar_sigma_scale(&p),
            },
        };
        let x0: Vec<f64> = start
            .positions
            .iter()
            .flat_map(|&(x, y)| [x, y])
            .collect();
        let f0 = obj.value(&x0);
        let pl = ArFloorplanner::default().place(&p).unwrap();
        assert!(pl.objective < f0, "AR did not improve: {} vs {f0}", pl.objective);
    }
}
