//! The Push-Pull (UFO) baseline (paper Section III-B, refs \[2\], \[9\]).
//!
//! Objective per module pair (Eq. 4):
//!
//! ```text
//! f_ij = A_ij·d + s_ij((r_i+r_j)/d − 1)   if r_i + r_j ≥ d
//! f_ij = A_ij·d + (r_i+r_j)/d − 1         otherwise
//! ```
//!
//! with `d = ‖x_i − x_j‖` the **Euclidean distance** and
//! `s_ij = (r_i·r_j)²`. The objective is non-convex (Fig. 1(b)), so a
//! multi-start L-BFGS is used and the best local optimum kept.

use gfp_core::GlobalFloorplanProblem;
use gfp_optim::{Lbfgs, LbfgsSettings};
use gfp_rand::Rng;

use crate::ar::{PairModel, PairObjective, DISTANCE_FLOOR_REL, MAX_ITER};
use crate::qp::QuadraticPlacer;
use crate::{BaselineError, Placement};

/// Settings for the PP baseline.
#[derive(Debug, Clone)]
pub struct PpSettings {
    /// Number of random restarts (the QP start is always included).
    pub restarts: usize,
}

impl Default for PpSettings {
    fn default() -> Self {
        PpSettings { restarts: 3 }
    }
}

/// RNG seed for the restarts.
const SEED: u64 = 0x9e3779b9;

/// The push-pull floorplanner.
#[derive(Debug, Clone, Default)]
pub struct PpFloorplanner {
    settings: PpSettings,
}

impl PpFloorplanner {
    /// Creates a floorplanner with the given settings.
    pub fn new(settings: PpSettings) -> Self {
        PpFloorplanner { settings }
    }

    /// Runs the multi-start PP optimization.
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
            model: PairModel::Pp,
        };
        let optimizer = Lbfgs::new(LbfgsSettings {
            max_iter: MAX_ITER,
            grad_tol: 1e-6 * scale,
            ..LbfgsSettings::default()
        });

        let mut rng = Rng::seed_from_u64(SEED);
        let (cx, cy) = match &problem.outline {
            Some(o) => o.center(),
            None => {
                // centroid of pads, or origin
                if problem.pad_positions.is_empty() {
                    (0.0, 0.0)
                } else {
                    let m = problem.pad_positions.len() as f64;
                    (
                        problem.pad_positions.iter().map(|p| p.0).sum::<f64>() / m,
                        problem.pad_positions.iter().map(|p| p.1).sum::<f64>() / m,
                    )
                }
            }
        };
        let mut best: Option<(f64, Vec<f64>)> = None;
        for attempt in 0..=self.settings.restarts {
            let x0: Vec<f64> = if attempt == 0 {
                movable
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &i)| {
                        let angle =
                            2.0 * std::f64::consts::PI * (k as f64) / (movable.len() as f64);
                        [
                            start.positions[i].0 + 1e-2 * scale * angle.cos(),
                            start.positions[i].1 + 1e-2 * scale * angle.sin(),
                        ]
                    })
                    .collect()
            } else {
                (0..2 * movable.len())
                    .map(|k| {
                        let center = if k % 2 == 0 { cx } else { cy };
                        center + rng.gen_range(-0.6..0.6) * scale
                    })
                    .collect()
            };
            let result = optimizer.minimize(&obj, &x0);
            if best.as_ref().map_or(true, |(v, _)| result.value < *v) {
                best = Some((result.value, result.x));
            }
        }
        let (objective, x) = best.expect("at least one start runs");
        Ok(Placement {
            positions: obj.full_positions(&x),
            objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_core::ProblemOptions;
    use gfp_netlist::suite;
    use gfp_optim::{check_gradient, Objective};

    fn problem() -> GlobalFloorplanProblem {
        let b = suite::gsrc_n10();
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap()
    }

    #[test]
    fn pp_gradient_is_correct_both_branches() {
        let p = problem();
        let movable: Vec<usize> = (0..p.n).collect();
        let obj = PairObjective {
            problem: &p,
            movable,
            floor: 1.0,
            model: PairModel::Pp,
        };
        // Spread layout: mostly the "far" branch.
        let far: Vec<f64> = (0..2 * p.n)
            .map(|k| 500.0 * ((k * 31 % 23) as f64 - 11.0))
            .collect();
        let rep = check_gradient(&obj, &far, 1e-4);
        assert!(rep.passes(1e-5), "far branch err {}", rep.max_rel_error);
        // Tight layout: mostly the "overlap" branch.
        let near: Vec<f64> = (0..2 * p.n)
            .map(|k| 3.0 * ((k * 31 % 23) as f64 - 11.0))
            .collect();
        let rep = check_gradient(&obj, &near, 1e-4);
        assert!(rep.passes(1e-4), "near branch err {}", rep.max_rel_error);
    }

    #[test]
    fn pp_multi_start_no_worse_than_single() {
        let p = problem();
        let single = PpFloorplanner::new(PpSettings { restarts: 0 }).place(&p).unwrap();
        let multi = PpFloorplanner::new(PpSettings { restarts: 3 }).place(&p).unwrap();
        assert!(multi.objective <= single.objective + 1e-9);
    }

    #[test]
    fn pp_is_nonconvex_demo() {
        // The Table I / Fig. 1(b) demonstration: two starts, two
        // different local optima of the PP objective.
        let p = problem();
        let movable: Vec<usize> = (0..p.n).collect();
        let obj = PairObjective {
            problem: &p,
            movable,
            floor: (1e-4 * p.length_scale()).powi(2),
            model: PairModel::Pp,
        };
        let opt = Lbfgs::new(LbfgsSettings {
            max_iter: 400,
            ..LbfgsSettings::default()
        });
        let scale = p.length_scale();
        let x1: Vec<f64> = (0..2 * p.n).map(|k| (k as f64 * 0.37).sin() * scale).collect();
        let x2: Vec<f64> = (0..2 * p.n).map(|k| (k as f64 * 1.71).cos() * scale * 0.5).collect();
        let r1 = opt.minimize(&obj, &x1);
        let r2 = opt.minimize(&obj, &x2);
        let rel = (r1.value - r2.value).abs() / r1.value.abs().max(1.0);
        assert!(
            rel > 1e-6,
            "both starts reached the same optimum — unexpected for a non-convex model"
        );
    }

    #[test]
    fn pp_keeps_fixed_modules() {
        let b = suite::gsrc_n10();
        let nl = b.netlist.with_fixed_module(5, 77.0, 88.0);
        let p = GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).unwrap();
        let pl = PpFloorplanner::default().place(&p).unwrap();
        assert_eq!(pl.positions[5], (77.0, 88.0));
    }

    #[test]
    fn pp_objective_value_matches_reported() {
        let p = problem();
        let pl = PpFloorplanner::default().place(&p).unwrap();
        let movable: Vec<usize> = (0..p.n).collect();
        let obj = PairObjective {
            problem: &p,
            movable,
            floor: (1e-4 * p.length_scale()).powi(2),
            model: PairModel::Pp,
        };
        let x: Vec<f64> = pl.positions.iter().flat_map(|&(x, y)| [x, y]).collect();
        let v = obj.value(&x);
        assert!((v - pl.objective).abs() < 1e-6 * v.abs().max(1.0));
    }
}
