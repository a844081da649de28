//! Quadratic placement (paper Section III-C).
//!
//! Minimizes `½xᵀCx + xᵀd` per axis, where `C` is the clique-model
//! Laplacian augmented with pad degrees and `d` carries the fixed-pad
//! attraction (the standard formulation of \[11\], \[13\]). Every
//! connected component that a pad or a fixed module anchors has a
//! strictly positive-definite block, solved by a Cholesky
//! factorization; **a component with no anchor is singular, with a zero
//! right-hand side, and every module in it collapses onto the origin**
//! — the trivial global optimum the paper criticizes (Table I), which
//! [`QuadraticPlacer::place`] reproduces faithfully.

use gfp_core::GlobalFloorplanProblem;
use gfp_linalg::{Cholesky, Mat};

use crate::{BaselineError, Placement};

/// The quadratic placement baseline. It has no settings: every
/// anchored block is solved exactly.
#[derive(Debug, Clone, Default)]
pub struct QuadraticPlacer {}

impl QuadraticPlacer {
    /// Solves the quadratic placement.
    ///
    /// Fixed (PPM) modules are treated like pads: pinned, moved into
    /// the `d` vector.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidProblem`] for empty problems,
    /// and [`BaselineError::Linalg`] when an anchored block does not
    /// factor (a negative connection weight).
    pub fn place(&self, problem: &GlobalFloorplanProblem) -> Result<Placement, BaselineError> {
        let n = problem.n;
        if n == 0 {
            return Err(BaselineError::InvalidProblem {
                reason: "no modules".into(),
            });
        }
        // Movable index mapping.
        let movable: Vec<usize> = (0..n).filter(|&i| problem.fixed[i].is_none()).collect();
        let index_of: Vec<Option<usize>> = {
            let mut v = vec![None; n];
            for (k, &i) in movable.iter().enumerate() {
                v[i] = Some(k);
            }
            v
        };
        let m = movable.len();
        if m == 0 {
            let positions: Vec<(f64, f64)> =
                problem.fixed.iter().map(|f| f.expect("all fixed")).collect();
            return Ok(Placement {
                objective: 0.0,
                positions,
            });
        }

        // Laplacian over movable modules; pads and fixed modules add to
        // the diagonal and the rhs.
        let mut c = Mat::zeros(m, m);
        let mut bx = vec![0.0; m];
        let mut by = vec![0.0; m];
        let mut anchored = vec![false; m];
        for (k, &i) in movable.iter().enumerate() {
            let mut diag = 0.0;
            for j in 0..n {
                let w = problem.a[(i, j)] + problem.a[(j, i)];
                if w == 0.0 || i == j {
                    continue;
                }
                diag += w;
                match index_of[j] {
                    Some(kj) => c[(k, kj)] -= w,
                    None => {
                        let (fx, fy) = problem.fixed[j].expect("non-movable is fixed");
                        bx[k] += w * fx;
                        by[k] += w * fy;
                        anchored[k] = true;
                    }
                }
            }
            for (p, &(px, py)) in problem.pad_positions.iter().enumerate() {
                // Module pair weights above count both (i,j) and (j,i);
                // pad terms appear once in the objective, so the
                // stationarity condition uses the bare weight.
                let w = problem.pad_a[(i, p)];
                if w == 0.0 {
                    continue;
                }
                diag += w;
                bx[k] += w * px;
                by[k] += w * py;
                anchored[k] = true;
            }
            c[(k, k)] += diag;
        }

        // Anchoring spreads through connections. A component with no
        // anchor is a singular Laplacian block with a zero rhs: its
        // modules stay at the origin, one point. The anchored blocks
        // are positive definite.
        let mut stack: Vec<usize> = (0..m).filter(|&k| anchored[k]).collect();
        while let Some(k) = stack.pop() {
            for j in 0..m {
                if !anchored[j] && c[(k, j)] != 0.0 {
                    anchored[j] = true;
                    stack.push(j);
                }
            }
        }
        let solved: Vec<usize> = (0..m).filter(|&k| anchored[k]).collect();
        let mut sub = Mat::zeros(solved.len(), solved.len());
        for (r, &k) in solved.iter().enumerate() {
            for (col, &j) in solved.iter().enumerate() {
                sub[(r, col)] = c[(k, j)];
            }
        }
        let chol = Cholesky::new(&sub)?;
        let rhs = |b: &[f64]| solved.iter().map(|&k| b[k]).collect::<Vec<_>>();
        let (rx, ry) = (chol.solve(&rhs(&bx)), chol.solve(&rhs(&by)));

        let mut positions = vec![(0.0, 0.0); n];
        for (r, &k) in solved.iter().enumerate() {
            positions[movable[k]] = (rx[r], ry[r]);
        }
        for i in 0..n {
            if let Some(p) = problem.fixed[i] {
                positions[i] = p;
            }
        }
        let objective = gfp_core::diagnostics::quadratic_wirelength(problem, &positions);
        Ok(Placement {
            positions,
            objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_core::ProblemOptions;
    use gfp_netlist::{suite, Module, Net, Netlist, PinRef};

    #[test]
    fn qp_with_pads_spreads_and_minimizes() {
        let b = suite::gsrc_n10();
        let p = GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default())
            .unwrap();
        let pl = QuadraticPlacer::default().place(&p).unwrap();
        assert_eq!(pl.positions.len(), 10);
        // Not collapsed: pads anchor the solution.
        let sx: f64 = pl.positions.iter().map(|p| p.0).sum::<f64>() / 10.0;
        let spread: f64 = pl
            .positions
            .iter()
            .map(|p| (p.0 - sx).powi(2))
            .sum::<f64>();
        assert!(spread > 1.0, "QP collapsed despite pads");
        // Gradient condition: C x = b  =>  perturbing any module's
        // position must not decrease the quadratic wirelength.
        let base = pl.objective;
        for delta in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.5)] {
            let mut pos = pl.positions.clone();
            pos[3].0 += delta.0;
            pos[3].1 += delta.1;
            let perturbed = gfp_core::diagnostics::quadratic_wirelength(&p, &pos);
            assert!(perturbed >= base - 1e-6, "QP not at a minimum");
        }
    }

    #[test]
    fn qp_without_pads_collapses_to_a_point() {
        // The Table I "trivial optimum" phenomenon.
        let nl = Netlist::new(
            vec![
                Module::new("a", 4.0),
                Module::new("b", 4.0),
                Module::new("c", 4.0),
            ],
            vec![],
            vec![
                Net::new("n0", vec![PinRef::Module(0), PinRef::Module(1)]),
                Net::new("n1", vec![PinRef::Module(1), PinRef::Module(2)]),
                Net::new("n2", vec![PinRef::Module(0), PinRef::Module(2)]),
            ],
        )
        .unwrap();
        let p = GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).unwrap();
        let pl = QuadraticPlacer::default().place(&p).unwrap();
        for w in pl.positions.windows(2) {
            let d = (w[0].0 - w[1].0).abs() + (w[0].1 - w[1].1).abs();
            assert!(d < 1e-6, "modules did not collapse: {:?}", pl.positions);
        }
    }

    #[test]
    fn qp_respects_fixed_modules() {
        let b = suite::gsrc_n10();
        let nl = b.netlist.with_fixed_module(0, 123.0, -45.0);
        let p = GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).unwrap();
        let pl = QuadraticPlacer::default().place(&p).unwrap();
        assert_eq!(pl.positions[0], (123.0, -45.0));
    }

    #[test]
    fn qp_two_modules_between_two_pads() {
        // Chain pad(0,0) - a - b - pad(30,0). The clique objective
        // counts the module-module term in both directions:
        //   min xa² + 2(xb − xa)² + (30 − xb)²
        // with stationarity 3xa = 2xb and 3xb = 2xa + 30, giving
        // xa = 12, xb = 18.
        let nl = Netlist::new(
            vec![Module::new("a", 1.0), Module::new("b", 1.0)],
            vec![
                gfp_netlist::Pad::new("p0", 0.0, 0.0),
                gfp_netlist::Pad::new("p1", 30.0, 0.0),
            ],
            vec![
                Net::new("n0", vec![PinRef::Pad(0), PinRef::Module(0)]),
                Net::new("n1", vec![PinRef::Module(0), PinRef::Module(1)]),
                Net::new("n2", vec![PinRef::Module(1), PinRef::Pad(1)]),
            ],
        )
        .unwrap();
        let p = GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).unwrap();
        let pl = QuadraticPlacer::default().place(&p).unwrap();
        assert!((pl.positions[0].0 - 12.0).abs() < 1e-6, "{:?}", pl.positions);
        assert!((pl.positions[1].0 - 18.0).abs() < 1e-6);
        assert!(pl.positions[0].1.abs() < 1e-6);
    }
}
