//! Solution-quality diagnostics: rank certificates and constraint
//! feasibility checks.

use gfp_linalg::{eigvalsh, Mat};

use crate::neighbors::all_pairs;
use crate::{FloorplanError, GlobalFloorplanProblem};

/// Relative rank gap of a lifted solution: the sum of all but the two
/// largest eigenvalues of `Z`, divided by `trace(Z)`. Zero means
/// `rank(Z) ≤ 2`, i.e. `G = XᵀX` holds exactly (Eq. 14).
///
/// # Errors
///
/// Propagates eigendecomposition failures.
pub fn relative_rank_gap(z_mat: &Mat) -> Result<f64, FloorplanError> {
    let vals = eigvalsh(z_mat)?;
    let nn = vals.len();
    if nn <= 2 {
        return Ok(0.0);
    }
    let small: f64 = vals[..nn - 2].iter().sum();
    let trace: f64 = vals.iter().sum();
    if trace <= 0.0 {
        return Ok(0.0);
    }
    Ok((small / trace).max(0.0))
}

/// Numerical rank of a symmetric PSD matrix at relative tolerance
/// `tol` (eigenvalues below `tol · λ_max` count as zero).
///
/// # Errors
///
/// Propagates eigendecomposition failures.
pub fn numeric_rank(m: &Mat, tol: f64) -> Result<usize, FloorplanError> {
    let vals = eigvalsh(m)?;
    let max = vals.iter().fold(0.0_f64, |a, &b| a.max(b.abs()));
    if max == 0.0 {
        return Ok(0);
    }
    Ok(vals.iter().filter(|&&v| v.abs() > tol * max).count())
}

/// Summary of distance-constraint feasibility for a layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeasibilityReport {
    /// Number of violated pairs.
    pub violations: usize,
    /// Worst violation, normalized by the bound (0 when feasible).
    pub max_relative_violation: f64,
    /// Total pairs checked.
    pub pairs: usize,
}

/// Checks the pairwise distance constraints (Eq. 11 / 26) for explicit
/// module centers.
///
/// # Panics
///
/// Panics if `positions.len()` differs from the module count.
pub fn check_distance_feasibility(
    problem: &GlobalFloorplanProblem,
    positions: &[(f64, f64)],
    tolerance: f64,
) -> FeasibilityReport {
    assert_eq!(positions.len(), problem.n, "positions length mismatch");
    let pairs = all_pairs(problem.n);
    let bounds = problem.distance_bounds(&problem.a, &pairs);
    let mut violations = 0;
    let mut max_rel: f64 = 0.0;
    for (&(i, j), &bound) in pairs.iter().zip(&bounds) {
        let d2 =
            (positions[i].0 - positions[j].0).powi(2) + (positions[i].1 - positions[j].1).powi(2);
        // A non-positive bound (e.g. two zero-area modules) is
        // trivially satisfied and must not reach the division.
        if bound > 0.0 && d2 < bound * (1.0 - tolerance) {
            violations += 1;
            max_rel = max_rel.max((bound - d2) / bound);
        }
    }
    FeasibilityReport {
        violations,
        max_relative_violation: max_rel,
        pairs: bounds.len(),
    }
}

/// Weighted Euclidean-square wirelength `Σ_ij A_ij ‖x_i − x_j‖²` plus
/// pad terms — the paper's SDP objective evaluated on explicit
/// positions (useful for comparing iterates across enhancements, whose
/// internal objectives are rescaled).
///
/// # Panics
///
/// Panics if `positions.len()` differs from the module count.
pub fn quadratic_wirelength(
    problem: &GlobalFloorplanProblem,
    positions: &[(f64, f64)],
) -> f64 {
    assert_eq!(positions.len(), problem.n, "positions length mismatch");
    let mut total = 0.0;
    for i in 0..problem.n {
        for j in 0..problem.n {
            let w = problem.a[(i, j)];
            if w == 0.0 {
                continue;
            }
            let d2 = (positions[i].0 - positions[j].0).powi(2)
                + (positions[i].1 - positions[j].1).powi(2);
            total += w * d2;
        }
    }
    for i in 0..problem.n {
        for (j, &(px, py)) in problem.pad_positions.iter().enumerate() {
            let w = problem.pad_a[(i, j)];
            if w == 0.0 {
                continue;
            }
            let d2 = (positions[i].0 - px).powi(2) + (positions[i].1 - py).powi(2);
            total += w * d2;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifted::Lift;
    use crate::ProblemOptions;
    use gfp_netlist::suite;

    #[test]
    fn rank_gap_zero_for_exact_embedding() {
        let lift = Lift::new(5);
        let pos: Vec<(f64, f64)> = (0..5).map(|i| (i as f64 * 3.0, (i * i) as f64)).collect();
        let z = lift.z_matrix(&lift.embed_positions(&pos, 0.0));
        assert!(relative_rank_gap(&z).unwrap() < 1e-10);
        assert_eq!(numeric_rank(&z, 1e-9).unwrap(), 2);
    }

    #[test]
    fn rank_gap_positive_with_slack() {
        let lift = Lift::new(5);
        let pos: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 0.0)).collect();
        let z = lift.z_matrix(&lift.embed_positions(&pos, 5.0));
        assert!(relative_rank_gap(&z).unwrap() > 0.01);
        assert!(numeric_rank(&z, 1e-9).unwrap() > 2);
    }

    #[test]
    fn feasibility_report_counts_overlaps() {
        let b = suite::gsrc_n10();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        // Spread layout: feasible.
        let ok = check_distance_feasibility(&p, &p.spread_positions(), 1e-9);
        assert_eq!(ok.violations, 0);
        assert_eq!(ok.pairs, 45);
        // Everything at the origin: all pairs violated.
        let stacked = vec![(0.0, 0.0); 10];
        let bad = check_distance_feasibility(&p, &stacked, 1e-9);
        assert_eq!(bad.violations, 45);
        assert!(bad.max_relative_violation > 0.99);
    }

    #[test]
    fn zero_area_modules_yield_finite_feasibility() {
        use gfp_linalg::Mat;
        let n = 3;
        let mut a = Mat::zeros(n, n);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 2)] = 1.0;
        a[(2, 1)] = 1.0;
        // Built directly: Netlist::new rejects zero areas, but the
        // problem struct itself does not, and diagnostics must stay
        // finite on such inputs.
        let p = GlobalFloorplanProblem {
            n,
            areas: vec![0.0, 0.0, 4.0],
            radii: vec![0.0, 0.0, 1.0],
            a,
            pad_a: Mat::zeros(n, 0),
            pad_positions: vec![],
            fixed: vec![None; n],
            outline: None,
            aspect_limit: 1.0,
            hyperedges: vec![],
            max_distance: vec![],
            min_distance: vec![],
        };
        // Everything stacked at one point: the two zero-area pairs
        // have a zero distance bound and must not produce NaN/inf.
        let stacked = vec![(0.0, 0.0); n];
        let report = check_distance_feasibility(&p, &stacked, 0.05);
        assert!(
            report.max_relative_violation.is_finite(),
            "relative violation must stay finite, got {}",
            report.max_relative_violation
        );
        assert_eq!(report.pairs, 3);
        // Only the two pairs with a positive bound count as violated.
        assert_eq!(report.violations, 2);
        assert!((report.max_relative_violation - 1.0).abs() < 1e-12);
    }

    /// A one-module problem has no pairs: the report is all zeros and
    /// nothing divides by the (empty) bound list.
    #[test]
    fn single_module_netlist_has_no_pairs() {
        use gfp_linalg::Mat;
        let p = GlobalFloorplanProblem {
            n: 1,
            areas: vec![4.0],
            radii: vec![1.0],
            a: Mat::zeros(1, 1),
            pad_a: Mat::zeros(1, 0),
            pad_positions: vec![],
            fixed: vec![None],
            outline: None,
            aspect_limit: 1.0,
            hyperedges: vec![],
            max_distance: vec![],
            min_distance: vec![],
        };
        let report = check_distance_feasibility(&p, &[(3.0, -7.0)], 0.05);
        assert_eq!(report.pairs, 0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.max_relative_violation, 0.0);
        assert_eq!(quadratic_wirelength(&p, &[(3.0, -7.0)]), 0.0);
    }

    /// Exactly coincident centers of positive-area modules are the
    /// maximal violation: relative violation 1.0, every pair counted.
    #[test]
    fn coincident_centers_are_maximal_violations() {
        let b = suite::gsrc_n10();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let coincident = vec![(17.5, 17.5); 10];
        let report = check_distance_feasibility(&p, &coincident, 0.0);
        assert_eq!(report.violations, report.pairs);
        assert!((report.max_relative_violation - 1.0).abs() < 1e-12);
    }

    /// The tolerance is a one-sided relative slack around
    /// `bound * (1 - tol)`: just above is accepted, just below is
    /// violated.
    #[test]
    fn tolerance_boundary_is_inclusive() {
        use gfp_linalg::Mat;
        let mut a = Mat::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let p = GlobalFloorplanProblem {
            n: 2,
            areas: vec![4.0, 4.0],
            radii: vec![1.0, 1.0],
            a,
            pad_a: Mat::zeros(2, 0),
            pad_positions: vec![],
            fixed: vec![None; 2],
            outline: None,
            aspect_limit: 1.0,
            hyperedges: vec![],
            max_distance: vec![],
            min_distance: vec![],
        };
        let bound = p.distance_bounds(&p.a, &[(0, 1)])[0];
        assert!(bound > 0.0);
        let tol = 0.1;
        let just_above = (bound * (1.0 - tol) * (1.0 + 1e-9)).sqrt();
        let ok = check_distance_feasibility(&p, &[(0.0, 0.0), (just_above, 0.0)], tol);
        assert_eq!(ok.violations, 0, "distance above the slack must be accepted");
        let just_below = (bound * (1.0 - tol) * (1.0 - 1e-6)).sqrt();
        let bad = check_distance_feasibility(&p, &[(0.0, 0.0), (just_below, 0.0)], tol);
        assert_eq!(bad.violations, 1, "distance below the slack must be flagged");
        assert!(bad.max_relative_violation > 0.0);
    }

    #[test]
    fn quadratic_wirelength_decreases_when_connected_modules_approach() {
        let b = suite::gsrc_n10();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let spread = p.spread_positions();
        let wl_spread = quadratic_wirelength(&p, &spread);
        // Contract everything towards the centroid by 2x.
        let cx = spread.iter().map(|p| p.0).sum::<f64>() / 10.0;
        let cy = spread.iter().map(|p| p.1).sum::<f64>() / 10.0;
        let tight: Vec<(f64, f64)> = spread
            .iter()
            .map(|&(x, y)| (cx + (x - cx) / 2.0, cy + (y - cy) / 2.0))
            .collect();
        let wl_tight = quadratic_wirelength(&p, &tight);
        assert!(wl_tight < wl_spread);
    }
}
