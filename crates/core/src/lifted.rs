//! Encoding of the lifted problem `Z = [[I, X], [Xᵀ, G]]` into conic
//! programs.
//!
//! The variable is `x = svec(Z)` over the `(n+2) x (n+2)` symmetric
//! matrix `Z`, with block layout following the paper: rows/columns 0–1
//! are the spatial block (pinned to the identity by equality rows),
//! rows 2..2+n the modules. All objective terms (`B` of Eq. 8, the
//! boundary-pin matrix `B̄` of Eq. 21 and the direction penalty
//! `α·W`) are assembled as one symmetric matrix whose `svec` is the
//! cost vector.
//!
//! Both assemblers take a pair plan and emit one distance row per
//! planned pair (see [`crate::neighbors`]). The convex iteration plans
//! every pair unless the sparsifier engages, so there is one assembly
//! path for the dense and the sparsified problem.

use gfp_conic::ipm::SdpProblem;
use gfp_conic::{ConeProgram, ConeProgramBuilder};
use gfp_linalg::svec::{smat, svec, svec_index, svec_len, SQRT2};
use gfp_linalg::Mat;
use gfp_netlist::adjacency::wirelength_b_matrix;

use crate::{FloorplanError, GlobalFloorplanProblem};

/// Index helper for the lifted variable `svec(Z)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lift {
    /// Number of modules `n`.
    pub n: usize,
    /// Lifted matrix dimension `N = n + 2`.
    pub nn: usize,
    /// Length of `svec(Z)`.
    pub dim: usize,
}

impl Lift {
    /// Creates the lift for `n` modules.
    pub fn new(n: usize) -> Self {
        let nn = n + 2;
        Lift {
            n,
            nn,
            dim: svec_len(nn),
        }
    }

    /// `svec` index of `Z_{ij}` (order-insensitive).
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        svec_index(self.nn, hi, lo)
    }

    /// `svec` index of the coordinate `X[axis][module] = Z_{2+module, axis}`.
    #[inline]
    pub fn x_index(&self, module: usize, axis: usize) -> usize {
        debug_assert!(axis < 2 && module < self.n);
        self.idx(2 + module, axis)
    }

    /// `svec` index of `G_{ij} = Z_{2+i, 2+j}`.
    #[inline]
    pub fn g_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n && j < self.n);
        self.idx(2 + i, 2 + j)
    }

    /// Extracts module centers from a `svec(Z)` vector (the `X` block,
    /// as Algorithm 1 returns `Z[2:, :2]`).
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim`.
    pub fn extract_positions(&self, z: &[f64]) -> Vec<(f64, f64)> {
        assert_eq!(z.len(), self.dim, "svec length mismatch");
        (0..self.n)
            .map(|i| {
                (
                    z[self.x_index(i, 0)] / SQRT2,
                    z[self.x_index(i, 1)] / SQRT2,
                )
            })
            .collect()
    }

    /// Extracts the Gram block `G` as a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim`.
    pub fn extract_gram(&self, z: &[f64]) -> Mat {
        assert_eq!(z.len(), self.dim, "svec length mismatch");
        let mut g = Mat::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..=i {
                let v = z[self.g_index(i, j)];
                let val = if i == j { v } else { v / SQRT2 };
                g[(i, j)] = val;
                g[(j, i)] = val;
            }
        }
        g
    }

    /// Reconstructs the full `Z` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim`.
    pub fn z_matrix(&self, z: &[f64]) -> Mat {
        assert_eq!(z.len(), self.dim, "svec length mismatch");
        smat(z)
    }

    /// Builds `svec(Z)` from explicit module centers, with
    /// `G = XᵀX + slack·I` (a positive `slack` yields `Z ≻ 0`, the
    /// strictly feasible start the barrier backend needs).
    pub fn embed_positions(&self, positions: &[(f64, f64)], slack: f64) -> Vec<f64> {
        assert_eq!(positions.len(), self.n, "positions length mismatch");
        let nn = self.nn;
        let mut z = Mat::zeros(nn, nn);
        z[(0, 0)] = 1.0;
        z[(1, 1)] = 1.0;
        for (i, &(x, y)) in positions.iter().enumerate() {
            z[(2 + i, 0)] = x;
            z[(0, 2 + i)] = x;
            z[(2 + i, 1)] = y;
            z[(1, 2 + i)] = y;
        }
        for i in 0..self.n {
            for j in 0..self.n {
                let g = positions[i].0 * positions[j].0 + positions[i].1 * positions[j].1;
                z[(2 + i, 2 + j)] = g + if i == j { slack } else { 0.0 };
            }
        }
        svec(&z)
    }

    /// Euclidean distance squares `D_ij` from the Gram block, for pairs
    /// `i < j` in lexicographic order.
    pub fn distance_squares(&self, z: &[f64]) -> Vec<f64> {
        let g = self.extract_gram(z);
        let mut out = Vec::with_capacity(self.n * (self.n - 1) / 2);
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                out.push(g[(i, i)] + g[(j, j)] - 2.0 * g[(i, j)]);
            }
        }
        out
    }
}

/// The assembled objective `<M, Z> + constant`.
#[derive(Debug, Clone)]
pub struct LiftedObjective {
    /// Symmetric `(n+2) x (n+2)` cost matrix.
    pub matrix: Mat,
    /// Constant offset (from pad coordinates), reported but not
    /// optimized.
    pub constant: f64,
}

/// Assembles the objective matrix: `B̃(a_eff) + pad terms + α·W`.
///
/// `a_eff` is the connectivity in effect this iteration (the base `A`
/// or an enhanced reweighting); `direction` is the `(n+2) x (n+2)`
/// direction matrix `W` with its coefficient `α`.
///
/// # Panics
///
/// Panics if dimensions are inconsistent with the problem.
pub fn objective_matrix(
    problem: &GlobalFloorplanProblem,
    a_eff: &Mat,
    direction: Option<(&Mat, f64)>,
) -> LiftedObjective {
    let n = problem.n;
    assert_eq!(a_eff.nrows(), n, "a_eff dimension mismatch");
    let lift = Lift::new(n);
    let nn = lift.nn;
    let mut m = Mat::zeros(nn, nn);

    // Wirelength block: embed B (Eq. 8) into the Gram block.
    let b = wirelength_b_matrix(a_eff);
    for i in 0..n {
        for j in 0..n {
            m[(2 + i, 2 + j)] += b[(i, j)];
        }
    }

    // Boundary pins (Eq. 21): Σ_ij Ā_ij (G_ii − 2 x_i·x̄_j + ‖x̄_j‖²).
    let mut constant = 0.0;
    for i in 0..n {
        let mut weight_sum = 0.0;
        let mut wx = 0.0;
        let mut wy = 0.0;
        for (j, &(px, py)) in problem.pad_positions.iter().enumerate() {
            let w = problem.pad_a[(i, j)];
            if w == 0.0 {
                continue;
            }
            weight_sum += w;
            wx += w * px;
            wy += w * py;
            constant += w * (px * px + py * py);
        }
        if weight_sum == 0.0 {
            continue;
        }
        m[(2 + i, 2 + i)] += weight_sum;
        // −2 x_i · Σ w x̄: split across the two symmetric entries so the
        // full inner product contributes −2·(…).
        m[(2 + i, 0)] += -wx;
        m[(0, 2 + i)] += -wx;
        m[(2 + i, 1)] += -wy;
        m[(1, 2 + i)] += -wy;
    }

    // Direction penalty α·W.
    if let Some((w, alpha)) = direction {
        assert_eq!(w.nrows(), nn, "direction matrix must be (n+2)x(n+2)");
        m.axpy_mut(alpha, w);
    }
    m.symmetrize_mut();
    LiftedObjective {
        matrix: m,
        constant,
    }
}

/// Reusable assembly scratch: a [`ConeProgramBuilder`] retained across
/// α rounds so repeated sub-problem-1 assembly reuses its row, offset
/// and triplet buffers instead of reallocating them every round (the
/// same hoisting pattern as the ADMM `CgWorkspace`). A workspace never
/// changes the assembled program — builds through a warm workspace
/// are bitwise-identical to builds through a new one.
#[derive(Debug, Clone, Default)]
pub struct AssemblyWorkspace {
    builder: Option<ConeProgramBuilder>,
}

impl AssemblyWorkspace {
    /// Creates an empty workspace; buffers are allocated on first use.
    pub fn new() -> Self {
        AssemblyWorkspace::default()
    }

    /// Hands out the retained builder, cleared for `num_vars`.
    fn builder(&mut self, num_vars: usize) -> &mut ConeProgramBuilder {
        let b = self
            .builder
            .get_or_insert_with(|| ConeProgramBuilder::new(num_vars));
        b.clear(num_vars);
        b
    }
}

/// Builds the ADMM cone program for sub-problem 1 (Eq. 18), with the
/// given effective connectivity and assembled objective.
///
/// `pairs` is the distance-constraint plan: one row per planned pair,
/// in plan order, with bounds from
/// [`GlobalFloorplanProblem::distance_bounds`]. The convex iteration
/// passes [`crate::neighbors::all_pairs`] unless the sparsifier is
/// active. The program is assembled into `workspace`'s retained
/// builder (allocation-free once warm); the workspace never changes
/// the output.
///
/// # Errors
///
/// Propagates builder validation failures.
pub fn build_admm_program(
    problem: &GlobalFloorplanProblem,
    a_eff: &Mat,
    objective: &LiftedObjective,
    pairs: &[(usize, usize)],
    workspace: &mut AssemblyWorkspace,
) -> Result<ConeProgram, FloorplanError> {
    let n = problem.n;
    let lift = Lift::new(n);
    let builder = workspace.builder(lift.dim);

    // Pre-size the row buckets (a no-op on the program contents; it
    // only avoids grow-reallocations in the reusable builder).
    builder.reserve_ineq(
        pairs.len() + problem.max_distance.len() + 4 * n,
        3 * (pairs.len() + problem.max_distance.len()) + 4 * n,
    );

    // Objective.
    let c = svec(&objective.matrix);
    for (j, &cj) in c.iter().enumerate() {
        if cj != 0.0 {
            builder.set_objective_coeff(j, cj);
        }
    }

    // Identity block equalities.
    builder.add_eq(&[(lift.idx(0, 0), 1.0)], 1.0);
    builder.add_eq(&[(lift.idx(1, 1), 1.0)], 1.0);
    builder.add_eq(&[(lift.idx(1, 0), 1.0)], 0.0);

    // PPM equalities (Eq. 23–24).
    let fixed: Vec<(usize, (f64, f64))> = problem
        .fixed
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.map(|p| (i, p)))
        .collect();
    for &(i, (fx, fy)) in &fixed {
        builder.add_eq(&[(lift.x_index(i, 0), 1.0)], SQRT2 * fx);
        builder.add_eq(&[(lift.x_index(i, 1), 1.0)], SQRT2 * fy);
    }
    for (ai, &(i, (xi, yi))) in fixed.iter().enumerate() {
        for &(j, (xj, yj)) in &fixed[ai..] {
            let dot = xi * xj + yi * yj;
            if i == j {
                builder.add_eq(&[(lift.g_index(i, i), 1.0)], dot);
            } else {
                builder.add_eq(&[(lift.g_index(i, j), 1.0)], SQRT2 * dot);
            }
        }
    }

    // Pairwise distance constraints (Eq. 11 / 26) over the pair plan.
    let bounds = problem.distance_bounds(a_eff, pairs);
    for (&(i, j), &bound) in pairs.iter().zip(&bounds) {
        builder.add_ge(
            &[
                (lift.g_index(i, i), 1.0),
                (lift.g_index(j, j), 1.0),
                (lift.g_index(i, j), -SQRT2),
            ],
            bound,
        );
    }

    // User maximum-distance constraints (Section IV-D): D_ij ≤ bound.
    for &(i, j, bound) in &problem.max_distance {
        builder.add_le(
            &[
                (lift.g_index(i, i), 1.0),
                (lift.g_index(j, j), 1.0),
                (lift.g_index(i, j), -SQRT2),
            ],
            bound,
        );
    }

    // Outline bounds on centers (Section IV-B0b).
    for i in 0..n {
        if problem.fixed[i].is_some() {
            continue;
        }
        if let Some((lx, hx, ly, hy)) = problem.center_bounds(i) {
            builder.add_ge(&[(lift.x_index(i, 0), 1.0)], SQRT2 * lx);
            builder.add_le(&[(lift.x_index(i, 0), 1.0)], SQRT2 * hx);
            builder.add_ge(&[(lift.x_index(i, 1), 1.0)], SQRT2 * ly);
            builder.add_le(&[(lift.x_index(i, 1), 1.0)], SQRT2 * hy);
        }
    }

    // PSD cone over the whole Z.
    builder.add_psd_vars(&(0..lift.dim).collect::<Vec<_>>());

    Ok(builder.build()?)
}

/// Builds the barrier-IPM problem for sub-problem 1, with the same
/// `pairs` contract as [`build_admm_program`].
///
/// # Errors
///
/// Returns [`FloorplanError::UnsupportedByBackend`] when the problem
/// has pre-placed modules: fixing `G_ii = ‖x_i‖²` removes the strict
/// interior the barrier method requires.
pub fn build_ipm_problem(
    problem: &GlobalFloorplanProblem,
    a_eff: &Mat,
    objective: &LiftedObjective,
    pairs: &[(usize, usize)],
) -> Result<SdpProblem, FloorplanError> {
    if problem.has_fixed_modules() {
        return Err(FloorplanError::UnsupportedByBackend {
            backend: "barrier-ipm",
            reason: "pre-placed modules leave no strictly feasible interior".into(),
        });
    }
    let n = problem.n;
    let lift = Lift::new(n);
    let mut sdp = SdpProblem::new(lift.nn);
    sdp.c = svec(&objective.matrix);
    sdp.eq.push((vec![(lift.idx(0, 0), 1.0)], 1.0));
    sdp.eq.push((vec![(lift.idx(1, 1), 1.0)], 1.0));
    sdp.eq.push((vec![(lift.idx(1, 0), 1.0)], 0.0));
    let bounds = problem.distance_bounds(a_eff, pairs);
    for (&(i, j), &bound) in pairs.iter().zip(&bounds) {
        sdp.ineq.push((
            vec![
                (lift.g_index(i, i), 1.0),
                (lift.g_index(j, j), 1.0),
                (lift.g_index(i, j), -SQRT2),
            ],
            bound,
        ));
    }
    for &(i, j, bound) in &problem.max_distance {
        sdp.ineq.push((
            vec![
                (lift.g_index(i, i), -1.0),
                (lift.g_index(j, j), -1.0),
                (lift.g_index(i, j), SQRT2),
            ],
            -bound,
        ));
    }
    for i in 0..n {
        if let Some((lx, hx, ly, hy)) = problem.center_bounds(i) {
            sdp.ineq.push((vec![(lift.x_index(i, 0), 1.0)], SQRT2 * lx));
            sdp.ineq
                .push((vec![(lift.x_index(i, 0), -1.0)], -SQRT2 * hx));
            sdp.ineq.push((vec![(lift.x_index(i, 1), 1.0)], SQRT2 * ly));
            sdp.ineq
                .push((vec![(lift.x_index(i, 1), -1.0)], -SQRT2 * hy));
        }
    }
    Ok(sdp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbors::all_pairs;
    use crate::ProblemOptions;
    use gfp_netlist::suite;

    fn problem() -> GlobalFloorplanProblem {
        let b = suite::gsrc_n10();
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap()
    }

    #[test]
    fn lift_indexing_roundtrip() {
        let lift = Lift::new(4);
        assert_eq!(lift.nn, 6);
        assert_eq!(lift.dim, 21);
        // idx is order-insensitive.
        assert_eq!(lift.idx(3, 1), lift.idx(1, 3));
        // All indices are distinct and in range.
        let mut seen = std::collections::HashSet::new();
        for i in 0..6 {
            for j in 0..=i {
                let k = lift.idx(i, j);
                assert!(k < lift.dim);
                assert!(seen.insert(k));
            }
        }
        assert_eq!(seen.len(), 21);
    }

    #[test]
    fn embed_extract_positions_roundtrip() {
        let lift = Lift::new(5);
        let pos: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, -(i as f64) * 2.0)).collect();
        let z = lift.embed_positions(&pos, 0.5);
        let back = lift.extract_positions(&z);
        for (a, b) in pos.iter().zip(back.iter()) {
            assert!((a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12);
        }
        // Z must be PSD (strictly, thanks to the slack).
        let zm = lift.z_matrix(&z);
        let evals = gfp_linalg::eigvalsh(&zm).unwrap();
        assert!(evals[0] > 0.0, "min eig {}", evals[0]);
    }

    #[test]
    fn embedded_gram_matches_positions() {
        let lift = Lift::new(3);
        let pos = [(1.0, 2.0), (-1.0, 0.5), (3.0, -2.0)];
        let z = lift.embed_positions(&pos, 0.0);
        let g = lift.extract_gram(&z);
        for i in 0..3 {
            for j in 0..3 {
                let expect = pos[i].0 * pos[j].0 + pos[i].1 * pos[j].1;
                assert!((g[(i, j)] - expect).abs() < 1e-12);
            }
        }
        // Distance squares match Euclidean geometry.
        let d = lift.distance_squares(&z);
        let d01 = (pos[0].0 - pos[1].0).powi(2) + (pos[0].1 - pos[1].1).powi(2);
        assert!((d[0] - d01).abs() < 1e-12);
    }

    #[test]
    fn objective_matrix_reproduces_weighted_distance_sum() {
        // <B̃, Z> must equal Σ A_ij D_ij for an embedded layout.
        let p = problem();
        let lift = Lift::new(p.n);
        let obj = objective_matrix(&p, &p.a, None);
        let pos = p.spread_positions();
        let z = lift.embed_positions(&pos, 0.0);
        let zm = lift.z_matrix(&z);
        let via_matrix = obj.matrix.dot(&zm) + obj.constant;
        // Direct: module-module Σ A_ij D_ij + pad terms Σ Ā_ij |x_i − pad_j|².
        let mut direct = 0.0;
        for i in 0..p.n {
            for j in 0..p.n {
                let d = (pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2);
                direct += p.a[(i, j)] * d;
            }
        }
        for i in 0..p.n {
            for (j, &(px, py)) in p.pad_positions.iter().enumerate() {
                let d = (pos[i].0 - px).powi(2) + (pos[i].1 - py).powi(2);
                direct += p.pad_a[(i, j)] * d;
            }
        }
        assert!(
            (via_matrix - direct).abs() < 1e-6 * direct.abs().max(1.0),
            "matrix {via_matrix} vs direct {direct}"
        );
    }

    #[test]
    fn direction_penalty_adds_alpha_w() {
        let p = problem();
        let lift = Lift::new(p.n);
        let w = Mat::identity(lift.nn);
        let with = objective_matrix(&p, &p.a, Some((&w, 2.0)));
        let without = objective_matrix(&p, &p.a, None);
        let diff = &with.matrix - &without.matrix;
        assert!((&diff - &w.scaled(2.0)).norm_max() < 1e-12);
    }

    /// Assembles the ADMM program over the all-pairs plan through a
    /// fresh workspace.
    fn all_pairs_admm(p: &GlobalFloorplanProblem, obj: &LiftedObjective) -> ConeProgram {
        let plan = all_pairs(p.n);
        build_admm_program(p, &p.a, obj, &plan, &mut AssemblyWorkspace::new()).unwrap()
    }

    #[test]
    fn admm_program_dimensions() {
        let p = problem();
        let obj = objective_matrix(&p, &p.a, None);
        let prog = all_pairs_admm(&p, &obj);
        let lift = Lift::new(p.n);
        assert_eq!(prog.num_vars(), lift.dim);
        // rows: 3 identity eqs + 45 distance ineqs + PSD block rows.
        assert_eq!(prog.num_rows(), 3 + 45 + lift.dim);
    }

    #[test]
    fn warm_workspace_is_bitwise_fresh() {
        let p = problem();
        let obj = objective_matrix(&p, &p.a, None);
        let fresh = all_pairs_admm(&p, &obj);
        let plan = all_pairs(p.n);
        let mut ws = AssemblyWorkspace::new();
        // Warm the workspace on a smaller program first, then build the
        // full plan through it twice: both builds must be bitwise the
        // program a new workspace assembles.
        build_admm_program(&p, &p.a, &obj, &plan[..7], &mut ws).unwrap();
        for _ in 0..2 {
            let warm = build_admm_program(&p, &p.a, &obj, &plan, &mut ws).unwrap();
            assert_eq!(warm.c, fresh.c);
            assert_eq!(warm.b, fresh.b);
            assert_eq!(warm.cones, fresh.cones);
            assert_eq!(warm.a.to_dense().as_slice(), fresh.a.to_dense().as_slice());
        }
    }

    #[test]
    fn sparse_plan_drops_distance_rows() {
        let p = problem();
        let obj = objective_matrix(&p, &p.a, None);
        let lift = Lift::new(p.n);
        // Keep only the first 12 pairs: 3 identity eqs + 12 distance
        // ineqs + PSD rows.
        let plan = &all_pairs(p.n)[..12];
        let prog = build_admm_program(&p, &p.a, &obj, plan, &mut AssemblyWorkspace::new()).unwrap();
        assert_eq!(prog.num_rows(), 3 + 12 + lift.dim);
        let sdp = build_ipm_problem(&p, &p.a, &obj, plan).unwrap();
        assert_eq!(sdp.ineq.len(), 12);
    }

    #[test]
    fn ipm_rejects_ppm() {
        let b = suite::gsrc_n10();
        let nl = b.netlist.with_fixed_module(0, 0.0, 0.0);
        let p = GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).unwrap();
        let obj = objective_matrix(&p, &p.a, None);
        assert!(matches!(
            build_ipm_problem(&p, &p.a, &obj, &all_pairs(p.n)),
            Err(FloorplanError::UnsupportedByBackend { .. })
        ));
    }

    #[test]
    fn admm_program_includes_ppm_rows() {
        let b = suite::gsrc_n10();
        let nl = b.netlist.with_fixed_module(2, 10.0, 20.0);
        let p = GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).unwrap();
        let obj = objective_matrix(&p, &p.a, None);
        let prog = all_pairs_admm(&p, &obj);
        // 3 identity + 2 coordinate + 1 Gram equality rows.
        let lift = Lift::new(p.n);
        assert_eq!(prog.num_rows(), 6 + 45 + lift.dim);
    }

    #[test]
    fn outline_bounds_add_rows() {
        let b = suite::gsrc_n10();
        let opts = ProblemOptions {
            outline: Some(b.outline(1.0)),
            ..ProblemOptions::default()
        };
        let p = GlobalFloorplanProblem::from_netlist(&b.netlist, &opts).unwrap();
        let obj = objective_matrix(&p, &p.a, None);
        let prog = all_pairs_admm(&p, &obj);
        let lift = Lift::new(p.n);
        assert_eq!(prog.num_rows(), 3 + 45 + 4 * 10 + lift.dim);
    }
}
