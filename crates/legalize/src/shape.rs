//! Shape optimization as a second-order cone program.
//!
//! Variables per module: lower-left corner `(x, y)`, width `w`,
//! height `h`. Variables per net: HPWL bounds `Lx ≤ … ≤ Ux`,
//! `Ly ≤ … ≤ Uy`. The objective is the summed (weighted) HPWL; the
//! soft-module area constraint `w·h ≥ s` is the second-order cone
//! `‖(2√s, w − h)‖₂ ≤ w + h`.

use gfp_conic::{AdmmSettings, AdmmSolver, ConeProgram, ConeProgramBuilder};
use gfp_core::GlobalFloorplanProblem;
use gfp_netlist::geometry::Rect;
use gfp_netlist::{hpwl, Netlist, Outline, PinRef};
use gfp_telemetry as telemetry;

use crate::constraint_graph::{ConstraintGraph, Relation};
use crate::LegalizeError;

/// Settings for legalization.
#[derive(Debug, Clone)]
pub struct LegalizeSettings {
    /// Conic solver settings.
    pub admm: AdmmSettings,
}

impl Default for LegalizeSettings {
    fn default() -> Self {
        LegalizeSettings {
            admm: AdmmSettings {
                eps: 1e-6,
                max_iter: 30_000,
            },
        }
    }
}

/// Relative validation tolerance (area shortfall, overlap depth,
/// outline escape).
const TOL: f64 = 5e-3;

/// A legalized floorplan.
#[derive(Debug, Clone)]
pub struct LegalFloorplan {
    /// One rectangle per module.
    pub rects: Vec<Rect>,
    /// Exact HPWL of the legalized layout (module centers + pads).
    pub hpwl: f64,
    /// The SOCP objective (the LP-relaxed HPWL bound, diagnostics).
    pub socp_objective: f64,
}

/// Legalizes a global floorplan into the outline.
///
/// Builds the constraint graphs from `centers`, solves the shape SOCP
/// and validates the result.
///
/// # Errors
///
/// * [`LegalizeError::Infeasible`] — the solver could not find a
///   usable solution (overfull constraint graph: the paper's
///   legalization failure).
/// * [`LegalizeError::InvalidShapes`] — solver converged but physical
///   checks fail beyond tolerance.
///
/// # Panics
///
/// Panics if `centers.len()` differs from the module count.
pub fn legalize(
    netlist: &Netlist,
    problem: &GlobalFloorplanProblem,
    outline: &Outline,
    centers: &[(f64, f64)],
    settings: &LegalizeSettings,
) -> Result<LegalFloorplan, LegalizeError> {
    let n = problem.n;
    assert_eq!(centers.len(), n, "centers length mismatch");
    let _legalize_span = telemetry::span("legalize");
    let k = problem.aspect_limit.max(1.0);
    let scale = outline.width;

    // --- constraint graphs + TOFU-style repair ---------------------------
    let graph_span = telemetry::span("legalize.graph");
    let mut graph = ConstraintGraph::from_positions(centers, outline);
    // Flip critical-path relations until shapes fit, trying square
    // shapes first and progressively more compressed ones.
    for shrink in [1.0, 0.85, 0.7, 1.0 / k.sqrt()] {
        let sizes: Vec<f64> = problem
            .areas
            .iter()
            .map(|s| s.sqrt() * shrink)
            .collect();
        if graph.repair(&sizes, outline, centers, 8 * n) {
            break;
        }
    }
    // Quick infeasibility screen with the most compressible shapes.
    let min_w: Vec<f64> = problem
        .areas
        .iter()
        .map(|s| (s / k).sqrt())
        .collect();
    if graph.min_width(&min_w) > outline.width * (1.0 + TOL)
        || graph.min_height(&min_w) > outline.height * (1.0 + TOL)
    {
        if telemetry::enabled() {
            telemetry::event(
                "legalize.infeasible",
                &[
                    ("modules", (n as u64).into()),
                    ("min_width", graph.min_width(&min_w).into()),
                    ("min_height", graph.min_height(&min_w).into()),
                ],
            );
        }
        return Err(LegalizeError::Infeasible {
            detail: format!(
                "constraint graph needs {:.1} x {:.1}, outline is {:.1} x {:.1}",
                graph.min_width(&min_w),
                graph.min_height(&min_w),
                outline.width,
                outline.height
            ),
        });
    }
    if telemetry::enabled() {
        telemetry::event(
            "legalize.graph",
            &[
                ("modules", (n as u64).into()),
                ("relations", (graph.relations.len() as u64).into()),
            ],
        );
    }
    drop(graph_span);

    let (program, warm) = shape_program(netlist, problem, outline, centers, &graph, k)?;

    // --- solve --------------------------------------------------------------
    let socp_span = telemetry::span("legalize.socp");
    let solver = AdmmSolver::new(settings.admm.clone());
    let (sol, _trace) = solver.solve_with_trace(&program, Some(&warm))?;
    drop(socp_span);
    // A non-converged solve may still carry physically valid shapes
    // (feasible but not wirelength-optimal); validation below decides.
    let solver_note = if sol.status.is_usable() {
        None
    } else {
        Some(format!(
            "solver status {:?} (primal {:.2e}, dual {:.2e}, gap {:.2e})",
            sol.status,
            sol.info.primal_residual,
            sol.info.dual_residual,
            sol.info.duality_gap
        ))
    };

    // --- extract and validate ----------------------------------------------
    let mut rects: Vec<Rect> = (0..n)
        .map(|i| {
            Rect::new(
                sol.x[var_x(i)] * scale,
                sol.x[var_y(i)] * scale,
                sol.x[var_w(i)] * scale,
                sol.x[var_h(i)] * scale,
            )
        })
        .collect();
    // Inflate any slight area shortfall from solver tolerance, then
    // nudge rectangles back inside the outline.
    for (i, r) in rects.iter_mut().enumerate() {
        let s = problem.areas[i];
        if r.area() < s {
            let f = (s / r.area()).sqrt();
            r.w *= f;
            r.h *= f;
        }
        if r.x < 0.0 {
            r.x = 0.0;
        }
        if r.y < 0.0 {
            r.y = 0.0;
        }
        if r.x + r.w > outline.width {
            r.x = (outline.width - r.w).max(0.0);
        }
        if r.y + r.h > outline.height {
            r.y = (outline.height - r.h).max(0.0);
        }
    }
    if let Err(e) = validate(&rects, problem, outline) {
        return Err(match solver_note {
            Some(note) => LegalizeError::Infeasible {
                detail: format!("{note}; {e}"),
            },
            None => e,
        });
    }

    let centers: Vec<(f64, f64)> = rects.iter().map(Rect::center).collect();
    let wl = hpwl::hpwl(netlist, &centers);
    if telemetry::enabled() {
        telemetry::event(
            "legalize.done",
            &[
                ("modules", (n as u64).into()),
                ("hpwl", wl.into()),
                ("socp_objective", (sol.objective * scale).into()),
            ],
        );
    }
    Ok(LegalFloorplan {
        rects,
        hpwl: wl,
        socp_objective: sol.objective * scale,
    })
}

/// Column of module `i`'s lower-left `x` in the shape SOCP; `y`, `w`
/// and `h` follow it.
fn var_x(i: usize) -> usize {
    4 * i
}
fn var_y(i: usize) -> usize {
    4 * i + 1
}
fn var_w(i: usize) -> usize {
    4 * i + 2
}
fn var_h(i: usize) -> usize {
    4 * i + 3
}

/// The shape SOCP over the relations of `graph`, with the warm start
/// the module centres give; coordinates are normalized by the outline
/// width, and `k` is the aspect limit.
fn shape_program(
    netlist: &Netlist,
    problem: &GlobalFloorplanProblem,
    outline: &Outline,
    centers: &[(f64, f64)],
    graph: &ConstraintGraph,
    k: f64,
) -> Result<(ConeProgram, Vec<f64>), LegalizeError> {
    let n = problem.n;
    let scale = outline.width;
    // --- variable layout (normalized by outline width) -------------------
    let nets: Vec<&gfp_netlist::Net> = netlist
        .nets()
        .iter()
        .filter(|e| e.pins.len() >= 2)
        .collect();
    let net_base = 4 * n;
    let var_lx = |e: usize| net_base + 4 * e;
    let var_ux = |e: usize| net_base + 4 * e + 1;
    let var_ly = |e: usize| net_base + 4 * e + 2;
    let var_uy = |e: usize| net_base + 4 * e + 3;
    let num_vars = net_base + 4 * nets.len();
    let mut b = ConeProgramBuilder::new(num_vars);

    // Objective: Σ w_e (Ux − Lx + Uy − Ly).
    for (e, net) in nets.iter().enumerate() {
        b.add_objective_coeff(var_ux(e), net.weight);
        b.add_objective_coeff(var_lx(e), -net.weight);
        b.add_objective_coeff(var_uy(e), net.weight);
        b.add_objective_coeff(var_ly(e), -net.weight);
    }

    let ow = outline.width / scale;
    let oh = outline.height / scale;
    for i in 0..n {
        let s = problem.areas[i] / (scale * scale);
        // Per-module aspect bounds from the netlist override the global
        // limit: aspect = w/h with w·h = s gives w = sqrt(s·aspect).
        let (ar_lo, ar_hi) = netlist.modules()[i]
            .aspect_bounds
            .unwrap_or((1.0 / k, k));
        let wmin = (s * ar_lo).sqrt();
        let wmax = (s * ar_hi).sqrt();
        // Outline box.
        b.add_ge(&[(var_x(i), 1.0)], 0.0);
        b.add_le(&[(var_x(i), 1.0), (var_w(i), 1.0)], ow);
        b.add_ge(&[(var_y(i), 1.0)], 0.0);
        b.add_le(&[(var_y(i), 1.0), (var_h(i), 1.0)], oh);
        // Shape bounds.
        b.add_ge(&[(var_w(i), 1.0)], wmin);
        b.add_le(&[(var_w(i), 1.0)], wmax);
        b.add_ge(&[(var_h(i), 1.0)], wmin);
        b.add_le(&[(var_h(i), 1.0)], wmax);
        // Area: (w + h, 2√s, w − h) ∈ SOC.
        b.add_soc(&[
            (&[(var_w(i), -1.0), (var_h(i), -1.0)], 0.0),
            (&[], 2.0 * s.sqrt()),
            (&[(var_w(i), -1.0), (var_h(i), 1.0)], 0.0),
        ]);
    }

    // Pair separations.
    for rel in &graph.relations {
        match *rel {
            Relation::LeftOf { left, right } => {
                b.add_le(
                    &[(var_x(left), 1.0), (var_w(left), 1.0), (var_x(right), -1.0)],
                    0.0,
                );
            }
            Relation::Below { below, above } => {
                b.add_le(
                    &[(var_y(below), 1.0), (var_h(below), 1.0), (var_y(above), -1.0)],
                    0.0,
                );
            }
        }
    }

    // Net bound rows.
    for (e, net) in nets.iter().enumerate() {
        for pin in &net.pins {
            match pin {
                PinRef::Module(i) => {
                    // Lx ≤ x + w/2  =>  Lx − x − w/2 ≤ 0
                    b.add_le(
                        &[(var_lx(e), 1.0), (var_x(*i), -1.0), (var_w(*i), -0.5)],
                        0.0,
                    );
                    b.add_le(
                        &[(var_x(*i), 1.0), (var_w(*i), 0.5), (var_ux(e), -1.0)],
                        0.0,
                    );
                    b.add_le(
                        &[(var_ly(e), 1.0), (var_y(*i), -1.0), (var_h(*i), -0.5)],
                        0.0,
                    );
                    b.add_le(
                        &[(var_y(*i), 1.0), (var_h(*i), 0.5), (var_uy(e), -1.0)],
                        0.0,
                    );
                }
                PinRef::Pad(p) => {
                    let pad = &netlist.pads()[*p];
                    let (px, py) = (pad.x / scale, pad.y / scale);
                    b.add_le(&[(var_lx(e), 1.0)], px);
                    b.add_ge(&[(var_ux(e), 1.0)], px);
                    b.add_le(&[(var_ly(e), 1.0)], py);
                    b.add_ge(&[(var_uy(e), 1.0)], py);
                }
            }
        }
    }

    // --- warm start -------------------------------------------------------
    let mut warm = vec![0.0; num_vars];
    for i in 0..n {
        let s = problem.areas[i] / (scale * scale);
        let side = s.sqrt();
        let cx = (centers[i].0 / scale).clamp(side / 2.0, ow - side / 2.0);
        let cy = (centers[i].1 / scale).clamp(side / 2.0, oh - side / 2.0);
        warm[var_x(i)] = cx - side / 2.0;
        warm[var_y(i)] = cy - side / 2.0;
        warm[var_w(i)] = side;
        warm[var_h(i)] = side;
    }
    for (e, net) in nets.iter().enumerate() {
        let mut lx = f64::MAX;
        let mut ux = f64::MIN;
        let mut ly = f64::MAX;
        let mut uy = f64::MIN;
        for pin in &net.pins {
            let (cx, cy) = match pin {
                PinRef::Module(i) => (
                    warm[var_x(*i)] + warm[var_w(*i)] / 2.0,
                    warm[var_y(*i)] + warm[var_h(*i)] / 2.0,
                ),
                PinRef::Pad(p) => {
                    let pad = &netlist.pads()[*p];
                    (pad.x / scale, pad.y / scale)
                }
            };
            lx = lx.min(cx);
            ux = ux.max(cx);
            ly = ly.min(cy);
            uy = uy.max(cy);
        }
        warm[var_lx(e)] = lx;
        warm[var_ux(e)] = ux;
        warm[var_ly(e)] = ly;
        warm[var_uy(e)] = uy;
    }
    Ok((b.build()?, warm))
}

/// Physical validation of the legalized shapes.
fn validate(
    rects: &[Rect],
    problem: &GlobalFloorplanProblem,
    outline: &Outline,
) -> Result<(), LegalizeError> {
    let lin_tol = TOL * outline.width.max(outline.height);
    for (i, r) in rects.iter().enumerate() {
        if r.w <= 0.0 || r.h <= 0.0 {
            return Err(LegalizeError::InvalidShapes {
                detail: format!("module {i} has non-positive size {r:?}"),
            });
        }
        if r.area() < problem.areas[i] * (1.0 - TOL) {
            return Err(LegalizeError::InvalidShapes {
                detail: format!(
                    "module {i} area {:.2} below requirement {:.2}",
                    r.area(),
                    problem.areas[i]
                ),
            });
        }
        if r.x < -lin_tol
            || r.y < -lin_tol
            || r.x + r.w > outline.width + lin_tol
            || r.y + r.h > outline.height + lin_tol
        {
            return Err(LegalizeError::InvalidShapes {
                detail: format!("module {i} escapes the outline: {r:?}"),
            });
        }
    }
    for i in 0..rects.len() {
        for j in (i + 1)..rects.len() {
            if rects[i].overlaps_with_tol(&rects[j], lin_tol) {
                return Err(LegalizeError::InvalidShapes {
                    detail: format!(
                        "modules {i} and {j} overlap: {:?} vs {:?}",
                        rects[i], rects[j]
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_core::ProblemOptions;
    use gfp_netlist::suite;

    fn setup(ratio: f64) -> (Netlist, GlobalFloorplanProblem, Outline) {
        let b = suite::gsrc_n10();
        let (nl, outline) = b.with_pads_on_outline(ratio);
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

    /// A sane hand layout: grid positions inside the outline, with the
    /// grid shape adapted to the outline aspect ratio.
    fn grid_centers(n: usize, outline: &Outline) -> Vec<(f64, f64)> {
        let cols = ((n as f64 * outline.width / outline.height).sqrt().ceil() as usize).max(1);
        let rows = n.div_ceil(cols);
        (0..n)
            .map(|i| {
                let cx = ((i % cols) as f64 + 0.5) / cols as f64 * outline.width;
                let cy = ((i / cols) as f64 + 0.5) / rows as f64 * outline.height;
                (cx, cy)
            })
            .collect()
    }

    /// Factors the normal matrix `εI + ĀᵀĀ` that the ADMM x-update
    /// factors for `program` (its equilibrated `Ā`, read from a reuse
    /// cache after one iteration), both sparse and dense, and checks
    /// the two solutions and the sparse residual.
    fn assert_normal_factor_matches_dense(program: &gfp_conic::ConeProgram) {
        let mut reuse = gfp_conic::AdmmReuse::new();
        let one_step = AdmmSettings { max_iter: 1, ..AdmmSettings::default() };
        AdmmSolver::new(one_step).solve_with_reuse(program, None, &mut reuse).unwrap();
        let cache = reuse.snapshot().cache.unwrap();
        let m = cache.a_scaled.normal_matrix(cache.prox_eps);
        let b: Vec<f64> = (0..m.nrows()).map(|j| (0.7 * j as f64).cos()).collect();
        let mut x = b.clone();
        gfp_linalg::SparseCholesky::new(&m).unwrap().solve_in_place(&mut x);
        let dense = gfp_linalg::Cholesky::new(&m.to_dense()).unwrap().solve(&b);
        let norm = |v: &[f64]| v.iter().map(|t| t * t).sum::<f64>().sqrt();
        let r: Vec<f64> = m.matvec(&x).iter().zip(&b).map(|(u, v)| u - v).collect();
        let d: Vec<f64> = x.iter().zip(&dense).map(|(u, v)| u - v).collect();
        assert!(norm(&r) <= 1e-12 * norm(&b), "residual {:e}", norm(&r) / norm(&b));
        assert!(norm(&d) <= 1e-9 * norm(&dense), "vs dense {:e}", norm(&d) / norm(&dense));
    }

    #[test]
    fn normal_factor_matches_dense_on_n10_sdp_and_legalization() {
        use gfp_core::lifted::{build_admm_program, objective_matrix, AssemblyWorkspace};
        let (nl, p, outline) = setup(1.0);
        let identity = gfp_linalg::Mat::identity(p.n + 2);
        let objective = objective_matrix(&p, &p.a, Some((&identity, 2.0)));
        let pairs = gfp_core::neighbors::all_pairs(p.n);
        let mut ws = AssemblyWorkspace::new();
        let sdp = build_admm_program(&p, &p.a, &objective, &pairs, &mut ws).unwrap();
        assert_normal_factor_matches_dense(&sdp);

        let centers = grid_centers(p.n, &outline);
        let graph = ConstraintGraph::from_positions(&centers, &outline);
        let (socp, _) = shape_program(&nl, &p, &outline, &centers, &graph, 3.0).unwrap();
        assert!(socp.num_vars() > 400, "the n10 legalization SOCP has {} vars", socp.num_vars());
        assert_normal_factor_matches_dense(&socp);
    }

    #[test]
    fn legalizes_grid_layout() {
        let (nl, p, outline) = setup(1.0);
        let centers = grid_centers(10, &outline);
        let legal = legalize(&nl, &p, &outline, &centers, &LegalizeSettings::default())
            .expect("grid layout legalizes");
        assert_eq!(legal.rects.len(), 10);
        assert!(legal.hpwl > 0.0);
        // Validation invariants re-checked here explicitly.
        for (i, r) in legal.rects.iter().enumerate() {
            assert!(r.area() >= p.areas[i] * 0.999, "module {i} area");
            let ar = r.aspect();
            assert!(ar >= 1.0 / 3.1 && ar <= 3.1, "module {i} aspect {ar}");
        }
    }

    #[test]
    fn legalization_fails_in_tiny_outline() {
        let (nl, p, _outline) = setup(1.0);
        let tiny = Outline::new(10.0, 10.0); // way below total area
        let centers = grid_centers(10, &tiny);
        let err = legalize(&nl, &p, &tiny, &centers, &LegalizeSettings::default());
        assert!(matches!(err, Err(LegalizeError::Infeasible { .. })));
    }

    #[test]
    fn legalized_hpwl_improves_for_better_global_floorplans() {
        // A wirelength-aware layout (QP-ish ordering) must legalize to
        // a lower HPWL than a random scattering, demonstrating that
        // the legalizer preserves global-floorplan quality ordering.
        let (nl, p, outline) = setup(1.0);
        let good = grid_centers(10, &outline);
        // Scrambled: same grid slots, permuted badly.
        let mut bad = good.clone();
        bad.reverse();
        bad.swap(0, 5);
        bad.swap(2, 7);
        let lg = legalize(&nl, &p, &outline, &good, &LegalizeSettings::default());
        let lb = legalize(&nl, &p, &outline, &bad, &LegalizeSettings::default());
        if let (Ok(lg), Ok(lb)) = (lg, lb) {
            // Not a strict guarantee, but the scrambled layout should
            // essentially never win on this seed.
            assert!(
                lg.hpwl <= lb.hpwl * 1.3,
                "good {} vs bad {}",
                lg.hpwl,
                lb.hpwl
            );
        }
    }

    #[test]
    fn respects_one_two_aspect_outline() {
        let (nl, p, outline) = setup(2.0);
        let centers = grid_centers(10, &outline);
        let legal = legalize(&nl, &p, &outline, &centers, &LegalizeSettings::default())
            .expect("1:2 outline legalizes");
        let tol = 1e-6 * outline.height;
        for r in &legal.rects {
            assert!(r.x >= -tol && r.x + r.w <= outline.width + tol);
            assert!(r.y >= -tol && r.y + r.h <= outline.height + tol);
        }
    }
}

#[cfg(test)]
mod aspect_bounds_tests {
    use super::*;
    use gfp_core::ProblemOptions;
    use gfp_netlist::{suite, Netlist};

    /// A module with tight per-module aspect bounds legalizes to a
    /// nearly square shape even though the global limit allows 1:3.
    #[test]
    fn per_module_bounds_override_global_limit() {
        let b = suite::gsrc_n10();
        let (nl, outline) = b.with_pads_on_outline(1.0);
        let mut modules = nl.modules().to_vec();
        modules[0] = modules[0].clone().with_aspect_bounds(0.95, 1.05);
        let nl = Netlist::new(modules, nl.pads().to_vec(), nl.nets().to_vec()).unwrap();
        let p = GlobalFloorplanProblem::from_netlist(
            &nl,
            &ProblemOptions {
                outline: Some(outline),
                aspect_limit: 3.0,
                ..ProblemOptions::default()
            },
        )
        .unwrap();
        // A simple grid layout.
        let centers: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                (
                    ((i % 4) as f64 + 0.5) / 4.0 * outline.width,
                    ((i / 4) as f64 + 0.5) / 3.0 * outline.height,
                )
            })
            .collect();
        let legal = legalize(&nl, &p, &outline, &centers, &LegalizeSettings::default())
            .expect("legalizes");
        let ar = legal.rects[0].aspect();
        assert!(
            (0.90..=1.10).contains(&ar),
            "module 0 aspect {ar} escaped its per-module bounds"
        );
    }
}
