//! Integration tests encoding the paper's *qualitative claims* — the
//! statements Table I and Section IV-D make about the methods. These
//! are the properties a reproduction must exhibit regardless of
//! absolute benchmark numbers.

use gfp::baselines::qp::QuadraticPlacer;
use gfp::core::subproblems::{solve_subproblem2, solve_subproblem2_via_sdp};
use gfp::core::lifted::Lift;
use gfp::core::neighbors::all_pairs;
use gfp::core::{
    FloorplannerSettings, GlobalFloorplan, GlobalFloorplanProblem, ProblemOptions, SolveSupervisor,
};
use gfp::legalize::{legalize, LegalizeSettings};
use gfp::netlist::{suite, Module, Net, Netlist, PinRef};

/// Runs Algorithm 1 through the supervisor and asserts that no
/// recovery was needed, so a sub-problem failure still fails the test.
fn solve_clean(
    problem: &GlobalFloorplanProblem,
    settings: FloorplannerSettings,
) -> GlobalFloorplan {
    let result = SolveSupervisor::new(settings).solve(problem);
    assert_eq!(result.recoveries, 0, "causes: {:?}", result.causes);
    result.floorplan
}

/// Claim (Table I): QP's global optimum is trivial when all modules
/// are movable — everything lands on one point.
#[test]
fn claim_qp_trivial_optimum() {
    let nl = Netlist::new(
        (0..6).map(|i| Module::new(format!("m{i}"), 10.0)).collect(),
        vec![],
        (0..6)
            .map(|i| {
                Net::new(
                    format!("n{i}"),
                    vec![PinRef::Module(i), PinRef::Module((i + 1) % 6)],
                )
            })
            .collect(),
    )
    .expect("netlist");
    let p = GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).expect("p");
    let placement = QuadraticPlacer::default().place(&p).expect("qp");
    let spread: f64 = placement
        .positions
        .windows(2)
        .map(|w| (w[0].0 - w[1].0).abs() + (w[0].1 - w[1].1).abs())
        .sum();
    assert!(spread < 1e-6, "QP did not collapse: {spread}");
}

/// Claim (Section IV-A): at a rank-2 solution the direction-matrix
/// inner product vanishes, and the closed-form sub-problem-2 solution
/// matches the SDP solution of the same sub-problem.
#[test]
fn claim_rank2_certificate_and_closed_form() {
    let lift = Lift::new(5);
    let positions: Vec<(f64, f64)> = (0..5)
        .map(|i| (7.0 * i as f64, (i * i) as f64 * 1.5))
        .collect();
    // Exact embedding: rank(Z) = 2.
    let z = lift.z_matrix(&lift.embed_positions(&positions, 0.0));
    let (w, gap) = solve_subproblem2(&z, 5).expect("closed form");
    assert!(gap.abs() < 1e-8, "rank-2 Z must certify: gap {gap}");
    assert!((w.trace() - 5.0).abs() < 1e-8);
    // Slack > 0: both solvers must report the same positive gap.
    let z2 = lift.z_matrix(&lift.embed_positions(&positions, 1.0));
    let (_, g1) = solve_subproblem2(&z2, 5).expect("closed form");
    let (_, g2) = solve_subproblem2_via_sdp(&z2, 5).expect("sdp");
    assert!(g1 > 0.5);
    assert!((g1 - g2).abs() < 1e-2 * g1, "closed form {g1} vs sdp {g2}");
}

/// Claim (Section IV-D): our solution is non-trivial — modules spread
/// out even **without pads or outline**, where QP/AR collapse. This is
/// the central qualitative advantage of the formulation.
#[test]
fn claim_sdp_nontrivial_without_anchors() {
    let bench = suite::gsrc_n10();
    let problem = GlobalFloorplanProblem::from_netlist(
        &bench.netlist,
        &ProblemOptions {
            use_pads: false, // no anchors at all
            ..ProblemOptions::default()
        },
    )
    .expect("capture");
    let mut settings = FloorplannerSettings::fast();
    settings.max_iter = 4;
    let fp = solve_clean(&problem, settings);
    // Mean pairwise distance must be comparable to module diameters.
    let n = fp.positions.len();
    let mut total = 0.0;
    let mut count = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            total += ((fp.positions[i].0 - fp.positions[j].0).powi(2)
                + (fp.positions[i].1 - fp.positions[j].1).powi(2))
            .sqrt();
            count += 1;
        }
    }
    let mean_dist = total / count as f64;
    let mean_diam = 2.0 * problem.radii.iter().sum::<f64>() / n as f64;
    assert!(
        mean_dist > 0.5 * mean_diam,
        "collapsed: mean distance {mean_dist:.1} vs mean diameter {mean_diam:.1}"
    );
}

/// Claim (Section IV-B0d): with aspect limit k > 1 the distance
/// constraints relax for strongly connected pairs, allowing tighter
/// packing — `k_ij` interpolates between 1 and k by connectivity.
#[test]
fn claim_nonsquare_relaxes_connected_pairs() {
    let bench = suite::gsrc_n10();
    let square =
        GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default())
            .expect("square");
    let nonsq = GlobalFloorplanProblem::from_netlist(
        &bench.netlist,
        &ProblemOptions {
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )
    .expect("nonsq");
    let pairs = all_pairs(10);
    let b_square = square.distance_bounds(&square.a, &pairs);
    let b_nonsq = nonsq.distance_bounds(&nonsq.a, &pairs);
    // Strongly connected pairs must receive *smaller* minimum
    // distances relative to their (inflated) radii.
    let mut relaxed = 0;
    for (idx, &(i, j)) in pairs.iter().enumerate() {
        // Normalize both bounds by the respective (r_i + r_j)².
        let hard_sq = (square.radii[i] + square.radii[j]).powi(2);
        let hard_ns = (nonsq.radii[i] + nonsq.radii[j]).powi(2);
        let rel_sq = b_square[idx] / hard_sq;
        let rel_ns = b_nonsq[idx] / hard_ns;
        if rel_ns < rel_sq - 1e-12 {
            relaxed += 1;
        }
    }
    assert!(relaxed > 20, "only {relaxed}/45 pairs relaxed by k_ij");
}

/// Claim (Fig. 5a): larger α converges to the rank certificate in
/// fewer iterations (possibly at a quality cost).
#[test]
#[ignore = "slow tier: run with `cargo test -- --ignored` (scripts/ci.sh)"]
fn claim_larger_alpha_converges_faster() {
    let gap_small = alpha_sweep_final_gap(32.0, 10);
    let gap_large = alpha_sweep_final_gap(32768.0, 10);
    assert!(
        gap_large < gap_small,
        "larger α should close the rank gap faster: {gap_large} vs {gap_small}"
    );
}

/// Fast-tier variant of [`claim_larger_alpha_converges_faster`]: the
/// ordering already shows after a handful of iterations.
#[test]
fn claim_larger_alpha_converges_faster_fast() {
    let gap_small = alpha_sweep_final_gap(32.0, 3);
    let gap_large = alpha_sweep_final_gap(32768.0, 3);
    assert!(
        gap_large < gap_small,
        "larger α should close the rank gap faster: {gap_large} vs {gap_small}"
    );
}

/// Claim (ablation): carrying the direction matrix `W` across α rounds
/// beats resetting it each round (Algorithm 1 verbatim) on n10 after
/// legalization. The `ablation` binary reads 15493 against 17420 at
/// its Standard budget. This test runs its Quick budget
/// (`FloorplannerSettings::fast()` with 6 convex iterations per α
/// round, the same 1:1 outline with pads on its boundary and aspect
/// limit 3), which reads 22868 against 27106 and which the debug slow
/// tier can afford.
#[test]
#[ignore = "slow tier: run with `cargo test -- --ignored` (scripts/ci.sh)"]
fn claim_carrying_w_beats_resetting_it() {
    let bench = suite::gsrc_n10();
    let (netlist, outline) = bench.with_pads_on_outline(1.0);
    let problem = GlobalFloorplanProblem::from_netlist(
        &netlist,
        &ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )
    .expect("capture");
    let legal_hpwl = |reset_direction: bool| {
        let mut s = FloorplannerSettings::fast();
        s.max_iter = 6;
        s.reset_direction = reset_direction;
        let fp = solve_clean(&problem, s);
        legalize(&netlist, &problem, &outline, &fp.positions, &LegalizeSettings::default())
            .expect("legalize")
            .hpwl
    };
    let carried = legal_hpwl(false);
    let reset = legal_hpwl(true);
    assert!(
        carried < reset,
        "carrying W must beat resetting it: legal HPWL {carried:.0} vs {reset:.0}"
    );
}

fn alpha_sweep_final_gap(alpha: f64, max_iter: usize) -> f64 {
    let bench = suite::gsrc_n10();
    let problem =
        GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default())
            .expect("capture");
    let mut s = FloorplannerSettings::fast();
    s.alpha0 = alpha;
    s.max_alpha_rounds = 1;
    s.max_iter = max_iter;
    s.eps_conv = 0.0;
    solve_clean(&problem, s)
        .trace
        .last()
        .expect("trace")
        .rank_gap
}
