//! End-to-end integration: benchmark generation → SDP global
//! floorplanning → legalization → HPWL, across crate boundaries.
//!
//! Two tiers (see DESIGN.md §10): `*_fast` variants with minimal
//! budgets run on every `cargo test -q`; the full-budget originals are
//! `#[ignore]`d and run in the slow tier (`cargo test -q -- --ignored`,
//! wired into `scripts/ci.sh`).

use gfp::core::diagnostics::check_distance_feasibility;
use gfp::core::{
    FloorplannerSettings, GlobalFloorplan, GlobalFloorplanProblem, ProblemOptions, SolveSupervisor,
};
use gfp::legalize::{legalize, LegalizeSettings};
use gfp::netlist::{hpwl, suite};

fn fast_settings() -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.max_iter = 4;
    s
}

/// Minimal budgets for the fast tier: enough iterations for a sane
/// layout shape, nowhere near publication quality.
fn tiny_settings() -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.max_iter = 2;
    s.max_alpha_rounds = 3;
    s
}

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

/// Loose legalizer budgets for the fast tier (the default 1e-6/30k
/// ADMM profile dominates the slow tier's runtime).
fn tiny_legalize() -> LegalizeSettings {
    LegalizeSettings {
        admm: gfp::conic::AdmmSettings {
            eps: 1e-4,
            max_iter: 3000,
        },
    }
}

#[test]
#[ignore = "slow tier: run with `cargo test -- --ignored` (scripts/ci.sh)"]
fn sdp_to_legal_floorplan_on_n10() {
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
    let fp = solve_clean(&problem, fast_settings());
    let legal = legalize(
        &netlist,
        &problem,
        &outline,
        &fp.positions,
        &LegalizeSettings::default(),
    )
    .expect("legalize");

    // Physical invariants.
    let total_area: f64 = legal.rects.iter().map(|r| r.area()).sum();
    assert!(total_area >= problem.total_area() * 0.999);
    for i in 0..legal.rects.len() {
        for j in (i + 1)..legal.rects.len() {
            assert!(
                !legal.rects[i].overlaps_with_tol(&legal.rects[j], 1.0),
                "overlap {i}-{j}"
            );
        }
    }
    // The legalized HPWL matches an independent evaluation.
    let centers: Vec<(f64, f64)> = legal.rects.iter().map(|r| r.center()).collect();
    let independent = hpwl::hpwl(&netlist, &centers);
    assert!((independent - legal.hpwl).abs() < 1e-9 * independent);
    // Sanity bound: HPWL within an order of magnitude of the outline scale.
    assert!(legal.hpwl > outline.width);
    assert!(legal.hpwl < 1e4 * outline.width);
}

#[test]
#[ignore = "slow tier: run with `cargo test -- --ignored` (scripts/ci.sh)"]
fn global_floorplan_is_deterministic() {
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
    let a = solve_clean(&problem, fast_settings());
    let b = solve_clean(&problem, fast_settings());
    for (pa, pb) in a.positions.iter().zip(b.positions.iter()) {
        assert_eq!(pa, pb, "nondeterministic positions");
    }
    assert_eq!(a.iterations, b.iterations);
}

#[test]
fn bookshelf_roundtrip_preserves_floorplanning_result() {
    // Write the benchmark out, read it back, and check the captured
    // problem is equivalent (same adjacency, areas, pads).
    let bench = suite::gsrc_n30();
    let files = gfp::netlist::bookshelf::write(&bench.netlist, 1.0 / 3.0, 3.0);
    let parsed = gfp::netlist::bookshelf::parse(&files).expect("parse");
    let p1 = GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default())
        .expect("p1");
    let p2 = GlobalFloorplanProblem::from_netlist(&parsed, &ProblemOptions::default())
        .expect("p2");
    assert_eq!(p1.n, p2.n);
    assert!((&p1.a - &p2.a).norm_max() < 1e-9);
    for (a, b) in p1.areas.iter().zip(p2.areas.iter()) {
        assert!((a - b).abs() < 1e-9);
    }
    for (a, b) in p1.pad_positions.iter().zip(p2.pad_positions.iter()) {
        assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
    }
}

#[test]
#[ignore = "slow tier: run with `cargo test -- --ignored` (scripts/ci.sh)"]
fn no_outline_unconstrained_run_still_separates() {
    let bench = suite::gsrc_n10();
    let problem =
        GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default())
            .expect("capture");
    let fp = solve_clean(&problem, fast_settings());
    let report = check_distance_feasibility(&problem, &fp.positions, 0.10);
    assert!(
        report.violations < report.pairs / 2,
        "{report:?}: too collapsed"
    );
}

/// Fast-tier variant of [`no_outline_unconstrained_run_still_separates`]
/// with minimal budgets and a correspondingly looser collapse bound.
#[test]
fn no_outline_unconstrained_run_still_separates_fast() {
    let bench = suite::gsrc_n10();
    let problem =
        GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default())
            .expect("capture");
    let fp = solve_clean(&problem, tiny_settings());
    let report = check_distance_feasibility(&problem, &fp.positions, 0.10);
    assert!(
        report.violations < report.pairs * 2 / 3,
        "{report:?}: too collapsed"
    );
}

/// Fast-tier variant of [`sdp_to_legal_floorplan_on_n10`]: same
/// pipeline shape with minimal budgets, checking structural invariants
/// only (no quality bounds — those belong to the slow tier).
#[test]
fn sdp_to_legal_floorplan_on_n10_fast() {
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
    let fp = solve_clean(&problem, tiny_settings());
    let legal = legalize(&netlist, &problem, &outline, &fp.positions, &tiny_legalize())
        .expect("legalize");
    assert_eq!(legal.rects.len(), problem.n);
    assert!(legal.hpwl.is_finite() && legal.hpwl > 0.0);
    // Loose budgets leave a little residual overlap; the slow-tier
    // original enforces the tight bound.
    for i in 0..legal.rects.len() {
        for j in (i + 1)..legal.rects.len() {
            assert!(
                !legal.rects[i].overlaps_with_tol(&legal.rects[j], 2.5),
                "overlap {i}-{j}"
            );
        }
    }
}

/// Fast-tier variant of [`global_floorplan_is_deterministic`].
#[test]
fn global_floorplan_is_deterministic_fast() {
    let bench = suite::gsrc_n10();
    let problem =
        GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default())
            .expect("capture");
    let a = solve_clean(&problem, tiny_settings());
    let b = solve_clean(&problem, tiny_settings());
    for (pa, pb) in a.positions.iter().zip(b.positions.iter()) {
        assert_eq!(pa, pb, "nondeterministic positions");
    }
    assert_eq!(a.iterations, b.iterations);
}

/// The supervised entry point drives the same cross-crate pipeline
/// and reports a clean quality verdict on a healthy instance.
#[test]
fn supervised_solve_places_n10_fast() {
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
    let result = SolveSupervisor::new(tiny_settings()).solve(&problem);
    assert!(result.causes.is_empty(), "clean run degraded: {:?}", result.causes);
    assert_eq!(result.floorplan.positions.len(), problem.n);
    assert!(result
        .floorplan
        .positions
        .iter()
        .all(|p| p.0.is_finite() && p.1.is_finite()));
}
