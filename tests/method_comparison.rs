//! Cross-method integration: every global floorplanner runs on the
//! same instance and produces structurally valid output; the shared
//! legalizer accepts or rejects them consistently.
//!
//! The full-budget legalizer runs dominate this suite's runtime, so
//! they are `#[ignore]`d into the slow tier (`cargo test -- --ignored`,
//! see DESIGN.md §10); `*_fast` variants with loose legalizer budgets
//! cover the same control flow on every `cargo test -q`.

use gfp::baselines::analytical::AnalyticalFloorplanner;
use gfp::baselines::annealing::Annealer;
use gfp::baselines::ar::ArFloorplanner;
use gfp::baselines::pp::PpFloorplanner;
use gfp::baselines::qp::QuadraticPlacer;
use gfp::core::{GlobalFloorplanProblem, ProblemOptions};
use gfp::legalize::{legalize, LegalizeSettings};
use gfp::netlist::suite;

fn setup() -> (
    gfp::netlist::Netlist,
    GlobalFloorplanProblem,
    gfp::netlist::Outline,
) {
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
    (netlist, problem, outline)
}

#[test]
fn all_continuous_baselines_produce_finite_layouts() {
    let (netlist, problem, outline) = setup();
    let placements = vec![
        ("qp", QuadraticPlacer::default().place(&problem).expect("qp").positions),
        ("ar", ArFloorplanner::default().place(&problem).expect("ar").positions),
        ("pp", PpFloorplanner::default().place(&problem).expect("pp").positions),
        (
            "analytical",
            AnalyticalFloorplanner::default()
                .place(&netlist, &problem, &outline)
                .expect("analytical")
                .positions,
        ),
    ];
    for (name, pos) in placements {
        assert_eq!(pos.len(), problem.n, "{name}: wrong count");
        for (i, &(x, y)) in pos.iter().enumerate() {
            assert!(x.is_finite() && y.is_finite(), "{name}: module {i} NaN");
            // Within a generous bounding region of the die.
            assert!(
                x.abs() < 100.0 * outline.width && y.abs() < 100.0 * outline.height,
                "{name}: module {i} at ({x}, {y}) absurdly far"
            );
        }
    }
}

#[test]
fn annealer_output_is_already_legal() {
    let (netlist, problem, outline) = setup();
    let fp = Annealer::default()
        .place(&netlist, &problem, &outline)
        .expect("anneal");
    // Sequence-pair semantics: never overlapping, regardless of fit.
    for i in 0..fp.rects.len() {
        for j in (i + 1)..fp.rects.len() {
            assert!(!fp.rects[i].overlaps(&fp.rects[j]), "overlap {i}-{j}");
        }
    }
    // Area constraints hold exactly by construction.
    for (i, r) in fp.rects.iter().enumerate() {
        assert!(r.area() >= problem.areas[i] * 0.999, "module {i} area");
    }
}

/// Loose legalizer budgets for the fast tier.
fn tiny_legalize() -> LegalizeSettings {
    LegalizeSettings {
        admm: gfp::conic::AdmmSettings {
            eps: 2e-4,
            max_iter: 1500,
        },
    }
}

#[test]
#[ignore = "slow tier: run with `cargo test -- --ignored` (scripts/ci.sh)"]
fn legalizer_ranks_methods_reasonably() {
    // Legalized HPWLs of the analytic methods should all land within a
    // factor ~2 of each other on this small instance — a guard against
    // a method or the legalizer going haywire.
    let (netlist, problem, outline) = setup();
    let mut results = Vec::new();
    for (name, pos) in [
        ("qp", QuadraticPlacer::default().place(&problem).expect("qp").positions),
        ("ar", ArFloorplanner::default().place(&problem).expect("ar").positions),
        ("pp", PpFloorplanner::default().place(&problem).expect("pp").positions),
    ] {
        if let Ok(legal) = legalize(&netlist, &problem, &outline, &pos, &LegalizeSettings::default())
        {
            results.push((name, legal.hpwl));
        }
    }
    assert!(results.len() >= 2, "too many legalization failures");
    let min = results.iter().map(|r| r.1).fold(f64::MAX, f64::min);
    let max = results.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    assert!(
        max / min < 2.0,
        "legalized HPWL spread implausible: {results:?}"
    );
}

#[test]
#[ignore = "slow tier: run with `cargo test -- --ignored` (scripts/ci.sh)"]
fn legalizer_rejects_garbage_positions() {
    let (netlist, problem, outline) = setup();
    // All modules at one far-away point: the constraint graph repair
    // has no geometric information to work with, but whatever comes
    // out must be physically valid or a clean error.
    let garbage = vec![(1e6, 1e6); problem.n];
    match legalize(&netlist, &problem, &outline, &garbage, &LegalizeSettings::default()) {
        Ok(legal) => {
            for i in 0..legal.rects.len() {
                for j in (i + 1)..legal.rects.len() {
                    assert!(!legal.rects[i].overlaps_with_tol(&legal.rects[j], 1.0));
                }
            }
        }
        Err(_) => {} // a clean failure is acceptable
    }
}

/// Fast-tier variant of [`legalizer_ranks_methods_reasonably`]: two
/// methods through a loose-budget legalizer, with a slightly wider
/// plausibility band to absorb the lower shaping accuracy.
#[test]
fn legalizer_ranks_methods_reasonably_fast() {
    let (netlist, problem, outline) = setup();
    let mut results = Vec::new();
    for (name, pos) in [
        ("qp", QuadraticPlacer::default().place(&problem).expect("qp").positions),
        ("pp", PpFloorplanner::default().place(&problem).expect("pp").positions),
    ] {
        if let Ok(legal) = legalize(&netlist, &problem, &outline, &pos, &tiny_legalize()) {
            results.push((name, legal.hpwl));
        }
    }
    assert!(results.len() >= 2, "too many legalization failures");
    let min = results.iter().map(|r| r.1).fold(f64::MAX, f64::min);
    let max = results.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    assert!(
        max / min < 2.5,
        "legalized HPWL spread implausible: {results:?}"
    );
}

/// Fast-tier variant of [`legalizer_rejects_garbage_positions`].
#[test]
fn legalizer_rejects_garbage_positions_fast() {
    let (netlist, problem, outline) = setup();
    let garbage = vec![(1e6, 1e6); problem.n];
    match legalize(&netlist, &problem, &outline, &garbage, &tiny_legalize()) {
        Ok(legal) => {
            for i in 0..legal.rects.len() {
                for j in (i + 1)..legal.rects.len() {
                    assert!(!legal.rects[i].overlaps_with_tol(&legal.rects[j], 1.0));
                }
            }
        }
        Err(_) => {} // a clean failure is acceptable
    }
}
