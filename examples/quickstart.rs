//! Quickstart: run the SDP global floorplanner on a benchmark and
//! legalize the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gfp::core::{GlobalFloorplanProblem, ProblemOptions, SolveSupervisor};
use gfp::legalize::{legalize, LegalizeSettings};
use gfp::netlist::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load a benchmark (synthetic GSRC n10 stand-in; real bookshelf
    //    files load through gfp::netlist::bookshelf::parse).
    let bench = suite::gsrc_n10();
    let (netlist, outline) = bench.with_pads_on_outline(1.0);
    println!(
        "benchmark {}: {} modules, {} nets, outline {:.0} x {:.0}",
        bench.name,
        netlist.num_modules(),
        netlist.nets().len(),
        outline.width,
        outline.height
    );

    // 2. Capture the problem: fixed outline, aspect limit 3 (the
    //    paper's experimental setup), I/O pads included.
    let problem = GlobalFloorplanProblem::from_netlist(
        &netlist,
        &ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )?;

    // 3. Global floorplanning: convex iteration between the two SDP
    //    sub-problems (Algorithm 1), run by the supervisor. `fast()`
    //    bounds the solver's own budgets; the supervisor never fails,
    //    and its `quality` verdict says how the solve ended (see the
    //    README's Robustness section).
    let settings = gfp::core::FloorplannerSettings::fast();
    let result = SolveSupervisor::new(settings).solve(&problem).floorplan;
    println!(
        "global floorplan: {} iterations, rank gap {:.2e}, converged: {}",
        result.iterations, result.rank_gap, result.converged
    );
    for (i, (x, y)) in result.positions.iter().enumerate().take(5) {
        println!("  module {i} center ({x:.1}, {y:.1})");
    }

    // 4. Legalization: constraint graphs + SOCP shape optimization.
    let legal = legalize(
        &netlist,
        &problem,
        &outline,
        &result.positions,
        &LegalizeSettings::default(),
    )?;
    println!("legalized HPWL: {:.0}", legal.hpwl);
    for (i, r) in legal.rects.iter().enumerate().take(5) {
        println!(
            "  module {i}: {:.0} x {:.0} at ({:.0}, {:.0})",
            r.w, r.h, r.x, r.y
        );
    }
    Ok(())
}
