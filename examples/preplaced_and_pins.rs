//! Pre-placed modules (PPM) and boundary I/O pins — the flexibility
//! features of Section IV-B that packing representations struggle with
//! (the Kahng [6] critique the paper opens with).
//!
//! A macro is pinned at the chip center; I/O pads sit on the boundary;
//! the SDP floorplanner must arrange the remaining soft modules around
//! the fixed macro while honoring every pairwise area constraint.
//!
//! ```sh
//! cargo run --release --example preplaced_and_pins
//! ```

use gfp::core::{FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveSupervisor};
use gfp::core::diagnostics::check_distance_feasibility;
use gfp::netlist::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = suite::gsrc_n10();
    let (netlist, outline) = bench.with_pads_on_outline(1.0);

    // Pin module 3 (a mid-sized block) at the center of the die.
    let (cx, cy) = outline.center();
    let netlist = netlist.with_fixed_module(3, cx, cy);
    println!(
        "module 3 pre-placed at the die center ({cx:.0}, {cy:.0}); {} pads on the boundary",
        netlist.pads().len()
    );

    let problem = GlobalFloorplanProblem::from_netlist(
        &netlist,
        &ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )?;

    // PPM equality constraints make the SDP harder for the first-order
    // backend; a finer α schedule pays off here.
    let mut settings = FloorplannerSettings::fast();
    settings.alpha0 = 8.0;
    settings.alpha_growth = 2.0;
    settings.max_alpha_rounds = 14;
    settings.max_iter = 10;
    let result = SolveSupervisor::new(settings).solve(&problem).floorplan;

    let (fx, fy) = result.positions[3];
    println!("module 3 solved position: ({fx:.1}, {fy:.1}) — drift {:.2}",
        ((fx - cx).powi(2) + (fy - cy).powi(2)).sqrt());

    let report = check_distance_feasibility(&problem, &result.positions, 0.05);
    println!(
        "distance constraints: {}/{} pairs satisfied (worst violation {:.1}%)",
        report.pairs - report.violations,
        report.pairs,
        report.max_relative_violation * 100.0
    );
    for (i, (x, y)) in result.positions.iter().enumerate() {
        let marker = if i == 3 { "  <- pre-placed" } else { "" };
        println!("  module {i}: ({x:7.1}, {y:7.1}){marker}");
    }
    Ok(())
}
