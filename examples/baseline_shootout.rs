//! Head-to-head of every global floorplanner in the workspace on one
//! benchmark, through the shared legalizer — a miniature Table II/III.
//!
//! ```sh
//! cargo run --release --example baseline_shootout
//! ```

use std::time::Instant;

use gfp::baselines::analytical::AnalyticalFloorplanner;
use gfp::baselines::annealing::Annealer;
use gfp::baselines::ar::ArFloorplanner;
use gfp::baselines::pp::PpFloorplanner;
use gfp::baselines::qp::QuadraticPlacer;
use gfp::core::{
    FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveQuality, SolveSupervisor,
};
use gfp::legalize::{legalize, LegalizeSettings};
use gfp::netlist::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = suite::gsrc_n10();
    let (netlist, outline) = bench.with_pads_on_outline(1.0);
    let problem = GlobalFloorplanProblem::from_netlist(
        &netlist,
        &ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )?;
    println!("{}: {} modules, outline {:.0} x {:.0}\n", bench.name, problem.n, outline.width, outline.height);
    println!("{:<12} {:>10} {:>9}", "method", "HPWL", "seconds");

    let report = |name: &str, positions: Option<Vec<(f64, f64)>>, secs: f64| {
        let hpwl = positions.and_then(|pos| {
            legalize(&netlist, &problem, &outline, &pos, &LegalizeSettings::default())
                .ok()
                .map(|l| l.hpwl)
        });
        match hpwl {
            Some(w) => println!("{name:<12} {w:>10.0} {secs:>9.2}"),
            None => println!("{name:<12} {:>10} {secs:>9.2}", "fail"),
        }
    };

    let t = Instant::now();
    let sdp = SolveSupervisor::new(FloorplannerSettings::fast()).solve(&problem);
    // A degraded or placeholder verdict is not the algorithm's answer.
    let usable = !matches!(
        sdp.quality,
        SolveQuality::Degraded | SolveQuality::Placeholder
    );
    let secs = t.elapsed().as_secs_f64();
    report(
        "ours (SDP)",
        usable.then_some(sdp.floorplan.positions),
        secs,
    );

    let t = Instant::now();
    let qp = QuadraticPlacer::default().place(&problem)?;
    report("QP", Some(qp.positions), t.elapsed().as_secs_f64());

    let t = Instant::now();
    let ar = ArFloorplanner::default().place(&problem)?;
    report("AR", Some(ar.positions), t.elapsed().as_secs_f64());

    let t = Instant::now();
    let pp = PpFloorplanner::default().place(&problem)?;
    report("PP", Some(pp.positions), t.elapsed().as_secs_f64());

    let t = Instant::now();
    let an = AnalyticalFloorplanner::default().place(&netlist, &problem, &outline)?;
    report("analytical", Some(an.positions), t.elapsed().as_secs_f64());

    // The annealer produces legal shapes itself; report directly.
    let t = Instant::now();
    let sa = Annealer::default().place(&netlist, &problem, &outline)?;
    let secs = t.elapsed().as_secs_f64();
    if sa.fits {
        println!("{:<12} {:>10.0} {secs:>9.2}", "parquet-SA", sa.hpwl);
    } else {
        println!("{:<12} {:>10} {secs:>9.2}", "parquet-SA", "overflow");
    }
    Ok(())
}
