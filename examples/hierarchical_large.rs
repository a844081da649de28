//! Hierarchical floorplanning of a large instance — the scalability
//! extension the paper's conclusion proposes as future work.
//!
//! The flat SDP on n100 costs minutes-to-hours (Fig. 5(b)); clustering
//! to ~15 super-modules, solving the top level, then refining each
//! cluster with terminal propagation finishes in a fraction of that:
//! the solve takes 9–12 s in release on a 2-vCPU host. The example
//! turns off the flat refine stage that `HierarchicalSettings::default()`
//! adds; with it, the same run took about 9 minutes, nearly all of it
//! in refine, and ended at a higher centers HPWL (160,447 against
//! 144,335).
//!
//! ```sh
//! cargo run --release --example hierarchical_large
//! ```

use std::time::Instant;

use gfp::core::hierarchical::{HierarchicalFloorplanner, HierarchicalSettings};
use gfp::core::{GlobalFloorplanProblem, ProblemOptions};
use gfp::netlist::{hpwl, suite, svg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = suite::gsrc_n100();
    let (netlist, outline) = bench.with_pads_on_outline(1.0);
    let problem = GlobalFloorplanProblem::from_netlist(
        &netlist,
        &ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )?;
    println!(
        "{}: {} modules, {} nets — hierarchical flow",
        bench.name,
        problem.n,
        netlist.nets().len()
    );

    // The two-level flow alone (see the module docs).
    let mut settings = HierarchicalSettings {
        max_clusters: 15,
        refine: None,
        ..HierarchicalSettings::default()
    };
    settings.top.max_iter = 5;
    settings.leaf.max_iter = 4;
    let t0 = Instant::now();
    let fp = HierarchicalFloorplanner::new(settings).solve(&problem)?;
    let secs = t0.elapsed().as_secs_f64();

    let k = fp.cluster_centers.len();
    let wl = hpwl::hpwl(&netlist, &fp.positions);
    println!("clusters: {k}; total iterations: {}; wall clock {secs:.1}s", fp.iterations);
    println!("global-floorplan HPWL (centers): {wl:.0}");
    for c in 0..k.min(6) {
        let members = fp.cluster_of.iter().filter(|&&l| l == c).count();
        println!(
            "  cluster {c}: {members} modules at ({:.0}, {:.0})",
            fp.cluster_centers[c].0, fp.cluster_centers[c].1
        );
    }

    // Render the global floorplan to SVG for inspection.
    let radii: Vec<f64> = problem.areas.iter().map(|s| (s / 4.0).sqrt()).collect();
    let pads: Vec<(f64, f64)> = netlist.pads().iter().map(|p| (p.x, p.y)).collect();
    let image = svg::render_centers(
        &outline,
        &fp.positions,
        &radii,
        &pads,
        &svg::SvgStyle::default(),
    );
    let path = std::env::temp_dir().join("gfp_hierarchical_n100.svg");
    std::fs::write(&path, image)?;
    println!("rendered global floorplan: {}", path.display());
    Ok(())
}
