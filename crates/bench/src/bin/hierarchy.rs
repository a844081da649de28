//! Flat vs hierarchical SDP floorplanning — quantifies the paper's
//! future-work extension ("design a hierarchical framework to enhance
//! the scalability").
//!
//! Usage: `cargo run --release -p gfp-bench --bin hierarchy [-- --quick|--full]`

use std::time::Instant;

use gfp_bench::table::fmt_hpwl;
use gfp_bench::{Budget, Pipeline, Table};
use gfp_core::hierarchical::{HierarchicalFloorplanner, HierarchicalSettings};
use gfp_legalize::{legalize, LegalizeSettings};
use gfp_netlist::suite;

fn main() {
    let budget = Budget::from_args();
    let benches = match budget {
        Budget::Quick => vec!["n30"],
        Budget::Standard => vec!["n50", "n100"],
        Budget::Full => vec!["n50", "n100", "n200", "n300"],
    };
    println!("Hierarchical extension: flat vs two-level (budget {budget:?})\n");
    let mut table = Table::new(vec![
        "bench", "flow", "clusters", "hpwl", "seconds",
    ]);
    for name in &benches {
        let bench = suite::by_name(name);
        let pipeline = Pipeline::new(&bench, 1.0, budget);
        // Flat.
        let flat = pipeline.run_sdp(pipeline.sdp_settings());
        let (flat_hpwl, flat_secs) = (flat.hpwl, flat.global_seconds);
        table.add_row(vec![
            name.to_string(),
            "flat".into(),
            "-".into(),
            fmt_hpwl(flat_hpwl),
            format!("{flat_secs:.1}"),
        ]);
        eprintln!("[{name} flat] {} in {flat_secs:.1}s", fmt_hpwl(flat_hpwl));
        // Hierarchical.
        let mut settings = HierarchicalSettings::default();
        settings.max_clusters = (pipeline.problem.n / 7).clamp(8, 25);
        settings.top = pipeline.budget.sdp_settings(settings.max_clusters);
        settings.leaf = pipeline.budget.sdp_settings(10);
        let clusters = settings.max_clusters;
        let t0 = Instant::now();
        let hier = HierarchicalFloorplanner::new(settings).solve(&pipeline.problem);
        let hier_secs = t0.elapsed().as_secs_f64();
        let hier_hpwl = hier.ok().and_then(|fp| {
            legalize(
                &pipeline.netlist,
                &pipeline.problem,
                &pipeline.outline,
                &fp.positions,
                &LegalizeSettings::default(),
            )
            .ok()
            .map(|l| l.hpwl)
        });
        table.add_row(vec![
            name.to_string(),
            "hierarchical".into(),
            clusters.to_string(),
            fmt_hpwl(hier_hpwl),
            format!("{hier_secs:.1}"),
        ]);
        eprintln!("[{name} hier] {} in {hier_secs:.1}s", fmt_hpwl(hier_hpwl));
    }
    println!("{}", table.render());
    println!("expected shape: hierarchical trades a few percent HPWL for a large runtime");
    println!("reduction on instances beyond the flat SDP's comfortable range.");
    match table.write_csv("hierarchy") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
