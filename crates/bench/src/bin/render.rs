//! Renders the floorplans of every method on one benchmark to SVG
//! files under `results/` — the visual counterpart of Table II.
//!
//! Usage: `cargo run --release -p gfp-bench --bin render [-- --quick] [-- n30]`

use gfp_baselines::annealing::Annealer;
use gfp_baselines::ar::ArFloorplanner;
use gfp_baselines::qp::QuadraticPlacer;
use gfp_bench::{Budget, Pipeline};
use gfp_core::SolveSupervisor;
use gfp_legalize::{legalize, LegalizeSettings};
use gfp_netlist::{suite, svg};

fn main() {
    let budget = Budget::from_args();
    let name = std::env::args()
        .find(|a| a.starts_with('n') && a[1..].chars().all(|c| c.is_ascii_digit()))
        .unwrap_or_else(|| "n10".to_string());
    let bench = suite::try_by_name(&name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let pipeline = Pipeline::new(&bench, 1.0, budget);
    std::fs::create_dir_all("results").expect("results dir");
    let style = svg::SvgStyle::default();
    let pads: Vec<(f64, f64)> = pipeline.netlist.pads().iter().map(|p| (p.x, p.y)).collect();

    let save_legal = |label: &str, centers: &[(f64, f64)]| {
        // Global floorplan (circles).
        let radii: Vec<f64> = pipeline
            .problem
            .areas
            .iter()
            .map(|s| (s / 4.0).sqrt())
            .collect();
        let global_svg =
            svg::render_centers(&pipeline.outline, centers, &radii, &pads, &style);
        let p1 = format!("results/{name}_{label}_global.svg");
        std::fs::write(&p1, global_svg).expect("write svg");
        // Legalized floorplan (rectangles).
        match legalize(
            &pipeline.netlist,
            &pipeline.problem,
            &pipeline.outline,
            centers,
            &LegalizeSettings::default(),
        ) {
            Ok(legal) => {
                let p2 = format!("results/{name}_{label}_legal.svg");
                std::fs::write(&p2, svg::render(&pipeline.outline, &legal.rects, &pads, &style))
                    .expect("write svg");
                println!("{label}: HPWL {:.0} -> {p1}, {p2}", legal.hpwl);
            }
            Err(e) => println!("{label}: legalization failed ({e}) -> {p1}"),
        }
    };

    let sdp = SolveSupervisor::new(pipeline.sdp_settings()).solve(&pipeline.problem);
    save_legal("ours", &sdp.floorplan.positions);

    let qp = QuadraticPlacer::default().place(&pipeline.problem).expect("qp");
    save_legal("qp", &qp.positions);

    let ar = ArFloorplanner::default().place(&pipeline.problem).expect("ar");
    save_legal("ar", &ar.positions);

    let sa = Annealer::new(pipeline.budget.anneal_settings())
        .place(&pipeline.netlist, &pipeline.problem, &pipeline.outline)
        .expect("sa");
    let path = format!("results/{name}_sa_legal.svg");
    std::fs::write(&path, svg::render(&pipeline.outline, &sa.rects, &pads, &style))
        .expect("write svg");
    println!("parquet-sa: HPWL {:.0} (fits: {}) -> {path}", sa.hpwl, sa.fits);
}
