//! Reproduces **Table I** — the qualitative method comparison — as
//! *computed evidence* rather than assertions:
//!
//! * QP: collapses to a single point without pads (trivial optimum).
//! * AR: the full two-branch objective values the collapsed layout no
//!   worse than a spread one (trivial global optimum).
//! * PP: a midpoint-convexity violation is exhibited (non-convex).
//! * Ours: spread, rank-certified layout with the distance (area)
//!   constraints satisfied — controllable area constraint.
//!
//! Usage: `cargo run --release -p gfp-bench --bin table1 [-- --quick] [-- --trace]`
//!
//! With `--trace` (or `GFP_TRACE=file.jsonl`) the run prints an
//! end-of-run telemetry summary; `GFP_TRACE` additionally streams
//! per-iteration solver events to the named JSONL file.

use gfp_baselines::qp::QuadraticPlacer;
use gfp_bench::{Budget, Pipeline, Table};
use gfp_core::diagnostics::check_distance_feasibility;
use gfp_core::{GlobalFloorplanProblem, ProblemOptions, SolveQuality, SolveSupervisor};
use gfp_netlist::suite;
use gfp_rand::Rng;

/// Full two-branch AR objective (paper Eq. 3), σ = 1.
fn ar_full_objective(problem: &GlobalFloorplanProblem, positions: &[(f64, f64)]) -> f64 {
    let n = problem.n;
    let eps = 1e-9;
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let a = problem.a[(i, j)];
            let (ri, rj) = (problem.radii[i], problem.radii[j]);
            let t = (ri + rj) * (ri + rj);
            let d = (positions[i].0 - positions[j].0).powi(2)
                + (positions[i].1 - positions[j].1).powi(2);
            let threshold = (t / (a + eps)).sqrt();
            total += if d >= threshold {
                a * d + t / d.max(1e-12) - 1.0
            } else {
                2.0 * (a * t).sqrt() - 1.0
            };
        }
    }
    total
}

/// PP objective (paper Eq. 4) at a single point set.
fn pp_objective(problem: &GlobalFloorplanProblem, positions: &[(f64, f64)]) -> f64 {
    let n = problem.n;
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let a = problem.a[(i, j)];
            let (ri, rj) = (problem.radii[i], problem.radii[j]);
            let r = ri + rj;
            let s = (ri * rj) * (ri * rj);
            let d = ((positions[i].0 - positions[j].0).powi(2)
                + (positions[i].1 - positions[j].1).powi(2))
            .sqrt()
            .max(1e-9);
            total += if r >= d {
                a * d + s * (r / d - 1.0)
            } else {
                a * d + r / d - 1.0
            };
        }
    }
    total
}

fn main() {
    let tracing = gfp_bench::trace::init_from_args();
    let budget = Budget::from_args();
    let bench = suite::gsrc_n10();
    let pipeline = Pipeline::new(&bench, 1.0, budget);
    let problem = &pipeline.problem;
    println!("Table I reproduction: computed evidence on {}\n", bench.name);

    // --- QP trivial optimum (no pads) -----------------------------------
    let no_pads = GlobalFloorplanProblem::from_netlist(
        &pipeline.netlist,
        &ProblemOptions {
            use_pads: false,
            outline: None,
            ..ProblemOptions::default()
        },
    )
    .expect("problem");
    let qp = QuadraticPlacer::default().place(&no_pads).expect("qp");
    let qp_spread = layout_spread(&qp.positions);

    // --- AR trivial optimum ----------------------------------------------
    let spread_layout = problem.spread_positions();
    let collapsed = vec![(0.0, 0.0); problem.n];
    let ar_collapsed = ar_full_objective(problem, &collapsed);
    let ar_spread = ar_full_objective(problem, &spread_layout);

    // --- PP non-convexity ---------------------------------------------------
    let mut rng = Rng::seed_from_u64(7);
    let scale = problem.length_scale();
    let mut violation: Option<f64> = None;
    for _ in 0..500 {
        let p1: Vec<(f64, f64)> = (0..problem.n)
            .map(|_| (rng.gen_range(-1.0..1.0) * scale, rng.gen_range(-1.0..1.0) * scale))
            .collect();
        let p2: Vec<(f64, f64)> = (0..problem.n)
            .map(|_| (rng.gen_range(-1.0..1.0) * scale, rng.gen_range(-1.0..1.0) * scale))
            .collect();
        let mid: Vec<(f64, f64)> = p1
            .iter()
            .zip(p2.iter())
            .map(|(a, b)| ((a.0 + b.0) / 2.0, (a.1 + b.1) / 2.0))
            .collect();
        let f1 = pp_objective(problem, &p1);
        let f2 = pp_objective(problem, &p2);
        let fm = pp_objective(problem, &mid);
        let gap = fm - 0.5 * (f1 + f2);
        if gap > 1e-6 * f1.abs().max(1.0) {
            violation = Some(gap);
            break;
        }
    }

    // --- Ours: non-trivial + controllable constraints --------------------
    let sdp = SolveSupervisor::new(pipeline.sdp_settings()).solve(problem);
    assert!(
        !matches!(
            sdp.quality,
            SolveQuality::Degraded | SolveQuality::Placeholder
        ),
        "sdp verdict {}",
        sdp.quality.as_str()
    );
    let fp = sdp.floorplan;
    let our_spread = layout_spread(&fp.positions);
    let feas = check_distance_feasibility(problem, &fp.positions, 0.05);

    let mut table = Table::new(vec!["property", "QP", "AR [1,8]", "PP [2]", "Ours"]);
    table.add_row(vec![
        "convex".to_string(),
        "yes".to_string(),
        "yes".to_string(),
        format!("no (midpoint gap {:+.2e})", violation.unwrap_or(f64::NAN)),
        "yes (two SDPs)".to_string(),
    ]);
    table.add_row(vec![
        "non-trivial optimum".to_string(),
        format!("no (collapse spread {qp_spread:.2e})"),
        format!(
            "no (collapsed {:.3e} <= spread {:.3e})",
            ar_collapsed, ar_spread
        ),
        "yes".to_string(),
        format!("yes (spread {our_spread:.2e})"),
    ]);
    table.add_row(vec![
        "area constraint".to_string(),
        "no".to_string(),
        "partly".to_string(),
        "partly".to_string(),
        format!(
            "controllable ({}/{} pairs satisfied)",
            feas.pairs - feas.violations,
            feas.pairs
        ),
    ]);
    table.add_row(vec![
        "rank certificate".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("<W,Z>/tr = {:.2e}", fp.rank_gap),
    ]);
    println!("{}", table.render());
    println!("paper Table I: QP convex/trivial, AR convex/trivial, PP non-convex/non-trivial,");
    println!("ours convex with non-trivial optimum and controllable area constraint.");
    match table.write_csv("table1") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }

    assert!(qp_spread < 1e-3, "QP should collapse without pads");
    assert!(
        ar_collapsed <= ar_spread,
        "AR trivial optimum should value collapse no worse"
    );
    assert!(violation.is_some(), "PP should exhibit non-convexity");
    assert!(our_spread > 1.0, "ours should not collapse");
    gfp_bench::trace::finish(tracing);
}

fn layout_spread(positions: &[(f64, f64)]) -> f64 {
    let n = positions.len() as f64;
    let cx = positions.iter().map(|p| p.0).sum::<f64>() / n;
    let cy = positions.iter().map(|p| p.1).sum::<f64>() / n;
    positions
        .iter()
        .map(|p| ((p.0 - cx).powi(2) + (p.1 - cy).powi(2)).sqrt())
        .sum::<f64>()
        / n
}
