//! Reproduces **Fig. 5(b)**: per-iteration runtime of sub-problem 1 as
//! a function of the module count, with a log-log slope fit. The paper
//! plots MOSEK (interior-point) times against an `n⁴` reference; our
//! substitute backends are measured the same way — the dense barrier
//! IPM shows the steep polynomial growth, the ADMM backend a milder
//! one (that trade is exactly why both exist; see DESIGN.md).
//!
//! Usage: `cargo run --release -p gfp-bench --bin fig5b [-- --quick|--full]`

use std::time::Instant;

use gfp_bench::{Budget, Table};
use gfp_conic::ipm::BarrierSettings;
use gfp_conic::AdmmSettings;
use gfp_core::lifted::{objective_matrix, AssemblyWorkspace};
use gfp_core::neighbors::all_pairs;
use gfp_core::subproblems::solve_subproblem1;
use gfp_core::{Backend, GlobalFloorplanProblem, ProblemOptions};
use gfp_netlist::suite::{generate, SuiteSpec};

/// Builds a synthetic instance with exactly `n` modules.
fn instance(n: usize) -> GlobalFloorplanProblem {
    let spec = SuiteSpec {
        name: "scaling",
        modules: n,
        nets: 6 * n,
        pads: n / 2 + 8,
        area_min: 500.0,
        area_max: 8_000.0,
        seed: 0x5CA1E + n as u64,
    };
    let bench = generate(&spec);
    GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default())
        .expect("valid instance")
        .normalized()
}

/// Least-squares slope of log(t) vs log(n): the closed-form simple
/// regression `Sxy / Sxx` (NaN without two distinct sizes).
fn loglog_slope(ns: &[usize], ts: &[f64]) -> f64 {
    let xs: Vec<f64> = ns.iter().map(|&n| (n as f64).ln()).collect();
    let ys: Vec<f64> = ts.iter().map(|t| t.ln()).collect();
    let m = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / m;
    let my = ys.iter().sum::<f64>() / m;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

fn main() {
    let budget = Budget::from_args();
    let admm_sizes: Vec<usize> = match budget {
        Budget::Quick => vec![10, 16, 24],
        Budget::Standard => vec![10, 16, 24, 36, 50, 70],
        Budget::Full => vec![10, 16, 24, 36, 50, 70, 100, 140, 200],
    };
    let ipm_sizes: Vec<usize> = match budget {
        Budget::Quick => vec![6, 10, 14],
        _ => vec![6, 10, 14, 20, 26, 32],
    };
    println!("Fig. 5(b) reproduction (budget {budget:?})");
    println!("one sub-problem-1 solve per size; log-log slope ≈ growth exponent\n");

    let mut table = Table::new(vec!["backend", "n", "seconds"]);
    let mut admm_times = Vec::new();
    for &n in &admm_sizes {
        let p = instance(n);
        let obj = objective_matrix(&p, &p.a, None);
        let t0 = Instant::now();
        let r = solve_subproblem1(
            &p,
            &p.a,
            &obj,
            &Backend::Admm(AdmmSettings {
                eps: 1e-4,
                max_iter: 4000,
                ..AdmmSettings::default()
            }),
            None,
            None,
            &all_pairs(n),
            &mut AssemblyWorkspace::new(),
        )
        .expect("admm solves");
        let secs = t0.elapsed().as_secs_f64();
        admm_times.push(secs);
        table.add_row(vec!["admm".to_string(), n.to_string(), format!("{secs:.3}")]);
        eprintln!("[admm n={n}] {secs:.3}s status {:?}", r.status);
    }
    let mut ipm_times = Vec::new();
    for &n in &ipm_sizes {
        let p = instance(n);
        let obj = objective_matrix(&p, &p.a, None);
        let t0 = Instant::now();
        let r = solve_subproblem1(
            &p,
            &p.a,
            &obj,
            &Backend::Ipm(BarrierSettings {
                eps: 1e-6,
                ..BarrierSettings::default()
            }),
            None,
            None,
            &all_pairs(n),
            &mut AssemblyWorkspace::new(),
        );
        let secs = t0.elapsed().as_secs_f64();
        match r {
            Ok(_) => {
                ipm_times.push(secs);
                table.add_row(vec!["ipm".to_string(), n.to_string(), format!("{secs:.3}")]);
                eprintln!("[ipm n={n}] {secs:.3}s");
            }
            Err(e) => eprintln!("[ipm n={n}] failed: {e}"),
        }
    }

    println!("{}", table.render());
    let admm_slope = loglog_slope(&admm_sizes, &admm_times);
    println!("ADMM   growth exponent ≈ {admm_slope:.2}");
    if ipm_times.len() == ipm_sizes.len() {
        let ipm_slope = loglog_slope(&ipm_sizes, &ipm_times);
        println!("IPM    growth exponent ≈ {ipm_slope:.2}");
        println!("(paper reference line: n^4 for the MOSEK interior-point solver; our dense");
        println!("IPM tracks the steep polynomial, the first-order ADMM grows more slowly)");
    }
    match table.write_csv("fig5b") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
