//! Reproduces **Fig. 5(a)**: convergence of the convex iteration —
//! objective value per iteration for different α and benchmark sizes.
//! Larger α converges faster (but can end worse); larger benchmarks
//! need larger α to converge at all.
//!
//! Usage: `cargo run --release -p gfp-bench --bin fig5a [-- --quick|--full]`

use gfp_bench::{Budget, Pipeline, Table};
use gfp_core::SolveSupervisor;
use gfp_netlist::suite;

fn main() {
    let budget = Budget::from_args();
    let benches = match budget {
        Budget::Quick => vec!["n10"],
        Budget::Standard => vec!["n10", "n30"],
        Budget::Full => vec!["n10", "n30", "n50", "n100"],
    };
    let alphas = match budget {
        Budget::Quick => vec![256.0, 16384.0],
        _ => vec![64.0, 1024.0, 16384.0],
    };
    println!("Fig. 5(a) reproduction (budget {budget:?})");
    println!("objective = quadratic wirelength of the iterate; gap = <W, Z> rank gap\n");

    let mut table = Table::new(vec![
        "bench", "alpha", "iteration", "objective", "rank_gap",
    ]);
    for name in &benches {
        let bench = suite::by_name(name);
        let pipeline = Pipeline::new(&bench, 1.0, budget);
        for &alpha in &alphas {
            let mut settings = pipeline.sdp_settings();
            settings.alpha0 = alpha;
            settings.max_alpha_rounds = 1; // pinned α: pure convergence study
            settings.max_iter = match budget {
                Budget::Quick => 8,
                _ => 15,
            };
            settings.eps_conv = 0.0; // never stop early: record the full trace
            let result = SolveSupervisor::new(settings)
                .solve(&pipeline.problem)
                .floorplan;
            for t in &result.trace {
                table.add_row(vec![
                    name.to_string(),
                    format!("{alpha}"),
                    t.iteration.to_string(),
                    format!("{:.1}", t.wirelength),
                    format!("{:.4e}", t.rank_gap),
                ]);
            }
            let first = result.trace.first().map(|t| t.rank_gap).unwrap_or(0.0);
            let last = result.trace.last().map(|t| t.rank_gap).unwrap_or(0.0);
            eprintln!(
                "[{name} α={alpha}] {} iterations, rank gap {first:.3e} -> {last:.3e}, converged {}",
                result.iterations, result.converged
            );
        }
    }
    println!("{}", table.render());
    println!("expected shape: the rank gap decreases monotonically per α; larger α drives");
    println!("it down faster; small benchmarks converge within ~10 iterations while larger");
    println!("ones keep improving (the paper's n50/n100 curves are still decreasing).");
    match table.write_csv("fig5a") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
