//! Ablations over the design choices DESIGN.md calls out:
//!
//! * sub-problem-1 backend: ADMM vs dense barrier IPM,
//! * warm starting across iterations on/off,
//! * carrying the direction matrix `W` across α rounds vs resetting it
//!   (Algorithm 1 verbatim),
//! * enhancement stacks (already swept in `fig4`; summarized here).
//!
//! Each row is one supervised solve. Its `verdict` and final `backend`
//! columns say how the solve ended: a row whose backend failed and
//! fell back to the other one reads `recovered` or `degraded` and names
//! the backend that finished it.
//!
//! Usage: `cargo run --release -p gfp-bench --bin ablation [-- --quick]`

use std::time::Instant;

use gfp_bench::table::fmt_hpwl;
use gfp_bench::{Budget, Pipeline, Table};
use gfp_conic::ipm::BarrierSettings;
use gfp_core::{Backend, GlobalFloorplanProblem, ProblemOptions, SolveSupervisor};
use gfp_netlist::suite;

fn main() {
    let budget = Budget::from_args();
    let bench = suite::gsrc_n10();
    let pipeline = Pipeline::new(&bench, 1.0, budget);
    println!("Design-choice ablations on {} (budget {budget:?})\n", bench.name);

    let mut table = Table::new(vec![
        "variant", "hpwl", "rank_gap", "iters", "seconds", "verdict", "backend",
    ]);

    let variants: Vec<(&str, Box<dyn Fn() -> gfp_core::FloorplannerSettings>)> = vec![
        ("baseline (admm, warm, carry-W)", Box::new({
            let p = pipeline.clone();
            move || p.sdp_settings()
        })),
        ("no warm start", Box::new({
            let p = pipeline.clone();
            move || {
                let mut s = p.sdp_settings();
                s.warm_start = false;
                s
            }
        })),
        ("reset W per alpha (Alg.1 verbatim)", Box::new({
            let p = pipeline.clone();
            move || {
                let mut s = p.sdp_settings();
                s.reset_direction = true;
                s
            }
        })),
        ("ipm backend", Box::new({
            let p = pipeline.clone();
            move || {
                let mut s = p.sdp_settings();
                s.backend = Backend::Ipm(BarrierSettings { eps: 1e-7 });
                s
            }
        })),
    ];

    // The barrier IPM needs a strict interior, which the outline box
    // bounds deny to the circular phase-0 start; its ablation row runs
    // on the unconstrained problem (legalized into the outline as
    // usual).
    let unconstrained = GlobalFloorplanProblem::from_netlist(
        &pipeline.netlist,
        &ProblemOptions {
            outline: None,
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )
    .expect("problem");

    for (name, make_settings) in variants {
        let problem = if name.starts_with("ipm") {
            &unconstrained
        } else {
            &pipeline.problem
        };
        let t0 = Instant::now();
        let result = SolveSupervisor::new(make_settings()).solve(problem);
        let secs = t0.elapsed().as_secs_f64();
        let fp = &result.floorplan;
        let legal = gfp_legalize::legalize(
            &pipeline.netlist,
            &pipeline.problem,
            &pipeline.outline,
            &fp.positions,
            &gfp_legalize::LegalizeSettings::default(),
        );
        let hpwl = legal.ok().map(|l| l.hpwl);
        table.add_row(vec![
            name.to_string(),
            fmt_hpwl(hpwl),
            format!("{:.2e}", fp.rank_gap),
            fp.iterations.to_string(),
            format!("{secs:.1}"),
            result.quality.as_str().to_string(),
            result.final_backend.to_string(),
        ]);
        eprintln!("[{name}] done in {secs:.1}s");
    }
    println!("{}", table.render());
    match table.write_csv("ablation") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
