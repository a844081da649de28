//! Reproduces **Table II**: legalized HPWL of ours vs AR \[1\] vs PP \[9\]
//! on the GSRC suite at outline aspect ratios 1:1 and 1:2.
//!
//! Usage: `cargo run --release -p gfp-bench --bin table2 [-- --quick|--full]`

use gfp_bench::table::{fmt_hpwl, fmt_pct};
use gfp_bench::{delta_percent, Budget, Pipeline, Table};
use gfp_netlist::suite;

fn main() {
    let budget = Budget::from_args();
    println!("Table II reproduction (budget {budget:?})");
    println!("HPWL after the shared legalizer; Δ% = (other − ours) / ours\n");

    let mut table = Table::new(vec![
        "bench", "blocks", "nets", "ratio", "ours", "AR", "AR Δ%", "PP", "PP Δ%",
    ]);
    let mut deltas_ar: Vec<f64> = Vec::new();
    let mut deltas_pp: Vec<f64> = Vec::new();

    for name in budget.gsrc_names() {
        let bench = suite::by_name(name);
        for ratio in [1.0, 2.0] {
            let pipeline = Pipeline::new(&bench, ratio, budget);
            let ours = pipeline.run_sdp(pipeline.sdp_settings());
            let ar = pipeline.run_ar();
            let pp = pipeline.run_pp();
            let d_ar = delta_percent(ours.hpwl, ar.hpwl);
            let d_pp = delta_percent(ours.hpwl, pp.hpwl);
            if let Some(d) = d_ar {
                deltas_ar.push(d);
            }
            if let Some(d) = d_pp {
                deltas_pp.push(d);
            }
            table.add_row(vec![
                name.to_string(),
                pipeline.problem.n.to_string(),
                pipeline.netlist.nets().len().to_string(),
                format!("1:{ratio:.0}"),
                fmt_hpwl(ours.hpwl),
                fmt_hpwl(ar.hpwl),
                fmt_pct(d_ar),
                fmt_hpwl(pp.hpwl),
                fmt_pct(d_pp),
            ]);
            eprintln!(
                "[{name} 1:{ratio:.0}] ours {} ({:.1}s+{:.1}s) | ar {} | pp {}",
                fmt_hpwl(ours.hpwl),
                ours.global_seconds,
                ours.legal_seconds,
                fmt_hpwl(ar.hpwl),
                fmt_hpwl(pp.hpwl),
            );
        }
    }

    let avg = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    println!("{}", table.render());
    println!(
        "avg Δ: AR {:+.2}%  PP {:+.2}%   (paper: AR +14.71/+14.59, PP +15.58/+20.10)",
        avg(&deltas_ar),
        avg(&deltas_pp)
    );
    match table.write_csv("table2") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
