//! Reproduces **Table III**: legalized HPWL of ours vs a Parquet-4
//! style sequence-pair annealer \[20\] vs the analytical density-driven
//! baseline \[7\], on MCNC (ami33/ami49) and large GSRC instances.
//!
//! Usage: `cargo run --release -p gfp-bench --bin table3 [-- --quick|--full]`

use gfp_bench::table::{fmt_hpwl, fmt_pct};
use gfp_bench::{delta_percent, Budget, Pipeline, Table};
use gfp_netlist::suite;

fn main() {
    let budget = Budget::from_args();
    println!("Table III reproduction (budget {budget:?})");
    println!("Pads at benchmark-given locations; annealer reports its own packing\n");

    let mut table = Table::new(vec![
        "bench", "ratio", "ours", "parquet-sa", "SA Δ%", "analytical", "An Δ%",
    ]);
    let mut deltas_sa: Vec<f64> = Vec::new();
    let mut deltas_an: Vec<f64> = Vec::new();

    for name in budget.table3_names() {
        let bench = suite::by_name(name);
        for ratio in [1.0, 2.0] {
            let pipeline = Pipeline::new(&bench, ratio, budget);
            let ours = pipeline.run_sdp(pipeline.sdp_settings());
            let sa = pipeline.run_annealing();
            let an = pipeline.run_analytical();
            let d_sa = delta_percent(ours.hpwl, sa.hpwl);
            let d_an = delta_percent(ours.hpwl, an.hpwl);
            if let Some(d) = d_sa {
                deltas_sa.push(d);
            }
            if let Some(d) = d_an {
                deltas_an.push(d);
            }
            table.add_row(vec![
                name.to_string(),
                format!("1:{ratio:.0}"),
                fmt_hpwl(ours.hpwl),
                fmt_hpwl(sa.hpwl),
                fmt_pct(d_sa),
                fmt_hpwl(an.hpwl),
                fmt_pct(d_an),
            ]);
            eprintln!(
                "[{name} 1:{ratio:.0}] ours {} ({:.1}s) | sa {} ({:.1}s) | analytical {} ({:.1}s)",
                fmt_hpwl(ours.hpwl),
                ours.global_seconds + ours.legal_seconds,
                fmt_hpwl(sa.hpwl),
                sa.global_seconds,
                fmt_hpwl(an.hpwl),
                an.global_seconds + an.legal_seconds,
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
        "avg Δ: SA {:+.2}%  analytical {:+.2}%   (paper: Parquet +16.89/+18.23, Analytical +3.02/+4.56)",
        avg(&deltas_sa),
        avg(&deltas_an)
    );
    match table.write_csv("table3") {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
