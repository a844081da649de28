//! `gfp-trace` — analyzer for gfp observability artifacts.
//!
//! * `gfp-trace tree <report.json | trace.jsonl>` — hotspot span tree
//!   (per-path call counts, total and self wall time);
//! * `gfp-trace rounds <report.json>` — per-α-round convergence table;
//! * `gfp-trace diff <baseline> <candidate>` — CI regression gate:
//!   exits 1 when wall time, iteration counts or cache/fastpath hit
//!   rates regress past fixed thresholds, 2 on bad input.
//!
//! All logic (and its tests) lives in [`gfp::trace_analyzer`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = gfp::trace_analyzer::run(
        &args,
        &mut std::io::stdout().lock(),
        &mut std::io::stderr().lock(),
    );
    std::process::exit(code);
}
