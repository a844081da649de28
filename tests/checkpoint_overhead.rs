//! Slow-tier guard on the cost of crash safety: in a supervised solve
//! with per-round durable checkpoints (encode + temp file + fsync +
//! rename each round, plus the final snapshot), the supervisor's
//! persist step must take under 5% of the solve's wall time.
//!
//! Both times come from the telemetry span aggregates of one durable
//! solve: `supervisor.persist`, which wraps exactly the encode and the
//! write, nested in `supervisor.solve`. Measuring the persist step
//! itself, inside the run it belongs to, keeps the guard free of the
//! run-to-run noise that a comparison of two whole solves carries.
//!
//! `#[ignore]`d from the fast tier (wall-clock measurement); ci.sh
//! runs it via `cargo test -- --ignored`.

use gfp_core::supervisor::{SolveSupervisor, SupervisorSettings};
use gfp_core::{FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions};
use gfp_netlist::suite;
use gfp_telemetry as telemetry;

#[test]
#[ignore = "slow tier: wall-clock overhead measurement"]
fn checkpointing_adds_under_five_percent_wall_time() {
    let bench = suite::gsrc_n30();
    let problem =
        GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default()).unwrap();
    let mut settings = FloorplannerSettings::fast();
    settings.max_iter = 2;
    settings.max_alpha_rounds = 2;
    settings.eps_rank = 1e-12; // a fixed round count, so a fixed write count

    let dir = std::env::temp_dir().join(format!("gfp-overhead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sup = SolveSupervisor::with_supervision(
        settings,
        SupervisorSettings {
            checkpoint_dir: Some(dir.clone()),
            ..SupervisorSettings::default()
        },
    );
    // Span aggregates are recorded only while telemetry is on; the
    // default sink discards the records themselves.
    telemetry::set_enabled(true);
    telemetry::reset_aggregates();
    let r = sup.solve(&problem);
    telemetry::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(r.checkpoint.round, 2);

    let stats = telemetry::span_stats_snapshot();
    let span = |path: &str| {
        stats
            .iter()
            .find(|(p, _, _)| p == path)
            .map(|&(_, count, secs)| (count, secs))
            .unwrap_or_else(|| panic!("no `{path}` span recorded"))
    };
    let (_, solve) = span("supervisor.solve");
    let (writes, persist) = span("supervisor.solve/supervisor.persist");
    assert_eq!(writes, 3, "one snapshot per completed round plus the final one");

    let overhead = persist / solve;
    println!(
        "checkpoint overhead: persist {persist:.4}s over {writes} writes \
         in a {solve:.3}s solve ({:.2}%)",
        100.0 * overhead
    );
    assert!(
        overhead < 0.05,
        "durable checkpointing took {:.2}% of the solve's wall time (persist {persist:.4}s, \
         solve {solve:.3}s); the robustness contract caps it at 5%",
        100.0 * overhead
    );
}
