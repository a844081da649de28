//! End-to-end telemetry: a supervised solve emits exactly one
//! `convex.iter` event per inner iteration, and the counters and span
//! aggregates agree with the solver's own bookkeeping.

use std::sync::Arc;

use gfp_core::{FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveSupervisor};
use gfp_netlist::suite;
use gfp_telemetry as telemetry;

#[test]
fn one_convex_iter_event_per_iteration_on_n10() {
    let sink = Arc::new(telemetry::RecordingSink::new());
    telemetry::install_sink(sink.clone());
    telemetry::set_enabled(true);
    telemetry::reset_aggregates();

    let bench = suite::gsrc_n10();
    let (netlist, outline) = bench.with_pads_on_outline(1.0);
    let problem = GlobalFloorplanProblem::from_netlist(
        &netlist,
        &ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )
    .expect("n10 problem");
    let result = SolveSupervisor::new(FloorplannerSettings::fast()).solve(&problem);
    telemetry::set_enabled(false);
    assert_eq!(result.recoveries, 0, "causes: {:?}", result.causes);
    let fp = result.floorplan;

    assert!(fp.iterations > 0);
    let iters = sink.events_named("convex.iter");
    assert_eq!(
        iters.len(),
        fp.iterations,
        "one convex.iter event per inner iteration"
    );
    // Iteration indices are the contiguous sequence 1..=iterations.
    for (k, ev) in iters.iter().enumerate() {
        match ev.field("iteration") {
            Some(telemetry::Value::U64(i)) => assert_eq!(*i as usize, k + 1),
            other => panic!("iteration field missing or mistyped: {other:?}"),
        }
        assert!(ev.field("alpha").is_some());
        assert!(ev.field("rank_gap").is_some());
        assert!(ev.field("sp1_status").is_some());
    }

    // The counter mirrors the event count.
    let convex_total = telemetry::counters_snapshot()
        .iter()
        .find(|(name, _)| *name == "convex.iterations")
        .map(|(_, v)| *v);
    assert_eq!(convex_total, Some(fp.iterations as u64));

    // The span tree covers the solve.
    let report = telemetry::summary_report();
    assert!(report.contains("supervisor.solve"), "{report}");
    assert!(report.contains("sdp.alpha_round"), "{report}");
}
