//! Golden-trace regression test for the solver's telemetry stream.
//!
//! Snapshots the *shape* of the JSONL telemetry a seeded n10 solve
//! emits — the run-length-encoded sequence of record kinds and names
//! plus the sorted set of counter keys — and compares it against a
//! checked-in fixture. Timings, values and span ids are deliberately
//! excluded: the fixture pins the instrumentation contract (which
//! spans/events fire, in what order), not machine-dependent numbers.
//!
//! The solve is pinned to a 2-worker pool so kernel-level counters do
//! not depend on the host's core count, and the whole pipeline is
//! bitwise deterministic, so the event sequence is exactly
//! reproducible.
//!
//! To regenerate after an intentional instrumentation change:
//!
//! ```text
//! GFP_UPDATE_GOLDEN=1 cargo test -p gfp-core --test golden_trace
//! ```

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use gfp_core::supervisor::{SolveSupervisor, SupervisorSettings};
use gfp_core::{FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions};
use gfp_netlist::suite;
use gfp_parallel::{with_pool, ThreadPool};
use gfp_telemetry as telemetry;
use gfp_telemetry::{NullSink, OwnedRecord, RecordKind, RecordingSink, Value};

// Both tests drive the process-global telemetry sink; serialize them.
static LOCK: Mutex<()> = Mutex::new(());

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace_n10.txt"
);

fn run_seeded_solve_signature() -> String {
    let sink = Arc::new(RecordingSink::new());
    telemetry::install_sink(sink.clone());
    telemetry::set_enabled(true);
    telemetry::reset_aggregates();

    let b = suite::gsrc_n10();
    let problem =
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
    let mut settings = FloorplannerSettings::fast();
    settings.max_iter = 3;
    settings.max_alpha_rounds = 3;
    let pool = ThreadPool::new(2);
    let result = with_pool(&pool, || SolveSupervisor::new(settings).solve(&problem));
    assert_eq!(result.recoveries, 0, "causes: {:?}", result.causes);
    assert_eq!(result.floorplan.positions.len(), 10);

    telemetry::set_enabled(false);
    telemetry::install_sink(Arc::new(NullSink));

    let mut out = String::new();
    out.push_str("# Golden telemetry trace: seeded n10 solve (fast settings, 2 workers).\n");
    out.push_str("# Record sequence is run-length encoded as `kind:name xN`;\n");
    out.push_str("# counter keys are sorted. Values/timings are intentionally absent.\n");
    out.push_str(
        "# Regenerate: GFP_UPDATE_GOLDEN=1 cargo test -p gfp-core --test golden_trace\n",
    );
    let mut run: Option<(String, usize)> = None;
    let flush = |out: &mut String, run: &Option<(String, usize)>| {
        if let Some((key, count)) = run {
            if *count > 1 {
                writeln!(out, "{key} x{count}").unwrap();
            } else {
                writeln!(out, "{key}").unwrap();
            }
        }
    };
    for record in sink.snapshot() {
        let key = format!("{}:{}", record.kind.tag(), record.name);
        match &mut run {
            Some((k, n)) if *k == key => *n += 1,
            _ => {
                flush(&mut out, &run);
                run = Some((key, 1));
            }
        }
    }
    flush(&mut out, &run);
    out.push_str("counters:\n");
    // Only counters this solve actually bumped: registration is
    // process-global, so keys touched by *other* tests in this binary
    // (e.g. the resume test's store.* counters) must not leak into
    // the fixture signature.
    let mut keys: Vec<&'static str> = telemetry::counters_snapshot()
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .map(|(k, _)| k)
        .collect();
    keys.sort_unstable();
    for key in keys {
        writeln!(out, "  {key}").unwrap();
    }
    out
}

#[test]
fn telemetry_trace_matches_golden_fixture() {
    let _g = LOCK.lock().unwrap();
    let actual = run_seeded_solve_signature();
    if std::env::var("GFP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(FIXTURE_PATH, &actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {FIXTURE_PATH} ({e}); regenerate with \
             GFP_UPDATE_GOLDEN=1 cargo test -p gfp-core --test golden_trace"
        )
    });
    assert_eq!(
        actual, expected,
        "telemetry trace diverged from the golden fixture; if the \
         instrumentation change is intentional, regenerate with \
         GFP_UPDATE_GOLDEN=1 cargo test -p gfp-core --test golden_trace"
    );
}

/// Bitwise signature of the solver-trajectory events (`convex.*`):
/// every field except the machine-dependent `sp1_seconds`, with floats
/// rendered by bit pattern. Two runs with identical signatures took
/// the exact same numeric path.
fn convex_signature(records: &[OwnedRecord]) -> Vec<String> {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Event && r.name.starts_with("convex."))
        .map(|r| {
            let mut s = r.name.clone();
            for (k, v) in &r.fields {
                if k == "sp1_seconds" {
                    continue;
                }
                match v {
                    Value::F64(x) => write!(s, " {k}={:016x}", x.to_bits()).unwrap(),
                    other => write!(s, " {k}={other}").unwrap(),
                }
            }
            s
        })
        .collect()
}

fn temp_checkpoint_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gfp-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The durability contract of `SolveSupervisor::resume_from_dir`: a
/// solve that dies at a round boundary and resumes from its on-disk
/// snapshot replays the exact trajectory of an uninterrupted run —
/// same `convex.*` telemetry events bit for bit, same final placement
/// bits, same per-iteration trace (modulo wall-clock timings).
#[test]
fn killed_solve_resumes_bitwise_identical() {
    let _g = LOCK.lock().unwrap();
    let sink = Arc::new(RecordingSink::new());
    telemetry::install_sink(sink.clone());
    telemetry::set_enabled(true);
    telemetry::reset_aggregates();

    let b = suite::gsrc_n10();
    let problem =
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
    let mut settings = FloorplannerSettings::fast();
    settings.max_iter = 3;
    settings.max_alpha_rounds = 3;
    settings.eps_rank = 1e-12; // unreachable: all three rounds always run
    let pool = ThreadPool::new(2);

    // Reference: uninterrupted supervised run, checkpointing as it goes.
    let dir_full = temp_checkpoint_dir("full");
    let sup_full = SolveSupervisor::with_supervision(
        settings.clone(),
        SupervisorSettings {
            checkpoint_dir: Some(dir_full.clone()),
            ..SupervisorSettings::default()
        },
    );
    let full = with_pool(&pool, || sup_full.solve(&problem));
    let full_events = sink.take();

    // "Killed" run: identical settings except the process dies after
    // two completed rounds (the last on-disk snapshot is the round-2
    // boundary — exactly what a kill mid-round-3 leaves behind).
    let dir_killed = temp_checkpoint_dir("killed");
    let mut short = settings.clone();
    short.max_alpha_rounds = 2;
    let sup_killed = SolveSupervisor::with_supervision(
        short,
        SupervisorSettings {
            checkpoint_dir: Some(dir_killed.clone()),
            ..SupervisorSettings::default()
        },
    );
    let _ = with_pool(&pool, || sup_killed.solve(&problem));

    // Resume from disk with the original budgets.
    let sup_resume = SolveSupervisor::new(settings);
    let resumed = with_pool(&pool, || sup_resume.resume_from_dir(&problem, &dir_killed))
        .expect("resume from snapshot dir");
    let resumed_events = sink.take();

    telemetry::set_enabled(false);
    telemetry::install_sink(Arc::new(NullSink));

    // Final placement: bit-for-bit identical.
    let full_bits: Vec<(u64, u64)> = full
        .floorplan
        .positions
        .iter()
        .map(|&(x, y)| (x.to_bits(), y.to_bits()))
        .collect();
    let resumed_bits: Vec<(u64, u64)> = resumed
        .floorplan
        .positions
        .iter()
        .map(|&(x, y)| (x.to_bits(), y.to_bits()))
        .collect();
    assert_eq!(full_bits, resumed_bits, "final placement diverged after resume");
    assert_eq!(full.floorplan.iterations, resumed.floorplan.iterations);
    assert_eq!(full.quality, resumed.quality);

    // Per-iteration trace: identical except wall-clock timings.
    assert_eq!(full.floorplan.trace.len(), resumed.floorplan.trace.len());
    for (a, b) in full.floorplan.trace.iter().zip(resumed.floorplan.trace.iter()) {
        assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.wirelength.to_bits(), b.wirelength.to_bits());
        assert_eq!(a.rank_gap.to_bits(), b.rank_gap.to_bits());
        assert_eq!(a.sp1_status, b.sp1_status);
    }

    // Telemetry trajectory: the killed run's events (both legs
    // concatenated) equal the uninterrupted run's, bit for bit.
    assert_eq!(
        convex_signature(&full_events),
        convex_signature(&resumed_events),
        "convex-iteration event stream diverged after resume"
    );

    let _ = std::fs::remove_dir_all(&dir_full);
    let _ = std::fs::remove_dir_all(&dir_killed);
}
