//! Wall-budget edge cases for the supervised solver.
//!
//! The service layer leans on three guarantees when a job's deadline
//! collides with the solve:
//!
//! 1. a **zero (or already-expired) total budget** on a fresh solve
//!    still serves the deterministic spread-embedding placeholder and
//!    a checkpoint that a later resume completes bit-identically to an
//!    uninterrupted run;
//! 2. a **round budget tripping at a round boundary** yields the
//!    honest `BudgetExhausted` verdict (a budget is not a failure) and
//!    an equally resumable checkpoint;
//! 3. a **budget expiring inside a retry attempt** (fault recovery +
//!    wall trip in the same run) degrades with *both* causes recorded
//!    and still hands back a resumable checkpoint.
//!
//! Budgets are checked between rounds, never mid-kernel, so all of
//! these are deterministic: `eps_rank = 1e-12` pins the round count
//! and every comparison below is exact to the bit.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use gfp_core::{
    DegradeCause, DegradedResult, FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions,
    SolveQuality, SolveSupervisor, SupervisorSettings,
};
use gfp_netlist::suite;

/// Fault state is process-global: every test holds this lock, so a
/// fault armed by a `faulted` test never fires inside another test.
static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn n10_problem() -> GlobalFloorplanProblem {
    let b = suite::gsrc_n10();
    GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap()
}

/// Small deterministic budgets: `eps_rank` is unreachable, so the
/// solve always runs exactly `max_alpha_rounds` rounds (absent a wall
/// trip) and resumed runs replay bit-identically.
fn det_settings() -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.max_iter = 3;
    s.max_alpha_rounds = 2;
    s.eps_rank = 1e-12;
    s
}

fn unlimited() -> SolveSupervisor {
    SolveSupervisor::with_supervision(det_settings(), SupervisorSettings::default())
}

fn with_total_limit(limit: Duration) -> SolveSupervisor {
    SolveSupervisor::with_supervision(
        det_settings(),
        SupervisorSettings { total_wall_limit: Some(limit), ..SupervisorSettings::default() },
    )
}

fn with_round_limit(limit: Duration) -> SolveSupervisor {
    SolveSupervisor::with_supervision(
        det_settings(),
        SupervisorSettings { round_wall_limit: Some(limit), ..SupervisorSettings::default() },
    )
}

fn position_bits(r: &DegradedResult) -> Vec<(u64, u64)> {
    r.floorplan.positions.iter().map(|p| (p.0.to_bits(), p.1.to_bits())).collect()
}

fn has_wall_cause(r: &DegradedResult, scope: &str) -> bool {
    r.causes
        .iter()
        .any(|c| matches!(c, DegradeCause::WallBudget { scope: s } if *s == scope))
}

/// The two results are the same solve, bit for bit.
fn assert_bitwise_eq(a: &DegradedResult, b: &DegradedResult, label: &str) {
    assert_eq!(a.quality, b.quality, "{label}: quality");
    assert_eq!(position_bits(a), position_bits(b), "{label}: positions");
    assert_eq!(
        a.floorplan.objective.to_bits(),
        b.floorplan.objective.to_bits(),
        "{label}: objective"
    );
    assert_eq!(a.floorplan.iterations, b.floorplan.iterations, "{label}: iterations");
    assert_eq!(a.floorplan.rounds.len(), b.floorplan.rounds.len(), "{label}: rounds");
}

/// Edge 1: the budget is already spent when the solve starts. No
/// round runs, the placeholder is served — and the checkpoint is the
/// genuine round-0 state, so a resume with a real budget produces the
/// uninterrupted result bit for bit.
#[test]
fn zero_total_budget_serves_placeholder_with_resumable_checkpoint() {
    let _g = serial();
    let problem = n10_problem();

    let starved = with_total_limit(Duration::ZERO).solve(&problem);
    assert_eq!(starved.quality, SolveQuality::Placeholder);
    assert!(has_wall_cause(&starved, "total"), "missing total-wall cause: {:?}", starved.causes);
    assert!(starved.floorplan.rounds.is_empty(), "no round may run on a zero budget");
    assert_eq!(starved.floorplan.positions.len(), 10);
    assert!(
        starved.floorplan.positions.iter().all(|p| p.0.is_finite() && p.1.is_finite()),
        "placeholder placement must be finite"
    );

    let reference = unlimited().solve(&problem);
    assert_eq!(reference.quality, SolveQuality::BudgetExhausted);

    let resumed = unlimited().resume(&problem, starved.checkpoint);
    assert_bitwise_eq(&resumed, &reference, "resume-after-starvation");
}

/// Edge 2: the round budget trips at the first round boundary. The
/// run is healthy, so the verdict is `BudgetExhausted` — and the
/// round-1 checkpoint resumes to the uninterrupted result.
#[test]
fn round_budget_trip_is_budget_exhausted_and_resumable() {
    let _g = serial();
    let problem = n10_problem();

    let clipped = with_round_limit(Duration::ZERO).solve(&problem);
    assert_eq!(clipped.quality, SolveQuality::BudgetExhausted);
    assert!(has_wall_cause(&clipped, "round"), "missing round-wall cause: {:?}", clipped.causes);
    assert_eq!(clipped.recoveries, 0, "a wall trip is not a recovery");
    assert_eq!(clipped.floorplan.rounds.len(), 1, "exactly one round runs before the trip");

    let reference = unlimited().solve(&problem);
    assert_eq!(reference.floorplan.rounds.len(), 2);

    let resumed = unlimited().resume(&problem, clipped.checkpoint);
    assert_bitwise_eq(&resumed, &reference, "resume-after-round-trip");
}

/// Edge 3: the budget is already expired when a *resume* starts. The
/// mid-solve iterate is served under the honest verdict, the
/// checkpoint survives the second starvation, and a third, funded
/// resume still lands on the uninterrupted bits.
#[test]
fn zero_budget_resume_preserves_the_checkpoint() {
    let _g = serial();
    let problem = n10_problem();

    let clipped = with_round_limit(Duration::ZERO).solve(&problem);
    assert_eq!(clipped.floorplan.rounds.len(), 1);

    let starved = with_total_limit(Duration::ZERO).resume(&problem, clipped.checkpoint);
    assert_eq!(starved.quality, SolveQuality::BudgetExhausted);
    assert!(has_wall_cause(&starved, "total"));
    assert_eq!(starved.floorplan.rounds.len(), 1, "starved resume must not advance the solve");

    let reference = unlimited().solve(&problem);
    let resumed = unlimited().resume(&problem, starved.checkpoint);
    assert_bitwise_eq(&resumed, &reference, "resume-after-double-starvation");
}

/// Edges under fault injection: the budget expires inside a retry
/// attempt. Needs `--features fault-inject`.
#[cfg(feature = "fault-inject")]
mod faulted {
    use super::*;

    use gfp_fault::{self as fault, FaultKind, FaultPlan, Site};

    /// The first ADMM round is poisoned; the recovery retry succeeds
    /// but the round budget trips right at its boundary. Both causes
    /// must be recorded, the verdict is `Degraded` (a recovery *and*
    /// a wall trip), and the checkpoint still resumes to completion
    /// once the fault is gone and the budget is real.
    #[test]
    fn budget_expiring_inside_retry_attempt_degrades_and_stays_resumable() {
        let _g = serial();
        let problem = n10_problem();

        fault::arm(FaultPlan::single(Site::AdmmIter, FaultKind::Nan, 1));
        let clipped = with_round_limit(Duration::ZERO).solve(&problem);
        let fired = fault::injected_total();
        fault::disarm();

        assert!(fired > 0, "fault never fired");
        assert!(clipped.recoveries >= 1, "poisoned round must trigger a recovery");
        assert!(has_wall_cause(&clipped, "round"), "missing wall cause: {:?}", clipped.causes);
        assert!(
            clipped.causes.iter().any(|c| !matches!(c, DegradeCause::WallBudget { .. })),
            "the fault cause must be recorded alongside the wall trip: {:?}",
            clipped.causes
        );
        assert_eq!(clipped.quality, SolveQuality::Degraded);
        assert_eq!(clipped.floorplan.positions.len(), 10);

        // The checkpoint is the state after the *recovered* round:
        // resuming with a real budget finishes the remaining rounds.
        let resumed = unlimited().resume(&problem, clipped.checkpoint);
        assert_eq!(resumed.quality, SolveQuality::BudgetExhausted);
        assert_eq!(resumed.floorplan.rounds.len(), 2);
        assert!(
            resumed.floorplan.positions.iter().all(|p| p.0.is_finite() && p.1.is_finite()),
            "resumed placement must be finite"
        );
    }
}
