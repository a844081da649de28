//! Anderson acceleration of the ADMM loop, observed from outside the
//! solver: it engages on programs with a PSD block of order 64 or
//! more, cuts their iteration count, and its safeguard reverts bad
//! extrapolations without costing accuracy.

use std::sync::Mutex;

use gfp_conic::{AdmmSettings, AdmmSolver, ConeProgram, ConeProgramBuilder, SolveStatus};
use gfp_linalg::svec::{svec_index, svec_len, SQRT2};
use gfp_rand::Rng;

/// Serializes the solves: `admm.aa_rejected` is process-global.
static LOCK: Mutex<()> = Mutex::new(());

/// A MaxCut-style SDP relaxation on an `n × n` PSD variable:
/// `min ⟨C, Z⟩` over `diag Z = diag`, `Z ⪰ 0`, with `C` drawn from
/// `seed`.
fn maxcut_program(n: usize, seed: u64, diag: f64) -> ConeProgram {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = ConeProgramBuilder::new(svec_len(n));
    for j in 0..n {
        for i in j..n {
            let v: f64 = rng.gen_range(-1.0..1.0);
            b.set_objective_coeff(
                svec_index(n, i, j),
                if i == j { v.abs() } else { SQRT2 * v },
            );
        }
    }
    for i in 0..n {
        b.add_eq(&[(svec_index(n, i, i), 1.0)], diag);
    }
    b.add_psd_vars(&(0..svec_len(n)).collect::<Vec<_>>());
    b.build().unwrap()
}

fn solve(p: &ConeProgram) -> gfp_conic::Solution {
    AdmmSolver::new(AdmmSettings {
        eps: 1e-5,
        ..AdmmSettings::default()
    })
    .solve(p)
    .unwrap()
}

fn rejected() -> u64 {
    gfp_telemetry::counters_snapshot()
        .into_iter()
        .find(|(k, _)| *k == "admm.aa_rejected")
        .map_or(0, |(_, v)| v)
}

/// Iterations the plain splitting (no acceleration) takes on
/// `maxcut_program(64, 2, 1.0)` at eps 1e-5 with default settings,
/// measured on the solver before the acceleration existed.
const PLAIN_ITERATIONS: usize = 1025;

/// The accelerated solve must take at most 65% of the plain count.
/// Fails when the gate, the safeguard or a reset switches the
/// acceleration off.
#[test]
fn acceleration_cuts_the_iterations_of_a_64_block_sdp() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sol = solve(&maxcut_program(64, 2, 1.0));
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(
        sol.info.iterations * 100 <= PLAIN_ITERATIONS * 65,
        "{} iterations, plain splitting {PLAIN_ITERATIONS}",
        sol.info.iterations
    );
}

/// On this program some extrapolated points do worse than the plain
/// step they replace; the safeguard reverts them, and the solve still
/// meets its tolerance.
#[test]
fn safeguard_reverts_and_the_solve_still_meets_eps() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gfp_telemetry::set_enabled(true);
    let before = rejected();
    let sol = solve(&maxcut_program(64, 1, 1.0));
    let reverts = rejected() - before;
    gfp_telemetry::set_enabled(false);
    assert!(reverts > 0, "no safeguard revert recorded");
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(sol.info.primal_residual < 1e-5 && sol.info.dual_residual < 1e-5);
    assert!(sol.info.duality_gap < 1e-5);
}

/// Below the gate the loop is the plain splitting: a 63-block program
/// takes the plain iteration count and records no revert.
#[test]
fn blocks_below_64_keep_the_plain_loop() {
    const PLAIN_63: usize = 625;
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gfp_telemetry::set_enabled(true);
    let before = rejected();
    let sol = solve(&maxcut_program(63, 1, 1.0));
    let reverts = rejected() - before;
    gfp_telemetry::set_enabled(false);
    assert_eq!(reverts, 0);
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert_eq!(sol.info.iterations, PLAIN_63);
}

/// A penalty change restarts the acceleration: residual balancing
/// halves ρ at iterations 50 and 100 of this program, and the history
/// gathered under the old ρ describes a different fixed-point map.
/// With the restart the solve meets eps in 175 iterations; carrying
/// the stale history across the change takes 250.
#[test]
fn a_penalty_change_restarts_the_acceleration() {
    const RESTARTED: usize = 175;
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sol = solve(&maxcut_program(64, 2, 0.01));
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert_eq!(sol.info.iterations, RESTARTED);
}
