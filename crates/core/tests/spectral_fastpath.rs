//! Partial-vs-full spectral equivalence for sub-problem 2.
//!
//! The deflated fast path (`W = I − VVᵀ` from the two eigenpairs
//! `gfp_linalg::top_pairs` certifies)
//! must agree with the dense `eigh` route on every spectrum shape it
//! accepts, and must *reject* (falling back to the dense route, bit
//! for bit) any spectrum where the rank-2 projector is ambiguous.
//! The fast-path switch and the hit/fallback counters are
//! process-global, so every test holds [`FASTPATH_LOCK`] (through a
//! [`PathGuard`]) for its whole body: a counter read before or after a
//! solve then sees no other test's solves.

use std::sync::{Mutex, MutexGuard};

use gfp_core::iterate::{FloorplannerSettings, SdpFloorplanner};
use gfp_core::lifted::Lift;
use gfp_core::subproblems::solve_subproblem2;
use gfp_core::{GlobalFloorplanProblem, ProblemOptions};
use gfp_linalg::{fastpath, spectral_accumulate, Mat};
use gfp_netlist::suite;
use gfp_rand::Rng;

static FASTPATH_LOCK: Mutex<()> = Mutex::new(());

/// Holds the global fast-path flag at `on` for the guard's lifetime,
/// restoring the previous value (and releasing the lock) on drop.
struct PathGuard {
    _lock: MutexGuard<'static, ()>,
    prev: bool,
}

impl PathGuard {
    fn lock() -> MutexGuard<'static, ()> {
        FASTPATH_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn force(on: bool) -> Self {
        PathGuard {
            _lock: Self::lock(),
            prev: fastpath::set_enabled(on),
        }
    }
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        fastpath::set_enabled(self.prev);
    }
}

fn counter(name: &str) -> u64 {
    // Counters only tick while telemetry is on; no sink is installed,
    // so nothing is written anywhere.
    gfp_telemetry::set_enabled(true);
    gfp_telemetry::counters_snapshot()
        .into_iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| v)
}

/// Solves sub-problem 2 with the fast path on, then off; the caller
/// holds a [`PathGuard`] forcing it on. Returns
/// `((w_fast, gap_fast), (w_full, gap_full))`.
fn both_paths(zm: &Mat, n: usize) -> ((Mat, f64), (Mat, f64)) {
    let fast = solve_subproblem2(zm, n).expect("fast-path solve");
    let prev = fastpath::set_enabled(false);
    let full = solve_subproblem2(zm, n).expect("dense solve");
    fastpath::set_enabled(prev);
    (fast, full)
}

fn assert_close(fast: &(Mat, f64), full: &(Mat, f64), what: &str) {
    let gap_rel = (fast.1 - full.1).abs() / (1.0 + full.1.abs());
    assert!(gap_rel < 1e-8, "{what}: gap {} vs {}", fast.1, full.1);
    let dw = (&fast.0 - &full.0).norm_max();
    assert!(dw < 1e-6, "{what}: |ΔW|∞ = {dw:.3e}");
}

fn assert_bitwise(fast: &(Mat, f64), full: &(Mat, f64), what: &str) {
    assert_eq!(
        fast.1.to_bits(),
        full.1.to_bits(),
        "{what}: gap not bitwise equal"
    );
    for (k, (a, b)) in fast
        .0
        .as_slice()
        .iter()
        .zip(full.0.as_slice().iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: W entry {k} differs");
    }
}

#[test]
fn partial_matches_dense_on_generic_lifted_z() {
    let _guard = PathGuard::force(true);
    // nn = 32: the smallest size that takes the fast path; nn = 102 and
    // 202: the cones of the hierarchical n500 top level and of flat n200.
    for n in [30, 100, 200] {
        let lift = Lift::new(n);
        let mut rng = Rng::seed_from_u64(0x5eed_5050);
        let pos: Vec<(f64, f64)> = (0..n)
            .map(|_| (20.0 * rng.gen_f64(), 20.0 * rng.gen_f64()))
            .collect();
        let z = lift.embed_positions(&pos, 0.8);
        let zm = lift.z_matrix(&z);
        let hits0 = counter("kernel.eigh_partial.hit");
        let (fast, full) = both_paths(&zm, n);
        assert_close(&fast, &full, &format!("generic lifted Z, nn = {}", n + 2));
        assert!(
            counter("kernel.eigh_partial.hit") > hits0,
            "generic spectrum must take the fast path (nn = {})",
            n + 2
        );
    }
}

#[test]
fn partial_matches_dense_on_rank_deficient_z() {
    let _guard = PathGuard::force(true);
    // Slack 0: Z is an exact rank-2 lift, the rank gap vanishes and
    // the deflation identity gap = trace − λ₁ − λ₂ is exact.
    let n = 30;
    let lift = Lift::new(n);
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|i| ((i as f64) * 3.0, ((i % 5) as f64) * 4.0))
        .collect();
    let z = lift.embed_positions(&pos, 0.0);
    let zm = lift.z_matrix(&z);
    let (fast, full) = both_paths(&zm, n);
    assert_close(&fast, &full, "rank-2 lifted Z");
    let scale = zm.trace();
    assert!(
        fast.1.abs() < 1e-8 * scale,
        "rank-2 gap must vanish: {} (trace {scale})",
        fast.1
    );
}

#[test]
fn flat_spectrum_falls_back_to_dense_bitwise() {
    let _guard = PathGuard::force(true);
    // Every eigenvalue equal: no top-2 separation exists, the Sturm
    // check must route the call to the dense path — whose result is
    // then bitwise identical to a fast-path-disabled solve.
    let n = 30;
    let nn = n + 2;
    let mut zm = Mat::zeros(nn, nn);
    for i in 0..nn {
        zm[(i, i)] = 5.0;
    }
    let hits0 = counter("kernel.eigh_partial.hit");
    let fb0 = counter("kernel.eigh_partial.fallback");
    let (fast, full) = both_paths(&zm, n);
    assert_bitwise(&fast, &full, "flat spectrum");
    assert_eq!(
        counter("kernel.eigh_partial.hit"),
        hits0,
        "flat spectrum must not be accepted by the fast path"
    );
    assert!(counter("kernel.eigh_partial.fallback") > fb0);
}

#[test]
fn exact_top_multiplicity_matches_dense() {
    let _guard = PathGuard::force(true);
    // λ₁ = λ₂ exactly (a clustered top pair over a 0.1·I floor): the
    // top-2 projector is still unique, so whichever route the Sturm
    // check picks must agree with the dense one.
    let nn = 36;
    let n = nn - 2;
    let mut rng = Rng::seed_from_u64(0x5eed_5151);
    let mut u = Mat::zeros(nn, 2);
    for k in 0..2 {
        for i in 0..nn {
            u[(i, k)] = 2.0 * rng.gen_f64() - 1.0;
        }
    }
    // Gram–Schmidt, fixed order.
    let norm0: f64 = (0..nn).map(|i| u[(i, 0)] * u[(i, 0)]).sum::<f64>().sqrt();
    for i in 0..nn {
        u[(i, 0)] /= norm0;
    }
    let dot: f64 = (0..nn).map(|i| u[(i, 0)] * u[(i, 1)]).sum();
    for i in 0..nn {
        let v = u[(i, 1)] - dot * u[(i, 0)];
        u[(i, 1)] = v;
    }
    let norm1: f64 = (0..nn).map(|i| u[(i, 1)] * u[(i, 1)]).sum::<f64>().sqrt();
    for i in 0..nn {
        u[(i, 1)] /= norm1;
    }
    let mut floor = Mat::zeros(nn, nn);
    for i in 0..nn {
        floor[(i, i)] = 0.1;
    }
    let zm = spectral_accumulate(&u, &[10.0, 10.0], 0..2, Some(&floor));
    let (fast, full) = both_paths(&zm, n);
    assert_close(&fast, &full, "exact top multiplicity");
    // Dense reference: 34 smallest eigenvalues of 0.1 each.
    assert!((full.1 - 0.1 * n as f64).abs() < 1e-8, "gap {}", full.1);
}

#[test]
fn below_threshold_sizes_never_take_the_fast_path() {
    let _guard = PathGuard::force(true);
    // nn = 12 < 32: fast-path on and off must be bitwise identical
    // (this is what keeps the n10 golden trace stable).
    let n = 10;
    let lift = Lift::new(n);
    let pos: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, (i % 3) as f64)).collect();
    let z = lift.embed_positions(&pos, 0.5);
    let zm = lift.z_matrix(&z);
    let hits0 = counter("kernel.eigh_partial.hit");
    let fb0 = counter("kernel.eigh_partial.fallback");
    let (fast, full) = both_paths(&zm, n);
    assert_bitwise(&fast, &full, "below threshold");
    assert_eq!(counter("kernel.eigh_partial.hit"), hits0);
    assert_eq!(counter("kernel.eigh_partial.fallback"), fb0);
}

/// Full-driver A/B at n30 (slow tier): the spectral fast path must not
/// move the final layout quality. The paths genuinely diverge in the
/// last bits (the partial vectors are ~1e-11-accurate, not exact), so the
/// comparison is on the reported wirelength, not on bits.
#[test]
#[ignore = "slow tier: two full n30 solves (fast path on and off)"]
fn n30_solve_wirelength_matches_with_fastpath_off() {
    let b = suite::gsrc_n30();
    let p = GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
    let mut s = FloorplannerSettings::fast();
    s.max_iter = 4;
    s.max_alpha_rounds = 3;
    let _guard = PathGuard::force(true);
    let on = SdpFloorplanner::new(s.clone()).solve(&p).expect("fastpath-on solve");
    let prev = fastpath::set_enabled(false);
    let off = SdpFloorplanner::new(s).solve(&p).expect("fastpath-off solve");
    fastpath::set_enabled(prev);
    assert_eq!(on.iterations, off.iterations, "iteration schedules diverged");
    let rel = (on.objective - off.objective).abs() / (1.0 + off.objective.abs());
    assert!(
        rel < 1e-6,
        "wirelength diverged: on {} vs off {} (rel {rel:.3e})",
        on.objective,
        off.objective
    );
}
