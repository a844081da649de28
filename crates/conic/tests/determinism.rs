//! Bitwise-determinism regression tests for the conic layer.
//!
//! PSD-cone projection and the full ADMM solve must produce bitwise
//! identical results at every `gfp-parallel` worker count, and the
//! workspace-reusing ADMM loop must retrace itself exactly when run
//! twice on the same program.

use std::sync::{Mutex, MutexGuard};

use gfp_conic::{AdmmSettings, AdmmSolver, Cone, ConeProgramBuilder, IterationStats, Solution};
use gfp_linalg::svec::{svec, svec_index};
use gfp_linalg::Mat;
use gfp_parallel::{with_pool, ThreadPool};
use gfp_rand::Rng;

fn random_sym(rng: &mut Rng, n: usize) -> Mat {
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = 2.0 * rng.gen_f64() - 1.0;
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at index {k}: {x:?} vs {y:?}"
        );
    }
}

/// Disables the host-CPU clamp for the test's duration so the
/// parallel code paths execute even on single-core CI hosts. The
/// restore-on-drop guard keeps the flag sane across test ordering.
struct UnclampGuard(bool);
impl UnclampGuard {
    fn new() -> Self {
        UnclampGuard(gfp_parallel::set_host_clamp(false))
    }
}
impl Drop for UnclampGuard {
    fn drop(&mut self) {
        gfp_parallel::set_host_clamp(self.0);
    }
}

/// Current value of a telemetry counter. Counters only tick while
/// telemetry is on; no sink is installed, so nothing is written.
fn counter(name: &str) -> u64 {
    gfp_telemetry::set_enabled(true);
    gfp_telemetry::counters_snapshot()
        .into_iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| v)
}

/// Serializes the tests that project cones of 64 or more, so the
/// partial-path hit counter one of them reads is its own.
static LARGE_CONES: Mutex<()> = Mutex::new(());

fn large_cones() -> MutexGuard<'static, ()> {
    LARGE_CONES.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn psd_projection_is_bitwise_deterministic_across_worker_counts() {
    let _large = large_cones();
    let _unclamp = UnclampGuard::new();
    let mut rng = Rng::seed_from_u64(0x5eed_1001);
    // 20 uses the direct small-n path and 60 the dense `eigh` with the
    // banded spectral kernel. 202, the cone of a flat n200 solve, takes
    // the partial-spectrum path (from 64 up), where the bisection
    // batches, the reflector application and `spectral_accumulate` all
    // dispatch to the pool.
    for n in [20, 60, 202] {
        let m = random_sym(&mut rng, n);
        let v0 = svec(&m);
        let cone = Cone::Psd(n);
        let project = || {
            let mut v = v0.clone();
            cone.project(&mut v);
            v
        };
        let hits0 = counter("kernel.eigh_partial.hit");
        let reference = with_pool(&ThreadPool::new(1), project);
        for workers in [2, 8] {
            let got = with_pool(&ThreadPool::new(workers), project);
            assert_bits_eq(
                &reference,
                &got,
                &format!("project_psd n={n} @ {workers} workers"),
            );
        }
        // The only other test here that projects a cone of 64 or more
        // holds the same lock, so the counter moves only here: once
        // per projection above when the partial path ran.
        let hits = counter("kernel.eigh_partial.hit") - hits0;
        let expected = if n >= 64 { 3 } else { 0 };
        assert_eq!(hits, expected, "partial-path projections at n={n}");
    }
}

/// A small SDP (nearest-correlation-matrix flavour) that exercises the
/// PSD projection inside every ADMM iteration.
fn sdp_program() -> ConeProgramBuilder {
    let n = 4; // svec dimension 10
    let mut b = ConeProgramBuilder::new(svec_index(n, n - 1, n - 1) + 1);
    let mut rng = Rng::seed_from_u64(0x5eed_1002);
    for j in 0..n {
        for i in j..n {
            let idx = svec_index(n, i, j);
            if i == j {
                b.add_eq(&[(idx, 1.0)], 1.0);
            } else {
                b.set_objective_coeff(idx, 2.0 * rng.gen_f64() - 1.0);
            }
        }
    }
    b.add_psd_vars(&(0..svec_index(n, n - 1, n - 1) + 1).collect::<Vec<_>>());
    b
}

fn solve_sdp() -> (Solution, Vec<IterationStats>) {
    let p = sdp_program().build().expect("valid program");
    let solver = AdmmSolver::new(AdmmSettings {
        max_iter: 500,
        eps: 1e-9,
    });
    solver.solve_with_trace(&p, None).expect("solve")
}

/// A MaxCut-style SDP on a 64×64 PSD variable: the block size from
/// which the projection takes the partial-spectrum path and ADMM
/// engages Anderson acceleration, so the accelerated loop (history,
/// safeguard, extrapolated projections) is what gets compared.
fn solve_large_sdp() -> (Solution, Vec<IterationStats>) {
    let n = 64;
    let d = svec_index(n, n - 1, n - 1) + 1;
    let mut b = ConeProgramBuilder::new(d);
    let mut rng = Rng::seed_from_u64(0x5eed_1003);
    for j in 0..n {
        for i in j..n {
            let v = 2.0 * rng.gen_f64() - 1.0;
            let idx = svec_index(n, i, j);
            b.set_objective_coeff(
                idx,
                if i == j {
                    v.abs()
                } else {
                    std::f64::consts::SQRT_2 * v
                },
            );
        }
        b.add_eq(&[(svec_index(n, j, j), 1.0)], 1.0);
    }
    b.add_psd_vars(&(0..d).collect::<Vec<_>>());
    let p = b.build().expect("valid program");
    let solver = AdmmSolver::new(AdmmSettings {
        max_iter: 150,
        eps: 1e-9,
    });
    solver.solve_with_trace(&p, None).expect("solve")
}

fn flatten(sol: &Solution, trace: &[IterationStats]) -> Vec<f64> {
    let mut flat = Vec::new();
    flat.extend_from_slice(&sol.x);
    flat.extend_from_slice(&sol.y);
    flat.extend_from_slice(&sol.s);
    flat.push(sol.objective);
    for t in trace {
        flat.push(t.iteration as f64);
        flat.push(t.objective);
        flat.push(t.primal_residual);
        flat.push(t.dual_residual);
    }
    flat
}

#[test]
fn admm_residual_trajectory_is_identical_across_repeat_solves() {
    // The preallocated-workspace loop must not leak state between
    // iterations or solves: two cold solves retrace bit for bit.
    let (s1, t1) = solve_sdp();
    let (s2, t2) = solve_sdp();
    assert_eq!(t1.len(), t2.len(), "trace lengths differ");
    assert_bits_eq(&flatten(&s1, &t1), &flatten(&s2, &t2), "repeat solve");
}

#[test]
fn admm_solve_is_bitwise_deterministic_across_worker_counts() {
    let _large = large_cones();
    let _unclamp = UnclampGuard::new();
    type Solve = fn() -> (Solution, Vec<IterationStats>);
    let programs: [(&str, Solve); 2] = [("n4", solve_sdp), ("n64", solve_large_sdp)];
    for (name, solve) in programs {
        let (ref_sol, ref_trace) = with_pool(&ThreadPool::new(1), solve);
        let reference = flatten(&ref_sol, &ref_trace);
        for workers in [2, 8] {
            let (sol, trace) = with_pool(&ThreadPool::new(workers), solve);
            assert_bits_eq(
                &reference,
                &flatten(&sol, &trace),
                &format!("admm {name} @ {workers} workers"),
            );
        }
    }
}
