//! Deterministic fault-matrix tests for the supervised solver.
//!
//! Gated behind `required-features = ["fault-inject"]` (see
//! `Cargo.toml`): run with
//! `cargo test -p gfp-core --features fault-inject`.
//!
//! Each case arms a seed-free, call-count-triggered fault at one
//! injection site, runs a supervised solve and asserts the contract
//! from the robustness layer: **no panics**, **always a finite
//! placement**, and — because faults fire on deterministic call counts
//! and all kernels are bitwise deterministic — **identical results at
//! every worker count**.
//!
//! The fault machinery is process-global, so every test serializes on
//! [`LOCK`].

use std::sync::Mutex;

use gfp_conic::ipm::BarrierSettings;
use gfp_conic::AdmmSettings;
use gfp_core::lifted::Lift;
use gfp_core::subproblems::solve_subproblem2;
use gfp_core::{
    Backend, FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveQuality,
    SolveSupervisor, SupervisorSettings,
};
use gfp_fault::{FaultKind, FaultPlan, Site};
use gfp_linalg::{fastpath, Mat};
use gfp_netlist::suite;
use gfp_parallel::{with_pool, ThreadPool};
use gfp_rand::Rng;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn n10_problem() -> GlobalFloorplanProblem {
    let b = suite::gsrc_n10();
    GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap()
}

fn admm_backend() -> Backend {
    Backend::Admm(AdmmSettings {
        eps: 1e-5,
        max_iter: 3000,
        ..AdmmSettings::default()
    })
}

fn ipm_backend() -> Backend {
    Backend::Ipm(BarrierSettings {
        eps: 1e-6,
        ..BarrierSettings::default()
    })
}

/// Minimal budgets: the matrix cares about control flow, not layout
/// quality.
fn settings(backend: Backend) -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.max_iter = 2;
    s.max_alpha_rounds = 2;
    s.backend = backend;
    s
}

fn supervisor(backend: Backend) -> SolveSupervisor {
    SolveSupervisor::with_supervision(
        settings(backend),
        SupervisorSettings {
            max_recoveries: 2,
            ..SupervisorSettings::default()
        },
    )
}

/// Runs one supervised solve with `plan` armed, disarming afterwards.
fn solve_with_fault(
    problem: &GlobalFloorplanProblem,
    backend: Backend,
    plan: FaultPlan,
) -> (gfp_core::DegradedResult, u64) {
    gfp_fault::arm(plan);
    let result = supervisor(backend).solve(problem);
    let fired = gfp_fault::injected_total();
    gfp_fault::disarm();
    (result, fired)
}

fn assert_placed(result: &gfp_core::DegradedResult, label: &str) {
    assert_eq!(result.floorplan.positions.len(), 10, "{label}: wrong arity");
    assert!(
        result
            .floorplan
            .positions
            .iter()
            .all(|p| p.0.is_finite() && p.1.is_finite()),
        "{label}: non-finite placement leaked through the supervisor"
    );
    assert!(
        result.floorplan.objective.is_finite(),
        "{label}: non-finite objective"
    );
}

/// Every injection kind at each backend's iteration-boundary site:
/// the supervised solve must absorb or recover from all of them.
#[test]
fn fault_matrix_never_panics_and_always_places() {
    let _g = lock();
    let problem = n10_problem();
    let cases = [
        (Site::AdmmIter, admm_backend(), "admm"),
        (Site::IpmNewton, ipm_backend(), "ipm"),
    ];
    for (site, backend, bname) in cases {
        for kind in FaultKind::ALL {
            let label = format!("{}+{}@{bname}", site.name(), kind.name());
            let (result, fired) =
                solve_with_fault(&problem, backend.clone(), FaultPlan::single(site, kind, 1));
            assert!(fired > 0, "{label}: fault never fired");
            assert_placed(&result, &label);
            // Corrupting faults must be *visible* to the supervisor
            // (recovery) or *harmless* (absorbed by the solver's own
            // guards); either way the quality verdict is coherent.
            match kind {
                FaultKind::Nan | FaultKind::Inf => {
                    assert!(
                        result.recoveries > 0 || result.quality != SolveQuality::Certified,
                        "{label}: corrupted solve reported certified with no recovery"
                    );
                }
                _ => {}
            }
        }
    }
}

/// Faults at the shared linear-algebra sites route through recoverable
/// error paths for both backends (no `expect`/panic anywhere between
/// the injection point and the supervisor).
#[test]
fn linalg_site_faults_are_recoverable() {
    let _g = lock();
    let problem = n10_problem();
    let cases = [
        (Site::Eigh, FaultKind::Nan, admm_backend(), "eigh-nan@admm"),
        (Site::Eigh, FaultKind::Nan, ipm_backend(), "eigh-nan@ipm"),
        (Site::Eigh, FaultKind::Stall, ipm_backend(), "eigh-stall@ipm"),
        (
            Site::CsrMatvec,
            FaultKind::Nan,
            admm_backend(),
            "csr-nan@admm",
        ),
        (
            Site::CsrMatvec,
            FaultKind::PerturbResidual,
            admm_backend(),
            "csr-perturb@admm",
        ),
    ];
    for (site, kind, backend, label) in cases {
        let (result, fired) =
            solve_with_fault(&problem, backend, FaultPlan::single(site, kind, 1));
        assert!(fired > 0, "{label}: fault never fired");
        assert_placed(&result, label);
    }
}

/// The whole point of counting hits at serial execution boundaries:
/// the same fault plan produces bit-identical supervised results at
/// 1, 2 and 8 workers — including when the fault forces a backend
/// fallback mid-run.
#[test]
fn injected_faults_bitwise_identical_across_thread_counts() {
    let _g = lock();
    let problem = n10_problem();
    let scenarios = [
        (Site::AdmmIter, FaultKind::Nan, "admm-nan"),
        (Site::CsrMatvec, FaultKind::PerturbResidual, "csr-perturb"),
    ];
    for (site, kind, label) in scenarios {
        let mut runs = Vec::new();
        for nthreads in [1usize, 2, 8] {
            let pool = ThreadPool::new(nthreads);
            gfp_fault::arm(FaultPlan::single(site, kind, 1));
            let result = with_pool(&pool, || supervisor(admm_backend()).solve(&problem));
            gfp_fault::disarm();
            runs.push((nthreads, result));
        }
        let (_, reference) = &runs[0];
        for (nthreads, result) in &runs[1..] {
            assert_eq!(
                result.quality, reference.quality,
                "{label}: quality diverged at {nthreads} threads"
            );
            assert_eq!(
                result.recoveries, reference.recoveries,
                "{label}: recovery count diverged at {nthreads} threads"
            );
            assert_eq!(
                result.floorplan.iterations, reference.floorplan.iterations,
                "{label}: iteration count diverged at {nthreads} threads"
            );
            for (i, (a, b)) in result
                .floorplan
                .positions
                .iter()
                .zip(reference.floorplan.positions.iter())
                .enumerate()
            {
                assert_eq!(
                    (a.0.to_bits(), a.1.to_bits()),
                    (b.0.to_bits(), b.1.to_bits()),
                    "{label}: module {i} position not bit-identical at {nthreads} threads"
                );
            }
        }
    }
}

/// An injected breakdown of the top-pairs eigensolver must be
/// *invisible* to the supervisor: sub-problem 2's spectral fast path
/// falls back to the dense `eigh` route internally, so the run needs no
/// recovery and ends with the same quality verdict as a clean one. Uses
/// n30 — the smallest suite instance whose lifted dimension (32)
/// reaches the fast path at all.
#[test]
fn top_pairs_breakdown_falls_back_to_dense_eigh_without_recovery() {
    let _g = lock();
    let b = suite::gsrc_n30();
    let problem =
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
    let mut s = settings(Backend::Admm(AdmmSettings {
        eps: 1e-4,
        max_iter: 1500,
        ..AdmmSettings::default()
    }));
    s.max_iter = 2;
    s.max_alpha_rounds = 1;
    let sup = SolveSupervisor::new(s);

    gfp_fault::disarm();
    let clean = sup.solve(&problem);

    let hits_before = gfp_fault::site_hits(Site::TopPairs);
    gfp_fault::arm(FaultPlan::single(Site::TopPairs, FaultKind::Stall, 1));
    let faulted = sup.solve(&problem);
    let fired = gfp_fault::injected_total();
    gfp_fault::disarm();

    assert!(fired > 0, "top_pairs fault never fired");
    assert!(
        gfp_fault::site_hits(Site::TopPairs) > hits_before,
        "top_pairs site never polled — fast path not reached at n30"
    );
    assert_eq!(faulted.floorplan.positions.len(), 30);
    assert!(
        faulted
            .floorplan
            .positions
            .iter()
            .all(|p| p.0.is_finite() && p.1.is_finite()),
        "top_pairs fallback leaked a non-finite placement"
    );
    assert_eq!(
        faulted.recoveries, 0,
        "top_pairs breakdown must be absorbed inside sub-problem 2, not recovered"
    );
    assert_eq!(
        faulted.quality, clean.quality,
        "quality verdict changed under an absorbed top_pairs fault"
    );
}

/// An injected `PerturbResidual` at `Site::TopPairs` fails the
/// certificate, so sub-problem 2 returns the dense route's bits on a
/// lifted Z (nn = 32) whose clean call takes the fast path.
#[test]
fn top_pairs_perturbed_residual_takes_the_dense_route() {
    let _g = lock();
    let n = 30;
    let lift = Lift::new(n);
    let mut rng = Rng::seed_from_u64(0x5eed_5050);
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (20.0 * rng.gen_f64(), 20.0 * rng.gen_f64()))
        .collect();
    let zm = lift.z_matrix(&lift.embed_positions(&pos, 0.8));
    let bits = |(w, gap): (Mat, f64)| -> Vec<u64> {
        let mut out: Vec<u64> = w.as_slice().iter().map(|v| v.to_bits()).collect();
        out.push(gap.to_bits());
        out
    };

    gfp_fault::disarm();
    let prev = fastpath::set_enabled(false);
    let dense = bits(solve_subproblem2(&zm, n).unwrap());
    fastpath::set_enabled(true);
    let fast = bits(solve_subproblem2(&zm, n).unwrap());
    gfp_fault::arm(FaultPlan::single(
        Site::TopPairs,
        FaultKind::PerturbResidual,
        0,
    ));
    let perturbed = bits(solve_subproblem2(&zm, n).unwrap());
    let fired = gfp_fault::injected_total();
    gfp_fault::disarm();
    fastpath::set_enabled(prev);

    assert_eq!(fired, 1, "the perturbation must fire on the one call");
    assert_ne!(fast, dense, "the clean call must take the fast path");
    assert_eq!(
        perturbed, dense,
        "a perturbed residual must send sub-problem 2 down the dense route"
    );
}

/// Builds a supervisor that checkpoints into `dir` and cannot converge
/// early (`eps_rank` unreachable), so the snapshot-write schedule is
/// deterministic: one write per completed round plus the final one.
fn checkpointing_supervisor(rounds: usize, dir: Option<std::path::PathBuf>) -> SolveSupervisor {
    let mut s = settings(admm_backend());
    s.max_alpha_rounds = rounds;
    s.eps_rank = 1e-12;
    SolveSupervisor::with_supervision(
        s,
        SupervisorSettings {
            checkpoint_dir: dir,
            ..SupervisorSettings::default()
        },
    )
}

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gfp-fault-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn position_bits(r: &gfp_core::DegradedResult) -> Vec<(u64, u64)> {
    r.floorplan
        .positions
        .iter()
        .map(|&(x, y)| (x.to_bits(), y.to_bits()))
        .collect()
}

/// Checkpoint-write failures of every kind are *invisible* to the
/// numeric trajectory: persistence is best-effort, so a failing (or
/// corrupting) snapshot write must cost no recoveries and leave the
/// placement bit-identical to a run without checkpoints at all.
#[test]
fn checkpoint_write_faults_never_perturb_the_solve() {
    let _g = lock();
    let problem = n10_problem();
    gfp_fault::disarm();
    let reference = checkpointing_supervisor(2, None).solve(&problem);
    for kind in FaultKind::ALL {
        let label = format!("checkpoint.write+{}", kind.name());
        let dir = ckpt_dir(kind.name());
        gfp_fault::arm(FaultPlan::single(Site::CheckpointWrite, kind, 0));
        let result = checkpointing_supervisor(2, Some(dir.clone())).solve(&problem);
        let fired = gfp_fault::injected_total();
        gfp_fault::disarm();
        assert!(fired > 0, "{label}: fault never fired");
        assert_placed(&result, &label);
        assert_eq!(result.recoveries, 0, "{label}: storage fault triggered a numeric recovery");
        assert_eq!(
            position_bits(&reference),
            position_bits(&result),
            "{label}: checkpoint fault perturbed the placement"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Torn writes and silent payload corruption injected at the *newest*
/// snapshot must be caught on resume (length/CRC checks) with fallback
/// to the previous good generation — and deterministic round replay
/// still lands the resumed solve bit-for-bit on the uninterrupted one.
#[test]
fn torn_and_silently_corrupt_snapshots_are_caught_on_resume() {
    let _g = lock();
    let problem = n10_problem();
    gfp_fault::disarm();
    let reference = checkpointing_supervisor(3, None).solve(&problem);
    for (kind, label) in [
        (FaultKind::BudgetExhaust, "torn-write"),
        (FaultKind::PerturbResidual, "silent-corruption"),
    ] {
        let dir = ckpt_dir(label);
        // A 2-round run writes three snapshots (round 1, round 2,
        // final); corrupt the last so resume must fall back.
        gfp_fault::arm(FaultPlan::single(Site::CheckpointWrite, kind, 2));
        let _ = checkpointing_supervisor(2, Some(dir.clone())).solve(&problem);
        let fired = gfp_fault::injected_total();
        gfp_fault::disarm();
        assert!(fired > 0, "{label}: fault never fired");

        let resumed = checkpointing_supervisor(3, None)
            .resume_from_dir(&problem, &dir)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_placed(&resumed, label);
        assert_eq!(resumed.checkpoint.round, 3, "{label}: resume did not finish all rounds");
        assert_eq!(
            position_bits(&reference),
            position_bits(&resumed),
            "{label}: resumed placement diverged from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Seeded plans are reproducible: the same seed yields the same plan,
/// and an armed seeded plan upholds the no-panic/always-place contract.
#[test]
fn seeded_plan_is_deterministic_and_safe() {
    let _g = lock();
    let a = FaultPlan::from_seed(0xF00D);
    let b = FaultPlan::from_seed(0xF00D);
    assert_eq!(a.specs.len(), b.specs.len());
    for (x, y) in a.specs.iter().zip(b.specs.iter()) {
        assert_eq!(x.site, y.site);
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.after, y.after);
    }
    let problem = n10_problem();
    gfp_fault::arm(FaultPlan::from_seed(0xF00D));
    let result = supervisor(admm_backend()).solve(&problem);
    gfp_fault::disarm();
    assert_placed(&result, "seeded-plan");
}

/// Disarmed means inert: with no plan armed, a supervised solve is
/// bitwise the bare solver result (the hooks are pure pass-through).
#[test]
fn disarmed_hooks_do_not_perturb_the_solve() {
    let _g = lock();
    gfp_fault::disarm();
    let problem = n10_problem();
    let s = settings(admm_backend());
    let bare = gfp_core::SdpFloorplanner::new(s.clone())
        .solve(&problem)
        .unwrap();
    let supervised = SolveSupervisor::new(s).solve(&problem);
    assert_eq!(supervised.recoveries, 0);
    for (a, b) in bare
        .positions
        .iter()
        .zip(supervised.floorplan.positions.iter())
    {
        assert_eq!(
            (a.0.to_bits(), a.1.to_bits()),
            (b.0.to_bits(), b.1.to_bits())
        );
    }
}
