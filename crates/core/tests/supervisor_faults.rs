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
use gfp_conic::{AdmmSettings, AdmmSolver, ConeProgram, ConeProgramBuilder, ConicError};
use gfp_core::{
    Backend, FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveQuality,
    SolveSupervisor, SupervisorSettings,
};
use gfp_fault::{FaultKind, FaultPlan, Site};
use gfp_linalg::svec::{svec_index, svec_len, SQRT2};
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

/// A generated 62-module instance: its lifted PSD block has order 64,
/// so sub-problem 1 runs the Anderson-accelerated ADMM loop.
fn n62_problem() -> GlobalFloorplanProblem {
    let b = suite::generate(&suite::SuiteSpec {
        name: "n62",
        modules: 62,
        nets: 560,
        pads: 200,
        area_min: 500.0,
        area_max: 8_000.0,
        seed: 0x6e36_0062,
    });
    GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap()
}

/// A small ADMM budget for the n62 solves (debug builds run them).
fn admm_backend_above_gate() -> Backend {
    Backend::Admm(AdmmSettings {
        eps: 1e-5,
        max_iter: 60,
    })
}

/// A MaxCut-style SDP on a 64×64 PSD variable (`diag Z = 1`), the
/// smallest block ADMM accelerates.
fn maxcut_64() -> ConeProgram {
    let n = 64;
    let mut rng = Rng::seed_from_u64(0x5eed_6464);
    let mut b = ConeProgramBuilder::new(svec_len(n));
    for j in 0..n {
        for i in j..n {
            let v = 2.0 * rng.gen_f64() - 1.0;
            b.set_objective_coeff(
                svec_index(n, i, j),
                if i == j { v.abs() } else { SQRT2 * v },
            );
        }
        b.add_eq(&[(svec_index(n, j, j), 1.0)], 1.0);
    }
    b.add_psd_vars(&(0..svec_len(n)).collect::<Vec<_>>());
    b.build().unwrap()
}

fn admm_backend() -> Backend {
    Backend::Admm(AdmmSettings {
        eps: 1e-5,
        max_iter: 3000,
    })
}

fn ipm_backend() -> Backend {
    Backend::Ipm(BarrierSettings { eps: 1e-6 })
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
    supervisor_with(backend, true)
}

/// `fallback = false` keeps recovery on the primary backend (α
/// backtracking only): a dense barrier step on the n62 SDP's 2,080
/// variables would cost minutes.
fn supervisor_with(backend: Backend, fallback: bool) -> SolveSupervisor {
    SolveSupervisor::with_supervision(
        settings(backend),
        SupervisorSettings {
            max_recoveries: 2,
            backend_fallback: fallback,
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
    solve_with_fault_on(problem, supervisor(backend), plan)
}

fn solve_with_fault_on(
    problem: &GlobalFloorplanProblem,
    sup: SolveSupervisor,
    plan: FaultPlan,
) -> (gfp_core::DegradedResult, u64) {
    gfp_fault::arm(plan);
    let result = sup.solve(problem);
    let fired = gfp_fault::injected_total();
    gfp_fault::disarm();
    (result, fired)
}

fn assert_placed(result: &gfp_core::DegradedResult, label: &str) {
    assert_placed_n(result, 10, label);
}

fn assert_placed_n(result: &gfp_core::DegradedResult, n: usize, label: &str) {
    assert_eq!(result.floorplan.positions.len(), n, "{label}: wrong arity");
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
/// the supervised solve must absorb or recover from all of them. The
/// n62 case crosses the acceleration gate; its faults fire at the
/// eleventh ADMM iteration, once the history extrapolates.
#[test]
fn fault_matrix_never_panics_and_always_places() {
    let _g = lock();
    let (n10, n62) = (n10_problem(), n62_problem());
    let cases = [
        (&n10, Site::AdmmIter, admm_backend(), true, "admm", 1),
        (&n10, Site::IpmNewton, ipm_backend(), true, "ipm", 1),
        (
            &n62,
            Site::AdmmIter,
            admm_backend_above_gate(),
            false,
            "admm-n62",
            10,
        ),
    ];
    for (problem, site, backend, fallback, bname, after) in cases {
        for kind in FaultKind::ALL {
            let label = format!("{}+{}@{bname}", site.name(), kind.name());
            let (result, fired) = solve_with_fault_on(
                problem,
                supervisor_with(backend.clone(), fallback),
                FaultPlan::single(site, kind, after),
            );
            assert!(fired > 0, "{label}: fault never fired");
            assert_placed_n(&result, problem.n, &label);
            // Corrupting faults must be *visible* to the supervisor
            // (recovery) or *harmless* (absorbed by the solver's own
            // guards); either way the quality verdict is coherent.
            match kind {
                FaultKind::Nan | FaultKind::Inf => {
                    assert!(
                        result.recoveries > 0 || result.quality != SolveQuality::Certified,
                        "{label}: corrupted solve reported certified with no recovery"
                    );
                    // Above the gate the corrupted ADMM solve must fail
                    // (diverge) and be recovered, never pass as a result.
                    assert!(
                        problem.n < 62 || result.recoveries > 0,
                        "{label}: a corrupted accelerated solve needed no recovery"
                    );
                }
                _ => {}
            }
        }
    }
}

/// Above the gate a corrupted ADMM iterate still ends in
/// `ConicError::Diverged`: the safeguard never reverts to a clean point
/// past a `NaN`/`Inf`, so the divergence guard sees it at the next
/// check instead of a `NaN` "optimal" solution.
#[test]
fn corrupted_iterate_above_the_gate_diverges() {
    let _g = lock();
    let p = maxcut_64();
    let solver = AdmmSolver::new(AdmmSettings {
        eps: 1e-5,
        ..AdmmSettings::default()
    });
    gfp_fault::disarm();
    let clean = solver.solve(&p).unwrap();
    assert!(
        clean.info.iterations > 25,
        "the fault must fire before convergence"
    );
    for kind in [FaultKind::Nan, FaultKind::Inf] {
        gfp_fault::arm(FaultPlan::single(Site::AdmmIter, kind, 10));
        let out = solver.solve(&p);
        let fired = gfp_fault::injected_total();
        gfp_fault::disarm();
        assert_eq!(fired, 1, "{}: fault never fired", kind.name());
        match out {
            Err(ConicError::Diverged { iterations, .. }) => assert!(iterations <= 25),
            Err(e) => panic!("{}: unexpected error {e}", kind.name()),
            Ok(sol) => panic!(
                "{}: returned {:?} from a corrupted iterate",
                kind.name(),
                sol.status
            ),
        }
    }
}

/// A budget cut at an extrapolated iterate returns the plain iterate:
/// the solve stopped by `BudgetExhaust` after ten iterations returns
/// bitwise what a ten-iteration budget returns, where the tenth step
/// is a check and never extrapolates.
#[test]
fn budget_cut_above_the_gate_returns_the_plain_iterate() {
    let _g = lock();
    let p = maxcut_64();
    gfp_fault::disarm();
    let capped = AdmmSolver::new(AdmmSettings {
        eps: 1e-5,
        max_iter: 10,
    })
    .solve(&p)
    .unwrap();
    gfp_fault::arm(FaultPlan::single(
        Site::AdmmIter,
        FaultKind::BudgetExhaust,
        10,
    ));
    let cut = AdmmSolver::new(AdmmSettings {
        eps: 1e-5,
        ..AdmmSettings::default()
    })
    .solve(&p);
    gfp_fault::disarm();
    let cut = cut.unwrap();
    assert_eq!(cut.info.iterations, 10);
    for (what, a, b) in [
        ("x", &capped.x, &cut.x),
        ("s", &capped.s, &cut.s),
        ("y", &capped.y, &cut.y),
    ] {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(a),
            bits(b),
            "{what} differs from the plain ten-iteration iterate"
        );
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
/// and every armed seeded plan upholds the no-panic/always-place
/// contract. A plan at a site the in-process solve polls (the ADMM
/// loop, the eigensolvers, the CSR product) must also fire, so the
/// sweep checks injected faults and not only clean solves; the others
/// (checkpoint writes, the service, the barrier fallback) never poll
/// here.
#[test]
fn seeded_plan_is_deterministic_and_safe() {
    let _g = lock();
    let problem = n10_problem();
    let polled = [Site::AdmmIter, Site::Eigh, Site::CsrMatvec];
    let mut fired_sites = Vec::new();
    for seed in 0..16u64 {
        let plan = FaultPlan::from_seed(seed);
        assert_eq!(
            plan,
            FaultPlan::from_seed(seed),
            "seed {seed}: plan not reproducible"
        );
        let site = plan.specs[0].site;
        let label = format!("seed {seed} ({site}+{})", plan.specs[0].kind);
        gfp_fault::arm(plan);
        let result = supervisor(admm_backend()).solve(&problem);
        let fired = gfp_fault::injected_total();
        gfp_fault::disarm();
        assert_placed(&result, &label);
        if polled.contains(&site) {
            assert!(fired > 0, "{label}: fault never fired");
            fired_sites.push(site);
        }
    }
    for site in polled {
        assert!(fired_sites.contains(&site), "no seed drew {site}");
    }
}
