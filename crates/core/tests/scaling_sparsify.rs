//! Scaling-pipeline contracts: the spatial-neighbor sparsifier and
//! the hierarchical cluster–solve–refine pipeline.
//!
//! * A sparsify plan at full degree (every neighbor kept) must leave
//!   the solve **bitwise identical** to the dense all-pairs path, at
//!   1, 2 and 8 workers — the sparse assembly is a pure re-indexing.
//!   The fast tier checks n30; the slow tier checks n100, whose
//!   102-dim cone takes the partial-spectrum PSD projection, where the
//!   bisection, reflector and reconstruction kernels dispatch to the
//!   pool.
//! * Slow tier: a sparsified budgeted n200 solve must land within 2%
//!   HPWL of the dense solve under the same budgets.
//! * Slow tier: the hierarchical n50 pipeline refines, pins its HPWL
//!   band, and resumes bitwise from a mid-refine checkpoint.

use gfp_core::hierarchical::{HierarchicalFloorplanner, HierarchicalSettings};
use gfp_core::supervisor::{SolveSupervisor, SupervisorSettings};
use gfp_core::{
    FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SparsifyMode,
};
use gfp_netlist::suite;
use gfp_parallel::{with_pool, ThreadPool};

fn problem_for(name: &str) -> (gfp_netlist::Netlist, GlobalFloorplanProblem) {
    let b = suite::by_name(name);
    let p =
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
    (b.netlist, p)
}

fn budgeted(rounds: usize, iters: usize) -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.max_alpha_rounds = rounds;
    s.max_iter = iters;
    // Trimmed ADMM budget (the bench's e2e profile): these tests
    // compare trajectories under identical budgets, they don't need
    // tight convergence.
    s.backend = gfp_core::iterate::Backend::Admm(gfp_conic::AdmmSettings {
        eps: 1e-4,
        max_iter: 1200,
    });
    s
}

fn bits(positions: &[(f64, f64)]) -> Vec<(u64, u64)> {
    positions.iter().map(|&(x, y)| (x.to_bits(), y.to_bits())).collect()
}

/// Solves suite instance `name` densely on one worker, then with a
/// full-degree sparsify plan at 1, 2 and 8 workers, and asserts every
/// placement is bitwise the dense one.
fn assert_full_degree_sparsify_is_bitwise_dense(name: &str) {
    let (_, problem) = problem_for(name);

    let mut dense_settings = budgeted(2, 2);
    dense_settings.sparsify.mode = SparsifyMode::Off;

    // Full degree: every module keeps all n−1 neighbors, so the plan
    // is exactly the all-pairs set and only the code path differs.
    let mut full_settings = budgeted(2, 2);
    full_settings.sparsify.mode = SparsifyMode::On;
    full_settings.sparsify.target_degree = problem.n;

    let pool1 = ThreadPool::new(1);
    let dense = with_pool(&pool1, || {
        SolveSupervisor::new(dense_settings.clone()).solve(&problem)
    });
    let reference = bits(&dense.floorplan.positions);
    assert!(!reference.is_empty());

    let prev = gfp_parallel::set_host_clamp(false);
    for workers in [1usize, 2, 8] {
        let pool = ThreadPool::new(workers);
        let sparse = with_pool(&pool, || {
            SolveSupervisor::new(full_settings.clone()).solve(&problem)
        });
        assert_eq!(
            bits(&sparse.floorplan.positions),
            reference,
            "{name}: full-degree sparsified solve diverged from dense at {workers} workers"
        );
        // The plan really went through the sparse assembly: every
        // round row records the dense pair count as its plan size.
        let dense_pairs = (problem.n * (problem.n - 1) / 2) as u64;
        for row in &sparse.checkpoint.rounds {
            assert_eq!(row.constraints, dense_pairs, "round {}", row.round);
        }
    }
    gfp_parallel::set_host_clamp(prev);
}

#[test]
fn full_degree_sparsify_is_bitwise_dense_across_workers() {
    assert_full_degree_sparsify_is_bitwise_dense("n30");
}

#[test]
#[ignore = "slow tier: four budgeted n100 solves"]
fn full_degree_sparsify_is_bitwise_dense_across_workers_n100() {
    assert_full_degree_sparsify_is_bitwise_dense("n100");
}

#[test]
fn sparsified_rounds_record_reduced_constraint_counts() {
    let (_, problem) = problem_for("n50");
    let mut settings = budgeted(2, 2);
    settings.sparsify.mode = SparsifyMode::On;
    settings.sparsify.target_degree = 8;
    let result = SolveSupervisor::new(settings).solve(&problem);
    let dense_pairs = (problem.n * (problem.n - 1) / 2) as u64;
    for row in &result.checkpoint.rounds {
        assert!(row.constraints > 0, "round {} has no constraints", row.round);
        assert!(
            row.constraints < dense_pairs,
            "round {} did not prune: {} vs dense {}",
            row.round,
            row.constraints,
            dense_pairs
        );
    }
}

#[test]
#[ignore = "slow tier: dense + sparsified budgeted n200 solves"]
fn sparsified_n200_hpwl_within_two_percent_of_dense() {
    let (netlist, problem) = problem_for("n200");
    // The paper's large-α profile, trimmed: identical budgets on both
    // sides so the only difference is the constraint set.
    let mut base = budgeted(2, 2);
    base.alpha0 = 1024.0;

    let mut dense_settings = base.clone();
    dense_settings.sparsify.mode = SparsifyMode::Off;
    let mut sparse_settings = base;
    sparse_settings.sparsify.mode = SparsifyMode::On;

    let dense = SolveSupervisor::new(dense_settings).solve(&problem);
    let sparse = SolveSupervisor::new(sparse_settings).solve(&problem);

    let hpwl_dense = gfp_netlist::hpwl::hpwl(&netlist, &dense.floorplan.positions);
    let hpwl_sparse = gfp_netlist::hpwl::hpwl(&netlist, &sparse.floorplan.positions);
    assert!(hpwl_dense.is_finite() && hpwl_dense > 0.0);
    let rel = (hpwl_sparse - hpwl_dense).abs() / hpwl_dense;
    assert!(
        rel <= 0.02,
        "sparsified n200 HPWL {hpwl_sparse:.1} vs dense {hpwl_dense:.1}: {:.2}% off",
        100.0 * rel
    );

    // And the sparsifier actually pruned: every round solved well
    // under half the dense pair count.
    let dense_pairs = (problem.n * (problem.n - 1) / 2) as u64;
    for row in &sparse.checkpoint.rounds {
        assert!(row.constraints < dense_pairs / 2, "round {}", row.round);
    }
}

#[test]
#[ignore = "slow tier: full hierarchical n50 pipeline with refine, twice"]
fn hierarchical_n50_golden_and_mid_refine_resume() {
    let (netlist, problem) = problem_for("n50");
    let dir = std::env::temp_dir().join(format!("gfp-hier-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut settings = HierarchicalSettings::default();
    settings.max_clusters = 8;
    settings.top = budgeted(3, 3);
    settings.leaf = budgeted(2, 2);
    let mut refine = budgeted(2, 2);
    refine.eps_rank = 1e-12; // unreachable: both rounds run → two refine snapshots
    settings.refine = Some(refine);
    settings.supervision = SupervisorSettings {
        checkpoint_dir: Some(dir.clone()),
        ..SupervisorSettings::default()
    };

    let fp = HierarchicalFloorplanner::new(settings.clone())
        .solve(&problem)
        .unwrap();
    assert!(fp.refined, "refine stage did not adopt a placement");
    assert!(fp.rounds.iter().any(|r| r.stage == "top"));
    assert!(fp.rounds.iter().any(|r| r.stage == "leaf"));
    assert!(fp.rounds.iter().any(|r| r.stage == "refine"));

    // Golden HPWL band: the pipeline is deterministic, so the value
    // only moves when the algorithm does. Regenerate by running this
    // test and reading the assert message.
    let hpwl = gfp_netlist::hpwl::hpwl(&netlist, &fp.positions);
    assert!(
        (46_000.0..57_000.0).contains(&hpwl),
        "hierarchical n50 HPWL {hpwl:.1} left its golden band"
    );

    // Mid-refine crash: drop the newest refine snapshot so resume has
    // to replay the last α round from the previous one. The resumed
    // trajectory must land bitwise on the same placement.
    let refine_dir = dir.join("refine");
    let mut snaps: Vec<_> = std::fs::read_dir(&refine_dir)
        .expect("refine stage checkpointed")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "gfps"))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "need two refine snapshots, got {snaps:?}");
    std::fs::remove_file(snaps.last().unwrap()).unwrap();

    let mut refine_settings = settings.refine.clone().unwrap();
    refine_settings.stage = "refine";
    let resumed = SolveSupervisor::new(refine_settings)
        .resume_from_dir(&problem, &refine_dir)
        .expect("resume from mid-refine checkpoint");
    assert_eq!(
        bits(&resumed.floorplan.positions),
        bits(&fp.positions),
        "mid-refine resume diverged from the uninterrupted pipeline"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
