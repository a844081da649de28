//! Micro-benchmarks for the paper's core pipeline pieces:
//! sub-problem 1 solve time vs n (the kernel behind Fig. 5(b)),
//! closed-form sub-problem 2, and one full convex iteration.
//! Runs on the std-only harness in `gfp_bench::microbench`.

use gfp_bench::microbench::Group;
use gfp_conic::AdmmSettings;
use gfp_core::lifted::{objective_matrix, AssemblyWorkspace, Lift};
use gfp_core::neighbors::all_pairs;
use gfp_core::subproblems::{solve_subproblem1, solve_subproblem2};
use gfp_core::{
    Backend, FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SdpFloorplanner,
};
use gfp_netlist::suite;

fn problem(name: &str) -> GlobalFloorplanProblem {
    let b = suite::by_name(name);
    GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default())
        .expect("capture")
        .normalized()
}

fn bench_subproblem1() {
    let group = Group::new("subproblem1_admm");
    for name in ["n10", "n30"] {
        let p = problem(name);
        let obj = objective_matrix(&p, &p.a, None);
        let backend = Backend::Admm(AdmmSettings {
            eps: 1e-4,
            max_iter: 4000,
            ..AdmmSettings::default()
        });
        let plan = all_pairs(p.n);
        let mut ws = AssemblyWorkspace::new();
        group.bench(name, 10, || {
            solve_subproblem1(&p, &p.a, &obj, &backend, None, None, &plan, &mut ws).expect("sp1")
        });
    }
}

fn bench_subproblem2() {
    let group = Group::new("subproblem2_closed_form");
    for n in [10usize, 50, 100, 200] {
        let lift = Lift::new(n);
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 14) as f64, (i / 14) as f64))
            .collect();
        let z = lift.z_matrix(&lift.embed_positions(&positions, 0.3));
        group.bench(&n.to_string(), 20, || solve_subproblem2(&z, n).expect("sp2"));
    }
}

fn bench_full_iteration() {
    let p = problem("n10");
    let mut settings = FloorplannerSettings::fast();
    settings.max_alpha_rounds = 1;
    settings.max_iter = 1;
    settings.alpha0 = 1024.0;
    settings.backend = Backend::Admm(AdmmSettings {
        eps: 1e-4,
        max_iter: 2000,
        ..AdmmSettings::default()
    });
    let group = Group::new("convex_iteration");
    let solver = SdpFloorplanner::new(settings);
    group.bench("one_iteration_n10", 10, || solver.solve(&p).expect("solve"));
}

fn main() {
    bench_subproblem1();
    bench_subproblem2();
    bench_full_iteration();
}
