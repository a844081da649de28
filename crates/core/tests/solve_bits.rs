//! Bit pins of clean supervised solves.
//!
//! Each case runs [`SolveSupervisor::solve`] on GSRC n10, asserts that
//! no recovery was needed, and hashes the result with FNV-1a over
//! `to_bits`: each position's x and y, then the objective, rank gap,
//! final α, iteration count and convergence flag, then each trace
//! row's α, iteration, wirelength and rank gap. The cases start from
//! `FloorplannerSettings::fast()` and set max_iter × max_alpha_rounds:
//!
//! * `fast_4x4`: 4×4;
//! * `admm_2x2`: 2×2 with ADMM at eps 1e-5 and 3000 iterations;
//! * `pool2_3x3`: 3×3 inside a 2-worker pool;
//! * `quick_table2`: 6×7 with pads on a 1:1 outline and aspect limit 3,
//!   the Quick-budget Table II solve of `gfp-bench`;
//! * `ipm_3x4`: 3×4 with the barrier IPM at eps 1e-6.
//!
//! A clean supervised run is Algorithm 1's iterate sequence and
//! nothing else: any change to the arithmetic of the convex iteration,
//! its sub-problems or its α schedule fails the pin. The fault hooks of
//! `--features fault-inject` are disarmed here, so the digests are the
//! same with and without that feature.
//!
//! The constants depend on the host, like the golden trace fixture
//! (the suite generator draws module areas through `powf`). On a host
//! where they differ, first check out a commit whose solver is
//! trusted and run
//!
//! ```text
//! cargo test -p gfp-core --test solve_bits
//! ```
//!
//! The failure message lists the digest of every case on this host;
//! copy those into `EXPECTED` there, then carry the table forward.

use gfp_conic::ipm::BarrierSettings;
use gfp_conic::AdmmSettings;
use gfp_core::{
    Backend, FloorplannerSettings, GlobalFloorplan, GlobalFloorplanProblem, ProblemOptions,
    SolveSupervisor,
};
use gfp_netlist::suite;
use gfp_parallel::{with_pool, ThreadPool};

#[rustfmt::skip]
const EXPECTED: &[(&str, u64)] = &[
    ("fast_4x4", 0x569b479b8dff5439),
    ("admm_2x2", 0x19ff62e4def59364),
    ("pool2_3x3", 0xacf75f9ea0002415),
    ("quick_table2", 0xe8d977c878ec6c97),
    ("ipm_3x4", 0xbf73ba42dff43f12),
];

/// FNV-1a, 64-bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(fp: &GlobalFloorplan) -> u64 {
    let mut h = Fnv::new();
    for &(x, y) in &fp.positions {
        h.word(x.to_bits());
        h.word(y.to_bits());
    }
    h.word(fp.objective.to_bits());
    h.word(fp.rank_gap.to_bits());
    h.word(fp.alpha.to_bits());
    h.word(fp.iterations as u64);
    h.word(u64::from(fp.converged));
    for t in &fp.trace {
        h.word(t.alpha.to_bits());
        h.word(t.iteration as u64);
        h.word(t.wirelength.to_bits());
        h.word(t.rank_gap.to_bits());
    }
    h.0
}

fn settings(max_iter: usize, rounds: usize) -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.max_iter = max_iter;
    s.max_alpha_rounds = rounds;
    s
}

/// Solves under the default supervision and hashes the result. A
/// recovery means a sub-problem failed, which a clean pin must not hide.
fn solved(problem: &GlobalFloorplanProblem, settings: FloorplannerSettings) -> u64 {
    let result = SolveSupervisor::new(settings).solve(problem);
    assert_eq!(result.recoveries, 0, "causes: {:?}", result.causes);
    digest(&result.floorplan)
}

#[test]
fn clean_supervised_solves_match_pinned_bits() {
    let bench = suite::gsrc_n10();
    let n10 =
        GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default()).unwrap();
    let (netlist, outline) = bench.with_pads_on_outline(1.0);
    let quick = GlobalFloorplanProblem::from_netlist(
        &netlist,
        &ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    )
    .unwrap();

    let mut admm = settings(2, 2);
    admm.backend = Backend::Admm(AdmmSettings {
        eps: 1e-5,
        max_iter: 3000,
    });
    let mut ipm = settings(3, 4);
    ipm.backend = Backend::Ipm(BarrierSettings { eps: 1e-6 });
    let pool = ThreadPool::new(2);

    let actual: Vec<(&str, u64)> = vec![
        ("fast_4x4", solved(&n10, settings(4, 4))),
        ("admm_2x2", solved(&n10, admm)),
        (
            "pool2_3x3",
            with_pool(&pool, || solved(&n10, settings(3, 3))),
        ),
        ("quick_table2", solved(&quick, settings(6, 7))),
        ("ipm_3x4", solved(&n10, ipm)),
    ];

    let table: String = actual
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == EXPECTED,
        "supervised solves changed; the digests on this host are:\n{table}"
    );
}
