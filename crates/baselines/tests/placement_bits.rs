//! Bit pins of the baselines' placements.
//!
//! Each case hashes, with FNV-1a over `to_bits`, the module centers a
//! baseline returns and its final objective (the annealer's cost) on
//! GSRC n10 with pads on a 1:1 outline, captured with
//! `ProblemOptions::paper`. The cases are quadratic placement, AR, PP
//! (default, one restart and eight), the analytical method and the
//! annealer (default, and the Quick budget's 80 moves × 40 temperature
//! steps). On this instance PP's deterministic first start beats its
//! first three random restarts, so the default and one-restart runs
//! agree; the eight-restart run is won by a random start and so pins
//! the restart seed as well.
//! Every tuning constant of these methods feeds its output, so a
//! change to any of them, or to the order of the arithmetic, fails
//! the pin.
//!
//! The constants depend on the host, like the golden trace fixture:
//! the suite generator draws module areas through `powf`, and the
//! analytical method's smoothing calls `exp` and `ln`, whose last bit
//! is up to the platform's libm. On a host where they differ, first
//! check out a commit whose baselines are trusted and run
//!
//! ```text
//! cargo test -p gfp-baselines --test placement_bits
//! ```
//!
//! The failure message lists the digest of every case on this host;
//! copy those into `EXPECTED` there, then carry the table forward.

use gfp_baselines::analytical::AnalyticalFloorplanner;
use gfp_baselines::annealing::{AnnealSettings, Annealer};
use gfp_baselines::ar::ArFloorplanner;
use gfp_baselines::pp::{PpFloorplanner, PpSettings};
use gfp_baselines::qp::QuadraticPlacer;
use gfp_baselines::Placement;
use gfp_core::{GlobalFloorplanProblem, ProblemOptions};
use gfp_netlist::suite;

#[rustfmt::skip]
const EXPECTED: &[(&str, u64)] = &[
    ("qp", 0xa8be81ca69f1c9de),
    ("ar", 0x12cc55765e98ec10),
    ("pp", 0xc15c0f761353b7c4),
    ("pp_restarts1", 0xc15c0f761353b7c4),
    ("pp_restarts8", 0x043dedfd72a69717),
    ("analytical", 0xe2e35df996c23757),
    ("anneal", 0x5ddc64f027f198b4),
    ("anneal_quick", 0x476b0a22cb9ae8a5),
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

fn digest(positions: &[(f64, f64)], objective: f64) -> u64 {
    let mut h = Fnv::new();
    h.word(positions.len() as u64);
    for &(x, y) in positions {
        h.word(x.to_bits());
        h.word(y.to_bits());
    }
    h.word(objective.to_bits());
    h.0
}

fn placed(p: Placement) -> u64 {
    digest(&p.positions, p.objective)
}

#[test]
fn baseline_placements_match_pinned_bits() {
    let (netlist, outline) = suite::gsrc_n10().with_pads_on_outline(1.0);
    let problem =
        GlobalFloorplanProblem::from_netlist(&netlist, &ProblemOptions::paper(outline)).unwrap();
    let anneal = |settings: AnnealSettings| {
        let fp = Annealer::new(settings)
            .place(&netlist, &problem, &outline)
            .unwrap();
        digest(&fp.positions, fp.cost)
    };

    let actual: Vec<(&str, u64)> = vec![
        (
            "qp",
            placed(QuadraticPlacer::default().place(&problem).unwrap()),
        ),
        (
            "ar",
            placed(ArFloorplanner::default().place(&problem).unwrap()),
        ),
        (
            "pp",
            placed(PpFloorplanner::default().place(&problem).unwrap()),
        ),
        (
            "pp_restarts1",
            placed(
                PpFloorplanner::new(PpSettings { restarts: 1 })
                    .place(&problem)
                    .unwrap(),
            ),
        ),
        (
            "pp_restarts8",
            placed(
                PpFloorplanner::new(PpSettings { restarts: 8 })
                    .place(&problem)
                    .unwrap(),
            ),
        ),
        (
            "analytical",
            placed(
                AnalyticalFloorplanner::default()
                    .place(&netlist, &problem, &outline)
                    .unwrap(),
            ),
        ),
        ("anneal", anneal(AnnealSettings::default())),
        (
            "anneal_quick",
            anneal(AnnealSettings {
                moves_per_temp: 80,
                temp_steps: 40,
            }),
        ),
    ];

    let table: String = actual
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == EXPECTED,
        "baseline placements changed; the digests on this host are:\n{table}"
    );
}
