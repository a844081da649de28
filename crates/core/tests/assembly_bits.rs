//! Bit pins of the assembled sub-problem-1 programs.
//!
//! Each case hashes, with FNV-1a over `to_bits` of every number and
//! every index, the ADMM cone program (`c`, `b`, the CSR parts of `a`
//! and the cone list) and the barrier-IPM `SdpProblem` (`c`, `eq`,
//! `ineq`) that the assemblers produce for a normalized instance, an
//! objective `objective_matrix(p, &p.a, Some((&I, 2.0)))`, and a pair
//! plan. Five instances are covered — n10 with default options; n10
//! with the paper options and pads on a 1:1 outline; the same plus a
//! `min_distance` override and a `max_distance` cap; the same with a
//! pre-placed module (ADMM only: the IPM rejects pre-placed modules);
//! and n30 at aspect 3 — each at the all-pairs plan and at a fixed
//! sparse plan (the pairs with `(i + 2j) % 3 != 0`).
//!
//! The constants were computed from the dense all-pairs assembly that
//! predates the mandatory pair plan, so they pin that every
//! refactoring of the assemblers keeps the programs bitwise.
//!
//! The constants depend on the host, like the golden trace fixture:
//! the suite generator draws module areas through `powf`, whose last
//! bit is up to the platform's libm. On a host where they differ, first
//! check out a commit whose assembly is trusted and run
//!
//! ```text
//! cargo test -p gfp-core --test assembly_bits
//! ```
//!
//! The failure message lists the digest of every case on this host;
//! copy those into `EXPECTED` there, then carry the table forward.

use gfp_conic::ipm::SdpProblem;
use gfp_conic::{Cone, ConeProgram};
use gfp_core::lifted::{
    build_admm_program, build_ipm_problem, objective_matrix, AssemblyWorkspace,
};
use gfp_core::neighbors::all_pairs;
use gfp_core::{GlobalFloorplanProblem, ProblemOptions};
use gfp_linalg::Mat;
use gfp_netlist::suite;

/// `(case, ADMM digest, IPM digest)`; `None` where the IPM rejects the
/// instance.
#[rustfmt::skip]
const EXPECTED: &[(&str, u64, Option<u64>)] = &[
    ("n10_default/all", 0x49d974f74bb080e9, Some(0x4a7dd2f9a8406087)),
    ("n10_default/sparse", 0xe5a7914aa5358459, Some(0x374e3a33bb356e43)),
    ("n10_paper_outline/all", 0xdadf140f0bba73d7, Some(0xce06fd510f6908ae)),
    ("n10_paper_outline/sparse", 0xc08922896cc2d14f, Some(0x6700762ad3e3a5e9)),
    ("n10_distance_control/all", 0x81f8634d3ea73d5e, Some(0xef58cd4f2b12266b)),
    ("n10_distance_control/sparse", 0xb3b328481a5fcd19, Some(0x4bf430e82bf6f4b8)),
    ("n10_preplaced/all", 0x645b8bb872f18ec4, None),
    ("n10_preplaced/sparse", 0xa627f5fcc40d57fc, None),
    ("n30_aspect3/all", 0x42a235ba6e4f30ba, Some(0xb170df66004bedd1)),
    ("n30_aspect3/sparse", 0x73ff39aaf866f6f2, Some(0x8282ede1f66c80fc)),
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

    fn index(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn values(&mut self, v: &[f64]) {
        self.index(v.len());
        for x in v {
            self.word(x.to_bits());
        }
    }

    fn rows(&mut self, rows: &[(Vec<(usize, f64)>, f64)]) {
        self.index(rows.len());
        for (coeffs, rhs) in rows {
            self.index(coeffs.len());
            for &(var, c) in coeffs {
                self.index(var);
                self.word(c.to_bits());
            }
            self.word(rhs.to_bits());
        }
    }
}

fn admm_digest(prog: &ConeProgram) -> u64 {
    let mut h = Fnv::new();
    h.values(&prog.c);
    h.values(&prog.b);
    let (indptr, indices, values) = prog.a.csr_parts();
    h.index(prog.a.nrows());
    h.index(prog.a.ncols());
    h.index(indptr.len());
    for &p in indptr {
        h.index(p);
    }
    h.index(indices.len());
    for &j in indices {
        h.index(j);
    }
    h.values(values);
    h.index(prog.cones.len());
    for cone in &prog.cones {
        let (tag, dim) = match *cone {
            Cone::Zero(d) => (0, d),
            Cone::NonNeg(d) => (1, d),
            Cone::Soc(d) => (2, d),
            Cone::Psd(d) => (3, d),
        };
        h.word(tag);
        h.index(dim);
    }
    h.0
}

fn ipm_digest(sdp: &SdpProblem) -> u64 {
    let mut h = Fnv::new();
    h.index(sdp.n);
    h.values(&sdp.c);
    h.rows(&sdp.eq);
    h.rows(&sdp.ineq);
    h.0
}

/// The five normalized instances, by case name.
fn instances() -> Vec<(&'static str, GlobalFloorplanProblem)> {
    let n10 = suite::gsrc_n10();
    let (padded, outline) = n10.with_pads_on_outline(1.0);
    let paper = ProblemOptions::paper(outline);
    let capture = |nl: &gfp_netlist::Netlist, opts: &ProblemOptions| {
        GlobalFloorplanProblem::from_netlist(nl, opts).unwrap()
    };

    let default = capture(&n10.netlist, &ProblemOptions::default());
    let outlined = capture(&padded, &paper);
    let r = &outlined.radii;
    let (keep_out, cap) = (4.0 * (r[1] + r[2]).powi(2), 2.25 * (r[0] + r[7]).powi(2));
    let mut controlled = outlined.clone();
    controlled.add_min_distance(1, 2, keep_out);
    controlled.add_max_distance(0, 7, cap);
    let (cx, cy) = outline.center();
    let mut preplaced = capture(&padded.with_fixed_module(3, cx, cy), &paper);
    preplaced.min_distance = controlled.min_distance.clone();
    preplaced.max_distance = controlled.max_distance.clone();
    let n30 = capture(
        &suite::gsrc_n30().netlist,
        &ProblemOptions {
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        },
    );

    vec![
        ("n10_default", default.normalized()),
        ("n10_paper_outline", outlined.normalized()),
        ("n10_distance_control", controlled.normalized()),
        ("n10_preplaced", preplaced.normalized()),
        ("n30_aspect3", n30.normalized()),
    ]
}

fn sparse_plan(n: usize) -> Vec<(usize, usize)> {
    all_pairs(n)
        .into_iter()
        .filter(|&(i, j)| (i + 2 * j) % 3 != 0)
        .collect()
}

#[test]
fn assembled_programs_match_pinned_bits() {
    // One workspace across every case: the ADMM programs assembled
    // through it, warm from earlier and differently sized cases, must
    // match those from a fresh workspace.
    let mut warm = AssemblyWorkspace::new();
    let mut actual: Vec<(String, u64, Option<u64>)> = Vec::new();
    for (name, p) in instances() {
        let w = Mat::identity(p.n + 2);
        let obj = objective_matrix(&p, &p.a, Some((&w, 2.0)));
        for (plan_name, plan) in [("all", all_pairs(p.n)), ("sparse", sparse_plan(p.n))] {
            let case = format!("{name}/{plan_name}");
            let fresh = build_admm_program(&p, &p.a, &obj, &plan, &mut AssemblyWorkspace::new());
            let admm = admm_digest(&fresh.unwrap());
            let reused = build_admm_program(&p, &p.a, &obj, &plan, &mut warm).unwrap();
            assert_eq!(admm_digest(&reused), admm, "{case}: warm workspace");
            let ipm = if p.has_fixed_modules() {
                None
            } else {
                let sdp = build_ipm_problem(&p, &p.a, &obj, &plan).unwrap();
                Some(ipm_digest(&sdp))
            };
            actual.push((case, admm, ipm));
        }
    }

    let table: String = actual
        .iter()
        .map(|(case, admm, ipm)| {
            let ipm = ipm.map_or("None".to_string(), |d| format!("Some(0x{d:016x})"));
            format!("    (\"{case}\", 0x{admm:016x}, {ipm}),\n")
        })
        .collect();
    let expected: Vec<(String, u64, Option<u64>)> = EXPECTED
        .iter()
        .map(|&(case, admm, ipm)| (case.to_string(), admm, ipm))
        .collect();
    assert!(
        actual == expected,
        "assembled programs changed; the digests on this host are:\n{table}"
    );
}
