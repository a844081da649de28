//! Bit pins of the partial symmetric eigensolver behind the PSD
//! projection.
//!
//! Each case hashes, with FNV-1a over `to_bits`, everything
//! `spectral_side(a, 1e-9, 0.75)` returns — the side, its eigenvalues,
//! its eigenvector block, the Gershgorin scale and the other side's
//! count — for a seeded symmetric matrix at n = 64, 102 and 202 (the
//! last two are the cone sizes the hierarchical n500 and flat n200
//! workloads project). Each matrix is taken as drawn and shifted by
//! `±0.6` of its semicircle radius, so both the negative and the
//! positive side are resolved.
//!
//! The constants were computed before `spectral_side` was split into a
//! shared prelude and a range core, so they pin that every refactoring
//! of the solver keeps the projection's eigenpairs bitwise. Inputs are
//! drawn from `gfp-rand` and the solver uses only IEEE arithmetic and
//! `sqrt`, so the digests do not depend on the platform's libm. A
//! failure lists the digest of every case on this host.

use gfp_linalg::{spectral_side, Mat, SideKind};
use gfp_rand::Rng;

/// `(case, digest)`.
#[rustfmt::skip]
const EXPECTED: &[(&str, u64)] = &[
    ("n64/raw", 0xd9ee793f26806e23),
    ("n64/pos", 0xe8f4de632fa406e6),
    ("n64/neg", 0x89d2781affc4cfb6),
    ("n102/raw", 0x4de9cb05fd3bba33),
    ("n102/pos", 0xe315a7655e792770),
    ("n102/neg", 0x789991d916e96bdb),
    ("n202/raw", 0x3ac76959582489e4),
    ("n202/pos", 0x44b35068d0db44a5),
    ("n202/neg", 0xf9247a66314d7805),
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

    fn values(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }
}

fn random_sym(seed: u64, n: usize, shift: f64) -> Mat {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = 2.0 * rng.gen_f64() - 1.0;
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
        m[(i, i)] += shift;
    }
    m
}

/// The case's digest and the side it resolved (`None`: dense route).
fn digest(a: &Mat) -> (u64, Option<SideKind>) {
    let mut h = Fnv::new();
    let side = spectral_side(a, 1e-9, 0.75).expect("finite square input");
    match &side {
        None => h.word(u64::MAX),
        Some(side) => {
            h.word(match side.kind {
                SideKind::Negative => 0,
                SideKind::Positive => 1,
            });
            h.values(&side.values);
            h.word(side.vectors.nrows() as u64);
            h.values(side.vectors.as_slice());
            h.word(side.scale.to_bits());
            h.word(side.other_count as u64);
        }
    }
    (h.0, side.map(|s| s.kind))
}

fn cases() -> Vec<(String, (u64, Option<SideKind>))> {
    let mut out = Vec::new();
    for n in [64usize, 102, 202] {
        // Entries uniform on [−1, 1] (variance 1/3): semicircle radius
        // 2·√(n/3).
        let radius = 2.0 * (n as f64 / 3.0).sqrt();
        for (label, shift) in [("raw", 0.0), ("pos", 0.6 * radius), ("neg", -0.6 * radius)] {
            let a = random_sym(0x5eed_0000 + n as u64, n, shift);
            out.push((format!("n{n}/{label}"), digest(&a)));
        }
    }
    out
}

#[test]
fn spectral_side_bits_are_pinned() {
    let got = cases();
    let table: String = got
        .iter()
        .map(|(case, (d, _))| format!("    (\"{case}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), EXPECTED.len(), "case list changed; this host:\n{table}");
    // Every case must take the partial route, and the shifts must leave
    // the small side on the intended end, or the pins would not cover
    // both sides.
    for (case, (_, kind)) in &got {
        let kind = kind.unwrap_or_else(|| panic!("{case}: took the dense route"));
        if case.ends_with("/pos") {
            assert_eq!(kind, SideKind::Negative, "{case}: resolved the wrong side");
        }
        if case.ends_with("/neg") {
            assert_eq!(kind, SideKind::Positive, "{case}: resolved the wrong side");
        }
    }
    for ((case, (d, _)), &(want_case, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(case, want_case, "case order changed; this host:\n{table}");
        assert_eq!(*d, want, "{case}: spectral_side bits moved; this host:\n{table}");
    }
}
