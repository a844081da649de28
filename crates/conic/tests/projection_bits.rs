//! Bit pins of the PSD-cone projection.
//!
//! Each case hashes, with FNV-1a over `to_bits`, the `svec` block that
//! `Cone::Psd(n).project` writes for a seeded symmetric matrix. At
//! n = 12 and 33 the projection takes the dense route (a full `eigh`,
//! then the reconstruction from one side of its spectrum); at n = 64,
//! 102 and 202 it takes the partial route (`spectral_side`, then the
//! reconstruction from the side it resolved). Each matrix is
//! taken as drawn and shifted by `±0.6` of its semicircle radius, so
//! both the positive-side sum and the `M + Σ (−λ) v vᵀ` sum are
//! reconstructed on each route.
//!
//! The constants were computed before the projection's kernels were
//! rewritten (reflector groups, bisection lanes, the one `svec`
//! writer), so they pin that those rewrites keep every output bit.
//! Inputs are drawn from `gfp-rand` and both routes use only IEEE
//! arithmetic, `sqrt` and `hypot`, so the digests hold on any host
//! whose libm `hypot` is correctly rounded. A failure lists the digest
//! of every case on this host.

use gfp_conic::Cone;
use gfp_linalg::svec::{smat, svec};
use gfp_linalg::{spectral_side, Mat};
use gfp_rand::Rng;

/// `(case, digest)`.
#[rustfmt::skip]
const EXPECTED: &[(&str, u64)] = &[
    ("n12/raw", 0xf39f7939acb65415),
    ("n12/pos", 0xdffe83f23c638269),
    ("n12/neg", 0xe7bf89c3f1f37e10),
    ("n33/raw", 0xc4a0bbc8b307a49b),
    ("n33/pos", 0xc30364a6fd33c87a),
    ("n33/neg", 0x88f140c3e419481b),
    ("n64/raw", 0x0796be270781276b),
    ("n64/pos", 0x5efd3205e850174c),
    ("n64/neg", 0x961c76826641d3ff),
    ("n102/raw", 0xc243810e412669ba),
    ("n102/pos", 0xfef3196835beaf4b),
    ("n102/neg", 0xc8ee056dac92a77e),
    ("n202/raw", 0x568c36f6018119e9),
    ("n202/pos", 0x7e9c54d9320df0a7),
    ("n202/neg", 0xfcbcb9fc876f03a7),
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

fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for n in [12usize, 33, 64, 102, 202] {
        // Entries uniform on [−1, 1] (variance 1/3): semicircle radius
        // 2·√(n/3).
        let radius = 2.0 * (n as f64 / 3.0).sqrt();
        for (label, shift) in [("raw", 0.0), ("pos", 0.6 * radius), ("neg", -0.6 * radius)] {
            let case = format!("n{n}/{label}");
            let mut v = svec(&random_sym(0x9e0_0000 + n as u64, n, shift));
            if n >= 64 {
                // The pin is only worth its name if the partial route
                // resolves the block.
                let side = spectral_side(smat(&v), 1e-9).expect("finite square input");
                assert!(side.is_some(), "{case}: the partial route refused");
            }
            Cone::Psd(n).project(&mut v);
            let mut h = Fnv::new();
            h.word(v.len() as u64);
            for x in &v {
                h.word(x.to_bits());
            }
            out.push((case, h.0));
        }
    }
    out
}

#[test]
fn psd_projection_bits_are_pinned() {
    let got = cases();
    let table: String = got
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        EXPECTED.len(),
        "case list changed; this host:\n{table}"
    );
    for ((case, d), &(want_case, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(case, want_case, "case order changed; this host:\n{table}");
        assert_eq!(
            *d, want,
            "{case}: projection bits moved; this host:\n{table}"
        );
    }
}
