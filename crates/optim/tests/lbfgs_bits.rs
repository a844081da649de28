//! Bit pin of L-BFGS runs.
//!
//! Every point the optimizer evaluates, and each run's result
//! (iterate, value, gradient norm, iteration and evaluation counts,
//! stop reason), is hashed with FNV-1a over `to_bits` into one digest.
//! The runs, all with the default settings:
//!
//! * Rosenbrock's function from the classic start `[-1.2, 1.0]`: 34
//!   iterations whose curvature pairs fill and cycle the history;
//! * `e^{-kx}` from 0 for `k = 80` and `k = 120`: the unit first step
//!   decreases `f` by `k⁻²` of the decrease the slope predicts,
//!   `1.56·10⁻⁴` and `0.69·10⁻⁴`, so the Armijo test accepts the one
//!   step and rejects the other, and moving `c₁` out of that interval
//!   changes a trial point;
//! * `ax²/2` from 1 for `a = 0.09` and `a = 0.11`: the unit first step
//!   leaves `|f′|` at 0.91 and 0.89 of its start, on either side of
//!   `c₂ = 0.9`;
//! * `sx²/2` from 1, infinite outside `|x| ≤ 1`, for `s = 2⁴⁰` and
//!   `s = 2⁴¹`: the bracketing phase halves the step from 1 until it
//!   lands inside, at its 40th and 41st evaluation, so one run finds
//!   the minimum and the other runs out of line-search evaluations.
//!
//! The objectives use only `+`, `−`, `×` and `exp`, at points where
//! `exp` underflows to zero or is exact, so the digest should be the
//! same on every IEEE host. If it differs on yours, first check out a
//! commit whose optimizer is trusted and run
//!
//! ```text
//! cargo test -p gfp-optim --test lbfgs_bits
//! ```
//!
//! then copy the digest the failure prints into `EXPECTED` there.

use std::cell::RefCell;

use gfp_optim::{Lbfgs, LbfgsSettings, Objective};

const EXPECTED: u64 = 0xa990_6801_257a_f23c;

/// FNV-1a, 64-bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// An objective that hashes every point it is evaluated at.
struct Traced<'h, F> {
    dim: usize,
    f: F,
    hash: &'h RefCell<Fnv>,
}

impl<F: Fn(&[f64], &mut [f64]) -> f64> Objective for Traced<'_, F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let mut h = self.hash.borrow_mut();
        for v in x {
            h.word(v.to_bits());
        }
        (self.f)(x, grad)
    }
}

/// Minimizes `f` from `x0` and hashes the result; returns
/// `(iterations, evaluations)` for the failure message.
fn run(hash: &RefCell<Fnv>, x0: &[f64], f: impl Fn(&[f64], &mut [f64]) -> f64) -> (usize, usize) {
    let traced = Traced {
        dim: x0.len(),
        f,
        hash,
    };
    let r = Lbfgs::new(LbfgsSettings::default()).minimize(&traced, x0);
    let mut h = hash.borrow_mut();
    for v in r.x.iter().chain([r.value, r.grad_norm].iter()) {
        h.word(v.to_bits());
    }
    h.word(r.iterations as u64);
    h.word(r.evaluations as u64);
    h.word(r.reason as u64);
    (r.iterations, r.evaluations)
}

#[test]
fn lbfgs_runs_match_pinned_bits() {
    let hash = RefCell::new(Fnv(0xcbf2_9ce4_8422_2325));
    let mut runs = Vec::new();
    runs.push(run(&hash, &[-1.2, 1.0], |x, g| {
        let r = x[1] - x[0] * x[0];
        g[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * r;
        g[1] = 200.0 * r;
        (1.0 - x[0]) * (1.0 - x[0]) + 100.0 * r * r
    }));
    for k in [80.0, 120.0] {
        runs.push(run(&hash, &[0.0], move |x, g| {
            let e = (-k * x[0]).exp();
            g[0] = -k * e;
            e
        }));
    }
    for a in [0.09, 0.11] {
        runs.push(run(&hash, &[1.0], move |x, g| {
            g[0] = a * x[0];
            0.5 * a * x[0] * x[0]
        }));
    }
    for s in [2f64.powi(40), 2f64.powi(41)] {
        runs.push(run(&hash, &[1.0], move |x, g| {
            g[0] = s * x[0];
            if x[0].abs() <= 1.0 {
                0.5 * s * x[0] * x[0]
            } else {
                f64::INFINITY
            }
        }));
    }
    let digest = hash.into_inner().0;
    assert!(
        digest == EXPECTED,
        "the L-BFGS runs changed ((iterations, evaluations) per run: {runs:?}); \
         their digest on this host is 0x{digest:016x}"
    );
}
