//! Property-based tests for the optimizers, driven by deterministic
//! seeded loops over the workspace PRNG: L-BFGS must solve random
//! convex quadratics to the analytic optimum, and the gradient checker
//! must agree with hand-differentiated functions.

use gfp_optim::{check_gradient, Lbfgs, LbfgsSettings, Objective};
use gfp_rand::Rng;

const CASES: u64 = 48;

fn rand_vec(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Random strictly convex quadratic ½xᵀQx − bᵀx with Q = MᵀM + I.
struct Quadratic {
    q: Vec<Vec<f64>>,
    b: Vec<f64>,
}

impl Quadratic {
    fn from_entries(entries: Vec<f64>, b: Vec<f64>) -> Self {
        let n = b.len();
        let mut m = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                m[i][j] = entries[i * n + j];
            }
        }
        // Q = MᵀM + I
        let mut q = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for k in 0..n {
                    s += m[k][i] * m[k][j];
                }
                q[i][j] = s;
            }
        }
        Quadratic { q, b }
    }

    /// Solves Qx = b by Gaussian elimination (small n).
    fn analytic_optimum(&self) -> Vec<f64> {
        let n = self.b.len();
        let mut a: Vec<Vec<f64>> = self
            .q
            .iter()
            .zip(self.b.iter())
            .map(|(row, &bi)| {
                let mut r = row.clone();
                r.push(bi);
                r
            })
            .collect();
        for k in 0..n {
            let piv = (k..n)
                .max_by(|&i, &j| a[i][k].abs().partial_cmp(&a[j][k].abs()).unwrap())
                .unwrap();
            a.swap(k, piv);
            let p = a[k][k];
            for i in (k + 1)..n {
                let f = a[i][k] / p;
                for j in k..=n {
                    a[i][j] -= f * a[k][j];
                }
            }
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = a[i][n];
            for j in (i + 1)..n {
                s -= a[i][j] * x[j];
            }
            x[i] = s / a[i][i];
        }
        x
    }
}

impl Objective for Quadratic {
    fn dim(&self) -> usize {
        self.b.len()
    }
    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let n = x.len();
        let mut v = 0.0;
        for i in 0..n {
            let mut qx = 0.0;
            for j in 0..n {
                qx += self.q[i][j] * x[j];
            }
            grad[i] = qx - self.b[i];
            v += 0.5 * x[i] * qx - self.b[i] * x[i];
        }
        v
    }
}

#[test]
fn lbfgs_solves_random_convex_quadratics() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let entries = rand_vec(&mut rng, 16, -1.0, 1.0);
        let b = rand_vec(&mut rng, 4, -2.0, 2.0);
        let f = Quadratic::from_entries(entries, b);
        let xstar = f.analytic_optimum();
        let r = Lbfgs::new(LbfgsSettings::default()).minimize(&f, &[0.0; 4]);
        for (u, v) in r.x.iter().zip(xstar.iter()) {
            assert!((u - v).abs() < 1e-5, "seed {seed}: lbfgs {u} vs analytic {v}");
        }
    }
}

#[test]
fn quadratic_gradients_verify() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(100 + seed);
        let entries = rand_vec(&mut rng, 9, -1.0, 1.0);
        let b = rand_vec(&mut rng, 3, -2.0, 2.0);
        let x = rand_vec(&mut rng, 3, -3.0, 3.0);
        let f = Quadratic::from_entries(entries, b);
        let rep = check_gradient(&f, &x, 1e-5);
        assert!(rep.passes(1e-6), "seed {seed}: err {}", rep.max_rel_error);
    }
}
