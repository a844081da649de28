//! Property-based tests for the linear-algebra substrate, driven by
//! deterministic seeded loops over the workspace PRNG (the offline
//! build has no `proptest`).

use gfp_linalg::svec::{smat, svec};
use gfp_linalg::sparse::CsrMat;
use gfp_linalg::{eigh, Cholesky, Lu, Mat, SparseCholesky};
use gfp_rand::Rng;

const CASES: u64 = 64;

/// A random square matrix with entries in [-5, 5].
fn square_mat(rng: &mut Rng, n: usize) -> Mat {
    let data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-5.0..5.0)).collect();
    Mat::from_vec(n, n, data)
}

/// A random symmetric matrix.
fn sym_mat(rng: &mut Rng, n: usize) -> Mat {
    let mut m = square_mat(rng, n);
    m.symmetrize_mut();
    m
}

/// A random SPD matrix built as `M Mᵀ + n·I`.
fn spd_mat(rng: &mut Rng, n: usize) -> Mat {
    let m = square_mat(rng, n);
    let mut a = m.matmul(&m.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn rand_vec(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn eigh_reconstructs() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let a = sym_mat(&mut rng, 6);
        let e = eigh(&a).unwrap();
        let rec = e.reconstruct();
        assert!((&rec - &a).norm_max() < 1e-8, "seed {seed}");
    }
}

#[test]
fn eigh_vectors_orthonormal() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(100 + seed);
        let a = sym_mat(&mut rng, 5);
        let e = eigh(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!((&vtv - &Mat::identity(5)).norm_max() < 1e-9, "seed {seed}");
    }
}

#[test]
fn eigh_trace_equals_eigenvalue_sum() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(200 + seed);
        let a = sym_mat(&mut rng, 7);
        let e = eigh(&a).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-8, "seed {seed}");
    }
}

#[test]
fn cholesky_solve_matches_lu() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(300 + seed);
        let a = spd_mat(&mut rng, 5);
        let xt = rand_vec(&mut rng, 5, -3.0, 3.0);
        let b = a.matvec(&xt);
        let x1 = Cholesky::new(&a).unwrap().solve(&b);
        let x2 = Lu::new(&a).unwrap().solve(&b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - v).abs() < 1e-7, "seed {seed}");
        }
    }
}

#[test]
fn lu_solve_recovers_solution() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(400 + seed);
        let a = spd_mat(&mut rng, 6);
        let xt = rand_vec(&mut rng, 6, -3.0, 3.0);
        let b = a.matvec(&xt);
        let x = Lu::new(&a).unwrap().solve(&b).unwrap();
        for (u, v) in x.iter().zip(xt.iter()) {
            assert!((u - v).abs() < 1e-6, "seed {seed}");
        }
    }
}

#[test]
fn sparse_cholesky_matches_direct_solver() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(500 + seed);
        let a = spd_mat(&mut rng, 6);
        let xt = rand_vec(&mut rng, 6, -3.0, 3.0);
        let mut x = a.matvec(&xt);
        let trips: Vec<_> = (0..6).flat_map(|i| (0..6).map(move |j| (i, j))).map(|(i, j)| (i, j, a[(i, j)])).collect();
        SparseCholesky::new(&CsrMat::from_triplets(6, 6, &trips)).unwrap().solve_in_place(&mut x);
        for (u, v) in x.iter().zip(xt.iter()) {
            assert!((u - v).abs() < 1e-6, "seed {seed}: sparse cholesky {u} vs {v}");
        }
    }
}

#[test]
fn svec_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(600 + seed);
        let a = sym_mat(&mut rng, 6);
        let b = smat(&svec(&a));
        assert!((&a - &b).norm_max() < 1e-12, "seed {seed}");
    }
}

#[test]
fn svec_preserves_inner_product() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(700 + seed);
        let a = sym_mat(&mut rng, 5);
        let b = sym_mat(&mut rng, 5);
        let va = svec(&a);
        let vb = svec(&b);
        let d: f64 = va.iter().zip(vb.iter()).map(|(x, y)| x * y).sum();
        assert!((d - a.dot(&b)).abs() < 1e-8, "seed {seed}");
    }
}

#[test]
fn matmul_associative() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(800 + seed);
        let a = square_mat(&mut rng, 4);
        let b = square_mat(&mut rng, 4);
        let c = square_mat(&mut rng, 4);
        let l = a.matmul(&b).matmul(&c);
        let r = a.matmul(&b.matmul(&c));
        assert!((&l - &r).norm_max() < 1e-9, "seed {seed}");
    }
}

#[test]
fn transpose_product_rule() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(900 + seed);
        let a = square_mat(&mut rng, 4);
        let b = square_mat(&mut rng, 4);
        let l = a.matmul(&b).transpose();
        let r = b.transpose().matmul(&a.transpose());
        assert!((&l - &r).norm_max() < 1e-10, "seed {seed}");
    }
}

#[test]
fn psd_projection_via_eigh_is_idempotent() {
    // Projecting twice onto the PSD cone equals projecting once.
    let project = |m: &Mat| -> Mat {
        let e = eigh(m).unwrap();
        let n = m.nrows();
        let mut out = Mat::zeros(n, n);
        for k in 0..n {
            let lam = e.values[k].max(0.0);
            if lam == 0.0 {
                continue;
            }
            for i in 0..n {
                for j in 0..n {
                    out[(i, j)] += lam * e.vectors[(i, k)] * e.vectors[(j, k)];
                }
            }
        }
        out
    };
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(1000 + seed);
        let a = sym_mat(&mut rng, 5);
        let p1 = project(&a);
        let p2 = project(&p1);
        assert!((&p1 - &p2).norm_max() < 1e-8, "seed {seed}");
        // Projection is PSD.
        let evals = gfp_linalg::eigvalsh(&p1).unwrap();
        assert!(evals[0] > -1e-9, "seed {seed}");
    }
}
