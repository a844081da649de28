//! Bitwise-determinism regression tests for the parallel kernels.
//!
//! The `gfp-parallel` contract is that every kernel produces bitwise
//! identical output at every worker count. These tests run matmul,
//! eigh and the spectral accumulation on seeded random
//! inputs under pools of 1, 2 and 8 workers (via the thread-local
//! `with_pool` override) and compare results with exact `f64` bit
//! equality.

use gfp_linalg::{eigh, spectral_accumulate, Mat};
use gfp_parallel::{with_pool, ThreadPool};
use gfp_rand::Rng;

fn random_mat(rng: &mut Rng, rows: usize, cols: usize) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = 2.0 * rng.gen_f64() - 1.0;
        }
    }
    m
}

fn random_sym(rng: &mut Rng, n: usize) -> Mat {
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = 2.0 * rng.gen_f64() - 1.0;
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at index {k}: {x:?} vs {y:?}"
        );
    }
}

/// Runs `f` under 1-, 2- and 8-worker pools and asserts all three
/// produce bitwise identical flattened output. Disables the host-CPU
/// clamp for the duration so the parallel code paths actually execute
/// even on single-core CI hosts.
fn check_across_pools(what: &str, f: impl Fn() -> Vec<f64>) {
    let prev = gfp_parallel::set_host_clamp(false);
    let reference = with_pool(&ThreadPool::new(1), &f);
    for workers in [2, 8] {
        let got = with_pool(&ThreadPool::new(workers), &f);
        assert_bits_eq(&reference, &got, &format!("{what} @ {workers} workers"));
    }
    gfp_parallel::set_host_clamp(prev);
}

#[test]
fn matmul_is_bitwise_deterministic_across_worker_counts() {
    let mut rng = Rng::seed_from_u64(0x5eed_0001);
    // `matmul` runs serially at every size; 96 and 130 span more than
    // one 64-column cache block. The pool width must leave its bits
    // alone.
    for n in [8, 64, 96, 130] {
        let a = random_mat(&mut rng, n, n);
        let b = random_mat(&mut rng, n, n);
        check_across_pools(&format!("matmul n={n}"), || {
            a.matmul(&b).as_slice().to_vec()
        });
    }
}

#[test]
fn eigh_is_bitwise_deterministic_across_worker_counts() {
    let mut rng = Rng::seed_from_u64(0x5eed_0003);
    // `eigh` runs serially at every size; the pool width must still
    // leave its bits alone.
    for n in [60, 150] {
        let m = random_sym(&mut rng, n);
        check_across_pools(&format!("eigh n={n}"), || {
            let e = eigh(&m).expect("eigh");
            let mut flat = e.values.clone();
            flat.extend_from_slice(e.vectors.as_slice());
            flat
        });
    }
}

#[test]
fn spectral_accumulate_is_bitwise_deterministic() {
    let mut rng = Rng::seed_from_u64(0x5eed_0004);
    let n = 80;
    let m = random_sym(&mut rng, n);
    let e = eigh(&m).expect("eigh");
    let weights: Vec<f64> = e.values.iter().map(|l| l.abs()).collect();
    check_across_pools("spectral_accumulate", || {
        spectral_accumulate(&e.vectors, &weights, 0..n / 2, Some(&m))
            .as_slice()
            .to_vec()
    });
}
