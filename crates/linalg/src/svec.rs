//! Scaled symmetric vectorization.
//!
//! A symmetric `N x N` matrix is stored as a vector of length
//! `N (N + 1) / 2` holding the lower triangle in column-major order,
//! with off-diagonal entries scaled by `√2`. With this scaling the
//! Frobenius inner product of two symmetric matrices equals the dot
//! product of their vectorizations, which is what the conic solver
//! relies on to treat the PSD cone as a plain vector cone.

use crate::Mat;

/// `√2`, the off-diagonal scaling constant.
pub const SQRT2: f64 = std::f64::consts::SQRT_2;

/// Length of the vectorization of an `n x n` symmetric matrix.
#[inline]
pub fn svec_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Recovers the matrix dimension from a vectorization length.
///
/// Returns `None` if `len` is not a triangular number.
pub fn svec_dim(len: usize) -> Option<usize> {
    // n^2 + n - 2 len = 0  =>  n = (-1 + sqrt(1 + 8 len)) / 2
    let n = ((-1.0 + ((1 + 8 * len) as f64).sqrt()) / 2.0).round() as usize;
    if svec_len(n) == len {
        Some(n)
    } else {
        None
    }
}

/// Index of entry `(i, j)` (with `i >= j`) in the vectorization.
///
/// Lower triangle, column-major: column `j` contributes `n - j`
/// entries starting at offset `j*n - j(j-1)/2`.
#[inline]
pub fn svec_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i >= j && i < n);
    j * n - j * (j + 1) / 2 + i
}

/// Vectorizes a symmetric matrix (lower triangle is read).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn svec(a: &Mat) -> Vec<f64> {
    assert!(a.is_square(), "svec requires a square matrix");
    let n = a.nrows();
    let mut v = Vec::with_capacity(svec_len(n));
    for j in 0..n {
        for i in j..n {
            v.push(if i == j {
                a[(i, j)]
            } else {
                SQRT2 * a[(i, j)]
            });
        }
    }
    v
}

/// Reconstructs the symmetric matrix from its vectorization.
///
/// # Panics
///
/// Panics if `v.len()` is not a triangular number.
pub fn smat(v: &[f64]) -> Mat {
    let n = svec_dim(v.len()).expect("svec length must be triangular");
    let mut a = Mat::zeros(n, n);
    let mut k = 0;
    for j in 0..n {
        for i in j..n {
            if i == j {
                a[(i, j)] = v[k];
            } else {
                let val = v[k] / SQRT2;
                a[(i, j)] = val;
                a[(j, i)] = val;
            }
            k += 1;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 5.0], &[3.0, 5.0, 6.0]]);
        let v = svec(&a);
        assert_eq!(v.len(), 6);
        let b = smat(&v);
        assert!((&a - &b).norm_max() < 1e-15);
    }

    #[test]
    fn inner_product_preserved() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[-2.0, 3.0]]);
        let b = Mat::from_rows(&[&[0.5, 1.0], &[1.0, -1.0]]);
        let va = svec(&a);
        let vb = svec(&b);
        let dot: f64 = va.iter().zip(vb.iter()).map(|(x, y)| x * y).sum();
        assert!((dot - a.dot(&b)).abs() < 1e-14);
    }

    #[test]
    fn indexing_is_consistent() {
        let n = 5;
        let mut a = Mat::zeros(n, n);
        let mut counter = 1.0;
        for j in 0..n {
            for i in j..n {
                a[(i, j)] = counter;
                a[(j, i)] = counter;
                counter += 1.0;
            }
        }
        let v = svec(&a);
        for j in 0..n {
            for i in j..n {
                let idx = svec_index(n, i, j);
                let expected = if i == j { a[(i, j)] } else { SQRT2 * a[(i, j)] };
                assert!((v[idx] - expected).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn dim_helpers() {
        assert_eq!(svec_len(4), 10);
        assert_eq!(svec_dim(10), Some(4));
        assert_eq!(svec_dim(11), None);
        assert_eq!(svec_dim(0), Some(0));
    }
}
