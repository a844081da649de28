//! Small helpers for `&[f64]` vectors.
//!
//! These free functions keep the iterative solvers readable without
//! introducing a heavyweight vector type.
//!
//! The reductions here ([`dot`], [`norm2`]) deliberately stay
//! sequential even though a `gfp-parallel` pool is available: a
//! chunked parallel sum groups additions differently from the plain
//! left-to-right fold, so parallelizing them would change the bits of
//! every ADMM residual relative to the sequential baseline.
//! The workspace-wide determinism contract (see `gfp-parallel`)
//! parallelizes only kernels whose accumulation order can be kept
//! exactly identical to their sequential path; O(n) folds over the
//! solvers' modest vector lengths are not worth breaking it for.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm `‖x‖_∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `y <- a*x + y`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `x <- s*x`.
#[inline]
pub fn scale(s: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= s;
    }
}

/// Euclidean distance `‖x − y‖₂`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2: length mismatch");
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Elementwise subtraction into a new vector, `x − y`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a - b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn axpy_scale_sub() {
        let x = [1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![6.0, 12.0]);
        assert_eq!(sub(&y, &[1.0, 2.0]), vec![5.0, 10.0]);
        assert!((dist2(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }
}
