use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::LinalgError;

/// A dense, row-major `f64` matrix.
///
/// `Mat` is the workhorse dense type of the workspace. Products run
/// through a serial cache-blocked kernel (see [`Mat::matmul_into`]).
///
/// # Example
///
/// ```
/// use gfp_linalg::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Mat { rows: r, cols: c, data }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Mat { rows, cols, data }
    }

    /// Creates an `n x n` diagonal matrix with the given diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Dense matrix product `self * rhs`: a serial, cache-blocked i-k-j
    /// kernel that accumulates each output entry in ascending-`k` order
    /// (see [`Mat::matmul_into`]).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions do not agree.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Dense matrix product written into a pre-allocated `out`
    /// (overwritten), avoiding the allocation of [`Mat::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions do not agree or `out` has the wrong
    /// shape.
    pub fn matmul_into(&self, rhs: &Mat, out: &mut Mat) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: inner dimensions must agree ({}x{} * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "matmul: output shape mismatch"
        );
        let timer = crate::kernel_timer();
        out.data.fill(0.0);
        matmul_blocked(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        crate::kernel_record("matmul", timer);
    }

    /// Matrix-vector product writing into a pre-allocated buffer.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.rows, "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self
                .row(i)
                .iter()
                .zip(x.iter())
                .map(|(a, b)| a * b)
                .sum();
        }
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Transposed matrix-vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.nrows()`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transpose: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i).iter()) {
                *o += a * xi;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius inner product `<self, rhs> = Σ_ij self_ij rhs_ij`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, rhs: &Mat) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "dot: dimension mismatch"
        );
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Scales every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `self * s`.
    pub fn scaled(&self, s: f64) -> Mat {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Adds `s * rhs` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn axpy_mut(&mut self, s: f64, rhs: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "axpy: dimension mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += s * b;
        }
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix bounds.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Mat {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let mut out = Mat::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0)
                .copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Writes `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Mat) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for i in 0..block.rows {
            self.row_mut(r0 + i)[c0..c0 + block.cols].copy_from_slice(block.row(i));
        }
    }

    /// Symmetrizes in place: `self <- (self + selfᵀ)/2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize_mut(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// Returns `true` if `‖self − selfᵀ‖_max ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Checks that `self` and `rhs` have identical dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when they differ.
    pub fn check_same_shape(&self, rhs: &Mat, op: &'static str) -> Result<(), LinalgError> {
        if (self.rows, self.cols) != (rhs.rows, rhs.cols) {
            return Err(LinalgError::DimensionMismatch {
                op,
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        Ok(())
    }
}

/// Columns of the left factor swept per cache block.
const MATMUL_BLOCK_K: usize = 64;

/// Computes the product of the row-major `a` (`rows × inner`) and `b`
/// (`inner × ncols`) into the zeroed `out`.
///
/// The `k` loop is tiled for cache reuse of `b`'s rows, but each
/// output entry still accumulates in ascending-`k` order: tiles are
/// visited in order and `k` ascends inside a tile.
fn matmul_blocked(rows: usize, inner: usize, ncols: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    let mut kk = 0;
    while kk < inner {
        let kend = (kk + MATMUL_BLOCK_K).min(inner);
        for bi in 0..rows {
            let arow = &a[bi * inner..(bi + 1) * inner];
            let orow = &mut out[bi * ncols..(bi + 1) * ncols];
            for (k, &aik) in arow.iter().enumerate().take(kend).skip(kk) {
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[k * ncols..(k + 1) * ncols];
                for (o, &r) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * r;
                }
            }
        }
        kk = kend;
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add<&Mat> for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        let mut out = self.clone();
        out.axpy_mut(1.0, rhs);
        out
    }
}

impl Sub<&Mat> for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        let mut out = self.clone();
        out.axpy_mut(-1.0, rhs);
        out
    }
}

impl AddAssign<&Mat> for Mat {
    fn add_assign(&mut self, rhs: &Mat) {
        self.axpy_mut(1.0, rhs);
    }
}

impl SubAssign<&Mat> for Mat {
    fn sub_assign(&mut self, rhs: &Mat) {
        self.axpy_mut(-1.0, rhs);
    }
}

impl Mul<f64> for &Mat {
    type Output = Mat;
    fn mul(self, s: f64) -> Mat {
        self.scaled(s)
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Mat::identity(3);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_and_transpose_agree_with_matmul() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[0.5, 3.0], &[2.0, 2.0]]);
        let x = vec![2.0, -1.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![4.0, -2.0, 2.0]);
        let z = a.matvec_transpose(&y);
        assert_eq!(z.len(), 2);
        // zᵀ = yᵀA
        assert!((z[0] - (4.0 * 1.0 - 2.0 * 0.5 + 2.0 * 2.0)).abs() < 1e-14);
    }

    #[test]
    fn trace_and_dot() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.trace(), 5.0);
        assert_eq!(a.dot(&a), 1.0 + 4.0 + 9.0 + 16.0);
    }

    #[test]
    fn submatrix_and_set_block_roundtrip() {
        let mut a = Mat::zeros(4, 4);
        let b = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.set_block(1, 2, &b);
        assert_eq!(a.submatrix(1, 3, 2, 4), b);
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a[(1, 2)], 1.0);
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        assert!(!a.is_symmetric(1e-12));
        a.symmetrize_mut();
        assert!(a.is_symmetric(1e-12));
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    fn norms() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-14);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn operators() {
        let a = Mat::identity(2);
        let b = Mat::from_diag(&[2.0, 3.0]);
        let c = &a + &b;
        assert_eq!(c[(0, 0)], 3.0);
        let d = &c - &a;
        assert_eq!(d, b);
        let e = &b * 2.0;
        assert_eq!(e[(1, 1)], 6.0);
        let f = -&a;
        assert_eq!(f[(0, 0)], -1.0);
    }

    #[test]
    fn check_same_shape_errors() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(3, 2);
        assert!(a.check_same_shape(&b, "test").is_err());
        assert!(a.check_same_shape(&a.clone(), "test").is_ok());
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dimension_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
