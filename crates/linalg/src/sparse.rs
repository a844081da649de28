//! Compressed sparse row (CSR) matrices.
//!
//! The conic solver stores its constraint matrix `A` in CSR form; the
//! only operations it needs are `A x`, `Aᵀ y` and per-row/column norms
//! for equilibration.

use crate::Mat;

/// A compressed sparse row matrix.
///
/// # Example
///
/// ```
/// use gfp_linalg::sparse::CsrMat;
///
/// // [[2, 0], [1, 3]]
/// let a = CsrMat::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0)]);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![2.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMat {
    rows: usize,
    cols: usize,
    /// Row start offsets, length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Nonzero values aligned with `indices`.
    values: Vec<f64>,
}

impl CsrMat {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate entries are summed. Entries with value `0.0` are kept
    /// out of the structure.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        // Merge consecutive duplicates (same row and column).
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        for &(r, c, v) in &merged {
            if v == 0.0 {
                continue;
            }
            indices.push(c);
            values.push(v);
            indptr[r + 1] += 1;
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        CsrMat {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The raw CSR arrays `(indptr, indices, values)` — the
    /// serialization surface used by the checkpoint codec. Together
    /// with [`nrows`](Self::nrows)/[`ncols`](Self::ncols) this is the
    /// complete structural state of the matrix.
    pub fn csr_parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Rebuilds a matrix from raw CSR arrays as produced by
    /// [`csr_parts`](Self::csr_parts). Returns `None` when the arrays
    /// are not a structurally valid CSR triple (wrong `indptr` length,
    /// non-monotone offsets, misaligned `indices`/`values`, or a
    /// column index out of range) — deserialized bytes are untrusted,
    /// so this never panics.
    pub fn from_csr_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Option<Self> {
        if indptr.len() != rows + 1 || indptr.first() != Some(&0) {
            return None;
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        let nnz = *indptr.last()?;
        if indices.len() != nnz || values.len() != nnz {
            return None;
        }
        if indices.iter().any(|&c| c >= cols) {
            return None;
        }
        Some(CsrMat {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Iterates over the nonzeros of row `i` as `(col, value)` pairs.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix-vector product writing into a pre-allocated buffer.
    ///
    /// Serial: an ADMM iteration makes one `A x`, and fanning its row
    /// blocks out to the pool did not measurably pay on `flat_n200`
    /// (DESIGN.md §9).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.rows, "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in self.indptr[i]..self.indptr[i + 1] {
                s += self.values[k] * x[self.indices[k]];
            }
            *yi = s;
        }
        // Fault-injection hook (no-op unless `fault-inject` is on):
        // corrupts the *output* after the deterministic compute, at a
        // per-call granularity counted on the (serial) calling thread.
        if let Some(fired) = gfp_fault::corrupt_first(gfp_fault::Site::CsrMatvec, y) {
            if fired.kind == gfp_fault::FaultKind::PerturbResidual {
                if let Some(v) = y.first_mut() {
                    *v += fired.magnitude;
                }
            }
        }
    }

    /// Transposed product `Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.nrows()`.
    pub fn matvec_transpose(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.cols];
        self.matvec_transpose_into(y, &mut x);
        x
    }

    /// Transposed product writing into a pre-allocated buffer.
    ///
    /// Deliberately sequential: the CSR scatter writes `x` in
    /// row-major nonzero order, and any parallel partitioning would
    /// either race or change the accumulation order and break the
    /// bitwise determinism contract.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_transpose_into(&self, y: &[f64], x: &mut [f64]) {
        assert_eq!(y.len(), self.rows, "matvec_transpose: y length mismatch");
        assert_eq!(x.len(), self.cols, "matvec_transpose: x length mismatch");
        x.fill(0.0);
        for i in 0..self.rows {
            let yi = y[i];
            if yi == 0.0 {
                continue;
            }
            for k in self.indptr[i]..self.indptr[i + 1] {
                x[self.indices[k]] += self.values[k] * yi;
            }
        }
    }

    /// The symmetric matrix `shift·I + AᵀA`, both triangles stored.
    ///
    /// Entry `(j, k)` is `Σ_r A[r,j]·A[r,k]` summed over the rows `r`
    /// in increasing order (the diagonal starts from `shift`), so the
    /// result is deterministic and bitwise symmetric. Costs
    /// `Σ_r nnz(row r)²` operations.
    pub fn normal_matrix(&self, shift: f64) -> CsrMat {
        // Aᵀ by rows: the nonzero rows of each column, in order.
        let mut col_ptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            col_ptr[c + 1] += 1;
        }
        for j in 0..self.cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut col_rows = vec![0usize; self.nnz()];
        let mut col_vals = vec![0.0; self.nnz()];
        let mut next = col_ptr[..self.cols].to_vec();
        for i in 0..self.rows {
            for (c, v) in self.row_iter(i) {
                col_rows[next[c]] = i;
                col_vals[next[c]] = v;
                next[c] += 1;
            }
        }

        let mut indptr = vec![0usize; self.cols + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut acc = vec![0.0; self.cols];
        let mut mark = vec![usize::MAX; self.cols];
        let mut pattern = Vec::new();
        for j in 0..self.cols {
            pattern.clear();
            pattern.push(j);
            mark[j] = j;
            acc[j] = shift;
            for p in col_ptr[j]..col_ptr[j + 1] {
                let arj = col_vals[p];
                for (k, ark) in self.row_iter(col_rows[p]) {
                    if mark[k] != j {
                        mark[k] = j;
                        acc[k] = 0.0;
                        pattern.push(k);
                    }
                    acc[k] += arj * ark;
                }
            }
            pattern.sort_unstable();
            indices.extend_from_slice(&pattern);
            values.extend(pattern.iter().map(|&k| acc[k]));
            indptr[j + 1] = indices.len();
        }
        CsrMat {
            rows: self.cols,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Infinity norm of each row (for Ruiz equilibration).
    pub fn row_norms_inf(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| {
                self.values[self.indptr[i]..self.indptr[i + 1]]
                    .iter()
                    .fold(0.0_f64, |m, v| m.max(v.abs()))
            })
            .collect()
    }

    /// Infinity norm of each column (for Ruiz equilibration).
    pub fn col_norms_inf(&self) -> Vec<f64> {
        let mut norms = vec![0.0_f64; self.cols];
        for (k, &c) in self.indices.iter().enumerate() {
            norms[c] = norms[c].max(self.values[k].abs());
        }
        norms
    }

    /// Scales rows and columns in place: `A <- diag(dr) A diag(dc)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn scale_rows_cols(&mut self, dr: &[f64], dc: &[f64]) {
        assert_eq!(dr.len(), self.rows);
        assert_eq!(dc.len(), self.cols);
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                self.values[k] *= dr[i] * dc[self.indices[k]];
            }
        }
    }

    /// Converts to a dense matrix (testing / small problems).
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (c, v) in self.row_iter(i) {
                m[(i, c)] += v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sums_duplicates_and_drops_zeros() {
        let a = CsrMat::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0), (1, 0, 5.0)],
        );
        assert_eq!(a.nnz(), 2);
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 3.0);
        assert_eq!(d[(1, 0)], 5.0);
        assert_eq!(d[(1, 1)], 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let trips = [
            (0, 1, 2.0),
            (1, 0, -1.0),
            (1, 2, 4.0),
            (2, 2, 3.0),
            (0, 0, 1.0),
        ];
        let a = CsrMat::from_triplets(3, 3, &trips);
        let d = a.to_dense();
        let x = [1.0, 2.0, -1.0];
        assert_eq!(a.matvec(&x), d.matvec(&x));
        let y = [3.0, -2.0, 0.5];
        let t1 = a.matvec_transpose(&y);
        let t2 = d.matvec_transpose(&y);
        for (u, v) in t1.iter().zip(t2.iter()) {
            assert!((u - v).abs() < 1e-15);
        }
    }

    #[test]
    fn norms_and_scaling() {
        let a = CsrMat::from_triplets(2, 2, &[(0, 0, -4.0), (0, 1, 2.0), (1, 1, 1.0)]);
        assert_eq!(a.row_norms_inf(), vec![4.0, 1.0]);
        assert_eq!(a.col_norms_inf(), vec![4.0, 2.0]);
        let mut b = a.clone();
        b.scale_rows_cols(&[0.5, 2.0], &[1.0, 3.0]);
        let d = b.to_dense();
        assert_eq!(d[(0, 0)], -2.0);
        assert_eq!(d[(0, 1)], 3.0);
        assert_eq!(d[(1, 1)], 6.0);
    }

    #[test]
    fn normal_matrix_matches_dense_product() {
        let a = CsrMat::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (0, 2, -2.0), (1, 1, 3.0), (2, 0, 0.5), (2, 1, 4.0)],
        );
        let n = a.normal_matrix(0.25);
        let d = a.to_dense();
        let mut dense = d.transpose().matmul(&d);
        for j in 0..3 {
            dense[(j, j)] += 0.25;
        }
        assert_eq!(n.to_dense(), dense);
        // A column with no entry keeps only the shift on its diagonal.
        let b = CsrMat::from_triplets(1, 2, &[(0, 1, 2.0)]);
        assert_eq!(b.normal_matrix(1.0).csr_parts(), (&[0, 1, 2][..], &[0, 1][..], &[1.0, 5.0][..]));
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = CsrMat::from_triplets(3, 2, &[(2, 1, 1.0)]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_triplet_panics() {
        let _ = CsrMat::from_triplets(1, 1, &[(1, 0, 1.0)]);
    }
}
