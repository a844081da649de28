//! Sparse Cholesky factorization `P A Pᵀ = L Lᵀ`.
//!
//! Three serial phases, after Davis, *Direct Methods for Sparse Linear
//! Systems* (2006):
//!
//! 1. a minimum-degree ordering `P` on the explicit elimination graph,
//!    ties broken by the lowest index, so the order is a pure function
//!    of the sparsity pattern;
//! 2. the elimination tree of `P A Pᵀ`, whose row subtrees give each
//!    row pattern of `L` (the column counts size `L` exactly);
//! 3. an up-looking numeric factorization, row `k` of `L` by one
//!    sparse triangular solve over the rows its subtree names.
//!
//! `L` keeps the pivot order but stores original indices, so
//! [`SparseCholesky::solve_in_place`] runs both triangular sweeps on
//! the caller's vector with no permutation copy and no allocation.
//! Every phase is serial with a fixed operation order, so equal
//! inputs give bitwise-equal factors and solutions.

use std::collections::BTreeSet;

use crate::sparse::CsrMat;
use crate::LinalgError;

/// Marks "no node" in the elimination tree and the row marker.
const NONE: usize = usize::MAX;

/// Sparse Cholesky factor of a symmetric positive-definite matrix,
/// under a minimum-degree ordering.
///
/// # Example
///
/// ```
/// use gfp_linalg::sparse::CsrMat;
/// use gfp_linalg::SparseCholesky;
///
/// # fn main() -> Result<(), gfp_linalg::LinalgError> {
/// // [[4, 2], [2, 3]]
/// let a = CsrMat::from_triplets(2, 2, &[(0, 0, 4.0), (1, 0, 2.0), (0, 1, 2.0), (1, 1, 3.0)]);
/// let f = SparseCholesky::new(&a)?;
/// let mut x = vec![8.0, 7.0];
/// f.solve_in_place(&mut x);
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    /// `perm[k]` is the original index of the `k`-th pivot.
    perm: Vec<usize>,
    /// Column `k` of `L` is `colptr[k]..colptr[k + 1]`: the diagonal
    /// first, then the entries below it.
    colptr: Vec<usize>,
    /// Original index of each stored entry's row.
    rows: Vec<usize>,
    /// Stored values of `L`.
    values: Vec<f64>,
}

impl SparseCholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::NonFinite`]
    /// for a NaN or infinite entry, or
    /// [`LinalgError::NotPositiveDefinite`] (with the original index of
    /// the failing pivot).
    pub fn new(a: &CsrMat) -> Result<Self, LinalgError> {
        if a.nrows() != a.ncols() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        let mut adj = vec![Vec::new(); n];
        for i in 0..n {
            for (j, v) in a.row_iter(i).filter(|&(j, _)| j <= i) {
                if !v.is_finite() {
                    return Err(LinalgError::NonFinite {
                        what: "sparse cholesky",
                    });
                }
                if j < i {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Self::with_order(a, minimum_degree(adj))
    }

    /// Factors `a` (lower triangle, entries already checked finite)
    /// under the pivot order `perm`.
    fn with_order(a: &CsrMat, perm: Vec<usize>) -> Result<Self, LinalgError> {
        let n = perm.len();
        let mut pinv = vec![0; n];
        for (k, &i) in perm.iter().enumerate() {
            pinv[i] = k;
        }
        let c = permuted_upper(a, &pinv);
        let parent = etree(&c);

        // Column counts: the diagonal plus one entry per row whose
        // subtree reaches the column.
        let mut stack = vec![0; n];
        let mut mark = vec![NONE; n];
        let mut colptr = vec![0; n + 1];
        for k in 0..n {
            colptr[k + 1] += 1;
            let top = ereach(&c, k, &parent, &mut stack, &mut mark);
            for &i in &stack[top..] {
                colptr[i + 1] += 1;
            }
        }
        for k in 0..n {
            colptr[k + 1] += colptr[k];
        }

        let nnz = colptr[n];
        let mut rows = vec![0; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = colptr[..n].to_vec();
        let mut x = vec![0.0; n];
        mark.fill(NONE);
        for k in 0..n {
            let top = ereach(&c, k, &parent, &mut stack, &mut mark);
            for (i, v) in c.col(k) {
                x[i] = v;
            }
            let mut d = x[k];
            x[k] = 0.0;
            for &i in &stack[top..] {
                let lki = x[i] / values[colptr[i]];
                x[i] = 0.0;
                for p in colptr[i] + 1..next[i] {
                    x[rows[p]] -= values[p] * lki;
                }
                d -= lki * lki;
                rows[next[i]] = k;
                values[next[i]] = lki;
                next[i] += 1;
            }
            if !(d > 0.0 && d.is_finite()) {
                return Err(LinalgError::NotPositiveDefinite { pivot: perm[k] });
            }
            rows[next[k]] = k;
            values[next[k]] = d.sqrt();
            next[k] += 1;
        }
        for r in &mut rows {
            *r = perm[*r];
        }
        Ok(SparseCholesky {
            perm,
            colptr,
            rows,
            values,
        })
    }

    /// Stored entries of `L`, the diagonal included.
    #[cfg(test)]
    fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Overwrites `b` with the solution `x` of `A x = b`: one forward
    /// and one back sweep over `L`, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.perm.len(), "solve: rhs length mismatch");
        for (k, &j) in self.perm.iter().enumerate() {
            let (lo, hi) = (self.colptr[k], self.colptr[k + 1]);
            let xj = b[j] / self.values[lo];
            b[j] = xj;
            for p in lo + 1..hi {
                b[self.rows[p]] -= self.values[p] * xj;
            }
        }
        for (k, &j) in self.perm.iter().enumerate().rev() {
            let (lo, hi) = (self.colptr[k], self.colptr[k + 1]);
            let mut s = b[j];
            for p in lo + 1..hi {
                s -= self.values[p] * b[self.rows[p]];
            }
            b[j] = s / self.values[lo];
        }
    }
}

/// Minimum-degree order of the graph `adj` (sorted neighbour lists,
/// no self loops): repeatedly eliminates a node of least current
/// degree, the lowest index among equals, and joins its neighbours
/// into a clique.
fn minimum_degree(mut adj: Vec<Vec<usize>>) -> Vec<usize> {
    let mut queue: BTreeSet<(usize, usize)> = adj
        .iter()
        .enumerate()
        .map(|(v, list)| (list.len(), v))
        .collect();
    let mut order = Vec::with_capacity(adj.len());
    let mut merged = Vec::new();
    while let Some((_, v)) = queue.pop_first() {
        order.push(v);
        let clique = std::mem::take(&mut adj[v]);
        for &u in &clique {
            // N(u) ← (N(u) ∪ N(v)) \ {u, v}, a sorted merge.
            merged.clear();
            let (mut p, mut q) = (0, 0);
            let old = &adj[u];
            while p < old.len() || q < clique.len() {
                let w = match (old.get(p), clique.get(q)) {
                    (Some(&a), Some(&b)) if a <= b => {
                        p += 1;
                        q += usize::from(a == b);
                        a
                    }
                    (Some(&a), None) => {
                        p += 1;
                        a
                    }
                    (_, Some(&b)) => {
                        q += 1;
                        b
                    }
                    (None, None) => unreachable!(),
                };
                if w != u && w != v {
                    merged.push(w);
                }
            }
            queue.remove(&(adj[u].len(), u));
            std::mem::swap(&mut adj[u], &mut merged);
            queue.insert((adj[u].len(), u));
        }
    }
    order
}

/// The upper triangle of `P A Pᵀ` by columns, built from the lower
/// triangle of `a` (`pinv[i]` is the pivot position of index `i`).
struct UpperCsc {
    colptr: Vec<usize>,
    rows: Vec<usize>,
    values: Vec<f64>,
}

impl UpperCsc {
    fn col(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.colptr[k]..self.colptr[k + 1];
        self.rows[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }
}

fn permuted_upper(a: &CsrMat, pinv: &[usize]) -> UpperCsc {
    let n = pinv.len();
    let lower = |i: usize| a.row_iter(i).filter(move |&(j, _)| j <= i);
    let mut colptr = vec![0; n + 1];
    for i in 0..n {
        for (j, _) in lower(i) {
            colptr[pinv[i].max(pinv[j]) + 1] += 1;
        }
    }
    for k in 0..n {
        colptr[k + 1] += colptr[k];
    }
    let mut next = colptr[..n].to_vec();
    let mut rows = vec![0; colptr[n]];
    let mut values = vec![0.0; colptr[n]];
    for i in 0..n {
        for (j, v) in lower(i) {
            let (r, col) = (pinv[i].min(pinv[j]), pinv[i].max(pinv[j]));
            rows[next[col]] = r;
            values[next[col]] = v;
            next[col] += 1;
        }
    }
    UpperCsc {
        colptr,
        rows,
        values,
    }
}

/// Elimination tree of the matrix whose upper triangle is `c`:
/// `parent[i]` is the row of the first entry below the diagonal in
/// column `i` of `L` ([`NONE`] at a root).
fn etree(c: &UpperCsc) -> Vec<usize> {
    let n = c.colptr.len() - 1;
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for (mut i, _) in c.col(k) {
            // Walk from i to the root of its current subtree,
            // compressing the path onto k.
            while i != NONE && i < k {
                let up = ancestor[i];
                ancestor[i] = k;
                if up == NONE {
                    parent[i] = k;
                }
                i = up;
            }
        }
    }
    parent
}

/// Nonzero pattern of row `k` of `L`, left in `stack[top..]` in
/// topological order (each node before its ancestors); returns `top`.
/// `mark` must not hold `k` on entry.
fn ereach(
    c: &UpperCsc,
    k: usize,
    parent: &[usize],
    stack: &mut [usize],
    mark: &mut [usize],
) -> usize {
    let n = stack.len();
    let mut top = n;
    mark[k] = k;
    for (mut i, _) in c.col(k) {
        let mut len = 0;
        while mark[i] != k {
            stack[len] = i;
            len += 1;
            mark[i] = k;
            i = parent[i];
        }
        while len > 0 {
            len -= 1;
            top -= 1;
            stack[top] = stack[len];
        }
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cholesky;
    use gfp_rand::Rng;

    /// A random sparse SPD matrix: a random sparse `B`, then
    /// `BᵀB + I`.
    fn random_spd(rng: &mut Rng, n: usize, per_row: usize) -> CsrMat {
        let mut trips = Vec::new();
        for r in 0..n {
            for _ in 0..per_row {
                trips.push((r, rng.gen_range(0..n), rng.gen_range(-2.0..2.0)));
            }
        }
        CsrMat::from_triplets(n, n, &trips).normal_matrix(1.0)
    }

    fn residual(a: &CsrMat, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        let r: f64 = ax.iter().zip(b).map(|(u, v)| (u - v) * (u - v)).sum();
        r.sqrt() / b.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    #[test]
    fn matches_dense_cholesky_on_random_sparse_spd() {
        for seed in 0..24 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = 1 + (seed as usize * 7) % 60;
            let a = random_spd(&mut rng, n, 2);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut x = b.clone();
            SparseCholesky::new(&a).unwrap().solve_in_place(&mut x);
            let dense = Cholesky::new(&a.to_dense()).unwrap().solve(&b);
            assert!(residual(&a, &x, &b) <= 1e-12, "seed {seed}");
            for (u, v) in x.iter().zip(&dense) {
                assert!(
                    (u - v).abs() <= 1e-10 * (1.0 + v.abs()),
                    "seed {seed}: {u} vs {v}"
                );
            }
        }
    }

    #[test]
    fn reads_only_the_lower_triangle() {
        let full = random_spd(&mut Rng::seed_from_u64(7), 30, 3);
        let trips: Vec<_> = (0..30)
            .flat_map(|i| {
                full.row_iter(i)
                    .filter(move |&(j, _)| j <= i)
                    .map(move |(j, v)| (i, j, v))
            })
            .collect();
        let lower = CsrMat::from_triplets(30, 30, &trips);
        let b: Vec<f64> = (0..30).map(|i| i as f64 - 15.0).collect();
        let (mut x, mut y) = (b.clone(), b.clone());
        SparseCholesky::new(&full).unwrap().solve_in_place(&mut x);
        SparseCholesky::new(&lower).unwrap().solve_in_place(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn repeated_factor_and_solve_are_bitwise_equal() {
        let a = random_spd(&mut Rng::seed_from_u64(11), 80, 3);
        let b: Vec<f64> = (0..80).map(|i| (i as f64 * 0.37).sin()).collect();
        let solve = || {
            let mut x = b.clone();
            SparseCholesky::new(&a).unwrap().solve_in_place(&mut x);
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(solve(), solve());
    }

    /// The normal matrix of the sub-problem-1 distance rows over every
    /// pair of `n` points in `svec` layout, plus one row per variable:
    /// each off-diagonal entry meets only its own two diagonals.
    fn pair_graph(n: usize) -> CsrMat {
        let idx = |i: usize, j: usize| crate::svec::svec_index(n, i.max(j), i.min(j));
        let dim = n * (n + 1) / 2;
        let mut trips: Vec<_> = (0..dim).map(|v| (v, v, 1.0)).collect();
        let mut row = dim;
        for i in 0..n {
            for j in i + 1..n {
                trips.extend([
                    (row, idx(i, i), 1.0),
                    (row, idx(j, j), 1.0),
                    (row, idx(i, j), -2.0),
                ]);
                row += 1;
            }
        }
        CsrMat::from_triplets(row, dim, &trips).normal_matrix(1e-8)
    }

    #[test]
    fn minimum_degree_fills_less_than_natural_order_on_a_pair_graph() {
        let a = pair_graph(12);
        let natural = SparseCholesky::with_order(&a, (0..a.nrows()).collect()).unwrap();
        let ordered = SparseCholesky::new(&a).unwrap();
        assert!(
            ordered.nnz() < natural.nnz(),
            "minimum degree {} vs natural {}",
            ordered.nnz(),
            natural.nnz()
        );
        // The off-diagonal entries go first and leave the pair clique
        // on the 12 diagonals: 2 entries each, plus 12·13/2.
        assert_eq!(ordered.nnz(), 2 * 66 + 66 + 78);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + i as f64).collect();
        let (mut x, mut y) = (b.clone(), b.clone());
        ordered.solve_in_place(&mut x);
        natural.solve_in_place(&mut y);
        assert!(residual(&a, &x, &b) <= 1e-12);
        for (u, v) in x.iter().zip(&y) {
            assert!((u - v).abs() <= 1e-6 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn ties_break_to_the_lowest_index() {
        // A path 0–1–2–3: both ends have degree 1, so 0 goes first,
        // then 1 (now an end), and so on.
        let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        assert_eq!(minimum_degree(adj), vec![0, 1, 2, 3]);
        // A star centred on 0: the leaves (degree 1) go first.
        let adj = vec![vec![1, 2, 3], vec![0], vec![0], vec![0]];
        assert_eq!(minimum_degree(adj), vec![1, 2, 0, 3]);
    }

    #[test]
    fn rejects_indefinite_nonfinite_and_non_square_input() {
        let indefinite = CsrMat::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0), (1, 1, 1.0)]);
        assert!(matches!(
            SparseCholesky::new(&indefinite),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let singular = CsrMat::from_triplets(2, 2, &[(0, 0, 1.0)]);
        assert!(matches!(
            SparseCholesky::new(&singular),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
        for bad in [f64::NAN, f64::INFINITY] {
            let a = CsrMat::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, bad), (1, 1, 1.0)]);
            assert!(matches!(
                SparseCholesky::new(&a),
                Err(LinalgError::NonFinite { .. })
            ));
        }
        let rect = CsrMat::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(matches!(
            SparseCholesky::new(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn empty_matrix_factors() {
        let f = SparseCholesky::new(&CsrMat::from_triplets(0, 0, &[])).unwrap();
        f.solve_in_place(&mut []);
        assert_eq!(f.nnz(), 0);
    }
}
