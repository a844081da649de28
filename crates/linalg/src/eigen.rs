use crate::{LinalgError, Mat};

/// Result of a symmetric eigendecomposition: `A = V diag(values) Vᵀ`,
/// or, from [`crate::top_pairs`], the `k` largest of its pairs.
///
/// Eigenvalues are sorted in ascending order; column `k` of
/// [`vectors`](Eigh::vectors) is the unit eigenvector for `values[k]`.
#[derive(Debug, Clone)]
pub struct Eigh {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, matching `values`.
    pub vectors: Mat,
}

impl Eigh {
    /// Reconstructs `A = V diag(λ) Vᵀ` from a full decomposition
    /// (mainly for testing).
    pub fn reconstruct(&self) -> Mat {
        let n = self.values.len();
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = self.values[i];
        }
        self.vectors.matmul(&d).matmul(&self.vectors.transpose())
    }
}

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// Uses Householder tridiagonalization followed by the implicit-shift
/// QL algorithm, both operating on the full accumulated transformation,
/// so the returned eigenvectors are orthonormal to machine precision.
///
/// Only the lower triangle of `a` is referenced; the matrix is treated
/// as exactly symmetric.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input,
/// [`LinalgError::NonFinite`] when the input (or, defensively, the
/// computed spectrum) contains NaN/Inf, and
/// [`LinalgError::NoConvergence`] if the QL iteration fails (does not
/// happen for finite input in practice).
///
/// # Example
///
/// ```
/// use gfp_linalg::{Mat, eigh};
/// # fn main() -> Result<(), gfp_linalg::LinalgError> {
/// let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 4.0]]);
/// let e = eigh(&a)?;
/// assert!((e.values[0] - 3.0).abs() < 1e-12);
/// assert!((e.values[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eigh(a: &Mat) -> Result<Eigh, LinalgError> {
    let timer = crate::kernel_timer();
    let Some(mut z) = ql_input(a)? else {
        return Ok(Eigh {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        });
    };
    let n = z.nrows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(&mut z, &mut d, &mut e);
    tqli(&mut d, &mut e, &mut z)?;
    if !d.iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite {
            what: "eigh eigenvalues",
        });
    }
    sort_eigenpairs(&mut d, &mut z);
    crate::kernel_record("eigh", timer);
    Ok(Eigh {
        values: d,
        vectors: z,
    })
}

/// The working copy [`eigh`] and [`eigvalsh`] decompose (`None` for a
/// 0×0 input).
fn ql_input(a: &Mat) -> Result<Option<Mat>, LinalgError> {
    if square_dim(a)? == 0 {
        return Ok(None);
    }
    // The QL iteration certifies no residual, so an injected
    // `PerturbResidual` has nothing to act on here.
    symmetric_copy(a, gfp_fault::Site::Eigh, "tqli", "eigh input").map(|(z, _)| Some(z))
}

/// The dimension of square `a`; [`LinalgError::NotSquare`] otherwise.
pub(crate) fn square_dim(a: &Mat) -> Result<usize, LinalgError> {
    if a.is_square() {
        Ok(a.nrows())
    } else {
        Err(LinalgError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        })
    }
}

/// A symmetrized working copy of `a` (callers may pass
/// nearly-symmetric input), behind the fault hook at `site` and the
/// NaN/Inf guard. An injected stall or exhausted budget surfaces as
/// `NoConvergence { method }`; injected NaN/Inf, like non-finite input,
/// as `NonFinite { what }`. The flag says an injected `PerturbResidual`
/// fired, which only a caller with a residual certificate can act on.
pub(crate) fn symmetric_copy(
    a: &Mat,
    site: gfp_fault::Site,
    method: &'static str,
    what: &'static str,
) -> Result<(Mat, bool), LinalgError> {
    let mut z = a.clone();
    z.symmetrize_mut();
    // Fault-injection hook (no-op unless the `fault-inject` feature is
    // on): corrupts the working copy or simulates a stall, always
    // upstream of the guard below so it is what gets exercised.
    let mut residual_perturbed = false;
    if let Some(fired) = gfp_fault::corrupt_first(site, z.as_mut_slice()) {
        match fired.kind {
            gfp_fault::FaultKind::Stall | gfp_fault::FaultKind::BudgetExhaust => {
                return Err(LinalgError::NoConvergence {
                    method,
                    iterations: 0,
                });
            }
            gfp_fault::FaultKind::PerturbResidual => residual_perturbed = true,
            _ => {}
        }
    }
    // Breakdown guard: NaN/Inf input would send the QL iteration or a
    // bisection into a non-terminating or panicking regime; fail fast
    // with a structured error the supervisor can act on.
    if !z.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite { what });
    }
    Ok((z, residual_perturbed))
}

/// Flop floor (`n²·p/2` weighted dot products) below which
/// [`spectral_accumulate`] stays serial.
const SPECTRAL_PARALLEL_WORK: usize = 64 * 64 * 16;

/// Computes only the eigenvalues of a symmetric matrix (ascending).
///
/// Cheaper than [`eigh`]: the Householder reduction skips forming `Q`
/// and the QL sweep accumulates no rotations. The values are bitwise
/// identical to [`eigh`]'s, since both run the same reduction and the
/// same QL recurrence on `d` and `e`. Calls count as `eigh` calls in
/// the kernel telemetry.
///
/// # Errors
///
/// Same conditions as [`eigh`].
pub fn eigvalsh(a: &Mat) -> Result<Vec<f64>, LinalgError> {
    let timer = crate::kernel_timer();
    let Some(mut z) = ql_input(a)? else {
        return Ok(Vec::new());
    };
    let n = z.nrows();
    let mut hh = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2_reduce(&mut z, &mut hh, &mut e);
    let mut d: Vec<f64> = (0..n).map(|i| z[(i, i)]).collect();
    // `tqli` rotates over `z.nrows()` rows: none here.
    tqli(&mut d, &mut e, &mut Mat::zeros(0, n))?;
    if !d.iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite {
            what: "eigh eigenvalues",
        });
    }
    // Same comparator as `sort_eigenpairs`, so the order matches `eigh`.
    d.sort_by(f64::total_cmp);
    crate::kernel_record("eigh", timer);
    Ok(d)
}

/// Householder reduction of a real symmetric matrix to tridiagonal form.
///
/// On exit `a` holds the accumulated orthogonal transformation `Q`
/// (so that `Qᵀ A Q` is tridiagonal), `d` the diagonal and `e` the
/// subdiagonal (`e\[0\]` unused). Runs serially; see
/// [`tred2_reduce`] and [`tred2_form_q`].
pub(crate) fn tred2(a: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = a.nrows();
    let mut hh = vec![0.0; n];
    tred2_reduce(a, &mut hh, e);
    for i in 0..n {
        d[i] = a[(i, i)];
    }
    tred2_form_q(a, &hh);
}

/// Householder reduction only: on exit `a` holds the stored reflectors
/// (row `i` below the diagonal is the scaled Householder vector of
/// step `i`, column `i` its `u/h` companion) with the reduced
/// tridiagonal matrix's diagonal on `a[(i,i)]`, `hh[i]` the step's `h`
/// (0 when the step was skipped), and `e` the subdiagonal (`e[0]`
/// unused). [`tred2_form_q`] turns the reflectors into an explicit
/// `Q`; [`crate::tridiag::apply_reflectors`] applies them to a skinny
/// matrix instead, skipping the O(n³) formation when only a few
/// eigenvectors are needed. Upper slots of skipped steps' columns are
/// left holding whatever the reduction last wrote; nothing reads them.
///
/// `a` must be exactly symmetric (both callers symmetrize their
/// working copy first). The trailing block is then kept fully
/// symmetric, so step `i` reads `(A·u)_j` along row `j` instead of
/// down column `j`, and the rank-2 update streams whole rows. Every
/// stored value is the same expression, summed in the same order, as
/// in the textbook lower-triangle sweep (Numerical Recipes `tred2`):
/// results are bitwise those of that sweep. The kernel runs serially:
/// each step's O(m²) work is too small to amortize pool dispatch.
pub(crate) fn tred2_reduce(a: &mut Mat, hh: &mut [f64], e: &mut [f64]) {
    let n = a.nrows();
    let ncols = a.ncols();
    debug_assert!(
        a.is_symmetric(0.0),
        "tred2_reduce needs an exactly symmetric matrix"
    );
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            // Rows 0..=l are the trailing block; row i holds the
            // reflector being built in its first i slots.
            let (block, rest) = a.as_mut_slice().split_at_mut(i * ncols);
            let u = &mut rest[..i];
            let mut scale = 0.0;
            for x in u.iter() {
                scale += x.abs();
            }
            if scale == 0.0 {
                e[i] = u[l];
            } else {
                for x in u.iter_mut() {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                let u = &*u;
                // The stored companion column a[(j,i)] = u_j / h.
                for (j, &uj) in u.iter().enumerate() {
                    block[j * ncols + i] = uj / h;
                }
                // Phase A: e[j] = (A u)_j / h, four rows' dot products
                // as independent chains (each still sums k ascending).
                let row = |j: usize| &block[j * ncols..j * ncols + i];
                let mut j = 0;
                while j + 4 <= i {
                    let (r0, r1, r2, r3) = (row(j), row(j + 1), row(j + 2), row(j + 3));
                    let (mut g0, mut g1, mut g2, mut g3) = (0.0, 0.0, 0.0, 0.0);
                    for k in 0..i {
                        let x = u[k];
                        g0 += r0[k] * x;
                        g1 += r1[k] * x;
                        g2 += r2[k] * x;
                        g3 += r3[k] * x;
                    }
                    e[j] = g0 / h;
                    e[j + 1] = g1 / h;
                    e[j + 2] = g2 / h;
                    e[j + 3] = g3 / h;
                    j += 4;
                }
                while j < i {
                    let mut g = 0.0;
                    for (&ajk, &x) in row(j).iter().zip(u) {
                        g += ajk * x;
                    }
                    e[j] = g / h;
                    j += 1;
                }
                let mut f = 0.0;
                for (&ej, &uj) in e.iter().zip(u) {
                    f += ej * uj;
                }
                let hh = f / (h + h);
                for (ej, &uj) in e.iter_mut().zip(u) {
                    *ej -= hh * uj;
                }
                // Phase B: symmetric rank-2 update of the whole block.
                let e = &e[..i];
                for (j, r) in block.chunks_mut(ncols).enumerate() {
                    let (fj, gj) = (u[j], e[j]);
                    for ((ajk, &ek), &uk) in r[..i].iter_mut().zip(e).zip(u) {
                        *ajk -= fj * ek + gj * uk;
                    }
                }
            }
        } else {
            e[i] = a[(i, l)];
        }
        hh[i] = h;
    }
    hh[0] = 0.0;
    e[0] = 0.0;
}

/// Back-transformation: accumulate `Q` in place by applying each
/// stored Householder reflector to the columns built so far. The
/// products `g_j = Σ_k a[(i,k)]·a[(k,j)]` are accumulated for all `j`
/// at once, one row `k` at a time, so every pass streams rows; each
/// `g_j` still sums `k` in ascending order.
pub(crate) fn tred2_form_q(a: &mut Mat, hh: &[f64]) {
    let n = a.nrows();
    let mut g = vec![0.0; n];
    for i in 0..n {
        if hh[i] != 0.0 {
            let g = &mut g[..i];
            g.fill(0.0);
            for k in 0..i {
                let aik = a[(i, k)];
                for (gj, &akj) in g.iter_mut().zip(&a.row(k)[..i]) {
                    *gj += aik * akj;
                }
            }
            for k in 0..i {
                let aki = a[(k, i)];
                for (akj, &gj) in a.row_mut(k)[..i].iter_mut().zip(g.iter()) {
                    *akj -= gj * aki;
                }
            }
        }
        a[(i, i)] = 1.0;
        for j in 0..i {
            a[(j, i)] = 0.0;
            a[(i, j)] = 0.0;
        }
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix,
/// accumulating the rotations into `z`.
fn tqli(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<(), LinalgError> {
    let n = d.len();
    if n <= 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Look for a single small subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 64 {
                return Err(LinalgError::NoConvergence {
                    method: "tqli",
                    iterations: 64,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for k in 0..z.nrows() {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Computes `base + Σ_{k ∈ cols} weights[k] · v_k v_kᵀ`, where `v_k`
/// is column `k` of `vectors` — the spectral reconstruction shared by
/// the PSD-cone projection (`V·diag(max(λ,0))·Vᵀ`) and the direction
/// matrix `W = U Uᵀ` of Eq. 19.
///
/// The n² entry sums run as independent row bands on the pool, each
/// accumulating over `k` in ascending order, so the result is bitwise
/// identical for every worker count. Only the lower triangle is
/// computed; the upper is mirrored.
///
/// # Panics
///
/// Panics if `cols` exceeds the column count, `weights` is shorter
/// than `cols.end`, or `base` has the wrong shape.
pub fn spectral_accumulate(
    vectors: &Mat,
    weights: &[f64],
    cols: std::ops::Range<usize>,
    base: Option<&Mat>,
) -> Mat {
    let n = vectors.nrows();
    assert!(
        cols.end <= vectors.ncols() && weights.len() >= cols.end,
        "spectral_accumulate: column range out of bounds"
    );
    let timer = crate::kernel_timer();
    let mut out = match base {
        Some(b) => {
            assert_eq!(
                (b.nrows(), b.ncols()),
                (n, n),
                "spectral_accumulate: base shape mismatch"
            );
            b.clone()
        }
        None => Mat::zeros(n, n),
    };
    let p = cols.len();
    if p == 0 || n == 0 {
        crate::kernel_record("spectral_accumulate", timer);
        return out;
    }
    // Row-major panels of the selected columns: `plain` holds V[:, cols],
    // `scaled` the same columns pre-multiplied by their weights. Entry
    // (i,j) then becomes a contiguous dot product of two panel rows.
    let mut plain = vec![0.0; n * p];
    let mut scaled = vec![0.0; n * p];
    for i in 0..n {
        for (t, k) in cols.clone().enumerate() {
            let v = vectors[(i, k)];
            plain[i * p + t] = v;
            scaled[i * p + t] = weights[k] * v;
        }
    }
    const BAND_ROWS: usize = 16;
    {
        let bands: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(BAND_ROWS * n).collect();
        let fill_band = |band_idx: usize, band: &mut [f64]| {
            let row0 = band_idx * BAND_ROWS;
            let band_rows = band.len() / n;
            for bi in 0..band_rows {
                let i = row0 + bi;
                let srow = &scaled[i * p..(i + 1) * p];
                let orow = &mut band[bi * n..(bi + 1) * n];
                for (j, oj) in orow.iter_mut().enumerate().take(i + 1) {
                    let prow = &plain[j * p..(j + 1) * p];
                    let s: f64 = srow.iter().zip(prow.iter()).map(|(a, b)| a * b).sum();
                    *oj += s;
                }
            }
        };
        // Adaptive cutover on the triangular dot-product work n²p/2:
        // few selected columns (the deflation fast path has p = 2)
        // make per-band work too small to amortize pool dispatch.
        let work = n * n / 2 * p;
        if gfp_parallel::should_parallelize(
            work,
            SPECTRAL_PARALLEL_WORK,
            SPECTRAL_PARALLEL_WORK / 4,
        ) {
            gfp_parallel::parallel_for_each_chunk(bands, fill_band);
        } else {
            for (band_idx, band) in bands.into_iter().enumerate() {
                fill_band(band_idx, band);
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            out[(j, i)] = out[(i, j)];
        }
    }
    crate::kernel_record("spectral_accumulate", timer);
    out
}

/// Sorts eigenvalues ascending and permutes the eigenvector columns to match.
fn sort_eigenpairs(d: &mut [f64], z: &mut Mat) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    // total_cmp: sorting must not panic even if a non-finite value
    // slips past the guards (defensive; NaNs sort last).
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    let ds: Vec<f64> = order.iter().map(|&k| d[k]).collect();
    d.copy_from_slice(&ds);
    let old = z.clone();
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            z[(r, new_col)] = old[(r, old_col)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_decomposition(a: &Mat, tol: f64) {
        let e = eigh(a).expect("eigh");
        // Reconstruction.
        let rec = e.reconstruct();
        assert!(
            (&rec - a).norm_max() < tol,
            "reconstruction error {}",
            (&rec - a).norm_max()
        );
        // Orthonormality.
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!((&vtv - &Mat::identity(a.nrows())).norm_max() < tol);
        // Ascending order.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + tol);
        }
    }

    #[test]
    fn eigh_2x2_known() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = eigh(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        check_decomposition(&a, 1e-12);
    }

    #[test]
    fn eigh_diagonal() {
        let a = Mat::from_diag(&[5.0, -1.0, 3.0]);
        let e = eigh(&a).unwrap();
        assert_eq!(e.values, vec![-1.0, 3.0, 5.0]);
    }

    #[test]
    fn eigh_zero_matrix() {
        let a = Mat::zeros(4, 4);
        let e = eigh(&a).unwrap();
        assert!(e.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn eigh_empty_and_one() {
        assert!(eigh(&Mat::zeros(0, 0)).unwrap().values.is_empty());
        let e = eigh(&Mat::from_rows(&[&[7.0]])).unwrap();
        assert_eq!(e.values, vec![7.0]);
        assert_eq!(e.vectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn eigh_rejects_non_square() {
        assert!(matches!(
            eigh(&Mat::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn eigh_random_symmetric_sizes() {
        // Deterministic pseudo-random fill (LCG) to avoid a rand dependency here.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for &n in &[3usize, 5, 10, 25, 60] {
            let mut a = Mat::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let v = next();
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                }
            }
            check_decomposition(&a, 1e-9 * (n as f64));
        }
    }

    #[test]
    fn eigh_rank_deficient_gram() {
        // G = Xᵀ X with X 2xn has rank <= 2: exactly n-2 zero eigenvalues.
        let n = 8;
        let x = Mat::from_rows(&[
            &[1.0, 2.0, 3.0, -1.0, 0.5, 2.5, -2.0, 4.0],
            &[0.0, 1.0, -1.0, 2.0, 1.5, -0.5, 3.0, 1.0],
        ]);
        let g = x.transpose().matmul(&x);
        let e = eigh(&g).unwrap();
        for k in 0..n - 2 {
            assert!(e.values[k].abs() < 1e-10, "λ{} = {}", k, e.values[k]);
        }
        assert!(e.values[n - 2] > 1e-6);
        check_decomposition(&g, 1e-9);
    }

    #[test]
    fn eigvalsh_matches_eigh() {
        let mut cases = vec![Mat::from_rows(&[
            &[3.0, 1.0, 0.0],
            &[1.0, 3.0, 1.0],
            &[0.0, 1.0, 3.0],
        ])];
        for n in [1usize, 2, 5, 12, 33, 64, 102, 202] {
            cases.push(random_sym(n as u64, n));
            cases.push(zero_row_sym(n as u64 + 1000, n));
        }
        for a in &cases {
            let v1 = eigvalsh(a).unwrap();
            let v2 = eigh(a).unwrap().values;
            assert_bits(&v1, &v2, &format!("eigvalsh vs eigh n={}", a.nrows()));
        }
    }

    fn random_sym(seed: u64, n: usize) -> Mat {
        let mut rng = gfp_rand::Rng::seed_from_u64(seed);
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

    /// A random symmetric matrix split into two diagonal blocks at row
    /// [`zero_row`]. That row is all zero left of the diagonal, the
    /// later (higher) steps never couple the blocks, so its own
    /// Householder step sees `scale == 0`.
    fn zero_row_sym(seed: u64, n: usize) -> Mat {
        let mut m = random_sym(seed, n);
        if let Some(r) = zero_row(n) {
            for j in r..n {
                for k in 0..r {
                    m[(j, k)] = 0.0;
                    m[(k, j)] = 0.0;
                }
            }
        }
        m
    }

    /// The zeroed row of [`zero_row_sym`]: the middle one, when its
    /// step has a left part of at least two entries.
    fn zero_row(n: usize) -> Option<usize> {
        (n / 2 >= 2).then_some(n / 2)
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: slot {k}: {x:?} vs {y:?}");
        }
    }

    /// The textbook lower-triangle sweep (Numerical Recipes `tred2`):
    /// `(A·u)_j` walks down column `j` below the diagonal and the
    /// rank-2 update touches the lower triangle only. The reference
    /// [`tred2_reduce`] must match bit for bit.
    fn tred2_reduce_column_walk(a: &mut Mat, hh: &mut [f64], e: &mut [f64]) {
        let n = a.nrows();
        for i in (1..n).rev() {
            let l = i - 1;
            let mut h = 0.0;
            if l > 0 {
                let mut scale = 0.0;
                for k in 0..=l {
                    scale += a[(i, k)].abs();
                }
                if scale == 0.0 {
                    e[i] = a[(i, l)];
                } else {
                    for k in 0..=l {
                        a[(i, k)] /= scale;
                        h += a[(i, k)] * a[(i, k)];
                    }
                    let mut f = a[(i, l)];
                    let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                    e[i] = scale * g;
                    h -= f * g;
                    a[(i, l)] = f - g;
                    for j in 0..=l {
                        a[(j, i)] = a[(i, j)] / h;
                        let mut g = 0.0;
                        for k in 0..=j {
                            g += a[(j, k)] * a[(i, k)];
                        }
                        for k in (j + 1)..=l {
                            g += a[(k, j)] * a[(i, k)];
                        }
                        e[j] = g / h;
                    }
                    f = 0.0;
                    for j in 0..=l {
                        f += e[j] * a[(i, j)];
                    }
                    let hh = f / (h + h);
                    for j in 0..=l {
                        e[j] -= hh * a[(i, j)];
                    }
                    for j in 0..=l {
                        let fj = a[(i, j)];
                        let gj = e[j];
                        for k in 0..=j {
                            a[(j, k)] -= fj * e[k] + gj * a[(i, k)];
                        }
                    }
                }
            } else {
                e[i] = a[(i, l)];
            }
            hh[i] = h;
        }
        hh[0] = 0.0;
        e[0] = 0.0;
    }

    /// The column-walk back-transformation: the reference for
    /// [`tred2_form_q`].
    fn tred2_form_q_column_walk(a: &mut Mat, hh: &[f64]) {
        let n = a.nrows();
        for i in 0..n {
            if hh[i] != 0.0 {
                for j in 0..i {
                    let mut g = 0.0;
                    for k in 0..i {
                        g += a[(i, k)] * a[(k, j)];
                    }
                    for k in 0..i {
                        a[(k, j)] -= g * a[(k, i)];
                    }
                }
            }
            a[(i, i)] = 1.0;
            for j in 0..i {
                a[(j, i)] = 0.0;
                a[(i, j)] = 0.0;
            }
        }
    }

    #[test]
    fn tred2_matches_column_walk_reference_bitwise() {
        for n in [1usize, 2, 3, 5, 8, 12, 33, 64, 102, 202] {
            for (label, m) in [
                ("random", random_sym(n as u64, n)),
                ("zero row", zero_row_sym(n as u64 + 1000, n)),
            ] {
                let what = format!("{label} n={n}");
                let (mut got, mut want) = (m.clone(), m.clone());
                let (mut hh_got, mut e_got) = (vec![0.0; n], vec![0.0; n]);
                let (mut hh_want, mut e_want) = (vec![0.0; n], vec![0.0; n]);
                tred2_reduce(&mut got, &mut hh_got, &mut e_got);
                tred2_reduce_column_walk(&mut want, &mut hh_want, &mut e_want);
                assert_bits(&e_got, &e_want, &format!("{what} e"));
                assert_bits(&hh_got, &hh_want, &format!("{what} hh"));
                for i in 0..n {
                    assert_bits(&[got[(i, i)]], &[want[(i, i)]], &format!("{what} d[{i}]"));
                    assert_bits(
                        &got.row(i)[..i],
                        &want.row(i)[..i],
                        &format!("{what} reflector row {i}"),
                    );
                    if hh_want[i] != 0.0 {
                        let col = |m: &Mat| (0..i).map(|k| m[(k, i)]).collect::<Vec<_>>();
                        assert_bits(&col(&got), &col(&want), &format!("{what} companion {i}"));
                    }
                }
                if label == "zero row" {
                    if let Some(r) = zero_row(n) {
                        assert_eq!(hh_want[r], 0.0, "{what}: step {r} must hit scale == 0");
                    }
                }
                tred2_form_q(&mut got, &hh_got);
                tred2_form_q_column_walk(&mut want, &hh_want);
                assert_bits(got.as_slice(), want.as_slice(), &format!("{what} Q"));
            }
        }
    }

    #[test]
    fn eigh_clustered_eigenvalues() {
        // Matrix with a repeated eigenvalue: I + rank-1.
        let n = 6;
        let mut a = Mat::identity(n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] += 1.0; // eigenvalues: 1 (x5), 7 (x1)
            }
        }
        let e = eigh(&a).unwrap();
        for k in 0..n - 1 {
            assert!((e.values[k] - 1.0).abs() < 1e-10);
        }
        assert!((e.values[n - 1] - (n as f64 + 1.0)).abs() < 1e-10);
        check_decomposition(&a, 1e-10);
    }

}
