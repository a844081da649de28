//! Partial symmetric eigensolver via tridiagonal bisection and inverse
//! iteration.
//!
//! Two entries share one solver. [`spectral_side`] answers the question
//! the PSD-cone projection actually asks: *which eigenvalues of `A` are
//! significantly negative (or positive), and what is their invariant
//! subspace?* [`top_pairs`] returns the `k` largest eigenpairs, which
//! is all sub-problem 2 needs. Both Householder-reduce `A` to
//! tridiagonal form **without** forming the accumulated `Q` (half the
//! cost of a full [`crate::eigh`]), locate eigenvalues with Sturm
//! sequences, extract the wanted pairs by bisection + tridiagonal
//! inverse iteration, and apply the stored reflectors to the skinny
//! eigenvector block instead of ever materialising `Q`.
//!
//! The Sturm counts are *exact* (they are pivot sign counts of
//! `T − xI`, not a convergence heuristic), so the routines can certify
//! what a Krylov method cannot: that the returned pairs are the
//! **complete** set beyond the projection's cut, or that the `k`-th
//! largest eigenvalue is separated from the next one. Every returned
//! pair additionally carries an explicit tridiagonal residual check;
//! any doubt returns `Ok(None)` and the caller runs the dense path.
//!
//! Everything here is deterministic: fixed-seed inverse-iteration
//! starts, fixed bisection order, sequential Gram–Schmidt. The
//! parallel pieces are the batched loose bisection and the reflector
//! application, both of which follow the crate's bitwise determinism
//! contract; the `tred2` reduction shared with [`crate::eigh`] runs
//! serially.

use std::ops::Range;

use crate::eigen::{square_dim, symmetric_copy, tred2_reduce};
use crate::{Eigh, LinalgError, Mat};
use gfp_fault::Site;
use gfp_rand::Rng;

/// Which extreme of the spectrum a [`SpectralSide`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideKind {
    /// Eigenvalues below `−cut`.
    Negative,
    /// Eigenvalues above `+cut`.
    Positive,
}

/// The significant eigenpairs of one side of a symmetric spectrum.
#[derive(Debug, Clone)]
pub struct SpectralSide {
    /// Which side was resolved (always the one with fewer significant
    /// eigenvalues).
    pub kind: SideKind,
    /// The side's eigenvalues, ascending. May be empty: the matrix has
    /// no eigenvalue beyond the cut on this side.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one column per entry of `values`.
    pub vectors: Mat,
    /// Spectral-radius bound the relative cut was scaled by.
    pub scale: f64,
    /// Exact count of significant eigenvalues on the *other* side.
    pub other_count: usize,
}

/// Sizes below this are cheaper on the dense path.
const MIN_N: usize = 8;

/// Inverse-iteration restarts per eigenvalue before giving up.
const INVIT_RESTARTS: usize = 3;

/// Inverse-iteration refinement steps per start vector. The shift is
/// within `BISECT_REL_TOL·scale` of the eigenvalue, so each solve
/// amplifies the target component by roughly the inverse of that
/// distance; three steps keep certification reliable even when a
/// neighbor sits only a few bisection-widths away (two steps were
/// measurably not enough: the retry path fired often and cost more
/// than the saved solve).
const INVIT_STEPS: usize = 3;

/// Relative width at which bisection hands over to inverse iteration.
/// The shift only has to land close enough for the target eigenvector
/// to dominate the inverse-iteration solve; the *returned* eigenvalue
/// is the Rayleigh quotient of the converged vector, which recovers
/// full accuracy (it matches the true eigenvalue to the order of the
/// certified residual). Indices where the loose shift is not enough —
/// a gap comparable to this width — are re-bisected to full precision
/// before the dense fallback is declared.
const BISECT_REL_TOL: f64 = 1e-6;

/// Relative eigenvalue window within which inverse-iteration vectors
/// are explicitly re-orthogonalized against earlier ones (LAPACK
/// `dstein`'s cluster policy). Pairs separated by more than this are
/// orthogonal for free: the cross-contamination of certified vectors
/// is bounded by residual/gap ≤ 1e-9/1e-2 = 1e-7, below the
/// projection's own truncation error. [`top_pairs`] demands the same
/// separation between the last returned eigenvalue and the first one
/// left out, so its block is orthogonal to the rest of the spectrum by
/// the same bound.
const ORTHO_REL_WINDOW: f64 = 1e-2;

/// `A` Householder-reduced to the symmetric tridiagonal `T = (d, e)`,
/// with the reflectors kept for [`apply_reflectors`] and the
/// Gershgorin bound on the spectral radius of `T` (= that of `A`).
struct Tridiagonal {
    /// `tred2_reduce`'s working matrix: the stored reflectors.
    q: Mat,
    /// Reflector scales from `tred2_reduce`.
    hh: Vec<f64>,
    /// Diagonal of `T`.
    d: Vec<f64>,
    /// Subdiagonal of `T` (`e[0]` unused).
    e: Vec<f64>,
    /// Gershgorin bound on the spectral radius.
    scale: f64,
    /// An injected `PerturbResidual` fired at the entry's fault site.
    /// [`top_pairs`] then fails its certificate; [`spectral_side`],
    /// which shares `eigh`'s site, ignores it as `eigh` does.
    residual_perturbed: bool,
    /// Started before the reduction; closed by [`Self::record`].
    timer: Option<std::time::Instant>,
}

impl Tridiagonal {
    /// The prelude both entries share: a symmetrized copy of `a` behind
    /// the fault hook at `site` and the NaN/Inf guard, reduced by
    /// `tred2_reduce`, with the Gershgorin bound.
    fn reduce(
        a: &Mat,
        site: Site,
        method: &'static str,
        what: &'static str,
    ) -> Result<Self, LinalgError> {
        let timer = crate::kernel_timer();
        let (mut q, residual_perturbed) = symmetric_copy(a, site, method, what)?;
        let n = q.nrows();
        let mut hh = vec![0.0; n];
        let mut e = vec![0.0; n];
        tred2_reduce(&mut q, &mut hh, &mut e);
        let d: Vec<f64> = (0..n).map(|i| q[(i, i)]).collect();
        let mut scale = 0.0f64;
        for i in 0..n {
            let lo = if i > 0 { e[i].abs() } else { 0.0 };
            let hi = if i + 1 < n { e[i + 1].abs() } else { 0.0 };
            scale = scale.max(d[i].abs() + lo + hi);
        }
        Ok(Tridiagonal {
            q,
            hh,
            d,
            e,
            scale,
            residual_perturbed,
            timer,
        })
    }

    /// Closes the call's `kernel.spectral_side` wall-time sample; both
    /// entries count as that kernel.
    fn record(&self) {
        crate::kernel_record("spectral_side", self.timer);
    }

    /// Certified eigenpairs for the ascending eigenvalue indices
    /// `targets`, all of which lie in `[blo, bhi]`: values ascending
    /// and eigenvectors of `A`, one column each (none for an empty
    /// range). `None` when some pair fails its residual certificate
    /// `‖Ts − λs‖ ≤ cert_tol`.
    fn certify_range(
        &self,
        targets: Range<usize>,
        blo: f64,
        bhi: f64,
        cert_tol: f64,
    ) -> Option<(Vec<f64>, Mat)> {
        let (d, e, scale) = (&self.d, &self.e, self.scale);
        let n = d.len();
        let count = targets.len();
        if count == 0 {
            // An empty side of `spectral_side`: no bisection setup and
            // no pool cutover decision.
            return Some((Vec::new(), Mat::zeros(n, 0)));
        }
        // Per eigenvalue: a loose bisection bracket, then inverse
        // iteration with cluster-windowed re-orthogonalization, then
        // the Rayleigh quotient as the returned value. Residuals are
        // certified on T — `Q` is orthogonal to machine precision, so
        // `‖Av − λv‖ = ‖Ts − λs‖`.
        let bis_tol = BISECT_REL_TOL * scale;
        let window = ORTHO_REL_WINDOW * scale;
        // Coincident shifts would make the factorization of T − λI
        // identical for every member of a cluster; a one-ulp-scale
        // separation (LAPACK dstein's trick) keeps them
        // distinguishable.
        let sep = 2.0 * f64::EPSILON * scale;
        let mut values = Vec::with_capacity(count);
        let mut shifts: Vec<f64> = Vec::with_capacity(count);
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(count);
        let mut win_start = 0usize;
        let mut last_shift = f64::NEG_INFINITY;
        // The loose bisections are independent per index, so they run
        // in lane-batched blocks (independent pivot recurrences
        // pipeline where one division chain would stall) and fan out to
        // the pool in disjoint chunks; each estimate is a pure function
        // of (d, e, index), so the result is bitwise identical at any
        // worker count and any batching. Inverse iteration below stays
        // sequential (the Gram–Schmidt basis is order-dependent).
        let t0 = targets.start;
        let e2: Vec<f64> = e.iter().map(|&x| x * x).collect();
        let mut loose = vec![0.0f64; count];
        // ~40·n flops of Sturm work per eigenvalue estimate.
        if gfp_parallel::should_parallelize(count * n * 40, 64 * 64 * 16, 32 * 32 * 16) {
            let mut chunks: Vec<&mut [f64]> = Vec::new();
            let mut rest = loose.as_mut_slice();
            while rest.len() > BISECT_LANES {
                let (head, tail) = rest.split_at_mut(BISECT_LANES);
                chunks.push(head);
                rest = tail;
            }
            chunks.push(rest);
            gfp_parallel::parallel_for_each_chunk(chunks, |ci, chunk| {
                bisect_block(d, &e2, t0 + ci * BISECT_LANES, blo, bhi, bis_tol, chunk);
            });
        } else {
            for (ci, chunk) in loose.chunks_mut(BISECT_LANES).enumerate() {
                bisect_block(d, &e2, t0 + ci * BISECT_LANES, blo, bhi, bis_tol, chunk);
            }
        }
        for (idx, j) in targets.enumerate() {
            let lam0 = loose[idx];
            let shift = lam0.max(last_shift + sep);
            while win_start < basis.len() && shift - shifts[win_start] > window {
                win_start += 1;
            }
            let mut used_shift = shift;
            let mut got = invit(d, e, shift, idx, &basis[win_start..], cert_tol);
            if got.is_none() {
                // The loose shift was not close enough (gap of the
                // order of the bisection width): re-bisect this index
                // to full precision and try once more before giving up.
                let lam1 = bisect_eigenvalue(d, e, j, blo, bhi, 0.0);
                used_shift = lam1.max(last_shift + sep);
                got = invit(d, e, used_shift, idx, &basis[win_start..], cert_tol);
            }
            let (v, rq) = got?;
            basis.push(v);
            values.push(rq);
            shifts.push(used_shift);
            last_shift = used_shift;
        }
        // Rayleigh quotients can reorder within a cluster; restore the
        // ascending contract (ties broken by discovery order, so the
        // permutation — and everything downstream — is deterministic).
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_by(|&x, &y| {
            values[x]
                .partial_cmp(&values[y])
                .expect("certified eigenvalues are finite")
                .then(x.cmp(&y))
        });
        let values: Vec<f64> = order.iter().map(|&k| values[k]).collect();
        let mut s = Mat::zeros(n, count);
        for (col, &k) in order.iter().enumerate() {
            for i in 0..n {
                s[(i, col)] = basis[k][i];
            }
        }
        // Back-transform: V = Q·S by applying the stored reflectors —
        // the step that replaces tred2's O(n³) explicit Q formation.
        apply_reflectors(&self.q, &self.hh, &mut s);
        Some((values, s))
    }
}

/// Computes the complete set of eigenpairs beyond `±rel_cut·scale` on
/// whichever side of the spectrum has fewer of them, where `scale` is
/// a Gershgorin bound on the spectral radius.
///
/// Returns `Ok(None)` — *compute the dense decomposition instead* —
/// when the smaller side still holds more than `max_frac · n`
/// eigenvalues, or when inverse iteration cannot certify every pair
/// (tridiagonal residual above `rel_cut·scale`, or a collapsed basis
/// in a tight cluster). Eigenvalues inside `(−cut, +cut)` are never
/// resolved; callers treat them as zero, which is exactly the
/// truncation the PSD projection already permits at this tolerance.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NonFinite`] for NaN/Inf input; an injected
/// `Site::Eigh` stall surfaces as [`LinalgError::NoConvergence`].
pub fn spectral_side(
    a: &Mat,
    rel_cut: f64,
    max_frac: f64,
) -> Result<Option<SpectralSide>, LinalgError> {
    let n = square_dim(a)?;
    if n < MIN_N {
        return Ok(None);
    }
    // Same fault surface as `eigh`: this routine replaces it on the
    // projection hot path, so injected eigendecomposition faults must
    // reach it too (a stall here falls back to the dense route).
    let t = Tridiagonal::reduce(a, Site::Eigh, "spectral_side", "spectral_side input")?;
    let scale = t.scale;
    if scale == 0.0 {
        // Zero matrix: nothing beyond any cut on either side.
        t.record();
        return Ok(Some(SpectralSide {
            kind: SideKind::Negative,
            values: Vec::new(),
            vectors: Mat::zeros(n, 0),
            scale,
            other_count: 0,
        }));
    }
    let cut = rel_cut * scale;

    // Exact side counts: #{λ < −cut} and #{λ > cut}.
    let n_neg = sturm_count(&t.d, &t.e, -cut);
    let n_pos = n - sturm_count(&t.d, &t.e, cut);
    let (kind, count, other_count) = if n_neg <= n_pos {
        (SideKind::Negative, n_neg, n_pos)
    } else {
        (SideKind::Positive, n_pos, n_neg)
    };
    if count as f64 > max_frac * n as f64 {
        t.record();
        return Ok(None);
    }
    // All of this side's eigenvalues lie between the Gershgorin bound
    // and the cut, so the bracket is half the naive ±scale.
    let (targets, blo, bhi) = match kind {
        SideKind::Negative => (0..count, -scale, -cut),
        SideKind::Positive => (n - count..n, cut, scale),
    };
    let got = t.certify_range(targets, blo, bhi, cut);
    t.record();
    Ok(got.map(|(values, vectors)| SpectralSide {
        kind,
        values,
        vectors,
        scale,
        other_count,
    }))
}

/// Computes the `k` largest eigenpairs of symmetric `a`, values
/// ascending, with the certificates of [`spectral_side`]: every pair's
/// tridiagonal residual is at most `rel_tol·scale`, where `scale` is a
/// Gershgorin bound on the spectral radius.
///
/// Returns `Ok(None)` — *compute the dense decomposition instead* —
/// when `k` is 0 or not below `n`, when `n` is below the partial
/// solver's minimum size, when a pair fails its certificate, or unless
/// one exact Sturm count shows that the `(k+1)`-th largest eigenvalue
/// lies more than `ORTHO_REL_WINDOW·scale` (1e-2) below the `k`-th. That
/// separation makes the returned block span the top-`k` invariant
/// subspace: a copy of the `k`-th eigenvalue left out, or a neighbor
/// close enough to mix into its vector, refuses the fast route.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NonFinite`] for NaN/Inf input; an injected
/// `Site::TopPairs` stall surfaces as [`LinalgError::NoConvergence`],
/// and an injected `PerturbResidual` there returns `Ok(None)`.
pub fn top_pairs(a: &Mat, k: usize, rel_tol: f64) -> Result<Option<Eigh>, LinalgError> {
    let n = square_dim(a)?;
    if k == 0 || k >= n || n < MIN_N {
        return Ok(None);
    }
    let t = Tridiagonal::reduce(a, Site::TopPairs, "top_pairs", "top_pairs input")?;
    let scale = t.scale;
    // The zero matrix has no separated top: every eigenvalue is equal.
    // An injected residual perturbation fails the certificate.
    let got = if scale > 0.0 && !t.residual_perturbed {
        t.certify_range(n - k..n, -scale, scale, rel_tol * scale)
    } else {
        None
    };
    // Separation: exactly n − k eigenvalues lie below λ_k − window.
    let window = ORTHO_REL_WINDOW * scale;
    let got = got.filter(|(values, _)| sturm_count(&t.d, &t.e, values[0] - window) == n - k);
    t.record();
    Ok(got.map(|(values, vectors)| Eigh { values, vectors }))
}

/// Number of eigenvalues of the tridiagonal `(d, e)` strictly below
/// `x`, by counting negative pivots of the LDLᵀ factorization of
/// `T − xI` (a Sturm sequence). `e[0]` is unused, matching `tred2`'s
/// convention.
fn sturm_count(d: &[f64], e: &[f64], x: f64) -> usize {
    let n = d.len();
    // Smallest pivot magnitude we allow before snapping to a signed
    // floor — the standard bisection safeguard against division blowup
    // on exact eigenvalue hits.
    let pivmin = f64::MIN_POSITIVE.max(1e-300);
    let mut count = 0usize;
    let mut piv = d[0] - x;
    if piv.abs() < pivmin {
        piv = -pivmin;
    }
    if piv < 0.0 {
        count += 1;
    }
    for i in 1..n {
        piv = d[i] - x - e[i] * e[i] / piv;
        if piv.abs() < pivmin {
            piv = -pivmin;
        }
        if piv < 0.0 {
            count += 1;
        }
    }
    count
}

/// Lanes per [`bisect_block`] call: enough independent pivot
/// recurrences to cover the floating-point divider's latency.
const BISECT_LANES: usize = 8;

/// Sturm counts for up to [`BISECT_LANES`] shifts at once. `e2` holds
/// the squared subdiagonal. Interleaving the per-shift recurrences
/// lets the independent divisions pipeline; each lane computes exactly
/// the same values as [`sturm_count`] at its shift.
fn sturm_count_multi(d: &[f64], e2: &[f64], xs: &[f64], counts: &mut [usize]) {
    let n = d.len();
    let m = xs.len();
    debug_assert!(m <= BISECT_LANES && counts.len() == m);
    let pivmin = f64::MIN_POSITIVE.max(1e-300);
    let mut piv = [0.0f64; BISECT_LANES];
    for l in 0..m {
        let mut p = d[0] - xs[l];
        if p.abs() < pivmin {
            p = -pivmin;
        }
        counts[l] = (p < 0.0) as usize;
        piv[l] = p;
    }
    for i in 1..n {
        let di = d[i];
        let e2i = e2[i];
        for l in 0..m {
            let mut p = di - xs[l] - e2i / piv[l];
            if p.abs() < pivmin {
                p = -pivmin;
            }
            counts[l] += (p < 0.0) as usize;
            piv[l] = p;
        }
    }
}

/// Bisects eigenvalues `j0..j0 + out.len()` (ascending indices) of the
/// tridiagonal `(d, e²)` inside `[blo, bhi]` to within `tol`, running
/// all brackets in lockstep so every round issues one batched Sturm
/// evaluation. Per-lane bracket updates are independent, so each
/// result is bitwise identical to a scalar [`bisect_eigenvalue`] run.
fn bisect_block(d: &[f64], e2: &[f64], j0: usize, blo: f64, bhi: f64, tol: f64, out: &mut [f64]) {
    let m = out.len();
    debug_assert!(m <= BISECT_LANES);
    let mut lo = [blo; BISECT_LANES];
    let mut hi = [bhi; BISECT_LANES];
    let mut active = [false; BISECT_LANES];
    active[..m].fill(true);
    let mut xs = [0.0f64; BISECT_LANES];
    let mut map = [0usize; BISECT_LANES];
    let mut counts = [0usize; BISECT_LANES];
    for _round in 0..64 {
        let mut k = 0;
        for l in 0..m {
            if !active[l] {
                continue;
            }
            let mid = 0.5 * (lo[l] + hi[l]);
            if mid <= lo[l] || mid >= hi[l] {
                active[l] = false;
                continue;
            }
            xs[k] = mid;
            map[k] = l;
            k += 1;
        }
        if k == 0 {
            break;
        }
        sturm_count_multi(d, e2, &xs[..k], &mut counts[..k]);
        for t in 0..k {
            let l = map[t];
            if counts[t] > j0 + l {
                hi[l] = xs[t];
            } else {
                lo[l] = xs[t];
            }
            let floor = 2.0 * f64::EPSILON * (lo[l].abs().max(hi[l].abs()) + f64::MIN_POSITIVE);
            if hi[l] - lo[l] <= tol.max(floor) {
                active[l] = false;
            }
        }
    }
    for (l, slot) in out.iter_mut().enumerate() {
        *slot = 0.5 * (lo[l] + hi[l]);
    }
}

/// The `j`-th smallest eigenvalue of `(d, e)` by bisection on the
/// Sturm count inside the bracket `[blo, bhi]` (which the caller
/// guarantees contains it), to within `tol` (a `tol` of `0.0` bisects
/// down to f64 resolution).
fn bisect_eigenvalue(d: &[f64], e: &[f64], j: usize, blo: f64, bhi: f64, tol: f64) -> f64 {
    let mut lo = blo;
    let mut hi = bhi;
    // 64 halvings reach ~2⁻⁶³ of the bracket — beyond f64 resolution —
    // and the early-out fires well before that.
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if sturm_count(d, e, mid) > j {
            hi = mid;
        } else {
            lo = mid;
        }
        let floor = 2.0 * f64::EPSILON * (lo.abs().max(hi.abs()) + f64::MIN_POSITIVE);
        if hi - lo <= tol.max(floor) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// One certified eigenvector of the tridiagonal `(d, e)` at `shift`:
/// inverse iteration from a fixed-seed start, re-orthogonalized
/// against `basis` (the caller passes only the cluster window),
/// accepted only when the explicit tridiagonal residual `‖Ts − ρs‖`
/// at the Rayleigh quotient `ρ` clears `cert_tol`. Returns the vector
/// with its Rayleigh quotient, or `None` when no restart produces a
/// certifiable vector.
fn invit(
    d: &[f64],
    e: &[f64],
    shift: f64,
    idx: usize,
    basis: &[Vec<f64>],
    cert_tol: f64,
) -> Option<(Vec<f64>, f64)> {
    let n = d.len();
    let lu = TridiagLu::factor(d, e, shift);
    // The seed folds in the eigenvalue index so clustered eigenvalues
    // get independent starts; it is otherwise arbitrary but fixed.
    let mut rng = Rng::seed_from_u64(0x7472_6964_0000_0000 ^ idx as u64);
    for _restart in 0..INVIT_RESTARTS {
        let mut v: Vec<f64> = (0..n).map(|_| 2.0 * rng.gen_f64() - 1.0).collect();
        normalize(&mut v)?;
        let mut ok = true;
        for _ in 0..INVIT_STEPS {
            lu.solve(&mut v);
            orthogonalize(&mut v, basis);
            if normalize(&mut v).is_none() {
                // Collapsed into the span of the accepted basis;
                // restart from a fresh direction.
                ok = false;
                break;
            }
        }
        if !ok || !v.iter().all(|x| x.is_finite()) {
            continue;
        }
        let rq = tridiag_rq(d, e, &v);
        if rq.is_finite() && tridiag_residual(d, e, rq, &v) <= cert_tol {
            return Some((v, rq));
        }
    }
    None
}

/// Rayleigh quotient `vᵀ T v` of a unit vector for the tridiagonal
/// `(d, e)`.
fn tridiag_rq(d: &[f64], e: &[f64], v: &[f64]) -> f64 {
    let n = d.len();
    let mut rq = 0.0;
    for i in 0..n {
        rq += d[i] * v[i] * v[i];
        if i > 0 {
            rq += 2.0 * e[i] * v[i - 1] * v[i];
        }
    }
    rq
}

/// `‖T v − λ v‖₂` for the tridiagonal `(d, e)`.
fn tridiag_residual(d: &[f64], e: &[f64], lam: f64, v: &[f64]) -> f64 {
    let n = d.len();
    let mut sum = 0.0;
    for i in 0..n {
        let mut r = (d[i] - lam) * v[i];
        if i > 0 {
            r += e[i] * v[i - 1];
        }
        if i + 1 < n {
            r += e[i + 1] * v[i + 1];
        }
        sum += r * r;
    }
    sum.sqrt()
}

/// Two-pass modified Gram–Schmidt of `v` against `basis` (the second
/// pass mops up what cancellation left behind — "twice is enough").
fn orthogonalize(v: &mut [f64], basis: &[Vec<f64>]) {
    for _ in 0..2 {
        for b in basis {
            let dot: f64 = v.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            for (x, y) in v.iter_mut().zip(b.iter()) {
                *x -= dot * y;
            }
        }
    }
}

/// Normalizes `v` to unit length; `None` when its norm is numerically
/// zero.
fn normalize(v: &mut [f64]) -> Option<()> {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm <= 1e-150 || !norm.is_finite() {
        return None;
    }
    for x in v.iter_mut() {
        *x /= norm;
    }
    Some(())
}

/// LU factorization of the tridiagonal `T − λI` with partial pivoting
/// (the pivoting introduces a second superdiagonal, LAPACK `dgttrf`
/// style). Singular pivots are snapped away from zero — standard for
/// inverse iteration, where the shift *is* an eigenvalue and the
/// near-singular solve is the point.
struct TridiagLu {
    /// Unit-lower multipliers `l[i]` (row i+1 ← row i+1 − l·row i).
    l: Vec<f64>,
    /// Diagonal of U.
    du0: Vec<f64>,
    /// First superdiagonal of U.
    du1: Vec<f64>,
    /// Second superdiagonal of U (fill-in from row swaps).
    du2: Vec<f64>,
    /// Row-swap flags per elimination step.
    swap: Vec<bool>,
}

impl TridiagLu {
    fn factor(d: &[f64], e: &[f64], lam: f64) -> TridiagLu {
        let n = d.len();
        let pivfloor = (f64::EPSILON * lam.abs()).max(f64::MIN_POSITIVE * 16.0);
        let mut du0: Vec<f64> = (0..n).map(|i| d[i] - lam).collect();
        let mut du1: Vec<f64> = (0..n).map(|i| if i + 1 < n { e[i + 1] } else { 0.0 }).collect();
        let mut du2 = vec![0.0; n];
        let mut l = vec![0.0; n];
        let mut swap = vec![false; n];
        for i in 0..n.saturating_sub(1) {
            let sub = e[i + 1];
            if sub.abs() > du0[i].abs() {
                // Swap rows i and i+1.
                swap[i] = true;
                let (a0, a1) = (du0[i], du1[i]);
                du0[i] = sub;
                du1[i] = du0[i + 1];
                du2[i] = du1[i + 1];
                du0[i + 1] = a0;
                du1[i + 1] = a1;
                // After the swap row i+1 holds the old row i, whose
                // leading entry is a0; eliminate with the swapped pivot.
                let m = du0[i + 1] / du0[i];
                l[i] = m;
                du0[i + 1] = du1[i + 1] - m * du1[i];
                du1[i + 1] = -m * du2[i];
                continue;
            }
            let mut piv = du0[i];
            if piv.abs() < pivfloor {
                piv = pivfloor.copysign(if piv == 0.0 { 1.0 } else { piv });
                du0[i] = piv;
            }
            let m = sub / piv;
            l[i] = m;
            du0[i + 1] -= m * du1[i];
            // du2 stays zero without a swap.
        }
        if let Some(last) = du0.last_mut() {
            if last.abs() < pivfloor {
                *last = pivfloor.copysign(if *last == 0.0 { 1.0 } else { *last });
            }
        }
        TridiagLu {
            l,
            du0,
            du1,
            du2,
            swap,
        }
    }

    /// Solves `(T − λI) x = b` in place.
    fn solve(&self, b: &mut [f64]) {
        let n = b.len();
        // Forward: apply the recorded swaps and multipliers.
        for i in 0..n.saturating_sub(1) {
            if self.swap[i] {
                b.swap(i, i + 1);
            }
            b[i + 1] -= self.l[i] * b[i];
        }
        // Backward: U has two superdiagonals.
        for i in (0..n).rev() {
            let mut x = b[i];
            if i + 1 < n {
                x -= self.du1[i] * b[i + 1];
            }
            if i + 2 < n {
                x -= self.du2[i] * b[i + 2];
            }
            b[i] = x / self.du0[i];
        }
        // Guard against overflow in the (intentionally) near-singular
        // solve: rescale instead of propagating infinities.
        let max = b.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if !max.is_finite() {
            for x in b.iter_mut() {
                if !x.is_finite() {
                    *x = if x.is_sign_negative() { -1.0 } else { 1.0 };
                } else {
                    *x = 0.0;
                }
            }
        } else if max > 1e280 {
            for x in b.iter_mut() {
                *x /= max;
            }
        }
    }
}

/// Applies the Householder reflectors stored by
/// [`tred2_reduce`] to the columns of `s`, computing `Q·s` without
/// forming `Q`. Ascending step order matches `tred2_form_q`, so this
/// is exactly the transformation the dense path would apply.
///
/// Works on the transpose of `s` (one contiguous buffer row per
/// eigenvector) with a pre-transposed copy of the reflector matrix,
/// so both inner loops stream contiguous memory. Eigenvectors go four
/// at a time, their dot products with each reflector as independent
/// chains over one load of the reflector row. Groups of four are
/// independent; they fan out to the pool (each eigenvector is read
/// and written by exactly one job), and every eigenvector sees the
/// same operations in the same order at any grouping, preserving the
/// bitwise determinism contract.
pub(crate) fn apply_reflectors(a: &Mat, hh: &[f64], s: &mut Mat) {
    let n = a.nrows();
    assert_eq!(s.nrows(), n, "reflector/vector shape mismatch");
    let ncols = s.ncols();
    if ncols == 0 {
        return;
    }
    // at.row(i) is column i of `a` — the second reflector operand —
    // laid out contiguously.
    let at = a.transpose();
    let mut st = vec![0.0f64; ncols * n];
    for i in 0..n {
        for j in 0..ncols {
            st[j * n + i] = s[(i, j)];
        }
    }
    let apply_rows = |chunk: &mut [f64]| {
        if chunk.len() == 4 * n {
            let (r0, rest) = chunk.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            for i in 0..n {
                if hh[i] == 0.0 {
                    continue;
                }
                let arow = &a.row(i)[..i];
                let acol = &at.row(i)[..i];
                let (r0, r1, r2, r3) = (&mut r0[..i], &mut r1[..i], &mut r2[..i], &mut r3[..i]);
                let (mut g0, mut g1, mut g2, mut g3) = (0.0, 0.0, 0.0, 0.0);
                for k in 0..i {
                    let x = arow[k];
                    g0 += x * r0[k];
                    g1 += x * r1[k];
                    g2 += x * r2[k];
                    g3 += x * r3[k];
                }
                for k in 0..i {
                    let c = acol[k];
                    r0[k] -= g0 * c;
                    r1[k] -= g1 * c;
                    r2[k] -= g2 * c;
                    r3[k] -= g3 * c;
                }
            }
            return;
        }
        for r in chunk.chunks_mut(n) {
            for i in 0..n {
                if hh[i] == 0.0 {
                    continue;
                }
                let arow = &a.row(i)[..i];
                let acol = &at.row(i)[..i];
                let mut g = 0.0;
                for k in 0..i {
                    g += arow[k] * r[k];
                }
                for k in 0..i {
                    r[k] -= g * acol[k];
                }
            }
        }
    };
    let chunks: Vec<&mut [f64]> = st.chunks_mut(4 * n).collect();
    let work = n * n * ncols;
    if gfp_parallel::should_parallelize(work, 64 * 64 * 16, 32 * 32 * 16) {
        gfp_parallel::parallel_for_each_chunk(chunks, |_ci, chunk| apply_rows(chunk));
    } else {
        chunks.into_iter().for_each(apply_rows);
    }
    for i in 0..n {
        for j in 0..ncols {
            s[(i, j)] = st[j * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigh;

    fn random_sym(seed: u64, n: usize) -> Mat {
        let mut rng = Rng::seed_from_u64(seed);
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

    /// Shared check: the returned side agrees with the dense
    /// decomposition — same count beyond the cut, same values, and the
    /// same projector onto the side's subspace.
    fn check_against_dense(m: &Mat, rel_cut: f64) {
        let n = m.nrows();
        let side = spectral_side(m, rel_cut, 1.0)
            .expect("spectral_side failed")
            .expect("dense fallback requested unexpectedly");
        let dense = eigh(m).unwrap();
        let cut = rel_cut * side.scale;
        let (dense_vals, range): (Vec<f64>, std::ops::Range<usize>) = match side.kind {
            SideKind::Negative => {
                let q = dense.values.iter().filter(|&&l| l < -cut).count();
                (dense.values[..q].to_vec(), 0..q)
            }
            SideKind::Positive => {
                let q = dense.values.iter().filter(|&&l| l > cut).count();
                (dense.values[n - q..].to_vec(), n - q..n)
            }
        };
        assert_eq!(side.values.len(), dense_vals.len(), "side count mismatch");
        for (a, b) in side.values.iter().zip(dense_vals.iter()) {
            assert!(
                (a - b).abs() <= 1e-9 * side.scale,
                "eigenvalue mismatch: {a} vs {b}"
            );
        }
        if side.values.is_empty() {
            return;
        }
        // Compare projectors (eigenvectors are sign/rotation
        // ambiguous, the projector is not).
        let ones = vec![1.0; n];
        let p_part =
            crate::spectral_accumulate(&side.vectors, &ones, 0..side.values.len(), None);
        let p_dense = crate::spectral_accumulate(&dense.vectors, &ones, range, None);
        let diff = (&p_part - &p_dense).norm_max();
        assert!(diff < 1e-7, "projector mismatch: {diff:.3e}");
        // Residuals on the original matrix.
        for (j, &lam) in side.values.iter().enumerate() {
            let mut r2 = 0.0;
            for i in 0..n {
                let mut r = -lam * side.vectors[(i, j)];
                for k in 0..n {
                    r += m[(i, k)] * side.vectors[(k, j)];
                }
                r2 += r * r;
            }
            assert!(
                r2.sqrt() <= 10.0 * rel_cut * side.scale,
                "residual {:.3e} too large for λ = {lam}",
                r2.sqrt()
            );
        }
    }

    #[test]
    fn matches_dense_on_random_matrices() {
        for (seed, n) in [(1u64, 24), (2, 48), (3, 96)] {
            check_against_dense(&random_sym(seed, n), 1e-9);
        }
    }

    #[test]
    fn matches_dense_on_shifted_spectra() {
        // Mostly positive spectrum: the negative side is the small one.
        let n = 64;
        let mut m = random_sym(7, n);
        for i in 0..n {
            m[(i, i)] += 6.0;
        }
        check_against_dense(&m, 1e-9);
        // Mostly negative: positive side small.
        for i in 0..n {
            m[(i, i)] -= 12.0;
        }
        check_against_dense(&m, 1e-9);
    }

    #[test]
    fn handles_rank_deficient_gram() {
        // X Xᵀ with X n×3: exactly 3 positive eigenvalues, the rest 0.
        let n = 48;
        let mut rng = Rng::seed_from_u64(11);
        let mut x = Mat::zeros(n, 3);
        for i in 0..n {
            for j in 0..3 {
                x[(i, j)] = 2.0 * rng.gen_f64() - 1.0;
            }
        }
        let m = x.matmul(&x.transpose());
        let side = spectral_side(&m, 1e-9, 1.0).unwrap().unwrap();
        assert_eq!(side.kind, SideKind::Negative);
        assert!(side.values.is_empty(), "PSD Gram has no negative side");
        assert_eq!(side.other_count, 3);
        check_against_dense(&m, 1e-9);
    }

    #[test]
    fn handles_repeated_eigenvalues() {
        // diag(-3, -3, -3, 5, 5, ..., 5) rotated by a random orthogonal
        // basis (via Gram of a random matrix's eigenvectors).
        let n = 40;
        let basis = eigh(&random_sym(13, n)).unwrap().vectors;
        let mut lam = vec![5.0; n];
        lam[0] = -3.0;
        lam[1] = -3.0;
        lam[2] = -3.0;
        let m = crate::spectral_accumulate(&basis, &lam, 0..n, None);
        let side = spectral_side(&m, 1e-9, 1.0).unwrap().unwrap();
        assert_eq!(side.kind, SideKind::Negative);
        assert_eq!(side.values.len(), 3);
        for v in &side.values {
            assert!((v + 3.0).abs() < 1e-8, "cluster eigenvalue {v}");
        }
        check_against_dense(&m, 1e-9);
    }

    #[test]
    fn zero_matrix_reports_empty_side() {
        let side = spectral_side(&Mat::zeros(16, 16), 1e-9, 1.0)
            .unwrap()
            .unwrap();
        assert!(side.values.is_empty());
        assert_eq!(side.other_count, 0);
    }

    #[test]
    fn respects_max_frac() {
        // Symmetric spectrum: both sides hold ~n/2 — a max_frac of 0.25
        // must route to the dense path.
        let m = random_sym(17, 32);
        assert!(spectral_side(&m, 1e-9, 0.25).unwrap().is_none());
    }

    #[test]
    fn sturm_counts_are_exact() {
        let m = random_sym(19, 32);
        let dense = eigh(&m).unwrap();
        let mut q = m.clone();
        let mut hh = vec![0.0; 32];
        let mut e = vec![0.0; 32];
        tred2_reduce(&mut q, &mut hh, &mut e);
        let d: Vec<f64> = (0..32).map(|i| q[(i, i)]).collect();
        for x in [-2.0, -0.5, 0.0, 0.3, 1.7] {
            let expect = dense.values.iter().filter(|&&l| l < x).count();
            assert_eq!(sturm_count(&d, &e, x), expect, "count at {x}");
        }
    }

    /// The one-eigenvector-at-a-time reflector loop: the bitwise
    /// reference for [`apply_reflectors`].
    fn apply_reflectors_one_row(a: &Mat, hh: &[f64], s: &mut Mat) {
        for j in 0..s.ncols() {
            for i in 0..a.nrows() {
                if hh[i] == 0.0 {
                    continue;
                }
                let mut g = 0.0;
                for k in 0..i {
                    g += a[(i, k)] * s[(k, j)];
                }
                for k in 0..i {
                    s[(k, j)] -= g * a[(k, i)];
                }
            }
        }
    }

    #[test]
    fn apply_reflectors_matches_one_row_reference_bitwise() {
        for n in [8usize, 33, 202] {
            let mut q = random_sym(n as u64 + 31, n);
            let (mut hh, mut e) = (vec![0.0; n], vec![0.0; n]);
            tred2_reduce(&mut q, &mut hh, &mut e);
            // 1..=9 columns: one and two groups of four, every remainder.
            for cols in 1..=9 {
                let mut rng = Rng::seed_from_u64((n * 16 + cols) as u64);
                let mut got = Mat::zeros(n, cols);
                for v in got.as_mut_slice() {
                    *v = 2.0 * rng.gen_f64() - 1.0;
                }
                let mut want = got.clone();
                apply_reflectors(&q, &hh, &mut got);
                apply_reflectors_one_row(&q, &hh, &mut want);
                for (k, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} cols={cols} slot {k}");
                }
            }
        }
    }

    /// `A = B diag(lam) Bᵀ` for the orthonormal eigenbasis `B` of a
    /// seeded random matrix: a symmetric matrix with a chosen spectrum.
    fn with_spectrum(seed: u64, lam: &[f64]) -> Mat {
        let n = lam.len();
        let basis = eigh(&random_sym(seed, n)).unwrap().vectors;
        crate::spectral_accumulate(&basis, lam, 0..n, None)
    }

    #[test]
    fn top_pairs_match_dense_largest() {
        let n = 60;
        let a = random_sym(7, n);
        let dense = eigh(&a).unwrap();
        let top = top_pairs(&a, 3, 1e-10).unwrap().expect("separated top-3");
        let radius = dense.values[n - 1].abs().max(dense.values[0].abs());
        assert_eq!(top.values.len(), 3);
        assert_eq!(top.vectors.ncols(), 3);
        for (got, want) in top.values.iter().zip(&dense.values[n - 3..]) {
            assert!((got - want).abs() <= 1e-9 * radius, "got {got}, want {want}");
        }
        let ones = vec![1.0; n];
        let p_part = crate::spectral_accumulate(&top.vectors, &ones, 0..3, None);
        let p_dense = crate::spectral_accumulate(&dense.vectors, &ones, n - 3..n, None);
        let diff = (&p_part - &p_dense).norm_max();
        assert!(diff < 1e-7, "projector mismatch: {diff:.3e}");
    }

    #[test]
    fn top_pairs_repeat_calls_are_bitwise() {
        let a = random_sym(11, 80);
        let p1 = top_pairs(&a, 2, 1e-11).unwrap().unwrap();
        let p2 = top_pairs(&a, 2, 1e-11).unwrap().unwrap();
        for (x, y) in p1.values.iter().zip(&p2.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(p1.vectors.as_slice().len(), p2.vectors.as_slice().len());
        for (x, y) in p1.vectors.as_slice().iter().zip(p2.vectors.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn top_pairs_residuals_hold_on_the_matrix() {
        // The certificate is on T against a Gershgorin bound, which is
        // at most 3× the spectral radius; checked here explicitly on A.
        let n = 72;
        let a = random_sym(5, n);
        let rel_tol = 1e-11;
        let top = top_pairs(&a, 2, rel_tol).unwrap().unwrap();
        let dense = eigh(&a).unwrap();
        let radius = dense.values[n - 1].abs().max(dense.values[0].abs());
        for (j, &lam) in top.values.iter().enumerate() {
            let v: Vec<f64> = (0..n).map(|i| top.vectors[(i, j)]).collect();
            let av = a.matvec(&v);
            let r = av.iter().zip(&v).map(|(x, y)| (x - lam * y).powi(2)).sum::<f64>().sqrt();
            assert!(r <= 3.0 * rel_tol * radius * 1.01, "residual {r:.3e} for λ = {lam}");
        }
    }

    #[test]
    fn spectral_accumulate_accepts_partial_vectors() {
        // The deflation consumers build W = I − VVᵀ straight from the
        // partial vector block; make sure shapes line up. Rank-2 Gram
        // matrix plus a small identity: spectrum {big, big, eps...}.
        let n = 40;
        let mut rng = Rng::seed_from_u64(2);
        let mut x = Mat::zeros(n, 2);
        for v in x.as_mut_slice().iter_mut() {
            *v = rng.gen_f64();
        }
        let mut g = x.matmul(&x.transpose());
        for i in 0..n {
            g[(i, i)] += 1e-9;
        }
        let top = top_pairs(&g, 2, 1e-8).unwrap().unwrap();
        let w =
            crate::spectral_accumulate(&top.vectors, &[-1.0, -1.0], 0..2, Some(&Mat::identity(n)));
        // W is the projector complement: trace = n − 2, idempotent.
        assert!((w.trace() - (n - 2) as f64).abs() < 1e-6);
        let diff = (&w.matmul(&w) - &w).norm_max();
        assert!(diff < 1e-6, "W not idempotent: {diff}");
    }

    #[test]
    fn top_pairs_refuse_a_tied_kth_eigenvalue() {
        // λ₁ = λ₂ = λ₃ = 5 over a floor of 1: the top-2 subspace is not
        // unique, so k = 2 must refuse; k = 3 is separated and accepted.
        let n = 40;
        let mut lam = vec![1.0; n];
        lam[n - 3..].fill(5.0);
        let a = with_spectrum(13, &lam);
        assert!(top_pairs(&a, 2, 1e-11).unwrap().is_none());
        let top = top_pairs(&a, 3, 1e-11).unwrap().expect("separated top-3");
        for v in &top.values {
            assert!((v - 5.0).abs() < 1e-9, "cluster eigenvalue {v}");
        }
        // A neighbor inside the cluster window (1e-3 below λ₂ against a
        // window of 1e-2 of the scale) refuses too; the zero matrix and
        // a flat spectrum have no separated top at all.
        lam[n - 3] = 5.0 - 1e-3;
        assert!(top_pairs(&with_spectrum(13, &lam), 2, 1e-11).unwrap().is_none());
        assert!(top_pairs(&Mat::zeros(n, n), 2, 1e-11).unwrap().is_none());
        let mut flat = Mat::identity(n);
        flat.scale_mut(5.0);
        assert!(top_pairs(&flat, 2, 1e-11).unwrap().is_none());
    }

    #[test]
    fn top_pairs_out_of_range_k_takes_the_dense_route() {
        let a = random_sym(29, 24);
        for k in [0, 24, 25] {
            assert!(top_pairs(&a, k, 1e-11).unwrap().is_none(), "k = {k}");
        }
        // Below the partial solver's minimum size, too.
        assert!(top_pairs(&random_sym(29, MIN_N - 1), 2, 1e-11).unwrap().is_none());
    }

    #[test]
    fn top_pairs_reject_nan_and_non_square_input() {
        let mut a = random_sym(31, 24);
        a[(3, 5)] = f64::NAN;
        assert!(matches!(
            top_pairs(&a, 2, 1e-11),
            Err(LinalgError::NonFinite { .. })
        ));
        assert!(matches!(
            top_pairs(&Mat::zeros(24, 23), 2, 1e-11),
            Err(LinalgError::NotSquare { rows: 24, cols: 23 })
        ));
    }

    #[test]
    fn bitwise_deterministic_across_worker_counts() {
        // k = 8 puts two groups of four eigenvectors through the
        // reflector application, so top_pairs crosses its pool cutover.
        let m = random_sym(23, 160);
        let mut runs: Vec<[Vec<f64>; 4]> = Vec::new();
        let prev = gfp_parallel::set_host_clamp(false);
        for workers in [1usize, 2, 8] {
            let pool = gfp_parallel::ThreadPool::new(workers);
            runs.push(gfp_parallel::with_pool(&pool, || {
                let side = spectral_side(&m, 1e-9, 1.0).unwrap().unwrap();
                let top = top_pairs(&m, 8, 1e-11).unwrap().unwrap();
                [
                    side.values,
                    side.vectors.as_slice().to_vec(),
                    top.values,
                    top.vectors.as_slice().to_vec(),
                ]
            }));
        }
        gfp_parallel::set_host_clamp(prev);
        let what = ["side values", "side vectors", "top values", "top vectors"];
        for run in &runs[1..] {
            for ((got, want), what) in run.iter().zip(&runs[0]).zip(what) {
                assert_eq!(got.len(), want.len(), "{what}: length diverged");
                for (a, b) in got.iter().zip(want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: bits diverged");
                }
            }
        }
    }
}
