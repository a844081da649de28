//! Partial symmetric eigensolver via tridiagonal bisection and inverse
//! iteration.
//!
//! [`spectral_side`] answers the question the PSD-cone projection
//! actually asks: *which eigenvalues of `A` are significantly negative
//! (or positive), and what is their invariant subspace?* It
//! Householder-reduces `A` to tridiagonal form **without** forming the
//! accumulated `Q` (half the cost of a full [`crate::eigh`]), locates
//! eigenvalues with Sturm sequences, extracts the wanted pairs by
//! bisection + tridiagonal inverse iteration, and applies the stored
//! reflectors to the skinny eigenvector block instead of ever
//! materialising `Q`.
//!
//! The Sturm counts are *exact* (they are pivot sign counts of
//! `T − xI`, not a convergence heuristic), so the routine can certify
//! what a Krylov method cannot: that the returned pairs are the
//! **complete** set beyond the projection's cut. Every returned pair
//! additionally carries an explicit tridiagonal residual check; any
//! doubt returns `Ok(None)` and the caller runs the dense path.
//!
//! Everything here is deterministic: fixed-seed inverse-iteration
//! starts, fixed bisection order, sequential Gram–Schmidt. The one
//! parallel piece is the reflector application, which follows the
//! crate's bitwise determinism contract; the `tred2` reduction shared
//! with [`crate::eigh`] and the batched loose bisection run serially.

use std::ops::Range;

use crate::eigen::{checked, square_dim, tred2_reduce};
use crate::{LinalgError, Mat};
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
/// projection's own truncation error.
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
    /// Started before the reduction; closed by [`Self::record`].
    timer: Option<std::time::Instant>,
}

impl Tridiagonal {
    /// [`spectral_side`]'s prelude: the exactly symmetric `a` behind
    /// `eigh`'s fault hook and the NaN/Inf guard, reduced in place by
    /// `tred2_reduce`, with the Gershgorin bound.
    fn reduce(a: Mat) -> Result<Self, LinalgError> {
        let timer = crate::kernel_timer();
        // Same fault surface as `eigh`: this routine replaces it on the
        // projection hot path, so injected eigendecomposition faults
        // must reach it too (a stall here falls back to the dense
        // route).
        let mut q = checked(a, "spectral_side", "spectral_side input")?;
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
            timer,
        })
    }

    /// Closes the call's `kernel.spectral_side` wall-time sample.
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
        // pipeline where one division chain would stall); each estimate
        // is a pure function of (d, e, index), so the result is bitwise
        // identical at any batching. Serially: on `flat_n200` a pool
        // dispatch of the blocks bought nothing measurable (DESIGN §9).
        // Inverse iteration below stays sequential (the Gram–Schmidt
        // basis is order-dependent).
        let t0 = targets.start;
        let e2: Vec<f64> = e.iter().map(|&x| x * x).collect();
        let mut loose = vec![0.0f64; count];
        for (ci, chunk) in loose.chunks_mut(BISECT_LANES).enumerate() {
            bisect_block(d, &e2, t0 + ci * BISECT_LANES, blo, bhi, bis_tol, chunk);
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
/// when `n` is below the partial solver's minimum size, or when
/// inverse iteration cannot certify every pair (tridiagonal residual
/// above `rel_cut·scale`, or a collapsed basis in a tight cluster).
/// The two sides are disjoint, so the smaller one never holds more
/// than `n/2` eigenvalues. Eigenvalues inside `(−cut, +cut)` are never
/// resolved; callers treat them as zero, which is exactly the
/// truncation the PSD projection already permits at this tolerance.
///
/// `a` is taken by value, as the reduction's working matrix, and must
/// be exactly symmetric (as [`crate::svec::smat`] builds it): unlike
/// [`crate::eigh`], no symmetrized copy is made. Other input is a
/// caller bug (debug builds assert).
///
/// # Errors
///
/// [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NonFinite`] for NaN/Inf input; an injected
/// `Site::Eigh` stall surfaces as [`LinalgError::NoConvergence`].
pub fn spectral_side(a: Mat, rel_cut: f64) -> Result<Option<SpectralSide>, LinalgError> {
    let n = square_dim(&a)?;
    if n < MIN_N {
        return Ok(None);
    }
    let t = Tridiagonal::reduce(a)?;
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

/// Sturm counts at [`BISECT_LANES`] shifts at once. `e2` holds the
/// squared subdiagonal. The lane count is fixed, so the recurrences
/// run as vector lanes and their divisions pipeline; each lane
/// computes exactly the same values as [`sturm_count`] at its shift.
fn sturm_count_lanes(d: &[f64], e2: &[f64], xs: &[f64; BISECT_LANES]) -> [usize; BISECT_LANES] {
    let pivmin = f64::MIN_POSITIVE.max(1e-300);
    let mut piv = [0.0f64; BISECT_LANES];
    let mut counts = [0usize; BISECT_LANES];
    for l in 0..BISECT_LANES {
        let mut p = d[0] - xs[l];
        if p.abs() < pivmin {
            p = -pivmin;
        }
        counts[l] = (p < 0.0) as usize;
        piv[l] = p;
    }
    for (&di, &e2i) in d[1..].iter().zip(&e2[1..]) {
        for l in 0..BISECT_LANES {
            let mut p = di - xs[l] - e2i / piv[l];
            if p.abs() < pivmin {
                p = -pivmin;
            }
            counts[l] += (p < 0.0) as usize;
            piv[l] = p;
        }
    }
    counts
}

/// Bisects eigenvalues `j0..j0 + out.len()` (ascending indices) of the
/// tridiagonal `(d, e²)` inside `[blo, bhi]` to within `tol`, running
/// all brackets in lockstep so every round issues one Sturm evaluation
/// of all [`BISECT_LANES`] lanes. A lane that has finished, and a lane
/// past `out.len()`, is frozen: it is still evaluated (at a finite
/// shift), but its bracket no longer moves. Per-lane bracket updates
/// are independent, so each result is bitwise identical to a scalar
/// [`bisect_eigenvalue`] run.
fn bisect_block(d: &[f64], e2: &[f64], j0: usize, blo: f64, bhi: f64, tol: f64, out: &mut [f64]) {
    let m = out.len();
    debug_assert!(m <= BISECT_LANES);
    let mut lo = [blo; BISECT_LANES];
    let mut hi = [bhi; BISECT_LANES];
    let mut active = [false; BISECT_LANES];
    active[..m].fill(true);
    for _round in 0..64 {
        let mut xs = [0.0f64; BISECT_LANES];
        for l in 0..BISECT_LANES {
            xs[l] = 0.5 * (lo[l] + hi[l]);
            if xs[l] <= lo[l] || xs[l] >= hi[l] {
                active[l] = false;
            }
        }
        if !active.contains(&true) {
            break;
        }
        let counts = sturm_count_lanes(d, e2, &xs);
        for l in 0..BISECT_LANES {
            if !active[l] {
                continue;
            }
            if counts[l] > j0 + l {
                hi[l] = xs[l];
            } else {
                lo[l] = xs[l];
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
        // Forward: apply the recorded swaps and multipliers. The swap is
        // a select on the running entry, not a branch on the data.
        if n > 0 {
            let mut cur = b[0];
            for i in 0..n - 1 {
                let next = b[i + 1];
                let (pivot, other) = if self.swap[i] {
                    (next, cur)
                } else {
                    (cur, next)
                };
                b[i] = pivot;
                cur = other - self.l[i] * pivot;
            }
            b[n - 1] = cur;
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

/// Eigenvectors per reflector group: sixteen `f64` lanes are four AVX2
/// (eight SSE2) registers of independent dot-product chains.
const REFLECT_LANES: usize = 16;

/// A group of lanes through every reflector: `(a, hh, companion rows,
/// lane-major group)`.
type ReflectBody = fn(&Mat, &[f64], &[f64], &mut [f64]);

/// Applies the Householder reflectors stored by
/// [`tred2_reduce`] to the columns of `s`, computing `Q·s` without
/// forming `Q`. Ascending step order matches `tred2_form_q`, so this
/// is exactly the transformation the dense path would apply.
///
/// Runs [`reflect_group_portable`]'s one loop, compiled for AVX2 when
/// the host has it (the same IEEE operations in the same order on
/// wider vectors, as in [`tred2_reduce`]).
pub(crate) fn apply_reflectors(a: &Mat, hh: &[f64], s: &mut Mat) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return apply_reflectors_with(a, hh, s, |a, hh, comp, group| {
            // SAFETY: `reflect_group_avx2` needs AVX2 and nothing else;
            // this body is only chosen after the check above found it.
            unsafe { reflect_group_avx2(a, hh, comp, group) }
        });
    }
    apply_reflectors_with(a, hh, s, reflect_group_portable)
}

/// [`apply_reflectors`] with the group body `body`.
///
/// Eigenvectors go [`REFLECT_LANES`] at a time, interleaved lane-major
/// (entry `k` of every lane in one contiguous run, which is a slice of
/// a row of `s`), so each reflector's dot products advance all lanes
/// over one load of the reflector entry. A last group of fewer columns
/// is split into groups of four, zero-padded. The companion of
/// reflector `i` (column `i` of `a`, which `tred2_reduce` stores as
/// the quotient `a[(i,k)] / hh[i]`) is recomputed as that quotient
/// into one contiguous row per reflector. Groups are independent; they
/// fan out to the pool (each eigenvector is read and written by
/// exactly one job), and every eigenvector sees the same operations in
/// the same order at any grouping, preserving the bitwise determinism
/// contract.
fn apply_reflectors_with(a: &Mat, hh: &[f64], s: &mut Mat, body: ReflectBody) {
    let n = a.nrows();
    assert_eq!(s.nrows(), n, "reflector/vector shape mismatch");
    let ncols = s.ncols();
    if ncols == 0 {
        return;
    }
    // Companion row i (i entries) starts at i(i−1)/2; skipped steps'
    // rows stay zero and are never read.
    let mut comp = vec![0.0f64; n * n.saturating_sub(1) / 2];
    for i in 1..n {
        if hh[i] != 0.0 {
            let h = hh[i];
            let row = &mut comp[i * (i - 1) / 2..][..i];
            for (c, &x) in row.iter_mut().zip(&a.row(i)[..i]) {
                *c = x / h;
            }
        }
    }
    // Group widths: full groups of 16, then fours (the last padded).
    let full = ncols / REFLECT_LANES;
    let quads = (ncols % REFLECT_LANES).div_ceil(4);
    let widths: Vec<usize> = std::iter::repeat_n(REFLECT_LANES, full)
        .chain(std::iter::repeat_n(4, quads))
        .collect();
    let total: usize = widths.iter().sum();
    let mut buf = vec![0.0f64; total * n];
    let mut chunks: Vec<&mut [f64]> = Vec::with_capacity(widths.len());
    let mut rest = buf.as_mut_slice();
    let mut j0 = 0;
    for &w in &widths {
        let (group, tail) = rest.split_at_mut(w * n);
        let live = w.min(ncols - j0);
        for (k, lanes) in group.chunks_exact_mut(w).enumerate() {
            lanes[..live].copy_from_slice(&s.row(k)[j0..j0 + live]);
        }
        chunks.push(group);
        rest = tail;
        j0 += w;
    }
    let work = n * n * ncols;
    if gfp_parallel::should_parallelize(work, 64 * 64 * 16, 32 * 32 * 16) {
        gfp_parallel::parallel_for_each_chunk(chunks, |_ci, group| body(a, hh, &comp, group));
    } else {
        for group in chunks {
            body(a, hh, &comp, group);
        }
    }
    let mut j0 = 0;
    let mut groups = buf.as_slice();
    for &w in &widths {
        let (group, tail) = groups.split_at(w * n);
        let live = w.min(ncols - j0);
        for (k, lanes) in group.chunks_exact(w).enumerate() {
            s.row_mut(k)[j0..j0 + live].copy_from_slice(&lanes[..live]);
        }
        groups = tail;
        j0 += w;
    }
}

/// [`reflect_group_portable`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn reflect_group_avx2(a: &Mat, hh: &[f64], comp: &[f64], group: &mut [f64]) {
    reflect_group_portable(a, hh, comp, group)
}

/// The body of [`apply_reflectors`] for one lane-major group of
/// [`REFLECT_LANES`] or four eigenvectors, inlined into each build.
#[inline(always)]
fn reflect_group_portable(a: &Mat, hh: &[f64], comp: &[f64], group: &mut [f64]) {
    if group.len() == REFLECT_LANES * a.nrows() {
        reflect_lanes::<REFLECT_LANES>(a, hh, comp, group);
    } else {
        reflect_lanes::<4>(a, hh, comp, group);
    }
}

/// Reflector `i` on every lane `c`: `g_c = Σ_k a[(i,k)]·r_c[k]`, then
/// `r_c[k] −= g_c·(a[(i,k)] / hh[i])`, each `k` ascending — per lane,
/// the one-eigenvector loop's operations in its order.
#[inline(always)]
fn reflect_lanes<const W: usize>(a: &Mat, hh: &[f64], comp: &[f64], group: &mut [f64]) {
    let n = a.nrows();
    debug_assert_eq!(group.len(), W * n);
    for i in 1..n {
        if hh[i] == 0.0 {
            continue;
        }
        let arow = &a.row(i)[..i];
        let crow = &comp[i * (i - 1) / 2..][..i];
        let head = &mut group[..i * W];
        let mut g = [0.0f64; W];
        for (&x, r) in arow.iter().zip(head.chunks_exact(W)) {
            for c in 0..W {
                g[c] += x * r[c];
            }
        }
        for (&y, r) in crow.iter().zip(head.chunks_exact_mut(W)) {
            for c in 0..W {
                r[c] -= g[c] * y;
            }
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
        let side = spectral_side(m.clone(), rel_cut)
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
        let p_part = crate::spectral_accumulate(&side.vectors, &ones, 0..side.values.len());
        let p_dense = crate::spectral_accumulate(&dense.vectors, &ones, range);
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
        let side = spectral_side(m.clone(), 1e-9).unwrap().unwrap();
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
        let m = crate::spectral_accumulate(&basis, &lam, 0..n);
        let side = spectral_side(m.clone(), 1e-9).unwrap().unwrap();
        assert_eq!(side.kind, SideKind::Negative);
        assert_eq!(side.values.len(), 3);
        for v in &side.values {
            assert!((v + 3.0).abs() < 1e-8, "cluster eigenvalue {v}");
        }
        check_against_dense(&m, 1e-9);
    }

    #[test]
    fn zero_matrix_reports_empty_side() {
        let side = spectral_side(Mat::zeros(16, 16), 1e-9).unwrap().unwrap();
        assert!(side.values.is_empty());
        assert_eq!(side.other_count, 0);
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

    /// Every lane of [`bisect_block`] returns bitwise what the scalar
    /// [`bisect_eigenvalue`] returns for its index: full and partial
    /// blocks, loose and full-precision tolerances (at `tol = 0` the
    /// lanes stop at different rounds), the whole Gershgorin bracket
    /// and the half brackets `spectral_side` passes.
    #[test]
    fn bisect_block_lanes_match_scalar_bisection_bitwise() {
        for n in [8usize, 33, 202] {
            let mut q = random_sym(n as u64 + 77, n);
            let (mut hh, mut e) = (vec![0.0; n], vec![0.0; n]);
            tred2_reduce(&mut q, &mut hh, &mut e);
            let d: Vec<f64> = (0..n).map(|i| q[(i, i)]).collect();
            let e2: Vec<f64> = e.iter().map(|&x| x * x).collect();
            let scale = (0..n)
                .map(|i| {
                    let lo = if i > 0 { e[i].abs() } else { 0.0 };
                    let hi = if i + 1 < n { e[i + 1].abs() } else { 0.0 };
                    d[i].abs() + lo + hi
                })
                .fold(0.0f64, f64::max);
            let n_neg = sturm_count(&d, &e, 0.0);
            let brackets = [
                (0..n, -scale, scale),
                (0..n_neg, -scale, 0.0),
                (n_neg..n, 0.0, scale),
            ];
            for (targets, blo, bhi) in brackets {
                for tol in [BISECT_REL_TOL * scale, 0.0] {
                    for lanes in 1..=BISECT_LANES {
                        for j0 in targets.clone().step_by(lanes) {
                            let m = lanes.min(targets.end - j0);
                            let mut out = vec![f64::NAN; m];
                            bisect_block(&d, &e2, j0, blo, bhi, tol, &mut out);
                            for (l, got) in out.iter().enumerate() {
                                let want = bisect_eigenvalue(&d, &e, j0 + l, blo, bhi, tol);
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "n={n} [{blo}, {bhi}] tol={tol} lanes={lanes} j={}",
                                    j0 + l
                                );
                            }
                        }
                    }
                }
            }
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
        // Both builds of the group body: the portable one, and its AVX2
        // build when the host has AVX2.
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut bodies: Vec<(&str, ReflectBody)> = vec![("portable", reflect_group_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            bodies.push(("avx2", |a, hh, comp, group| {
                // SAFETY: this body is only listed when the host has
                // AVX2, checked just above.
                unsafe { reflect_group_avx2(a, hh, comp, group) }
            }));
        }
        for n in [8usize, 33, 202] {
            let mut q = random_sym(n as u64 + 31, n);
            let (mut hh, mut e) = (vec![0.0; n], vec![0.0; n]);
            tred2_reduce(&mut q, &mut hh, &mut e);
            // 1..=9 columns: groups of four, every remainder; 15, 16, 17
            // and 33 fill and split groups of 16.
            for cols in (1..=9).chain([15, 16, 17, 33]) {
                let mut rng = Rng::seed_from_u64((n * 16 + cols) as u64);
                let mut start = Mat::zeros(n, cols);
                for v in start.as_mut_slice() {
                    *v = 2.0 * rng.gen_f64() - 1.0;
                }
                let mut want = start.clone();
                apply_reflectors_one_row(&q, &hh, &mut want);
                for &(body, run) in &bodies {
                    let mut got = start.clone();
                    apply_reflectors_with(&q, &hh, &mut got, run);
                    for (k, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        let what = format!("{body} n={n} cols={cols} slot {k}");
                        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn spectral_accumulate_accepts_partial_vectors() {
        // The projection consumers build sums straight from the partial
        // vector block; make sure shapes line up. Rank-2 Gram matrix
        // minus a small identity: spectrum {big, big, −1e-3, ...}, so
        // the positive side is the two-column block.
        let n = 40;
        let mut rng = Rng::seed_from_u64(2);
        let mut x = Mat::zeros(n, 2);
        for v in x.as_mut_slice().iter_mut() {
            *v = rng.gen_f64();
        }
        let mut g = x.matmul(&x.transpose());
        for i in 0..n {
            g[(i, i)] -= 1e-3;
        }
        let side = spectral_side(g, 1e-8).unwrap().unwrap();
        assert_eq!(side.kind, SideKind::Positive);
        assert_eq!(side.vectors.ncols(), 2);
        let mut w = crate::spectral_accumulate(&side.vectors, &[-1.0, -1.0], 0..2);
        w += &Mat::identity(n);
        // W is the projector complement: trace = n − 2, idempotent.
        assert!((w.trace() - (n - 2) as f64).abs() < 1e-6);
        let diff = (&w.matmul(&w) - &w).norm_max();
        assert!(diff < 1e-6, "W not idempotent: {diff}");
    }

    #[test]
    fn bitwise_deterministic_across_worker_counts() {
        // A symmetric spectrum puts about n/2 eigenvectors through the
        // reflector application, so it crosses its pool cutover.
        let m = random_sym(23, 160);
        let mut runs: Vec<[Vec<f64>; 2]> = Vec::new();
        let prev = gfp_parallel::set_host_clamp(false);
        for workers in [1usize, 2, 8] {
            let pool = gfp_parallel::ThreadPool::new(workers);
            runs.push(gfp_parallel::with_pool(&pool, || {
                let side = spectral_side(m.clone(), 1e-9).unwrap().unwrap();
                [side.values, side.vectors.as_slice().to_vec()]
            }));
        }
        gfp_parallel::set_host_clamp(prev);
        let what = ["side values", "side vectors"];
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
