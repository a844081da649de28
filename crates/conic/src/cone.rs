use gfp_linalg::svec::{smat, svec_into, svec_len};
use gfp_linalg::{eigh, spectral_accumulate, spectral_side, vec_ops, SideKind};
use gfp_telemetry as telemetry;

/// One factor of the Cartesian product cone `K`.
///
/// The slack vector `s` is partitioned into consecutive blocks, one per
/// cone, in the order they appear in
/// [`ConeProgram::cones`](crate::ConeProgram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cone {
    /// `{0}^n` — equality constraints.
    Zero(usize),
    /// The nonnegative orthant `R₊^n` — inequality constraints.
    NonNeg(usize),
    /// The second-order (Lorentz) cone `{(t, u) : ‖u‖₂ ≤ t}` of total
    /// dimension `n` (so `u` has `n − 1` entries).
    Soc(usize),
    /// The cone of `n x n` positive semidefinite matrices in scaled
    /// `svec` form; the block occupies `n (n + 1) / 2` slots.
    Psd(usize),
}

impl Cone {
    /// Number of slots this cone occupies in the slack vector.
    pub fn dim(&self) -> usize {
        match *self {
            Cone::Zero(n) | Cone::NonNeg(n) | Cone::Soc(n) => n,
            Cone::Psd(n) => svec_len(n),
        }
    }

    /// Euclidean projection of `v` onto this cone, in place.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn project(&self, v: &mut [f64]) {
        assert_eq!(v.len(), self.dim(), "cone projection: length mismatch");
        match *self {
            Cone::Zero(_) => v.fill(0.0),
            Cone::NonNeg(_) => {
                for x in v.iter_mut() {
                    if *x < 0.0 {
                        *x = 0.0;
                    }
                }
            }
            Cone::Soc(n) => project_soc(v, n),
            Cone::Psd(n) => project_psd(v, n),
        }
    }

    /// Euclidean projection onto the dual cone `K*`, in place.
    ///
    /// Zero cone ↔ free space; the other three are self-dual.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn project_dual(&self, v: &mut [f64]) {
        match *self {
            Cone::Zero(_) => {} // dual of {0} is everything: projection is identity
            _ => self.project(v),
        }
    }

    /// Returns `true` if `v` lies in the cone up to tolerance `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn contains(&self, v: &[f64], tol: f64) -> bool {
        assert_eq!(v.len(), self.dim(), "cone membership: length mismatch");
        match *self {
            Cone::Zero(_) => v.iter().all(|x| x.abs() <= tol),
            Cone::NonNeg(_) => v.iter().all(|&x| x >= -tol),
            Cone::Soc(_) => {
                if v.is_empty() {
                    return true;
                }
                vec_ops::norm2(&v[1..]) <= v[0] + tol
            }
            Cone::Psd(_) => {
                let m = smat(v);
                match gfp_linalg::eigvalsh(&m) {
                    Ok(vals) => vals.first().map_or(true, |&l| l >= -tol),
                    Err(_) => false,
                }
            }
        }
    }
}

fn project_soc(v: &mut [f64], n: usize) {
    if n == 0 {
        return;
    }
    if n == 1 {
        if v[0] < 0.0 {
            v[0] = 0.0;
        }
        return;
    }
    let t = v[0];
    let unorm = vec_ops::norm2(&v[1..]);
    if unorm <= t {
        // inside the cone
    } else if unorm <= -t {
        // inside the polar cone: projection is the origin
        v.fill(0.0);
    } else {
        let scale = (t + unorm) / (2.0 * unorm);
        v[0] = (t + unorm) / 2.0;
        for u in v[1..].iter_mut() {
            *u *= scale;
        }
    }
}

/// Gershgorin screen for a symmetric matrix: `Some(true)` when every
/// disc lies in `λ ≥ 0` (provably PSD), `Some(false)` when every disc
/// lies in `λ ≤ 0` (provably NSD), `None` when inconclusive.
fn gershgorin_sign(m: &gfp_linalg::Mat) -> Option<bool> {
    let n = m.nrows();
    let mut all_psd = true;
    let mut all_nsd = true;
    for i in 0..n {
        let mut radius = 0.0;
        for (j, &mij) in m.row(i).iter().enumerate() {
            if j != i {
                radius += mij.abs();
            }
        }
        let d = m[(i, i)];
        if d - radius < 0.0 {
            all_psd = false;
        }
        if d + radius > 0.0 {
            all_nsd = false;
        }
        if !all_psd && !all_nsd {
            return None;
        }
    }
    if all_psd {
        Some(true)
    } else {
        Some(false)
    }
}

fn project_psd(v: &mut [f64], n: usize) {
    if n == 0 {
        return;
    }
    let timer = if telemetry::enabled() {
        Some(std::time::Instant::now())
    } else {
        None
    };
    let m = smat(v);
    // O(n²) Gershgorin screen before the O(n³) eigendecomposition:
    // a provably PSD block projects to itself, a provably NSD block
    // to the origin.
    match gershgorin_sign(&m) {
        Some(true) => {
            record_psd(timer, "gershgorin_psd");
            return;
        }
        Some(false) => {
            v.fill(0.0);
            record_psd(timer, "gershgorin_nsd");
            return;
        }
        None => {}
    }
    // Partial-spectrum fast path: the projection only needs one side
    // of the spectrum (whichever has fewer significant eigenvalues),
    // and `spectral_side` extracts exactly that side by tridiagonal
    // bisection + inverse iteration — skipping the O(n³) accumulation
    // of `Q` and the full QL sweep that dominate a dense `eigh`. The
    // Sturm counts certify the side is complete; any doubt (an
    // uncertified residual) falls through to the exact path.
    if n >= PSD_PARTIAL_MIN_N {
        if try_partial_psd(&m, v) {
            static PARTIAL_HIT: telemetry::CounterHandle =
                telemetry::CounterHandle::new("kernel.eigh_partial.hit");
            PARTIAL_HIT.add(1);
            record_psd(timer, "partial");
            return;
        }
        static PARTIAL_FALLBACK: telemetry::CounterHandle =
            telemetry::CounterHandle::new("kernel.eigh_partial.fallback");
        PARTIAL_FALLBACK.add(1);
    }
    let e = match eigh(&m) {
        Ok(e) => e,
        Err(_) => {
            // Poison the block instead of panicking: the solver's
            // divergence/finiteness guards detect the NaN iterate at
            // the next residual check and fail recoverably, which is
            // what the supervision layer needs (an eigh breakdown here
            // is either an injected fault or data so ill-conditioned
            // that any "projection" would be garbage anyway).
            v.fill(f64::NAN);
            record_psd(timer, "eigh_failed");
            return;
        }
    };
    // Eigenvalues ascend: negatives occupy a prefix, positives a
    // suffix. Reconstruct from whichever side is smaller:
    //   P = Σ_{λ>0} λ v vᵀ            (positive side), or
    //   P = M + Σ_{λ<0} (−λ) v vᵀ     (negative side).
    let nneg = e.values.iter().take_while(|&&l| l < 0.0).count();
    let npos = e.values.iter().rev().take_while(|&&l| l > 0.0).count();
    // Spectrum-shape counters: how much of each side the partial solver
    // would have had to enumerate at its truncation cut (the side it
    // resolves is the smaller one).
    if telemetry::enabled() {
        let scale = e.values[0].abs().max(e.values[n - 1].abs());
        let cut = PSD_PARTIAL_TOL * scale;
        let sig_neg = e.values.iter().filter(|&&l| l < -cut).count();
        let sig_pos = e.values.iter().filter(|&&l| l > cut).count();
        static NNEG_SUM: telemetry::CounterHandle =
            telemetry::CounterHandle::new("kernel.project_psd.nneg_sum");
        static NPOS_SUM: telemetry::CounterHandle =
            telemetry::CounterHandle::new("kernel.project_psd.npos_sum");
        NNEG_SUM.add(sig_neg as u64);
        NPOS_SUM.add(sig_pos as u64);
    }
    if npos == 0 {
        v.fill(0.0);
        record_psd(timer, "all_nonpos");
        return;
    }
    if nneg == 0 {
        record_psd(timer, "all_nonneg");
        return;
    }
    const DIRECT_MAX_N: usize = 32;
    let out = if n < DIRECT_MAX_N {
        // Small blocks: the banded panel kernel's setup cost exceeds
        // the O(n³) work, so accumulate the positive side directly.
        let mut out = gfp_linalg::Mat::zeros(n, n);
        for k in n - npos..n {
            let lam = e.values[k];
            for i in 0..n {
                let vik = e.vectors[(i, k)];
                if vik == 0.0 {
                    continue;
                }
                for j in 0..=i {
                    out[(i, j)] += lam * vik * e.vectors[(j, k)];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                out[(j, i)] = out[(i, j)];
            }
        }
        out
    } else if npos <= nneg {
        spectral_accumulate(&e.vectors, &e.values, n - npos..n, None)
    } else {
        let negated: Vec<f64> = e.values.iter().map(|&l| -l).collect();
        spectral_accumulate(&e.vectors, &negated, 0..nneg, Some(&m))
    };
    svec_into(&out, v);
    record_psd(timer, "eigh");
}

/// Block size from which the partial-spectrum projection is worth
/// attempting; below it the dense path is already cheap. ADMM's
/// Anderson acceleration engages from the same size, where the
/// projection dominates an iteration.
pub(crate) const PSD_PARTIAL_MIN_N: usize = 64;

/// Relative truncation cut for the partial path: eigenvalues inside
/// `±tol·scale` are treated as zero. Their contribution to the
/// projection is within the error already accepted from the certified
/// residuals, and without the cutoff a cluster of ~0 eigenvalues
/// (typical near ADMM convergence) would force the dense fallback on
/// every call.
const PSD_PARTIAL_TOL: f64 = 1e-9;

/// Attempts to project the PSD block via one side of the spectrum:
/// `spectral_side` picks whichever side of the cut has fewer
/// eigenvalues (Sturm counts make the choice exact) and certifies
/// every returned pair. Reconstruction uses the side it got:
///   P = Σ_{λ>cut} λ v vᵀ             (positive side), or
///   P = M + Σ_{λ<−cut} (−λ) v vᵀ     (negative side).
/// Returns `false` (leaving `v` untouched) whenever the side cannot
/// be certified — the caller then runs the dense path.
///
/// The decision is a pure function of the block data (never of global
/// adaptive state), so the projection's bits do not depend on the
/// worker count or on which projections ran before it.
fn try_partial_psd(m: &gfp_linalg::Mat, v: &mut [f64]) -> bool {
    let side = match spectral_side(m, PSD_PARTIAL_TOL) {
        Ok(Some(side)) => side,
        _ => return false,
    };
    let q = side.values.len();
    match side.kind {
        SideKind::Negative => {
            if q == 0 {
                // No eigenvalue below −cut: the block is PSD within
                // the truncation tolerance; projection is identity.
                return true;
            }
            let negated: Vec<f64> = side.values.iter().map(|&l| -l).collect();
            let out = spectral_accumulate(&side.vectors, &negated, 0..q, Some(m));
            svec_into(&out, v);
        }
        SideKind::Positive => {
            if q == 0 {
                // No eigenvalue above +cut: numerically NSD.
                v.fill(0.0);
                return true;
            }
            let out = spectral_accumulate(&side.vectors, &side.values, 0..q, None);
            svec_into(&out, v);
        }
    }
    true
}

/// Telemetry for one finished PSD projection, tagged by which path
/// resolved it.
fn record_psd(timer: Option<std::time::Instant>, path: &'static str) {
    let Some(t0) = timer else { return };
    // Hot site (every PSD block, every ADMM iteration): cached
    // handles, not registry probes.
    static CALLS: telemetry::CounterHandle =
        telemetry::CounterHandle::new("kernel.project_psd.calls");
    static MICROS: telemetry::CounterHandle =
        telemetry::CounterHandle::new("kernel.project_psd.micros");
    static WALL: telemetry::HistogramHandle =
        telemetry::HistogramHandle::new("kernel.project_psd.wall_micros");
    static GERSHGORIN_HITS: telemetry::CounterHandle =
        telemetry::CounterHandle::new("kernel.project_psd.gershgorin_hits");
    let micros = t0.elapsed().as_micros() as u64;
    CALLS.add(1);
    MICROS.add(micros);
    WALL.record(micros);
    if matches!(path, "gershgorin_psd" | "gershgorin_nsd") {
        GERSHGORIN_HITS.add(1);
    }
}

/// Projects a stacked slack vector onto the product of `cones`, block
/// by block, in place. PSD blocks may parallelize internally (the
/// bisection, reflector application and spectral reconstruction of the
/// partial path), bitwise identically at every worker count.
///
/// # Panics
///
/// Panics if `v.len()` differs from the total cone dimension.
pub(crate) fn project_product(cones: &[Cone], v: &mut [f64]) {
    assert_eq!(total_dim(cones), v.len(), "cone product dimension mismatch");
    let mut offset = 0;
    for cone in cones {
        let d = cone.dim();
        cone.project(&mut v[offset..offset + d]);
        offset += d;
    }
}

/// Total dimension of a product of cones.
pub(crate) fn total_dim(cones: &[Cone]) -> usize {
    cones.iter().map(Cone::dim).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_linalg::svec::svec;
    use gfp_linalg::Mat;

    #[test]
    fn zero_cone_projects_to_zero() {
        let mut v = vec![1.0, -2.0];
        Cone::Zero(2).project(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
        assert!(Cone::Zero(2).contains(&v, 0.0));
    }

    #[test]
    fn nonneg_projection_clamps() {
        let mut v = vec![1.0, -2.0, 0.0];
        Cone::NonNeg(3).project(&mut v);
        assert_eq!(v, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn soc_inside_unchanged() {
        let mut v = vec![5.0, 3.0, 4.0];
        Cone::Soc(3).project(&mut v);
        assert_eq!(v, vec![5.0, 3.0, 4.0]);
        assert!(Cone::Soc(3).contains(&v, 1e-12));
    }

    #[test]
    fn soc_polar_goes_to_origin() {
        let mut v = vec![-6.0, 3.0, 4.0];
        Cone::Soc(3).project(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn soc_boundary_projection() {
        let mut v = vec![0.0, 3.0, 4.0];
        Cone::Soc(3).project(&mut v);
        // After projection the point is on the cone boundary: t = ‖u‖.
        let t = v[0];
        let un = (v[1] * v[1] + v[2] * v[2]).sqrt();
        assert!((t - un).abs() < 1e-12);
        assert!((t - 2.5).abs() < 1e-12);
    }

    #[test]
    fn soc_projection_is_idempotent_and_nonexpansive() {
        let cases = [
            vec![1.0, 10.0, -3.0],
            vec![-0.5, 0.2, 0.1],
            vec![2.0, 0.0, 0.0],
        ];
        for c in &cases {
            let mut p1 = c.clone();
            Cone::Soc(3).project(&mut p1);
            let mut p2 = p1.clone();
            Cone::Soc(3).project(&mut p2);
            for (a, b) in p1.iter().zip(p2.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
            assert!(Cone::Soc(3).contains(&p1, 1e-12));
        }
    }

    #[test]
    fn psd_projection_clamps_negative_eigenvalues() {
        // A = diag(2, -3): projection is diag(2, 0).
        let a = Mat::from_diag(&[2.0, -3.0]);
        let mut v = svec(&a);
        Cone::Psd(2).project(&mut v);
        let p = smat(&v);
        assert!((p[(0, 0)] - 2.0).abs() < 1e-12);
        assert!(p[(1, 1)].abs() < 1e-12);
        assert!(p[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn psd_projection_keeps_psd_input() {
        let x = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]);
        let g = x.matmul(&x.transpose()); // PSD by construction
        let mut v = svec(&g);
        let orig = v.clone();
        Cone::Psd(2).project(&mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn psd_membership() {
        let a = Mat::from_diag(&[1.0, 0.0]);
        assert!(Cone::Psd(2).contains(&svec(&a), 1e-12));
        let b = Mat::from_diag(&[1.0, -0.1]);
        assert!(!Cone::Psd(2).contains(&svec(&b), 1e-3));
    }

    #[test]
    fn dual_projection_of_zero_cone_is_identity() {
        let mut v = vec![3.0, -4.0];
        Cone::Zero(2).project_dual(&mut v);
        assert_eq!(v, vec![3.0, -4.0]);
    }

    #[test]
    fn product_projection_respects_blocks() {
        let cones = [Cone::Zero(1), Cone::NonNeg(2), Cone::Soc(3)];
        let mut v = vec![9.0, -1.0, 2.0, -6.0, 3.0, 4.0];
        project_product(&cones, &mut v);
        assert_eq!(&v[..3], &[0.0, 0.0, 2.0]);
        assert_eq!(&v[3..], &[0.0, 0.0, 0.0]);
        assert_eq!(total_dim(&cones), 6);
    }

    #[test]
    fn dims() {
        assert_eq!(Cone::Psd(4).dim(), 10);
        assert_eq!(Cone::Soc(3).dim(), 3);
    }
}
