//! Safeguarded type-II Anderson acceleration of the ADMM iteration.
//!
//! One ADMM iteration is a fixed-point map `v ↦ g(v)` on the
//! projection input `v = s − y/ρ` (one entry per constraint row):
//! `s = Π_K(v)` and `y = ρ(s − v)` follow from `v`, the x-update reads
//! only `s` and `y`, and the iteration's next projection input is
//! `g(v)`. Anderson acceleration (Walker & Ni 2011; Zhang, O'Donoghue
//! & Boyd 2020) replaces `g(v)` by the combination of the last few
//! map outputs whose residuals `f = g(v) − v` cancel best:
//!
//! ```text
//! γ = argmin ‖f_k − ΔF γ‖² + λ‖γ‖²,    v_{k+1} = g(v_k) − ΔG γ,
//! ```
//!
//! with `ΔF`, `ΔG` the differences of consecutive residuals and map
//! outputs. The caller projects `v_{k+1}` in place of `g(v_k)`, so an
//! accelerated iteration costs one projection, like a plain one.
//!
//! * **History**: [`MEMORY`] difference columns in `f32`, allocated per
//!   solve and never stored beyond it. The Gram matrix `ΔFᵀΔF` gains
//!   one column per step and the right-hand side `ΔFᵀf` is updated
//!   from that column, so a step is two fused passes over the rows
//!   and a ≤5×5 Cholesky solve.
//! * **Safeguard**: an extrapolated point whose residual exceeds the
//!   residual of the plain step it was built from is discarded: the
//!   stored plain output `g(v_k)` is projected instead, the memory is
//!   cleared and `admm.aa_rejected` ticks.
//! * **Resets**: the memory is also cleared when the coefficients are
//!   non-finite or huge, and [`Anderson::restart`] clears it (and
//!   re-derives `v`) whenever `ρ` changes, because `g` depends on `ρ`.

use gfp_telemetry as telemetry;

/// Difference columns kept.
const MEMORY: usize = 5;

/// Tikhonov regularization `λ` of the normal equations, relative to
/// the trace of the Gram matrix: about the relative rounding of the
/// `f32` columns.
const REGULARIZATION: f64 = 1e-8;

/// Largest coefficient magnitude accepted. Past it the history is
/// nearly dependent and the extrapolation is rounding noise.
const MAX_COEF: f64 = 1e4;

/// Rows per block of the fused passes: a block of every vector stays
/// in L1 cache while the history columns sweep it.
const BLOCK: usize = 256;

static AA_REJECTED: telemetry::CounterHandle = telemetry::CounterHandle::new("admm.aa_rejected");

/// Anderson state of one ADMM solve (see the module docs).
pub(crate) struct Anderson {
    m: usize,
    /// The current projection input: the point whose projection is the
    /// iterate's `s`.
    v: Vec<f64>,
    /// Residual `g(v) − v` and output `g(v)` of the last evaluation the
    /// iteration continued from.
    f_prev: Vec<f64>,
    g_prev: Vec<f64>,
    /// `ΔF` and `ΔG` columns, `MEMORY` slots of `m` entries each.
    df: Vec<f32>,
    dg: Vec<f32>,
    /// `ΔFᵀΔF` and `ΔFᵀf_k` over the slots `0..len`.
    gram: [[f64; MEMORY]; MEMORY],
    rhs: [f64; MEMORY],
    len: usize,
    /// Slot the next column overwrites.
    head: usize,
    /// Whether `f_prev`/`g_prev` hold an evaluation of the current map.
    primed: bool,
    /// `‖f‖` of the plain step the current input was extrapolated
    /// from; `None` when the current input is a plain output.
    pending: Option<f64>,
}

impl Anderson {
    /// Starts from the iterate `(s, y)` at penalty `rho`.
    pub(crate) fn new(s: &[f64], y: &[f64], rho: f64) -> Self {
        let m = s.len();
        let mut aa = Anderson {
            m,
            v: vec![0.0; m],
            f_prev: vec![0.0; m],
            g_prev: vec![0.0; m],
            df: vec![0.0; MEMORY * m],
            dg: vec![0.0; MEMORY * m],
            gram: [[0.0; MEMORY]; MEMORY],
            rhs: [0.0; MEMORY],
            len: 0,
            head: 0,
            primed: false,
            pending: None,
        };
        aa.restart(s, y, rho);
        aa
    }

    /// Re-derives `v = s − y/ρ` from a plain iterate and forgets the
    /// history: called at the start and whenever `ρ` changes.
    pub(crate) fn restart(&mut self, s: &[f64], y: &[f64], rho: f64) {
        for ((v, &si), &yi) in self.v.iter_mut().zip(s).zip(y) {
            *v = si - yi / rho;
        }
        self.clear();
        self.primed = false;
        self.pending = None;
    }

    fn clear(&mut self) {
        self.len = 0;
        self.head = 0;
    }

    /// One accelerated step. On entry `w` holds `g(v)` for the current
    /// input `v`; on exit it holds the next point to project (the
    /// extrapolated point, `g(v)` itself, or the stored plain output
    /// after a safeguard revert). `extrapolate = false` forces a plain
    /// output but still records the evaluation.
    pub(crate) fn step(&mut self, w: &mut [f64], extrapolate: bool) {
        let fnorm = if self.primed {
            self.push_column(w)
        } else {
            0.0
        };
        if let Some(plain_norm) = self.pending.take() {
            if fnorm > plain_norm {
                // The extrapolated point did worse than the plain step
                // it replaced: continue from that step's output. `NaN`
                // never compares greater, so a corrupted evaluation is
                // carried forward to the divergence guard, not masked.
                AA_REJECTED.add(1);
                self.clear();
                w.copy_from_slice(&self.g_prev);
                self.v.copy_from_slice(&self.g_prev);
                return;
            }
        }
        let gamma = if extrapolate {
            self.coefficients()
        } else {
            None
        };
        let k = if gamma.is_some() { self.len } else { 0 };
        let gamma = gamma.unwrap_or([0.0; MEMORY]);
        let m = self.m;
        for start in (0..m).step_by(BLOCK) {
            let end = (start + BLOCK).min(m);
            let wb = &mut w[start..end];
            let (fp, gp) = (&mut self.f_prev[start..end], &mut self.g_prev[start..end]);
            for (((fp, gp), &v), &g) in fp
                .iter_mut()
                .zip(gp)
                .zip(&self.v[start..end])
                .zip(wb.iter())
            {
                *fp = g - v;
                *gp = g;
            }
            for (i, &c) in gamma[..k].iter().enumerate() {
                for (t, &dg) in wb.iter_mut().zip(&self.dg[i * m + start..i * m + end]) {
                    *t -= c * f64::from(dg);
                }
            }
            self.v[start..end].copy_from_slice(wb);
        }
        self.primed = true;
        if k > 0 {
            self.pending = Some(fnorm);
        }
    }

    /// Undoes a pending extrapolation: writes the plain output it
    /// replaced into `s` (which the caller then projects) and returns
    /// `true`, or returns `false` when the current input is plain.
    pub(crate) fn take_plain(&mut self, s: &mut [f64]) -> bool {
        if self.pending.take().is_none() {
            return false;
        }
        s.copy_from_slice(&self.g_prev);
        self.v.copy_from_slice(&self.g_prev);
        true
    }

    /// The dual iterate `y = ρ(s − v)` of the projected `s = Π_K(v)`.
    pub(crate) fn dual_into(&self, s: &[f64], rho: f64, y: &mut [f64]) {
        for ((yi, &si), &vi) in y.iter_mut().zip(s).zip(&self.v) {
            *yi = rho * (si - vi);
        }
    }

    /// Records the evaluation `w = g(v)` as a new difference column
    /// (overwriting the oldest when full), updates the Gram matrix and
    /// the right-hand side, and returns `‖g(v) − v‖`. One pass over
    /// the rows, block by block.
    fn push_column(&mut self, w: &[f64]) -> f64 {
        let m = self.m;
        let slot = self.head;
        let mut dots = [0.0; MEMORY];
        let (mut fnorm2, mut self_dot, mut rhs_new) = (0.0, 0.0, 0.0);
        let (mut f, mut d) = ([0.0; BLOCK], [0.0; BLOCK]);
        for start in (0..m).step_by(BLOCK) {
            let end = (start + BLOCK).min(m);
            let n = end - start;
            let (f, d) = (&mut f[..n], &mut d[..n]);
            let (wb, vb) = (&w[start..end], &self.v[start..end]);
            let (fp, gp) = (&self.f_prev[start..end], &self.g_prev[start..end]);
            let col = &mut self.df[slot * m + start..slot * m + end];
            let gcol = &mut self.dg[slot * m + start..slot * m + end];
            for l in 0..n {
                f[l] = wb[l] - vb[l];
                let d32 = (f[l] - fp[l]) as f32;
                col[l] = d32;
                gcol[l] = (wb[l] - gp[l]) as f32;
                d[l] = f64::from(d32);
            }
            fnorm2 += dot(f, f);
            self_dot += dot(d, d);
            rhs_new += dot(d, f);
            for (i, acc) in dots.iter_mut().enumerate().take(self.len) {
                if i != slot {
                    *acc += dot(d, &self.df[i * m + start..i * m + end]);
                }
            }
        }
        // ΔF_iᵀf_k = ΔF_iᵀf_{k−1} + ΔF_iᵀΔF_new for the kept columns.
        for (i, &dot) in dots.iter().enumerate().take(self.len) {
            if i != slot {
                self.gram[i][slot] = dot;
                self.gram[slot][i] = dot;
                self.rhs[i] += dot;
            }
        }
        self.gram[slot][slot] = self_dot;
        self.rhs[slot] = rhs_new;
        self.head = (slot + 1) % MEMORY;
        self.len = (self.len + 1).min(MEMORY);
        fnorm2.sqrt()
    }

    /// Solves `(ΔFᵀΔF + λI) γ = ΔFᵀf` by Cholesky. Clears the memory
    /// and returns `None` when it is empty, the system is not positive
    /// definite, or a coefficient is non-finite or huge.
    fn coefficients(&mut self) -> Option<[f64; MEMORY]> {
        let k = self.len;
        if k == 0 {
            return None;
        }
        let trace: f64 = (0..k).map(|i| self.gram[i][i]).sum();
        let reg = REGULARIZATION * trace;
        let mut l = [[0.0; MEMORY]; MEMORY];
        for j in 0..k {
            for i in j..k {
                let mut t = self.gram[i][j] + if i == j { reg } else { 0.0 };
                for (a, b) in l[i][..j].iter().zip(&l[j][..j]) {
                    t -= a * b;
                }
                if i == j {
                    if t.is_nan() || t <= 0.0 {
                        self.clear();
                        return None;
                    }
                    l[j][j] = t.sqrt();
                } else {
                    l[i][j] = t / l[j][j];
                }
            }
        }
        let mut g = self.rhs;
        for i in 0..k {
            for p in 0..i {
                g[i] -= l[i][p] * g[p];
            }
            g[i] /= l[i][i];
        }
        for i in (0..k).rev() {
            for p in i + 1..k {
                g[i] -= l[p][i] * g[p];
            }
            g[i] /= l[i][i];
        }
        if g[..k].iter().all(|c| c.is_finite() && c.abs() <= MAX_COEF) {
            Some(g)
        } else {
            self.clear();
            None
        }
    }
}

/// `aᵀb` over four interleaved partial sums (vectorizable; the order
/// is fixed, so the result is the same on every run).
fn dot<T: Copy + Into<f64>>(a: &[f64], b: &[T]) -> f64 {
    let (ac, bc) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .map(|(&x, &y)| x * y.into())
        .sum();
    let mut acc = [0.0; 4];
    for (x, y) in ac.zip(bc) {
        for l in 0..4 {
            acc[l] += x[l] * y[l].into();
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear contraction `g(v) = v − (D v − c)/10` with `D` on
    /// `[1, 9.25]`: plain iteration gains at most 10% per step.
    fn g(v: &[f64]) -> Vec<f64> {
        v.iter()
            .enumerate()
            .map(|(i, &vi)| vi - 0.1 * ((1.0 + 0.75 * i as f64) * vi - (i as f64).cos()))
            .collect()
    }

    /// Runs `k` steps of `aa` on `g` from its current input; returns
    /// the last point it chose.
    fn run(aa: &mut Anderson, k: usize) -> Vec<f64> {
        let mut w = Vec::new();
        for _ in 0..k {
            w = g(&aa.v);
            aa.step(&mut w, true);
        }
        w
    }

    #[test]
    fn a_rho_change_clears_the_memory() {
        let n = 12;
        let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = vec![0.5; n];
        let mut aa = Anderson::new(&s, &y, 1.0);
        run(&mut aa, 4);
        assert_eq!(aa.len, 3, "three difference columns after four evaluations");
        assert!(aa.pending.is_some(), "a filled memory extrapolates");

        aa.restart(&s, &y, 2.0);
        assert_eq!((aa.len, aa.primed, aa.pending), (0, false, None));
        for (v, (si, yi)) in aa.v.iter().zip(s.iter().zip(&y)) {
            assert_eq!(
                v.to_bits(),
                (si - yi / 2.0).to_bits(),
                "v = s − y/ρ at the new ρ"
            );
        }
        // The first step after the change is plain: no column from the
        // old map reaches the new one.
        let plain = g(&aa.v);
        let mut w = plain.clone();
        aa.step(&mut w, true);
        assert_eq!(w, plain);
        assert_eq!((aa.len, aa.pending), (0, None));
        // The second forms one column from the new map only.
        run(&mut aa, 1);
        assert_eq!(aa.len, 1);
    }

    #[test]
    fn extrapolation_beats_the_plain_map_on_a_linear_contraction() {
        let n = 12;
        let zero = vec![0.0; n];
        let residual = |v: &[f64]| {
            let gv = g(v);
            gv.iter()
                .zip(v)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let mut aa = Anderson::new(&zero, &zero, 1.0);
        run(&mut aa, 20);
        let mut plain = zero.clone();
        for _ in 0..20 {
            plain = g(&plain);
        }
        assert!(
            residual(&aa.v) < 1e-2 * residual(&plain),
            "accelerated {:e} vs plain {:e}",
            residual(&aa.v),
            residual(&plain)
        );
    }

    #[test]
    fn a_worse_extrapolated_point_reverts_to_the_plain_output() {
        let n = 12;
        let zero = vec![0.0; n];
        let mut aa = Anderson::new(&zero, &zero, 1.0);
        run(&mut aa, 3);
        let plain_output = aa.g_prev.clone();
        assert!(aa.pending.is_some());
        // Report a far-off evaluation of the extrapolated point.
        let mut w: Vec<f64> = aa.v.iter().map(|v| v + 1e3).collect();
        aa.step(&mut w, true);
        assert_eq!(
            w, plain_output,
            "the revert projects the stored plain output"
        );
        assert_eq!(aa.v, plain_output);
        assert_eq!((aa.len, aa.pending), (0, None));
    }

    #[test]
    fn a_nan_evaluation_is_not_masked_by_the_safeguard() {
        let n = 12;
        let zero = vec![0.0; n];
        let mut aa = Anderson::new(&zero, &zero, 1.0);
        run(&mut aa, 3);
        assert!(aa.pending.is_some());
        let mut w = vec![f64::NAN; n];
        aa.step(&mut w, true);
        assert!(
            w.iter().all(|x| x.is_nan()),
            "NaN must reach the divergence guard"
        );
        assert_eq!(aa.len, 0, "non-finite coefficients clear the memory");
    }
}
