//! Ruiz equilibration for cone programs.
//!
//! Rescales `A <- D A E`, `b <- D b`, `c <- E c` so that row and column
//! infinity norms approach 1, which markedly improves ADMM convergence
//! on badly scaled floorplanning instances (areas span orders of
//! magnitude). Row scale factors are kept **uniform within each SOC
//! and PSD block** so that the scaled slack stays in the same cone
//! (cones are invariant under uniform positive scaling only).

use gfp_linalg::sparse::CsrMat;

use crate::cone::Cone;

/// Diagonal scaling computed by [`equilibrate`].
#[derive(Debug, Clone)]
pub(crate) struct Equilibration {
    /// Row scaling `D` (length = rows of `A`).
    pub d: Vec<f64>,
    /// Column scaling `E` (length = columns of `A`).
    pub e: Vec<f64>,
}

impl Equilibration {
    /// The identity scaling, where the Ruiz loop starts.
    pub fn identity(rows: usize, cols: usize) -> Self {
        Equilibration {
            d: vec![1.0; rows],
            e: vec![1.0; cols],
        }
    }

    /// Maps a scaled primal `x̃` back to the original `x = E x̃`.
    pub fn unscale_x(&self, x: &mut [f64]) {
        for (xi, &ei) in x.iter_mut().zip(self.e.iter()) {
            *xi *= ei;
        }
    }

    /// Maps a scaled slack `s̃` back to the original `s = D⁻¹ s̃`.
    pub fn unscale_s(&self, s: &mut [f64]) {
        for (si, &di) in s.iter_mut().zip(self.d.iter()) {
            *si /= di;
        }
    }

    /// Maps a scaled dual `ỹ` back to the original `y = D ỹ`.
    pub fn unscale_y(&self, y: &mut [f64]) {
        for (yi, &di) in y.iter_mut().zip(self.d.iter()) {
            *yi *= di;
        }
    }
}

/// Runs `iters` rounds of Ruiz equilibration in place, returning the
/// accumulated scaling.
pub(crate) fn equilibrate(
    a: &mut CsrMat,
    b: &mut [f64],
    c: &mut [f64],
    cones: &[Cone],
    iters: usize,
) -> Equilibration {
    let rows = a.nrows();
    let cols = a.ncols();
    let mut eq = Equilibration::identity(rows, cols);
    for _ in 0..iters {
        let mut dr = a.row_norms_inf();
        uniformize_blocks(&mut dr, cones);
        for v in dr.iter_mut() {
            *v = if *v > 0.0 { 1.0 / v.sqrt() } else { 1.0 };
        }
        let mut dc = a.col_norms_inf();
        for v in dc.iter_mut() {
            *v = if *v > 0.0 { 1.0 / v.sqrt() } else { 1.0 };
        }
        a.scale_rows_cols(&dr, &dc);
        for (acc, &v) in eq.d.iter_mut().zip(dr.iter()) {
            *acc *= v;
        }
        for (acc, &v) in eq.e.iter_mut().zip(dc.iter()) {
            *acc *= v;
        }
    }
    for (bi, &di) in b.iter_mut().zip(eq.d.iter()) {
        *bi *= di;
    }
    for (ci, &ei) in c.iter_mut().zip(eq.e.iter()) {
        *ci *= ei;
    }
    eq
}

/// Replaces per-row norms by the block maximum inside SOC/PSD blocks so
/// that those blocks receive a uniform scale factor.
fn uniformize_blocks(norms: &mut [f64], cones: &[Cone]) {
    let mut offset = 0;
    for cone in cones {
        let d = cone.dim();
        match cone {
            Cone::Soc(_) | Cone::Psd(_) => {
                let m = norms[offset..offset + d]
                    .iter()
                    .fold(0.0_f64, |acc, v| acc.max(*v));
                for v in norms[offset..offset + d].iter_mut() {
                    *v = m;
                }
            }
            Cone::Zero(_) | Cone::NonNeg(_) => {}
        }
        offset += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equilibration_reduces_norm_spread() {
        // Badly scaled 2x2 system.
        let mut a = CsrMat::from_triplets(2, 2, &[(0, 0, 1e4), (0, 1, 1.0), (1, 1, 1e-3)]);
        let mut b = vec![1e4, 1e-3];
        let mut c = vec![1.0, 1.0];
        let cones = [Cone::NonNeg(2)];
        let _eq = equilibrate(&mut a, &mut b, &mut c, &cones, 10);
        let rn = a.row_norms_inf();
        let cn = a.col_norms_inf();
        for v in rn.iter().chain(cn.iter()) {
            assert!(*v > 0.2 && *v < 5.0, "norm {v} not equilibrated");
        }
    }

    #[test]
    fn soc_block_rows_share_scale() {
        let mut a = CsrMat::from_triplets(3, 1, &[(0, 0, 100.0), (1, 0, 1.0), (2, 0, 0.01)]);
        let mut b = vec![0.0; 3];
        let mut c = vec![1.0];
        let cones = [Cone::Soc(3)];
        let eq = equilibrate(&mut a, &mut b, &mut c, &cones, 5);
        assert!((eq.d[0] - eq.d[1]).abs() < 1e-12);
        assert!((eq.d[1] - eq.d[2]).abs() < 1e-12);
    }

    #[test]
    fn unscale_roundtrip_identity() {
        let eq = Equilibration::identity(2, 2);
        let mut x = vec![1.0, 2.0];
        eq.unscale_x(&mut x);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn scaled_problem_solution_maps_back() {
        // Hand-check: x solves original iff x̃ = E⁻¹x solves scaled.
        let mut a = CsrMat::from_triplets(1, 1, &[(0, 0, 4.0)]);
        let mut b = vec![8.0];
        let mut c = vec![1.0];
        let eq = equilibrate(&mut a, &mut b, &mut c, &[Cone::Zero(1)], 3);
        // Scaled system: ã x̃ = b̃ with solution x̃; then x = E x̃ should be 2.
        let atil = a.to_dense()[(0, 0)];
        let xtil = b[0] / atil;
        let mut x = vec![xtil];
        eq.unscale_x(&mut x);
        assert!((x[0] - 2.0).abs() < 1e-12);
    }
}
