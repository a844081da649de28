//! Problem capture: from a [`Netlist`] to the data the SDP consumes.

use gfp_linalg::Mat;
use gfp_netlist::{adjacency, Netlist, Outline};

use crate::neighbors::all_pairs;
use crate::FloorplanError;

/// Options controlling how a netlist becomes an SDP instance.
#[derive(Debug, Clone)]
pub struct ProblemOptions {
    /// Fixed outline; when present, module centers are box-bounded
    /// inside it (paper Section IV-B0b).
    pub outline: Option<Outline>,
    /// Maximum module aspect ratio `k` for the non-square distance
    /// constraints (Eq. 25–26). `1.0` reproduces the basic circle
    /// model of Eq. (11); the paper's experiments use `3.0`.
    pub aspect_limit: f64,
    /// Include boundary-pin (I/O pad) terms in the objective (Eq. 21).
    pub use_pads: bool,
    /// Fraction of each module's minimum half-width kept clear of the
    /// outline edge when bounding centers (0 disables margins).
    pub margin_factor: f64,
}

impl Default for ProblemOptions {
    fn default() -> Self {
        ProblemOptions {
            outline: None,
            aspect_limit: 1.0,
            use_pads: true,
            margin_factor: 1.0,
        }
    }
}

impl ProblemOptions {
    /// The configuration used for the paper's main experiments:
    /// aspect limit 3, pads on, the given outline.
    pub fn paper(outline: Outline) -> Self {
        ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            use_pads: true,
            margin_factor: 1.0,
        }
    }
}

/// A fully-captured global floorplanning instance.
///
/// Owns everything the solver needs: areas, radii, connectivity
/// matrices, pad locations, PPM constraints and the outline.
#[derive(Debug, Clone)]
pub struct GlobalFloorplanProblem {
    /// Number of movable + fixed modules `n`.
    pub n: usize,
    /// Minimum area `s_i` per module.
    pub areas: Vec<f64>,
    /// Circle radii `r_i = √(k·s_i/4)` (already scaled by the aspect
    /// limit per Section IV-B0d).
    pub radii: Vec<f64>,
    /// Module-module connectivity `A` (clique model).
    pub a: Mat,
    /// Module-pad connectivity `Ā` (n × m).
    pub pad_a: Mat,
    /// Pad locations (m entries).
    pub pad_positions: Vec<(f64, f64)>,
    /// Pre-placed module centers: `fixed[i] = Some((x, y))`.
    pub fixed: Vec<Option<(f64, f64)>>,
    /// Optional fixed outline.
    pub outline: Option<Outline>,
    /// Aspect limit `k`.
    pub aspect_limit: f64,
    /// Outline margin factor.
    pub margin_factor: f64,
    /// Hyper-edges as `(weight, module indices)` with at least two
    /// distinct module pins — consumed by the hyper-edge enhancement
    /// (Section IV-B0a).
    pub hyperedges: Vec<(f64, Vec<usize>)>,
    /// User-supplied *maximum* distance-square constraints
    /// `D_ij ≤ bound` — the paper's "controllable area constraint"
    /// (Section IV-D), e.g. timing requirements between blocks.
    pub max_distance: Vec<(usize, usize, f64)>,
    /// User-supplied *minimum* distance-square overrides `D_ij ≥ bound`
    /// that strengthen the default area constraint for chosen pairs.
    pub min_distance: Vec<(usize, usize, f64)>,
}

impl GlobalFloorplanProblem {
    /// Captures a netlist into an SDP-ready problem.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::InvalidProblem`] for empty netlists,
    /// an aspect limit below 1, or fixed modules outside the outline.
    pub fn from_netlist(
        netlist: &Netlist,
        options: &ProblemOptions,
    ) -> Result<Self, FloorplanError> {
        let n = netlist.num_modules();
        if n < 2 {
            return Err(FloorplanError::InvalidProblem {
                reason: format!("need at least 2 modules, got {n}"),
            });
        }
        if options.aspect_limit < 1.0 || !options.aspect_limit.is_finite() {
            return Err(FloorplanError::InvalidProblem {
                reason: format!("aspect limit must be >= 1, got {}", options.aspect_limit),
            });
        }
        let k = options.aspect_limit;
        let areas: Vec<f64> = netlist.modules().iter().map(|m| m.area).collect();
        let radii: Vec<f64> = areas.iter().map(|s| (k * s / 4.0).sqrt()).collect();
        let fixed: Vec<Option<(f64, f64)>> =
            netlist.modules().iter().map(|m| m.fixed).collect();
        if let Some(outline) = &options.outline {
            for (i, f) in fixed.iter().enumerate() {
                if let Some((x, y)) = f {
                    if !outline.contains(*x, *y) {
                        return Err(FloorplanError::InvalidProblem {
                            reason: format!(
                                "fixed module {i} at ({x}, {y}) lies outside the outline"
                            ),
                        });
                    }
                }
            }
        }
        let a = adjacency::module_adjacency(netlist);
        let (pad_a, pad_positions) = if options.use_pads {
            (
                adjacency::pad_adjacency(netlist),
                netlist.pads().iter().map(|p| (p.x, p.y)).collect(),
            )
        } else {
            (Mat::zeros(n, 0), Vec::new())
        };
        let mut hyperedges = Vec::new();
        for net in netlist.nets() {
            let mut mods: Vec<usize> = net.module_pins().collect();
            mods.sort_unstable();
            mods.dedup();
            if mods.len() >= 2 {
                hyperedges.push((net.weight, mods));
            }
        }
        Ok(GlobalFloorplanProblem {
            n,
            areas,
            radii,
            a,
            pad_a,
            pad_positions,
            fixed,
            outline: options.outline,
            aspect_limit: k,
            margin_factor: options.margin_factor,
            hyperedges,
            max_distance: Vec::new(),
            min_distance: Vec::new(),
        })
    }

    /// Adds a maximum-distance constraint `‖x_i − x_j‖² ≤ bound`
    /// (Section IV-D: direct distance control, e.g. a timing path).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, `i == j`, or `bound <= 0`.
    pub fn add_max_distance(&mut self, i: usize, j: usize, bound: f64) -> &mut Self {
        assert!(i < self.n && j < self.n && i != j, "bad module pair");
        assert!(bound > 0.0 && bound.is_finite(), "bound must be positive");
        self.max_distance.push((i.min(j), i.max(j), bound));
        self
    }

    /// Strengthens the minimum-distance constraint of a pair to
    /// `‖x_i − x_j‖² ≥ bound` (keep-out control).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, `i == j`, or `bound <= 0`.
    pub fn add_min_distance(&mut self, i: usize, j: usize, bound: f64) -> &mut Self {
        assert!(i < self.n && j < self.n && i != j, "bad module pair");
        assert!(bound > 0.0 && bound.is_finite(), "bound must be positive");
        self.min_distance.push((i.min(j), i.max(j), bound));
        self
    }

    /// Total module area `Σ s_i`.
    pub fn total_area(&self) -> f64 {
        self.areas.iter().sum()
    }

    /// Characteristic length `L = √(Σ s_i)` used for normalization.
    pub fn length_scale(&self) -> f64 {
        self.total_area().sqrt()
    }

    /// Returns the problem rescaled to unit length (areas by `1/L²`,
    /// all coordinates and radii by `1/L`).
    ///
    /// The lifted matrix `Z` of the normalized problem has entries of
    /// order one across all blocks, which the ADMM backend needs to
    /// converge (its cone projections cannot rescale individual
    /// entries). Positions map back via `x · L`.
    pub fn normalized(&self) -> GlobalFloorplanProblem {
        let l = self.length_scale();
        let mut out = self.clone();
        for a in &mut out.areas {
            *a /= l * l;
        }
        for r in &mut out.radii {
            *r /= l;
        }
        for p in &mut out.pad_positions {
            p.0 /= l;
            p.1 /= l;
        }
        for f in out.fixed.iter_mut().flatten() {
            f.0 /= l;
            f.1 /= l;
        }
        if let Some(o) = &self.outline {
            out.outline = Some(gfp_netlist::Outline::new(o.width / l, o.height / l));
        }
        for c in out.max_distance.iter_mut().chain(out.min_distance.iter_mut()) {
            c.2 /= l * l;
        }
        out
    }

    /// Whether any module is pre-placed.
    pub fn has_fixed_modules(&self) -> bool {
        self.fixed.iter().any(Option::is_some)
    }

    /// Whether pad objective terms are present (pads exist and at
    /// least one module connects to one).
    pub fn has_pads(&self) -> bool {
        if self.pad_positions.is_empty() {
            return false;
        }
        for i in 0..self.n {
            for j in 0..self.pad_positions.len() {
                if self.pad_a[(i, j)] != 0.0 {
                    return true;
                }
            }
        }
        false
    }

    /// Pairwise distance-square lower bounds `rhs_ij` (Eq. 11 / 26)
    /// for the *static* aspect configuration, given the connectivity
    /// matrix in effect (`a_eff`, which the enhancements may reweight)
    /// and a pair plan (sorted `(i, j)` with `i < j`, such as
    /// [`crate::neighbors::all_pairs`] or
    /// [`crate::neighbors::neighbor_pairs`]). `out[k]` is the bound for
    /// `pairs[k]`. User `min_distance` overrides strengthen the bound
    /// of every planned pair they name.
    pub fn distance_bounds(&self, a_eff: &Mat, pairs: &[(usize, usize)]) -> Vec<f64> {
        let n = self.n;
        let k = self.aspect_limit;
        let deg: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a_eff[(i, j)]).sum())
            .collect();
        let k_pair = |i: usize, j: usize| -> f64 {
            if deg[i] <= 0.0 {
                return k;
            }
            (a_eff[(i, j)] / deg[i]) * (k - 1.0) + 1.0
        };
        let mut out = Vec::with_capacity(pairs.len());
        for &(i, j) in pairs {
            debug_assert!(i < j && j < n, "bad pair ({i}, {j})");
            let (ri, rj) = (self.radii[i], self.radii[j]);
            let bound = if k == 1.0 {
                (ri + rj) * (ri + rj)
            } else {
                let kij = k_pair(i, j);
                let kji = k_pair(j, i);
                let b1 = rj - ri + 2.0 * ri / kij;
                let b2 = ri - rj + 2.0 * rj / kji;
                (b1 * b1).max(b2 * b2)
            };
            out.push(bound);
        }
        // User minimum-distance overrides strengthen the defaults; the
        // sparsifier always plans these pairs, so the lookup succeeds.
        for &(i, j, b) in &self.min_distance {
            if let Ok(pos) = pairs.binary_search(&(i, j)) {
                if b > out[pos] {
                    out[pos] = b;
                }
            }
        }
        out
    }

    /// Center-coordinate bounds inside the outline for module `i`,
    /// returned as `(lo_x, hi_x, lo_y, hi_y)`; `None` without an
    /// outline.
    pub fn center_bounds(&self, i: usize) -> Option<(f64, f64, f64, f64)> {
        let outline = self.outline.as_ref()?;
        // Margin: half of the narrowest legal width of the module.
        let min_side = (self.areas[i] / self.aspect_limit).sqrt();
        let margin = (self.margin_factor * min_side / 2.0)
            .min(0.45 * outline.width)
            .min(0.45 * outline.height);
        Some((
            margin,
            outline.width - margin,
            margin,
            outline.height - margin,
        ))
    }

    /// A spread-out strictly feasible layout: modules on a circle whose
    /// circumference comfortably exceeds the sum of diameters. Used as
    /// the IPM phase-0 start and as a deterministic initial layout.
    pub fn spread_positions(&self) -> Vec<(f64, f64)> {
        let n = self.n;
        let sum_diam: f64 = self.radii.iter().map(|r| 2.0 * r).sum();
        let mut radius = 1.3 * sum_diam / (2.0 * std::f64::consts::PI) + self.radii[0];
        let (cx, cy) = match &self.outline {
            Some(o) => o.center(),
            None => (0.0, 0.0),
        };
        let layout = |radius: f64| -> Vec<(f64, f64)> {
            (0..n)
                .map(|i| {
                    let theta = 2.0 * std::f64::consts::PI * (i as f64) / (n as f64);
                    match self.fixed[i] {
                        Some(p) => p,
                        None => (cx + radius * theta.cos(), cy + radius * theta.sin()),
                    }
                })
                .collect()
        };
        let pairs = all_pairs(n);
        let bounds = self.distance_bounds(&self.a, &pairs);
        // Grow the circle until every movable pair clears its bound
        // with 10 % margin (fixed modules are respected as-is).
        for _ in 0..60 {
            let pos = layout(radius);
            let crowded = pairs.iter().zip(&bounds).any(|(&(i, j), &bound)| {
                let d2 = (pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2);
                self.fixed[i].is_none() && self.fixed[j].is_none() && d2 <= 1.1 * bound
            });
            if !crowded {
                return pos;
            }
            radius *= 1.4;
        }
        layout(radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_netlist::{suite, Module, Net, Netlist, PinRef};

    #[test]
    fn captures_benchmark() {
        let b = suite::gsrc_n10();
        let p = GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default())
            .unwrap();
        assert_eq!(p.n, 10);
        assert_eq!(p.radii.len(), 10);
        // Radii follow r = sqrt(s/4) with k = 1.
        for (r, s) in p.radii.iter().zip(p.areas.iter()) {
            assert!((r - (s / 4.0).sqrt()).abs() < 1e-12);
        }
        assert!(p.has_pads());
        assert!(!p.has_fixed_modules());
    }

    #[test]
    fn aspect_limit_scales_radii() {
        let b = suite::gsrc_n10();
        let opts = ProblemOptions {
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        };
        let p = GlobalFloorplanProblem::from_netlist(&b.netlist, &opts).unwrap();
        for (r, s) in p.radii.iter().zip(p.areas.iter()) {
            assert!((r - (3.0 * s / 4.0).sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn distance_bounds_reduce_with_aspect_limit() {
        // With k = 1 bound is (ri + rj)^2; with k = 3 bounds shrink
        // (modules may pack closer in one dimension).
        let b = suite::gsrc_n10();
        let p1 = GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default())
            .unwrap();
        let bounds1 = p1.distance_bounds(&p1.a, &all_pairs(10));
        for (idx, (i, j)) in all_pairs(10).into_iter().enumerate() {
            let expect = (p1.radii[i] + p1.radii[j]).powi(2);
            assert!((bounds1[idx] - expect).abs() < 1e-9);
        }
        let opts = ProblemOptions {
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        };
        let p3 = GlobalFloorplanProblem::from_netlist(&b.netlist, &opts).unwrap();
        let bounds3 = p3.distance_bounds(&p3.a, &all_pairs(10));
        // k=3 radii are sqrt(3) larger, but strongly-connected pairs
        // may approach much closer than (ri + rj)^2.
        for (idx, (i, j)) in all_pairs(10).into_iter().enumerate() {
            let hard = (p3.radii[i] + p3.radii[j]).powi(2);
            assert!(bounds3[idx] <= hard + 1e-9, "pair ({i},{j})");
        }
    }

    #[test]
    fn kij_upper_bounded_by_k() {
        // k_ij = A_ij/deg_i (k-1) + 1 is in [1, k].
        let b = suite::gsrc_n30();
        let opts = ProblemOptions {
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        };
        let p = GlobalFloorplanProblem::from_netlist(&b.netlist, &opts).unwrap();
        let bounds = p.distance_bounds(&p.a, &all_pairs(30));
        // Every bound must be at least the k_ij = k extreme:
        for (idx, (i, j)) in all_pairs(30).into_iter().enumerate() {
            let (ri, rj) = (p.radii[i], p.radii[j]);
            let loosest = {
                let b1 = rj - ri + 2.0 * ri / 3.0;
                let b2 = ri - rj + 2.0 * rj / 3.0;
                (b1 * b1).max(b2 * b2)
            };
            assert!(bounds[idx] >= loosest - 1e-9, "pair ({i},{j})");
        }
    }

    #[test]
    fn rejects_tiny_and_bad_aspect() {
        let nl = Netlist::new(vec![Module::new("solo", 1.0)], vec![], vec![]).unwrap();
        assert!(GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).is_err());
        let b = suite::gsrc_n10();
        let opts = ProblemOptions {
            aspect_limit: 0.5,
            ..ProblemOptions::default()
        };
        assert!(GlobalFloorplanProblem::from_netlist(&b.netlist, &opts).is_err());
    }

    #[test]
    fn rejects_fixed_module_outside_outline() {
        let nl = Netlist::new(
            vec![
                Module::fixed("f", 4.0, -100.0, 0.0),
                Module::new("m", 4.0),
            ],
            vec![],
            vec![Net::new("n", vec![PinRef::Module(0), PinRef::Module(1)])],
        )
        .unwrap();
        let opts = ProblemOptions {
            outline: Some(Outline::new(10.0, 10.0)),
            ..ProblemOptions::default()
        };
        assert!(GlobalFloorplanProblem::from_netlist(&nl, &opts).is_err());
    }

    #[test]
    fn spread_positions_satisfy_distance_bounds() {
        let b = suite::gsrc_n10();
        let p = GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default())
            .unwrap();
        let pos = p.spread_positions();
        let bounds = p.distance_bounds(&p.a, &all_pairs(10));
        for (idx, (i, j)) in all_pairs(10).into_iter().enumerate() {
            let d2 = (pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2);
            assert!(
                d2 > bounds[idx],
                "pair ({i},{j}): d2 {d2} <= bound {}",
                bounds[idx]
            );
        }
    }

    #[test]
    fn center_bounds_need_outline() {
        let b = suite::gsrc_n10();
        let p = GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default())
            .unwrap();
        assert!(p.center_bounds(0).is_none());
        let opts = ProblemOptions {
            outline: Some(b.outline(1.0)),
            ..ProblemOptions::default()
        };
        let p2 = GlobalFloorplanProblem::from_netlist(&b.netlist, &opts).unwrap();
        let (lx, hx, ly, hy) = p2.center_bounds(0).unwrap();
        assert!(lx > 0.0 && hx < b.outline(1.0).width && ly > 0.0 && hy < b.outline(1.0).height);
        assert!(lx < hx && ly < hy);
    }
}
