//! Sequence-pair simulated annealing — the Parquet-4-style
//! packing-based baseline of Table III.
//!
//! A floorplan is encoded as a *sequence pair* (Murata et al. \[4\]):
//! module `j` is left of `i` iff `j` precedes `i` in both sequences,
//! and below `i` iff `j` follows `i` in the positive sequence but
//! precedes it in the negative one. Packing evaluates the two longest
//! paths (`O(n²)`, ample for n ≤ 200). Soft modules pick their shape
//! from a discrete ladder of aspect ratios inside the allowed range.
//! The annealer minimizes HPWL plus a fixed-outline overflow penalty,
//! like Parquet's fixed-outline mode \[20\].

use gfp_core::GlobalFloorplanProblem;
use gfp_netlist::geometry::Rect;
use gfp_netlist::{hpwl, Netlist, Outline};
use gfp_rand::Rng;

use crate::BaselineError;

/// The sequence-pair representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencePair {
    /// Positive sequence (module indices).
    pub pos: Vec<usize>,
    /// Negative sequence.
    pub neg: Vec<usize>,
}

impl SequencePair {
    /// The identity pair over `n` modules.
    pub fn identity(n: usize) -> Self {
        SequencePair {
            pos: (0..n).collect(),
            neg: (0..n).collect(),
        }
    }

    /// Packs the modules with the given widths/heights, returning the
    /// rectangles and the bounding dimensions `(W, H)`.
    ///
    /// # Panics
    ///
    /// Panics if the dimension arrays do not match the pair length.
    pub fn pack(&self, widths: &[f64], heights: &[f64]) -> (Vec<Rect>, f64, f64) {
        let n = self.pos.len();
        assert_eq!(widths.len(), n, "widths length mismatch");
        assert_eq!(heights.len(), n, "heights length mismatch");
        let mut p_idx = vec![0usize; n];
        let mut n_idx = vec![0usize; n];
        for (k, &m) in self.pos.iter().enumerate() {
            p_idx[m] = k;
        }
        for (k, &m) in self.neg.iter().enumerate() {
            n_idx[m] = k;
        }
        // x: process in positive-sequence order; j left of i iff
        // p_idx[j] < p_idx[i] and n_idx[j] < n_idx[i].
        let mut x = vec![0.0; n];
        for a in 0..n {
            let i = self.pos[a];
            let mut best = 0.0_f64;
            for b in 0..a {
                let j = self.pos[b];
                if n_idx[j] < n_idx[i] {
                    best = best.max(x[j] + widths[j]);
                }
            }
            x[i] = best;
        }
        // y: j below i iff p_idx[j] > p_idx[i] and n_idx[j] < n_idx[i];
        // process in reverse positive order.
        let mut y = vec![0.0; n];
        for a in (0..n).rev() {
            let i = self.pos[a];
            let mut best = 0.0_f64;
            for b in (a + 1)..n {
                let j = self.pos[b];
                if n_idx[j] < n_idx[i] {
                    best = best.max(y[j] + heights[j]);
                }
            }
            y[i] = best;
        }
        let rects: Vec<Rect> = (0..n)
            .map(|i| Rect {
                x: x[i],
                y: y[i],
                w: widths[i],
                h: heights[i],
            })
            .collect();
        let total_w = rects.iter().map(|r| r.x + r.w).fold(0.0, f64::max);
        let total_h = rects.iter().map(|r| r.y + r.h).fold(0.0, f64::max);
        (rects, total_w, total_h)
    }
}

/// Settings for the annealer.
#[derive(Debug, Clone)]
pub struct AnnealSettings {
    /// Moves attempted per temperature step.
    pub moves_per_temp: usize,
    /// Number of temperature steps.
    pub temp_steps: usize,
}

impl Default for AnnealSettings {
    fn default() -> Self {
        AnnealSettings {
            moves_per_temp: 200,
            temp_steps: 80,
        }
    }
}

/// Geometric cooling factor.
const COOLING: f64 = 0.93;
/// Weight of the outline-overflow penalty relative to HPWL scale.
const OVERFLOW_WEIGHT: f64 = 4.0;
/// Number of discrete aspect choices per soft module.
const ASPECT_CHOICES: usize = 7;
/// RNG seed.
const SEED: u64 = 0xF1004;

/// Result of an annealing run: a complete (legal if `fits`) floorplan.
#[derive(Debug, Clone)]
pub struct AnnealedFloorplan {
    /// One rectangle per module.
    pub rects: Vec<Rect>,
    /// Module centers (for HPWL evaluation / comparison).
    pub positions: Vec<(f64, f64)>,
    /// HPWL of the final floorplan (with pads).
    pub hpwl: f64,
    /// Whether the packing fits the outline.
    pub fits: bool,
    /// Final cost (HPWL + overflow penalty).
    pub cost: f64,
}

/// The sequence-pair simulated annealer.
#[derive(Debug, Clone, Default)]
pub struct Annealer {
    settings: AnnealSettings,
}

impl Annealer {
    /// Creates an annealer with the given settings.
    pub fn new(settings: AnnealSettings) -> Self {
        Annealer { settings }
    }

    /// Anneals the netlist into the outline.
    ///
    /// Pre-placed modules are treated as movable (sequence pairs have
    /// no native PPM support — one of the representation limitations
    /// the paper's Section I cites via Kahng \[6\]).
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidProblem`] for empty netlists.
    pub fn place(
        &self,
        netlist: &Netlist,
        problem: &GlobalFloorplanProblem,
        outline: &Outline,
    ) -> Result<AnnealedFloorplan, BaselineError> {
        let n = problem.n;
        if n == 0 {
            return Err(BaselineError::InvalidProblem {
                reason: "no modules".into(),
            });
        }
        let st = &self.settings;
        let mut rng = Rng::seed_from_u64(SEED);
        let k = problem.aspect_limit.max(1.01);

        // Discrete aspect ladder (w/h ratios), geometric in [1/k, k].
        let aspect_of = |c: usize| -> f64 {
            let t = c as f64 / (ASPECT_CHOICES - 1) as f64;
            (1.0 / k) * (k * k).powf(t)
        };
        let dims = |area: f64, c: usize| -> (f64, f64) {
            let ar = aspect_of(c);
            let w = (area * ar).sqrt();
            (w, area / w)
        };

        let mut state = SequencePair::identity(n);
        // Random initial shuffle.
        for i in (1..n).rev() {
            state.pos.swap(i, rng.gen_range(0..=i));
            state.neg.swap(i, rng.gen_range(0..=i));
        }
        let mut shape: Vec<usize> = vec![ASPECT_CHOICES / 2; n];

        let evaluate = |sp: &SequencePair, shape: &[usize]| -> (f64, f64, bool) {
            let mut widths = vec![0.0; n];
            let mut heights = vec![0.0; n];
            for i in 0..n {
                let (w, h) = dims(problem.areas[i], shape[i]);
                widths[i] = w;
                heights[i] = h;
            }
            let (rects, total_w, total_h) = sp.pack(&widths, &heights);
            let centers: Vec<(f64, f64)> = rects.iter().map(Rect::center).collect();
            let wl = hpwl::hpwl(netlist, &centers);
            let overflow = (total_w - outline.width).max(0.0) / outline.width
                + (total_h - outline.height).max(0.0) / outline.height;
            let scale = wl.max(1.0);
            let cost = wl + OVERFLOW_WEIGHT * scale * overflow;
            (cost, wl, overflow == 0.0)
        };

        let (mut cost, _, _) = evaluate(&state, &shape);
        let mut best_state = state.clone();
        let mut best_shape = shape.clone();
        let mut best_cost = cost;

        // Initial temperature from the average uphill move.
        let mut uphill_sum = 0.0;
        let mut uphill_count = 0;
        for _ in 0..50 {
            let mut trial = state.clone();
            let mut tshape = shape.clone();
            random_move(&mut trial, &mut tshape, &mut rng);
            let (c, _, _) = evaluate(&trial, &tshape);
            if c > cost {
                uphill_sum += c - cost;
                uphill_count += 1;
            }
        }
        let mut temperature = if uphill_count > 0 {
            uphill_sum / uphill_count as f64
        } else {
            cost * 0.1 + 1.0
        };

        for _step in 0..st.temp_steps {
            for _ in 0..st.moves_per_temp {
                let mut trial = state.clone();
                let mut tshape = shape.clone();
                random_move(&mut trial, &mut tshape, &mut rng);
                let (c, _, _) = evaluate(&trial, &tshape);
                let accept = c <= cost || {
                    let u: f64 = rng.gen_f64();
                    u < ((cost - c) / temperature).exp()
                };
                if accept {
                    state = trial;
                    shape = tshape;
                    cost = c;
                    if c < best_cost {
                        best_cost = c;
                        best_state = state.clone();
                        best_shape = shape.clone();
                    }
                }
            }
            temperature *= COOLING;
        }

        // Final packing of the best state.
        let mut widths = vec![0.0; n];
        let mut heights = vec![0.0; n];
        for i in 0..n {
            let (w, h) = dims(problem.areas[i], best_shape[i]);
            widths[i] = w;
            heights[i] = h;
        }
        let (rects, total_w, total_h) = best_state.pack(&widths, &heights);
        let positions: Vec<(f64, f64)> = rects.iter().map(Rect::center).collect();
        let wl = hpwl::hpwl(netlist, &positions);
        Ok(AnnealedFloorplan {
            fits: total_w <= outline.width * (1.0 + 1e-9)
                && total_h <= outline.height * (1.0 + 1e-9),
            rects,
            positions,
            hpwl: wl,
            cost: best_cost,
        })
    }
}

fn random_move(sp: &mut SequencePair, shape: &mut [usize], rng: &mut Rng) {
    let n = sp.pos.len();
    if n < 2 {
        if !shape.is_empty() {
            shape[0] = rng.gen_range(0..ASPECT_CHOICES);
        }
        return;
    }
    match rng.gen_range(0..3u8) {
        0 => {
            // Swap two modules in the positive sequence only.
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            sp.pos.swap(a, b);
        }
        1 => {
            // Swap the same two modules in both sequences.
            let ma = rng.gen_range(0..n);
            let mb = rng.gen_range(0..n);
            let (pa, pb) = (
                sp.pos.iter().position(|&x| x == ma).expect("present"),
                sp.pos.iter().position(|&x| x == mb).expect("present"),
            );
            sp.pos.swap(pa, pb);
            let (na, nb) = (
                sp.neg.iter().position(|&x| x == ma).expect("present"),
                sp.neg.iter().position(|&x| x == mb).expect("present"),
            );
            sp.neg.swap(na, nb);
        }
        _ => {
            // Reshape a random soft module.
            let m = rng.gen_range(0..shape.len());
            shape[m] = rng.gen_range(0..ASPECT_CHOICES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_core::ProblemOptions;
    use gfp_netlist::suite;

    #[test]
    fn packing_never_overlaps() {
        // Property of the sequence-pair semantics, exercised over many
        // random pairs and shapes.
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(2..9usize);
            let mut sp = SequencePair::identity(n);
            for i in (1..n).rev() {
                sp.pos.swap(i, rng.gen_range(0..=i));
                sp.neg.swap(i, rng.gen_range(0..=i));
            }
            let widths: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..10.0)).collect();
            let heights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..10.0)).collect();
            let (rects, _, _) = sp.pack(&widths, &heights);
            for i in 0..n {
                for j in (i + 1)..n {
                    assert!(
                        !rects[i].overlaps(&rects[j]),
                        "overlap between {i} and {j}: {:?} vs {:?} (sp {sp:?})",
                        rects[i],
                        rects[j]
                    );
                }
            }
        }
    }

    #[test]
    fn identity_pair_packs_in_a_row() {
        let sp = SequencePair::identity(3);
        let (rects, w, h) = sp.pack(&[2.0, 3.0, 4.0], &[1.0, 1.0, 1.0]);
        // identity/identity: every earlier module is left of later ones.
        assert_eq!(rects[0].x, 0.0);
        assert_eq!(rects[1].x, 2.0);
        assert_eq!(rects[2].x, 5.0);
        assert_eq!(w, 9.0);
        assert_eq!(h, 1.0);
    }

    #[test]
    fn reversed_pos_stacks_vertically() {
        let sp = SequencePair {
            pos: vec![2, 1, 0],
            neg: vec![0, 1, 2],
        };
        let (rects, w, h) = sp.pack(&[2.0; 3], &[1.0, 2.0, 3.0]);
        // j after i in pos, before in neg => j below i: stack.
        assert_eq!(w, 2.0);
        assert_eq!(h, 6.0);
        assert_eq!(rects[0].y, 0.0);
        assert_eq!(rects[1].y, 1.0);
        assert_eq!(rects[2].y, 3.0);
    }

    #[test]
    fn annealer_improves_over_initial_and_mostly_fits() {
        let b = suite::gsrc_n10();
        let (nl, outline) = b.with_pads_on_outline(1.0);
        let opts = ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        };
        let p = GlobalFloorplanProblem::from_netlist(&nl, &opts).unwrap();
        let quick = Annealer::new(AnnealSettings {
            moves_per_temp: 60,
            temp_steps: 40,
        });
        let result = quick.place(&nl, &p, &outline).unwrap();
        assert_eq!(result.rects.len(), 10);
        // Rectangles respect the aspect limit.
        for r in &result.rects {
            let ar = r.w / r.h;
            assert!(ar > 1.0 / 3.2 && ar < 3.2, "aspect {ar}");
        }
        // No overlaps (sequence-pair invariant).
        for i in 0..10 {
            for j in (i + 1)..10 {
                assert!(!result.rects[i].overlaps(&result.rects[j]));
            }
        }
        assert!(result.hpwl > 0.0);
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let b = suite::gsrc_n10();
        let (nl, outline) = b.with_pads_on_outline(1.0);
        let p = GlobalFloorplanProblem::from_netlist(
            &nl,
            &ProblemOptions {
                outline: Some(outline),
                aspect_limit: 3.0,
                ..ProblemOptions::default()
            },
        )
        .unwrap();
        let s = AnnealSettings {
            moves_per_temp: 30,
            temp_steps: 20,
        };
        let r1 = Annealer::new(s.clone()).place(&nl, &p, &outline).unwrap();
        let r2 = Annealer::new(s).place(&nl, &p, &outline).unwrap();
        assert_eq!(r1.positions, r2.positions);
    }
}
