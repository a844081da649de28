//! Spatial-neighbor constraint sparsification.
//!
//! The SDP carries one distance constraint per module pair — O(n²)
//! rows — yet at any point of the convex iteration only nearby pairs
//! can be active: two modules far apart trivially satisfy
//! `D_ij ≥ (r_i + r_j)²`. Above the flat-solve sweet spot (n ≈ 200)
//! the all-pairs row set dominates both assembly and ADMM projection
//! cost, so each α round re-seeds a sparse *pair plan* from the
//! current placement:
//!
//! * a deterministic uniform grid buckets the seed positions and a
//!   ring-expanding kNN query keeps each module's `target_degree`
//!   nearest neighbors — an adaptive radius, since the covered
//!   distance shrinks wherever the placement is dense;
//! * a small random long-range **stabilizer** set (drawn from
//!   `gfp-rand`, seeded by a fixed seed mixed with the round index)
//!   guards against the collapse modes a purely local constraint set
//!   allows early on, when distant modules still overlap badly;
//! * user `min_distance` pairs are always kept — they encode explicit
//!   keep-out intent and must never be pruned.
//!
//! A plan is a sorted, deduplicated `(i, j)` list with `i < j`. Every
//! sub-problem-1 solve assembles its distance rows from one: the
//! convex iteration passes [`all_pairs`] while the sparsifier is
//! inactive, and a kNN plan at a degree that covers every pair is
//! exactly [`all_pairs`] (see [`SparsifySettings::target_degree`]).
//! Everything here is sequential and seeded: the plan is a pure
//! function of `(positions, settings, round, always_keep)` and is
//! identical at any worker count.

use gfp_rand::Rng;

/// Module count at which [`SparsifyMode::Auto`] engages. It keeps
/// every shipped n ≤ 200 instance — and the golden n10 trace — on the
/// all-pairs plan.
pub const AUTO_THRESHOLD: usize = 256;

/// Base RNG seed of the stabilizer draw ("SPAR"), mixed with the round
/// index so every α round gets a fresh long-range sample.
const STABILIZER_SEED: u64 = 0x5350_4152;

/// When the sparsifier engages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparsifyMode {
    /// Never sparsify: every round plans all pairs (the same
    /// kill-switch discipline as the spectral fast path).
    Off,
    /// Sparsify when the instance has at least [`AUTO_THRESHOLD`]
    /// modules (default).
    Auto,
    /// Always sparsify, regardless of size.
    On,
}

/// Tuning of the spatial-neighbor constraint pruner.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsifySettings {
    /// Engagement policy; see [`SparsifyMode`].
    pub mode: SparsifyMode,
    /// Nearest neighbors kept per module. When
    /// `target_degree ≥ n − 1` the plan is exactly the full pair set,
    /// which makes sparsify-on bitwise-equivalent to sparsify-off —
    /// the hook the equivalence tests pin.
    pub target_degree: usize,
    /// Random long-range pairs added per module each round.
    pub stabilizers_per_module: usize,
}

impl Default for SparsifySettings {
    fn default() -> Self {
        SparsifySettings {
            mode: SparsifyMode::Auto,
            target_degree: 24,
            stabilizers_per_module: 2,
        }
    }
}

impl SparsifySettings {
    /// Whether the pruner engages for an `n`-module instance.
    pub fn is_active(&self, n: usize) -> bool {
        match self.mode {
            SparsifyMode::Off => false,
            SparsifyMode::On => true,
            SparsifyMode::Auto => n >= AUTO_THRESHOLD,
        }
    }
}

/// Number of unordered module pairs, `n(n−1)/2`.
pub fn total_pairs(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Every pair `(i, j)` with `i < j` in lexicographic order — the plan
/// of every round the sparsifier does not engage.
pub fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(total_pairs(n));
    for i in 0..n {
        for j in (i + 1)..n {
            out.push((i, j));
        }
    }
    out
}

/// Builds the pair plan for one α round: grid-kNN neighbors of the
/// seed `positions`, plus the round's stabilizer sample, plus every
/// `always_keep` pair. Returns pairs `(i, j)` with `i < j`, sorted
/// lexicographically and deduplicated.
///
/// Deterministic: sequential, seeded, and independent of worker count.
///
/// # Panics
///
/// Panics if an `always_keep` pair is out of range or degenerate.
pub fn neighbor_pairs(
    positions: &[(f64, f64)],
    settings: &SparsifySettings,
    round: u64,
    always_keep: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    let n = positions.len();
    if n < 2 {
        return Vec::new();
    }
    // A degree covering every other module means nothing is pruned:
    // return the all-pairs plan exactly (bitwise-equivalence hook).
    if settings.target_degree + 1 >= n {
        return all_pairs(n);
    }
    let k = settings.target_degree;

    // --- uniform grid over the bounding box ----------------------------
    let (mut lo_x, mut hi_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut lo_y, mut hi_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in positions {
        lo_x = lo_x.min(x);
        hi_x = hi_x.max(x);
        lo_y = lo_y.min(y);
        hi_y = hi_y.max(y);
    }
    // ~1 module per cell on average; degenerate spans collapse to one
    // cell along that axis.
    let g = (n as f64).sqrt().ceil() as usize;
    let g = g.max(1);
    let span_x = (hi_x - lo_x).max(1e-12);
    let span_y = (hi_y - lo_y).max(1e-12);
    let cell_of = |x: f64, y: f64| -> (usize, usize) {
        let cx = (((x - lo_x) / span_x) * g as f64) as usize;
        let cy = (((y - lo_y) / span_y) * g as f64) as usize;
        (cx.min(g - 1), cy.min(g - 1))
    };
    // Bucketed module indices, in index order within each cell (the
    // fill loop runs 0..n, so cell contents are deterministic).
    let mut cells: Vec<Vec<usize>> = vec![Vec::new(); g * g];
    let mut home = Vec::with_capacity(n);
    for (i, &(x, y)) in positions.iter().enumerate() {
        let (cx, cy) = cell_of(x, y);
        cells[cy * g + cx].push(i);
        home.push((cx, cy));
    }

    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(n * k);
    let mut cand: Vec<(f64, usize)> = Vec::new();

    // --- ring-expanding kNN per module ---------------------------------
    for i in 0..n {
        let (cx, cy) = home[i];
        let (px, py) = positions[i];
        cand.clear();
        let mut ring = 0usize;
        loop {
            // Cells at Chebyshev distance exactly `ring` from home.
            let x0 = cx.saturating_sub(ring);
            let x1 = (cx + ring).min(g - 1);
            let y0 = cy.saturating_sub(ring);
            let y1 = (cy + ring).min(g - 1);
            for gy in y0..=y1 {
                for gx in x0..=x1 {
                    let on_ring = gx == x0 || gx == x1 || gy == y0 || gy == y1;
                    if ring > 0 && !on_ring {
                        continue;
                    }
                    for &j in &cells[gy * g + gx] {
                        if j == i {
                            continue;
                        }
                        let d2 = (positions[j].0 - px).powi(2) + (positions[j].1 - py).powi(2);
                        cand.push((d2, j));
                    }
                }
            }
            let exhausted = x0 == 0 && y0 == 0 && x1 == g - 1 && y1 == g - 1;
            // One extra ring after reaching k candidates: a true
            // neighbor can sit just across the current ring boundary.
            if exhausted || cand.len() >= k.saturating_mul(2) {
                break;
            }
            ring += 1;
        }
        // Deterministic nearest-k: distance first, index as tie-break.
        cand.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, j) in cand.iter().take(k) {
            pairs.push((i.min(j), i.max(j)));
        }
    }

    // --- long-range stabilizers ----------------------------------------
    let mut rng = Rng::seed_from_u64(STABILIZER_SEED ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in 0..n {
        for _ in 0..settings.stabilizers_per_module {
            let j = rng.gen_range(0..n);
            if j != i {
                pairs.push((i.min(j), i.max(j)));
            }
        }
    }

    // --- user keep-out pairs survive unconditionally -------------------
    for &(i, j) in always_keep {
        assert!(i < n && j < n && i != j, "bad always-keep pair ({i}, {j})");
        pairs.push((i.min(j), i.max(j)));
    }

    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic but irregular test layout.
    fn layout(n: usize) -> Vec<(f64, f64)> {
        let mut rng = Rng::seed_from_u64(0xBEEF);
        (0..n)
            .map(|_| (rng.gen_f64() * 100.0, rng.gen_f64() * 60.0))
            .collect()
    }

    #[test]
    fn plan_is_deterministic() {
        let pos = layout(300);
        let st = SparsifySettings::default();
        let a = neighbor_pairs(&pos, &st, 3, &[]);
        let b = neighbor_pairs(&pos, &st, 3, &[]);
        assert_eq!(a, b);
        // A different round reshuffles only the stabilizer tail.
        let c = neighbor_pairs(&pos, &st, 4, &[]);
        assert_ne!(a, c, "round mixing has no effect");
    }

    #[test]
    fn plan_is_sorted_unique_and_in_range() {
        let pos = layout(300);
        let plan = neighbor_pairs(&pos, &SparsifySettings::default(), 0, &[]);
        assert!(!plan.is_empty());
        for w in plan.windows(2) {
            assert!(w[0] < w[1], "not strictly sorted: {:?}", w);
        }
        for &(i, j) in &plan {
            assert!(i < j && j < 300);
        }
    }

    #[test]
    fn full_degree_reproduces_dense_pair_set() {
        let pos = layout(40);
        let st = SparsifySettings {
            target_degree: 39, // n − 1: nothing can be pruned
            ..SparsifySettings::default()
        };
        let plan = neighbor_pairs(&pos, &st, 7, &[]);
        assert_eq!(plan, all_pairs(40));
    }

    #[test]
    fn plan_prunes_most_pairs_at_scale() {
        let n = 400;
        let pos = layout(n);
        let st = SparsifySettings::default();
        let plan = neighbor_pairs(&pos, &st, 0, &[]);
        let kept = plan.len();
        let total = total_pairs(n);
        assert!(
            kept * 4 < total,
            "kept {kept} of {total} pairs — not sparse"
        );
        // Every module keeps at least its nearest neighbor.
        let mut degree = vec![0usize; n];
        for &(i, j) in &plan {
            degree[i] += 1;
            degree[j] += 1;
        }
        assert!(degree.iter().all(|&d| d >= 1), "isolated module in plan");
    }

    #[test]
    fn always_keep_pairs_survive() {
        let pos = layout(300);
        // A pair of far-apart modules that kNN would never keep.
        let keep = [(0usize, 299usize), (17, 250)];
        let st = SparsifySettings {
            stabilizers_per_module: 0,
            ..SparsifySettings::default()
        };
        let plan = neighbor_pairs(&pos, &st, 0, &keep);
        for &(i, j) in &keep {
            let p = (i.min(j), i.max(j));
            assert!(plan.binary_search(&p).is_ok(), "pair {p:?} pruned");
        }
    }

    #[test]
    fn degenerate_layouts_do_not_panic() {
        // All modules at the same point: one grid cell holds everything.
        let pos = vec![(5.0, 5.0); 50];
        let plan = neighbor_pairs(&pos, &SparsifySettings::default(), 0, &[]);
        assert!(!plan.is_empty());
        // Tiny instance falls through to the all-pairs plan.
        let two = neighbor_pairs(&[(0.0, 0.0), (1.0, 1.0)], &SparsifySettings::default(), 0, &[]);
        assert_eq!(two, vec![(0, 1)]);
        assert!(neighbor_pairs(&[(0.0, 0.0)], &SparsifySettings::default(), 0, &[]).is_empty());
    }

    #[test]
    fn auto_mode_uses_threshold() {
        let st = SparsifySettings::default();
        assert!(!st.is_active(200));
        assert!(st.is_active(256));
        assert!(st.is_active(1000));
        let off = SparsifySettings {
            mode: SparsifyMode::Off,
            ..SparsifySettings::default()
        };
        assert!(!off.is_active(100_000));
        let on = SparsifyMode::On;
        let on = SparsifySettings {
            mode: on,
            ..SparsifySettings::default()
        };
        assert!(on.is_active(2));
    }
}
