//! Hierarchical floorplanning — the scalability extension the paper's
//! conclusion names as future work ("design a hierarchical framework
//! to enhance the scalability").
//!
//! The flat SDP's per-iteration cost grows steeply with `n`
//! (Fig. 5(b)), so large instances are solved in two levels:
//!
//! 1. **Coarsening** — greedy heavy-edge clustering merges the most
//!    strongly connected module pairs (weight normalized by geometric
//!    mean area) until at most `max_clusters` remain.
//! 2. **Top level** — the standard convex-iteration SDP floorplans the
//!    clusters (areas summed, connectivity aggregated, pads kept).
//! 3. **Leaf solves** — each cluster's members are floorplanned by a
//!    small SDP of their own, with *terminal propagation*: nets
//!    leaving the cluster appear as pseudo-pads at the positions the
//!    top level assigned to their other endpoints. The sub-layout is
//!    then translated to the cluster's region (**flattening**).
//! 4. **Flat refinement** — the flattened placement seeds one flat
//!    solve over the whole instance (warm-started `Z` embedding, with
//!    constraint sparsification keeping the row set tractable), which
//!    repairs the boundary distortion that per-cluster solves cannot
//!    see. Skipped above 300 modules, since the flat PSD projection is
//!    still O((n+2)³) per iteration.
//!
//! Every stage runs under a [`SolveSupervisor`], so checkpointing,
//! backend fallback and degraded-result reporting come for free; with
//! [`SupervisorSettings::checkpoint_dir`] set the stages snapshot into
//! `top/`, `leaf-<c>/` and `refine/` subdirectories and a killed run
//! resumes mid-stage. Each stage tags its [`RoundSummary`] rows with
//! the stage label and all rows are concatenated into
//! [`HierarchicalFloorplan::rounds`]. Stage starts tick the
//! `hier.stage` counter and emit a `hier.stage` event.

use gfp_linalg::Mat;
use gfp_telemetry as telemetry;

use crate::iterate::{FloorplannerSettings, OuterState, RoundSummary};
use crate::lifted::Lift;
use crate::supervisor::{DegradedResult, SolveQuality, SolveSupervisor, SupervisorSettings};
use crate::{FloorplanError, GlobalFloorplanProblem};

/// Settings for the hierarchical floorplanner.
#[derive(Debug, Clone)]
pub struct HierarchicalSettings {
    /// Coarsen until at most this many clusters remain.
    pub max_clusters: usize,
    /// Solver settings for the top (cluster) level.
    pub top: FloorplannerSettings,
    /// Solver settings for the per-cluster leaf solves.
    pub leaf: FloorplannerSettings,
    /// Solver settings for the flat refinement pass seeded from the
    /// flattened cluster placement. `None` skips refinement (the
    /// pre-refinement two-level flow). Requires
    /// [`FloorplannerSettings::warm_start`] — the seed enters as the
    /// warm-start `Z` embedding.
    pub refine: Option<FloorplannerSettings>,
    /// Supervision applied to every stage.
    /// [`SupervisorSettings::checkpoint_dir`] is treated as a root:
    /// stages checkpoint into `top/`, `leaf-<c>/` and `refine/` below
    /// it.
    pub supervision: SupervisorSettings,
}

impl Default for HierarchicalSettings {
    fn default() -> Self {
        HierarchicalSettings {
            max_clusters: 20,
            top: FloorplannerSettings::fast(),
            leaf: FloorplannerSettings::fast(),
            refine: Some(FloorplannerSettings::fast()),
            supervision: SupervisorSettings::default(),
        }
    }
}

/// Skip the flat refinement pass above this many modules: the refine
/// solve projects the full (n+2)-dim PSD cone every iteration, which
/// stops paying for itself at a few hundred modules even with
/// sparsified constraints.
const REFINE_MAX_N: usize = 300;

/// Result of a hierarchical run.
#[derive(Debug, Clone)]
pub struct HierarchicalFloorplan {
    /// Final module centers.
    pub positions: Vec<(f64, f64)>,
    /// Cluster membership: `cluster_of[i]` for each module.
    pub cluster_of: Vec<usize>,
    /// Cluster centers from the top-level solve.
    pub cluster_centers: Vec<(f64, f64)>,
    /// Total inner iterations across all solves.
    pub iterations: usize,
    /// Per-α-round summaries of every stage, concatenated in execution
    /// order (top, leaf-0…leaf-k, refine); each row's
    /// [`RoundSummary::stage`] says which stage produced it.
    pub rounds: Vec<RoundSummary>,
    /// Whether the flat refinement pass ran and its placement was
    /// adopted.
    pub refined: bool,
    /// Quality verdict of the final stage (refine when it ran,
    /// otherwise the top solve).
    pub quality: SolveQuality,
}

/// Greedy heavy-edge clustering of a connectivity matrix.
///
/// Returns `cluster_of` labels in `0..k`. Merging always fuses the
/// currently heaviest normalized edge; ties and isolated modules fall
/// back to size-balanced merging.
pub fn cluster_modules(a: &Mat, areas: &[f64], max_clusters: usize) -> Vec<usize> {
    let n = areas.len();
    assert_eq!(a.nrows(), n, "connectivity dimension mismatch");
    // Union-find.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut cluster_area = areas.to_vec();
    let mut count = n;
    // Candidate edges sorted once by normalized weight (descending);
    // re-scans allow merged weights to participate via union lookups.
    let mut edges: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let w = a[(i, j)] + a[(j, i)];
            if w > 0.0 {
                let norm = w / (areas[i] * areas[j]).sqrt();
                edges.push((norm, i, j));
            }
        }
    }
    edges.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite weights"));
    let total_area: f64 = areas.iter().sum();
    // Avoid one mega-cluster: cap cluster area.
    let area_cap = 2.5 * total_area / max_clusters.max(1) as f64;
    for &(_, i, j) in &edges {
        if count <= max_clusters {
            break;
        }
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri == rj {
            continue;
        }
        if cluster_area[ri] + cluster_area[rj] > area_cap {
            continue;
        }
        parent[rj] = ri;
        cluster_area[ri] += cluster_area[rj];
        count -= 1;
    }
    // Second pass without the area cap if still too many clusters
    // (e.g. disconnected or all-heavy instances).
    if count > max_clusters {
        for &(_, i, j) in &edges {
            if count <= max_clusters {
                break;
            }
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[rj] = ri;
                count -= 1;
            }
        }
    }
    // Merge remaining isolated singletons arbitrarily if needed.
    if count > max_clusters {
        let mut roots: Vec<usize> = (0..n).filter(|&i| find(&mut parent, i) == i).collect();
        while roots.len() > max_clusters {
            let a = roots.pop().expect("nonempty");
            let b = *roots.last().expect("nonempty");
            parent[a] = b;
        }
    }
    // Compact labels.
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    let mut out = vec![0usize; n];
    for i in 0..n {
        let r = find(&mut parent, i);
        if label[r] == usize::MAX {
            label[r] = next;
            next += 1;
        }
        out[i] = label[r];
    }
    out
}

/// The hierarchical SDP floorplanner (see [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct HierarchicalFloorplanner {
    settings: HierarchicalSettings,
}

/// Marks a stage start: ticks the `hier.stage` counter and emits a
/// `hier.stage` event with the stage label and sub-problem size.
fn stage_event(stage: &'static str, modules: usize) {
    static HIER_STAGE: telemetry::CounterHandle = telemetry::CounterHandle::new("hier.stage");
    HIER_STAGE.add(1);
    if telemetry::enabled() {
        telemetry::event(
            "hier.stage",
            &[("stage", stage.into()), ("modules", modules.into())],
        );
    }
}

impl HierarchicalFloorplanner {
    /// Creates a floorplanner with the given settings.
    pub fn new(settings: HierarchicalSettings) -> Self {
        HierarchicalFloorplanner { settings }
    }

    /// Supervision for one stage: the shared knobs with the stage's
    /// checkpoint subdirectory under the configured root.
    fn stage_supervision(&self, stage: &str) -> SupervisorSettings {
        let mut sup = self.settings.supervision.clone();
        sup.checkpoint_dir = sup.checkpoint_dir.map(|root| root.join(stage));
        sup
    }

    /// The supervised top stage over `problem` (the cluster-level
    /// problem, or the whole instance when it has no more modules than
    /// clusters), checkpointing into `top/`.
    fn solve_top(&self, problem: &GlobalFloorplanProblem) -> DegradedResult {
        stage_event("top", problem.n);
        let mut top_st = self.settings.top.clone();
        top_st.stage = "top";
        SolveSupervisor::with_supervision(top_st, self.stage_supervision("top")).solve(problem)
    }

    /// Runs the cluster–solve–flatten–refine flow on a (typically
    /// large) problem. An instance with at most
    /// [`HierarchicalSettings::max_clusters`] modules has nothing to
    /// cluster: its top stage is the whole solve.
    ///
    /// Pre-placed modules are honored at the leaf and refine levels
    /// (their solves carry the PPM rows, and their exact coordinates
    /// are restored in the returned placement); the top level treats a
    /// cluster containing fixed modules as fixed at their centroid.
    ///
    /// # Errors
    ///
    /// None at present: every stage is supervised and degrades instead
    /// of failing (see [`HierarchicalFloorplan::quality`]). The
    /// `Result` leaves room for input validation.
    pub fn solve(
        &self,
        problem: &GlobalFloorplanProblem,
    ) -> Result<HierarchicalFloorplan, FloorplanError> {
        let n = problem.n;
        if n <= self.settings.max_clusters {
            let top = self.solve_top(problem);
            return Ok(HierarchicalFloorplan {
                cluster_of: (0..n).collect(),
                cluster_centers: top.floorplan.positions.clone(),
                iterations: top.floorplan.iterations,
                rounds: top.floorplan.rounds,
                refined: false,
                quality: top.quality,
                positions: top.floorplan.positions,
            });
        }
        let cluster_of = cluster_modules(&problem.a, &problem.areas, self.settings.max_clusters);
        let k = cluster_of.iter().max().map_or(0, |m| m + 1);

        // --- aggregate the cluster-level problem ---------------------------
        let mut areas = vec![0.0; k];
        for (i, &c) in cluster_of.iter().enumerate() {
            areas[c] += problem.areas[i];
        }
        let mut a = Mat::zeros(k, k);
        for i in 0..n {
            for j in 0..n {
                let (ci, cj) = (cluster_of[i], cluster_of[j]);
                if ci != cj {
                    a[(ci, cj)] += problem.a[(i, j)];
                }
            }
        }
        let m = problem.pad_positions.len();
        let mut pad_a = Mat::zeros(k, m);
        for i in 0..n {
            for q in 0..m {
                pad_a[(cluster_of[i], q)] += problem.pad_a[(i, q)];
            }
        }
        let kk = problem.aspect_limit;
        let top_problem = GlobalFloorplanProblem {
            n: k,
            radii: areas.iter().map(|s| (kk * s / 4.0).sqrt()).collect(),
            areas,
            a,
            pad_a,
            pad_positions: problem.pad_positions.clone(),
            fixed: {
                // Cluster fixed if it contains any fixed module: pin at
                // the (area-weighted) centroid of its fixed members.
                let mut acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); k];
                for (i, &c) in cluster_of.iter().enumerate() {
                    if let Some((x, y)) = problem.fixed[i] {
                        let w = problem.areas[i];
                        acc[c].0 += w * x;
                        acc[c].1 += w * y;
                        acc[c].2 += w;
                    }
                }
                acc.into_iter()
                    .map(|(sx, sy, sw)| {
                        if sw > 0.0 {
                            Some((sx / sw, sy / sw))
                        } else {
                            None
                        }
                    })
                    .collect()
            },
            outline: problem.outline,
            aspect_limit: kk,
            hyperedges: Vec::new(), // cluster level uses the clique matrix
            max_distance: Vec::new(),
            min_distance: Vec::new(),
        };
        let top = self.solve_top(&top_problem);
        let mut iterations = top.floorplan.iterations;
        let mut rounds = top.floorplan.rounds.clone();
        let mut quality = top.quality;
        let cluster_centers = top.floorplan.positions.clone();

        // --- per-cluster refinement with terminal propagation --------------
        let mut positions = vec![(0.0, 0.0); n];
        for c in 0..k {
            let members: Vec<usize> = (0..n).filter(|&i| cluster_of[i] == c).collect();
            if members.len() == 1 {
                positions[members[0]] = cluster_centers[c];
                continue;
            }
            // Pseudo-pads: other clusters' centers and the real pads.
            let mut pseudo_positions: Vec<(f64, f64)> = Vec::new();
            let mut pseudo_weights: Vec<Vec<f64>> = vec![Vec::new(); members.len()];
            for (other_c, &center) in cluster_centers.iter().enumerate() {
                if other_c == c {
                    continue;
                }
                pseudo_positions.push(center);
                for (mi, &i) in members.iter().enumerate() {
                    let mut w = 0.0;
                    for j in 0..n {
                        if cluster_of[j] == other_c {
                            w += problem.a[(i, j)] + problem.a[(j, i)];
                        }
                    }
                    pseudo_weights[mi].push(w / 2.0);
                }
            }
            for (q, &pp) in problem.pad_positions.iter().enumerate() {
                pseudo_positions.push(pp);
                for (mi, &i) in members.iter().enumerate() {
                    pseudo_weights[mi].push(problem.pad_a[(i, q)]);
                }
            }
            let mut pad_a = Mat::zeros(members.len(), pseudo_positions.len());
            for (mi, row) in pseudo_weights.iter().enumerate() {
                for (q, &w) in row.iter().enumerate() {
                    pad_a[(mi, q)] = w;
                }
            }
            let mut sub_a = Mat::zeros(members.len(), members.len());
            for (mi, &i) in members.iter().enumerate() {
                for (mj, &j) in members.iter().enumerate() {
                    sub_a[(mi, mj)] = problem.a[(i, j)];
                }
            }
            let sub_problem = GlobalFloorplanProblem {
                n: members.len(),
                areas: members.iter().map(|&i| problem.areas[i]).collect(),
                radii: members.iter().map(|&i| problem.radii[i]).collect(),
                a: sub_a,
                pad_a,
                pad_positions: pseudo_positions,
                fixed: members.iter().map(|&i| problem.fixed[i]).collect(),
                outline: None, // region handled by recentering below
                aspect_limit: kk,
                hyperedges: Vec::new(),
                max_distance: Vec::new(),
                min_distance: Vec::new(),
            };
            stage_event("leaf", members.len());
            let mut leaf_st = self.settings.leaf.clone();
            leaf_st.stage = "leaf";
            let sub =
                SolveSupervisor::with_supervision(leaf_st, self.stage_supervision(&format!("leaf-{c}")))
                    .solve(&sub_problem);
            iterations += sub.floorplan.iterations;
            rounds.extend(sub.floorplan.rounds.iter().cloned());
            // Translate the sub-layout so its area centroid lands on the
            // cluster center (fixed members keep their absolute spot).
            let total: f64 = sub_problem.areas.iter().sum();
            let cx: f64 = sub
                .floorplan
                .positions
                .iter()
                .zip(sub_problem.areas.iter())
                .map(|(p, s)| p.0 * s)
                .sum::<f64>()
                / total;
            let cy: f64 = sub
                .floorplan
                .positions
                .iter()
                .zip(sub_problem.areas.iter())
                .map(|(p, s)| p.1 * s)
                .sum::<f64>()
                / total;
            let (tx, ty) = (cluster_centers[c].0 - cx, cluster_centers[c].1 - cy);
            for (mi, &i) in members.iter().enumerate() {
                positions[i] = match problem.fixed[i] {
                    Some(p) => p,
                    None => (
                        sub.floorplan.positions[mi].0 + tx,
                        sub.floorplan.positions[mi].1 + ty,
                    ),
                };
            }
        }

        // --- flat refinement seeded from the flattened placement -----------
        let mut refined = false;
        if let Some(refine_st0) = &self.settings.refine {
            if n <= REFINE_MAX_N {
                stage_event("refine", n);
                let mut refine_st = refine_st0.clone();
                refine_st.stage = "refine";
                let sup = SolveSupervisor::with_supervision(
                    refine_st.clone(),
                    self.stage_supervision("refine"),
                );
                // Seed the refine solve: the flattened placement enters
                // as the warm-start Z embedding, in the normalized
                // coordinates the outer loop works in.
                let scale = problem.length_scale();
                let norm = problem.normalized();
                let mut state = OuterState::new(&norm, &refine_st);
                let lift = Lift::new(n);
                let seed: Vec<(f64, f64)> = positions
                    .iter()
                    .map(|&(x, y)| (x / scale, y / scale))
                    .collect();
                state.warm_z = Some(lift.embed_positions(&seed, 0.0));
                let refine = sup.resume(problem, state);
                iterations += refine.floorplan.iterations;
                rounds.extend(refine.floorplan.rounds.iter().cloned());
                quality = refine.quality;
                if refine.quality != SolveQuality::Placeholder {
                    positions = refine.floorplan.positions.clone();
                    refined = true;
                }
            }
        }

        // Pre-placed modules keep their exact coordinates regardless of
        // which stage produced the final placement.
        for (i, f) in problem.fixed.iter().enumerate() {
            if let Some(p) = *f {
                positions[i] = p;
            }
        }

        Ok(HierarchicalFloorplan {
            positions,
            cluster_of,
            cluster_centers,
            iterations,
            rounds,
            refined,
            quality,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProblemOptions;
    use gfp_netlist::suite;

    #[test]
    fn clustering_reduces_and_conserves() {
        let b = suite::gsrc_n50();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let labels = cluster_modules(&p.a, &p.areas, 12);
        let k = labels.iter().max().unwrap() + 1;
        assert!(k <= 12, "got {k} clusters");
        assert!(k >= 2);
        // Labels are compact 0..k.
        for c in 0..k {
            assert!(labels.iter().any(|&l| l == c), "label {c} unused");
        }
        // Heaviest edge merged: find the max normalized edge and check
        // its endpoints share a cluster.
        let mut best = (0.0, 0, 0);
        for i in 0..p.n {
            for j in (i + 1)..p.n {
                let w = (p.a[(i, j)] + p.a[(j, i)]) / (p.areas[i] * p.areas[j]).sqrt();
                if w > best.0 {
                    best = (w, i, j);
                }
            }
        }
        assert_eq!(labels[best.1], labels[best.2], "heaviest edge not merged");
    }

    #[test]
    fn degenerate_small_instance_is_flat() {
        let b = suite::gsrc_n10();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let root = std::env::temp_dir().join(format!("gfp-hier-degenerate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut settings = HierarchicalSettings::default();
        settings.max_clusters = 32; // more than n
        settings.top.max_iter = 3;
        settings.supervision.checkpoint_dir = Some(root.clone());
        let fp = HierarchicalFloorplanner::new(settings.clone()).solve(&p).unwrap();
        assert_eq!(fp.positions.len(), 10);
        assert_eq!(fp.cluster_of, (0..10).collect::<Vec<_>>());
        // The single stage is the supervised top stage: it snapshots
        // under the root's `top/`, and its rows say so.
        let snapshots = std::fs::read_dir(root.join("top"))
            .map(|d| d.count())
            .unwrap_or(0);
        let _ = std::fs::remove_dir_all(&root);
        assert!(snapshots > 0, "no snapshot under the checkpoint root's top/");
        assert!(!fp.rounds.is_empty());
        assert!(fp.rounds.iter().all(|r| r.stage == "top"));
        // Snapshots do not move the placement: a supervised solve that
        // writes none places exactly the same.
        let mut plain_st = settings.top;
        plain_st.stage = "top";
        let plain = SolveSupervisor::new(plain_st).solve(&p);
        assert_eq!(plain.recoveries, 0);
        assert_eq!(fp.positions, plain.floorplan.positions);
        assert_eq!(fp.iterations, plain.floorplan.iterations);
    }

    #[test]
    fn hierarchical_n50_runs_and_separates_clusters() {
        let b = suite::gsrc_n50();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let mut settings = HierarchicalSettings::default();
        settings.max_clusters = 8;
        settings.top.max_iter = 4;
        settings.leaf.max_iter = 3;
        settings.refine = None; // refine is covered by the slow-tier golden test
        let fp = HierarchicalFloorplanner::new(settings).solve(&p).unwrap();
        assert_eq!(fp.positions.len(), 50);
        assert!(!fp.refined);
        assert!(!fp.rounds.is_empty(), "pipeline recorded no round rows");
        assert!(fp.rounds.iter().any(|r| r.stage == "top"));
        assert!(fp.rounds.iter().any(|r| r.stage == "leaf"));
        assert!(fp.cluster_centers.len() <= 8);
        // Modules of the same cluster sit near their cluster center;
        // different clusters are spread apart.
        let k = fp.cluster_centers.len();
        let mut min_cc = f64::MAX;
        for a in 0..k {
            for b in (a + 1)..k {
                let d = ((fp.cluster_centers[a].0 - fp.cluster_centers[b].0).powi(2)
                    + (fp.cluster_centers[a].1 - fp.cluster_centers[b].1).powi(2))
                .sqrt();
                min_cc = min_cc.min(d);
            }
        }
        assert!(min_cc > 1.0, "cluster centers collapsed: {min_cc}");
        // All positions finite.
        for &(x, y) in &fp.positions {
            assert!(x.is_finite() && y.is_finite());
        }
    }

    #[test]
    fn hierarchical_respects_fixed_modules() {
        let b = suite::gsrc_n50();
        let nl = b.netlist.with_fixed_module(7, 500.0, 400.0);
        let p = GlobalFloorplanProblem::from_netlist(&nl, &ProblemOptions::default()).unwrap();
        let mut settings = HierarchicalSettings::default();
        settings.max_clusters = 8;
        settings.top.max_iter = 3;
        settings.leaf.max_iter = 3;
        settings.refine = None;
        let fp = HierarchicalFloorplanner::new(settings).solve(&p).unwrap();
        assert_eq!(fp.positions[7], (500.0, 400.0));
    }
}
