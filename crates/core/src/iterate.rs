//! The overall convex-iteration driver (Algorithm 1 of the paper).
//!
//! For each rank-penalty coefficient `α` (doubled until the rank
//! certificate holds), the two sub-problems are solved alternately:
//! sub-problem 1 produces `Z` given the direction matrix `W`;
//! sub-problem 2 produces the optimal `W` for that `Z` in closed form.
//! The enhancement hooks update the effective connectivity between
//! iterations (Eq. 20 and the hyper-edge model).

use gfp_conic::ipm::BarrierSettings;
use gfp_conic::{AdmmReuse, AdmmSettings, SolveStatus};
use gfp_linalg::Mat;
use gfp_telemetry as telemetry;

use crate::enhance::{effective_adjacency, Enhancements};
use crate::lifted::{objective_matrix, AssemblyWorkspace, Lift};
use crate::neighbors::{all_pairs, neighbor_pairs, total_pairs, SparsifySettings};
use crate::subproblems::{solve_subproblem1, solve_subproblem2};
use crate::{FloorplanError, GlobalFloorplanProblem};

/// Conic backend selection for sub-problem 1.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Scalable ADMM (default).
    Admm(AdmmSettings),
    /// Dense barrier IPM — accurate, small instances only, no PPM.
    Ipm(BarrierSettings),
}

impl Backend {
    /// Stable name (`"admm"` or `"ipm"`), as recorded in round
    /// summaries, supervisor events and degraded results.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Admm(_) => "admm",
            Backend::Ipm(_) => "ipm",
        }
    }
}

/// Settings of the overall algorithm (Algorithm 1).
#[derive(Debug, Clone)]
pub struct FloorplannerSettings {
    /// Initial rank penalty `α` (paper: 0.5, or 1024 for n ≥ 100).
    pub alpha0: f64,
    /// Multiplicative `α` growth per outer round (paper: 2).
    pub alpha_growth: f64,
    /// Maximum outer (α-doubling) rounds.
    pub max_alpha_rounds: usize,
    /// Maximum convex iterations per α (paper's `max_iter`).
    pub max_iter: usize,
    /// Inner convergence threshold on
    /// `‖Z_t − Z_{t−1}‖_F / ‖Z_t‖_F + ‖W_t − W_{t−1}‖_F / n`.
    pub eps_conv: f64,
    /// Rank certificate threshold: stop when
    /// `<W, Z> / trace(Z) < eps_rank`.
    pub eps_rank: f64,
    /// Objective enhancements (Manhattan, hyper-edge).
    pub enhancements: Enhancements,
    /// Sub-problem-1 backend.
    pub backend: Backend,
    /// Warm-start each sub-problem-1 solve from the previous `Z`.
    pub warm_start: bool,
    /// Carry ADMM work across sub-problem-1 solves: the constraint
    /// matrix of Eq. 18 never changes within a run (only the objective
    /// moves with `α` and `W`), so the Ruiz equilibration, Jacobi
    /// preconditioner and CG workspace are computed once and the dual
    /// iterates warm-start every later solve. Purely a performance
    /// knob for the ADMM backend; ignored by the IPM.
    pub admm_reuse: bool,
    /// Reset the direction matrix `W` to the identity (trace
    /// heuristic) at the start of every α round, exactly as Algorithm
    /// 1 line 3 prescribes. With generous inner budgets this matches
    /// the paper; with small budgets carrying `W` over (the default)
    /// converges to rank 2 far more reliably, since the direction
    /// stays aligned while α grows.
    pub reset_direction: bool,
    /// Spatial-neighbor distance-constraint sparsification (see
    /// [`crate::neighbors`]). The default engages automatically from
    /// [`AUTO_THRESHOLD`](crate::neighbors::AUTO_THRESHOLD) modules;
    /// when inactive every round plans all pairs.
    pub sparsify: SparsifySettings,
    /// Label recorded on every [`RoundSummary`] row this solve
    /// produces (`"flat"`, or `"top"`/`"leaf"`/`"refine"` for the
    /// hierarchical pipeline stages). Pure telemetry — never read by
    /// the algorithm.
    pub stage: &'static str,
}

impl Default for FloorplannerSettings {
    fn default() -> Self {
        FloorplannerSettings {
            alpha0: 1.0,
            alpha_growth: 4.0,
            max_alpha_rounds: 12,
            max_iter: 50,
            eps_conv: 1e-3,
            eps_rank: 1e-3,
            enhancements: Enhancements::full(),
            backend: Backend::Admm(AdmmSettings {
                eps: 1e-6,
                max_iter: 20_000,
                ..AdmmSettings::default()
            }),
            warm_start: true,
            admm_reuse: true,
            reset_direction: false,
            sparsify: SparsifySettings::default(),
            stage: "flat",
        }
    }
}

impl FloorplannerSettings {
    /// A reduced-budget configuration for tests, demos and CI: fewer
    /// iterations and a looser ADMM tolerance. Quality is a few
    /// percent off the default; runtime is an order of magnitude down.
    ///
    /// These knobs only bound the *solver's own* budgets. Supervision —
    /// wall-clock limits, backend fallback, α backtracking, and
    /// degraded-result reporting — lives in
    /// [`SupervisorSettings`](crate::supervisor::SupervisorSettings)
    /// and is configured on the
    /// [`SolveSupervisor`](crate::supervisor::SolveSupervisor), not
    /// here; wrapping a `fast()` solve in a supervisor does not change
    /// its iterate sequence on a healthy run.
    pub fn fast() -> Self {
        FloorplannerSettings {
            alpha0: 16.0,
            alpha_growth: 8.0,
            max_alpha_rounds: 7,
            max_iter: 6,
            eps_conv: 2e-3,
            eps_rank: 5e-3,
            backend: Backend::Admm(AdmmSettings {
                eps: 1e-5,
                max_iter: 8000,
                ..AdmmSettings::default()
            }),
            ..FloorplannerSettings::default()
        }
    }
}

/// One inner-iteration record, powering the convergence plots
/// (Fig. 5a) and the α sweeps (Fig. 4).
#[derive(Debug, Clone, Copy)]
pub struct IterTrace {
    /// Rank penalty in effect.
    pub alpha: f64,
    /// Global inner-iteration counter (across α rounds).
    pub iteration: usize,
    /// Quadratic wirelength `Σ A_ij D_ij` + pad terms under the
    /// **original** connectivity (comparable across enhancements).
    pub wirelength: f64,
    /// Rank gap `<W, Z>`.
    pub rank_gap: f64,
    /// Sub-problem-1 wall-clock seconds.
    pub sp1_seconds: f64,
    /// Sub-problem-1 solver status.
    pub sp1_status: SolveStatus,
}

/// Per-α-round convergence summary — one row of the solve report's
/// round table, and the payload of the `round.summary` telemetry
/// event.
///
/// Collected unconditionally (telemetry on or off) into
/// [`OuterState::rounds`]: the rows are cheap, checkpointed with the
/// rest of the state, and surface in [`GlobalFloorplan::rounds`] and
/// `DegradedResult` so reports work without a trace file. The
/// `fastpath_*` columns read the `kernel.eigh_partial.*` counters,
/// which only tick while telemetry is enabled; they are 0 otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Outer round index (0-based).
    pub round: usize,
    /// Rank penalty α in effect.
    pub alpha: f64,
    /// Inner convex iterations executed this round.
    pub iterations: usize,
    /// Backend iterations summed over the round (ADMM iterations or
    /// IPM Newton steps).
    pub sp1_iterations: usize,
    /// Backend that solved the round (`"admm"` or `"ipm"`).
    pub backend: &'static str,
    /// Pipeline stage the round belongs to: `"flat"` for an ordinary
    /// solve, `"top"`/`"leaf"`/`"refine"` for the hierarchical stages
    /// (from [`FloorplannerSettings::stage`]).
    pub stage: &'static str,
    /// Distance-constraint rows assembled this round: the size of the
    /// round's pair plan, `n(n−1)/2` unless the sparsifier engaged.
    pub constraints: u64,
    /// Last sub-problem-1 objective `<B̃ + αW, Z>`.
    pub objective: f64,
    /// Last iterate's quadratic wirelength (original units).
    pub wirelength: f64,
    /// Last rank gap `<W, Z>`.
    pub rank_gap: f64,
    /// Last relative rank gap `<W, Z> / trace(Z)`.
    pub rel_gap: f64,
    /// Last sub-problem-1 relative primal residual (`NaN` under IPM).
    pub primal_residual: f64,
    /// Last sub-problem-1 relative dual residual (`NaN` under IPM).
    pub dual_residual: f64,
    /// Sub-problem-2 deflated (Lanczos) fast-path accepts this round.
    pub fastpath_hits: u64,
    /// Sub-problem-2 dense-eigh fallbacks this round.
    pub fastpath_fallbacks: u64,
    /// How the round ended: `"rank_certified"`, `"inner_converged"`
    /// or `"iter_budget"`.
    pub outcome: &'static str,
    /// Round wall-clock seconds (diagnostic only — never read by the
    /// algorithm, so checkpointing it cannot perturb resumes).
    pub seconds: f64,
    /// Supervisor recovery (`"<cause>:<action>"`) that preceded this
    /// round, if the previous attempt failed and was rolled back.
    pub recovered_from: Option<String>,
}

/// The best iterate seen so far, in **normalized** coordinates.
///
/// Tracked across α rounds inside [`OuterState`]; rank-certified
/// iterates are preferred over uncertified ones (see the selection
/// rules in [`run_alpha_round`]).
#[derive(Debug, Clone)]
pub struct BestIterate {
    /// Module centers in normalized (unit length-scale) coordinates.
    pub positions: Vec<(f64, f64)>,
    /// Quadratic wirelength in original units.
    pub wirelength: f64,
    /// Relative rank gap `<W, Z> / trace(Z)` of this iterate.
    pub rel_gap: f64,
}

/// Checkpointable state of Algorithm 1's outer loop.
///
/// Everything the convex iteration carries between α rounds lives
/// here: the rank penalty, the direction matrix `W`, the warm-start
/// `svec(Z)`, the best iterate seen so far and the per-iteration
/// trace. Cloning the struct is a checkpoint; handing the clone back
/// to [`run_alpha_round`] resumes from it — the supervision layer
/// ([`crate::supervisor`]) relies on this to roll back rounds whose
/// state was poisoned by a numerical breakdown.
#[derive(Debug, Clone)]
pub struct OuterState {
    /// Rank penalty for the next round.
    pub alpha: f64,
    /// Outer (α) rounds completed.
    pub round: usize,
    /// Global inner-iteration counter across rounds.
    pub global_iter: usize,
    /// Direction matrix carried across rounds (when
    /// [`FloorplannerSettings::reset_direction`] is off).
    pub carried_w: Option<Mat>,
    /// Warm-start `svec(Z)` for the next sub-problem-1 solve.
    pub warm_z: Option<Vec<f64>>,
    /// Cross-solve ADMM reuse state (equilibration cache, CG
    /// workspace and warm duals; see
    /// [`FloorplannerSettings::admm_reuse`]). Cloned with the rest of
    /// the state, so supervisor checkpoints roll it back along with
    /// everything else.
    pub admm_reuse: AdmmReuse,
    /// Best iterate so far.
    pub best: Option<BestIterate>,
    /// Per-iteration trace.
    pub trace: Vec<IterTrace>,
    /// Per-round convergence summaries (one per completed α round).
    pub rounds: Vec<RoundSummary>,
    /// Recovery note (`"<cause>:<action>"`) set by the supervisor
    /// after a rollback; consumed into the next completed round's
    /// [`RoundSummary::recovered_from`].
    pub pending_recovery: Option<String>,
    /// Reusable sub-problem-1 assembly buffers (row/triplet storage
    /// hoisted across rounds). Pure scratch: never checkpointed —
    /// resume starts from an empty workspace and rebuilds it on the
    /// first round — and never observable in the assembled programs.
    pub assembly: AssemblyWorkspace,
    /// Whether the rank certificate has been met.
    pub converged: bool,
    /// α of the most recently started round.
    pub final_alpha: f64,
}

impl OuterState {
    /// Initial state for a **normalized** problem (see
    /// [`GlobalFloorplanProblem::normalized`]).
    pub fn new(problem: &GlobalFloorplanProblem, st: &FloorplannerSettings) -> Self {
        let lift = Lift::new(problem.n);
        // Start from a spread embedding rather than zero: the
        // all-zero X branch is a spurious fixed point of the convex
        // iteration (W then spans the pinned identity block, whose
        // trace contribution cannot be reduced).
        let warm_z = if st.warm_start {
            Some(lift.embed_positions(&problem.spread_positions(), 0.0))
        } else {
            None
        };
        OuterState {
            alpha: st.alpha0,
            round: 0,
            global_iter: 0,
            carried_w: None,
            warm_z,
            admm_reuse: AdmmReuse::new(),
            best: None,
            trace: Vec::new(),
            rounds: Vec::new(),
            pending_recovery: None,
            assembly: AssemblyWorkspace::new(),
            converged: false,
            final_alpha: st.alpha0,
        }
    }

    /// Converts the state into a [`GlobalFloorplan`], scaling positions
    /// back to original units. Returns `None` when no iterate has been
    /// produced yet (zero iteration budget or every round failed).
    pub fn into_floorplan(self, scale: f64) -> Option<GlobalFloorplan> {
        let best = self.best?;
        let mut positions = best.positions;
        for p in &mut positions {
            p.0 *= scale;
            p.1 *= scale;
        }
        Some(GlobalFloorplan {
            positions,
            objective: best.wirelength,
            rank_gap: best.rel_gap,
            alpha: self.final_alpha,
            converged: self.converged,
            iterations: self.global_iter,
            trace: self.trace,
            rounds: self.rounds,
        })
    }
}

/// Why [`run_alpha_round`] returned without an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOutcome {
    /// Rank certificate met — the algorithm is done.
    RankCertified,
    /// Inner iteration converged but the rank is not yet certified:
    /// the caller escalates α.
    InnerConverged,
    /// Inner iteration budget exhausted: the caller escalates α.
    IterBudget,
}

/// The result of a global floorplanning run.
#[derive(Debug, Clone)]
pub struct GlobalFloorplan {
    /// Module centers (`X = Z[2:, :2]`, Algorithm 1's return value).
    pub positions: Vec<(f64, f64)>,
    /// Quadratic wirelength of the final layout (original `A`).
    pub objective: f64,
    /// Final relative rank gap `<W, Z> / trace(Z)`.
    pub rank_gap: f64,
    /// Final α.
    pub alpha: f64,
    /// Whether the rank certificate was met.
    pub converged: bool,
    /// Total inner iterations across all α rounds.
    pub iterations: usize,
    /// Per-iteration trace.
    pub trace: Vec<IterTrace>,
    /// Per-round convergence summaries (the solve report round table).
    pub rounds: Vec<RoundSummary>,
}

/// The SDP-based global floorplanner (Algorithm 1).
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone)]
pub struct SdpFloorplanner {
    settings: FloorplannerSettings,
}

impl SdpFloorplanner {
    /// Creates a floorplanner with the given settings.
    pub fn new(settings: FloorplannerSettings) -> Self {
        SdpFloorplanner { settings }
    }

    /// The active settings.
    pub fn settings(&self) -> &FloorplannerSettings {
        &self.settings
    }

    /// Runs Algorithm 1 on the problem.
    ///
    /// # Errors
    ///
    /// Backend and encoding failures; see [`FloorplanError`]. Hitting
    /// the iteration budgets is **not** an error — the best iterate is
    /// returned with [`GlobalFloorplan::converged`] `false`.
    pub fn solve(
        &self,
        problem: &GlobalFloorplanProblem,
    ) -> Result<GlobalFloorplan, FloorplanError> {
        let st = &self.settings;
        let _solve_span = telemetry::span("sdp.solve");
        // Work in normalized (unit length-scale) coordinates: the ADMM
        // backend needs the lifted matrix to have O(1) entries.
        let scale = problem.length_scale();
        let norm = problem.normalized();
        let mut state = OuterState::new(&norm, st);
        while state.round < st.max_alpha_rounds && !state.converged {
            match run_alpha_round(&norm, scale, st, &st.backend, &mut state)? {
                RoundOutcome::RankCertified => break,
                RoundOutcome::InnerConverged | RoundOutcome::IterBudget => {
                    state.alpha *= st.alpha_growth;
                    state.round += 1;
                }
            }
        }
        state
            .into_floorplan(scale)
            .ok_or_else(|| FloorplanError::InvalidProblem {
                reason: "no iterations executed (check iteration budgets)".into(),
            })
    }
}

/// Rejects non-finite iterates before they poison downstream state.
fn guard_finite(data: &[f64], stage: &'static str) -> Result<(), FloorplanError> {
    if data.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(FloorplanError::NumericalBreakdown {
            stage,
            reason: "non-finite entries in iterate".into(),
        })
    }
}

/// Runs one α round (Algorithm 1 lines 2–12) against `state`, mutating
/// it in place.
///
/// `problem` must be the **normalized** problem and `scale` its
/// original length scale (trace wirelengths are reported in original
/// units). Unless the outcome is [`RoundOutcome::RankCertified`], the
/// caller escalates: `state.alpha *= st.alpha_growth; state.round += 1`.
///
/// # Errors
///
/// Backend failures propagate as usual; in addition the NaN /
/// indefiniteness guards raise [`FloorplanError::NumericalBreakdown`]
/// when `Z*` or `W` contains non-finite entries or `Z*` is
/// significantly indefinite. On error `state` keeps whatever the round
/// wrote before the failed iteration — callers that need clean state
/// roll back to a checkpoint clone (see [`crate::supervisor`]).
pub fn run_alpha_round(
    problem: &GlobalFloorplanProblem,
    scale: f64,
    st: &FloorplannerSettings,
    backend: &Backend,
    state: &mut OuterState,
) -> Result<RoundOutcome, FloorplanError> {
    let _round_span = telemetry::span("sdp.alpha_round");
    let round_t0 = std::time::Instant::now();
    // Cached handles (S2 pattern): `value()` reads are cheap and the
    // deltas give the round's dense-vs-deflated fastpath split.
    static FASTPATH_HIT: telemetry::CounterHandle =
        telemetry::CounterHandle::new("kernel.eigh_partial.hit");
    static FASTPATH_FALLBACK: telemetry::CounterHandle =
        telemetry::CounterHandle::new("kernel.eigh_partial.fallback");
    static ROUND_WALL: telemetry::HistogramHandle =
        telemetry::HistogramHandle::new("round.wall_micros");
    static SPARSIFY_KEPT: telemetry::CounterHandle =
        telemetry::CounterHandle::new("sparsify.kept");
    static SPARSIFY_PRUNED: telemetry::CounterHandle =
        telemetry::CounterHandle::new("sparsify.pruned");
    let fastpath_hits0 = FASTPATH_HIT.value();
    let fastpath_fallbacks0 = FASTPATH_FALLBACK.value();
    let n = problem.n;
    let lift = Lift::new(n);
    let round = state.round;
    let alpha = state.alpha;
    let round_start_iter = state.global_iter;
    state.final_alpha = alpha;
    // The round's distance-constraint pair plan: every pair, unless
    // the sparsifier engages and re-seeds it from the best placement
    // so far (spread layout before any iterate exists).
    let plan = if st.sparsify.is_active(n) {
        let seed: Vec<(f64, f64)> = match &state.best {
            Some(b) => b.positions.clone(),
            None => problem.spread_positions(),
        };
        let keep: Vec<(usize, usize)> =
            problem.min_distance.iter().map(|&(i, j, _)| (i, j)).collect();
        let p = neighbor_pairs(&seed, &st.sparsify, round as u64, &keep);
        SPARSIFY_KEPT.add(p.len() as u64);
        SPARSIFY_PRUNED.add((total_pairs(n) - p.len()) as u64);
        p
    } else {
        all_pairs(n)
    };
    let constraints = plan.len() as u64;
    // Round-level convergence aggregates for the `round.summary` row.
    let mut sp1_iterations = 0usize;
    let mut last_objective = f64::NAN;
    let mut last_primal = f64::NAN;
    let mut last_dual = f64::NAN;
    let mut last_wirelength = f64::NAN;
    let mut last_gap = f64::NAN;
    let mut last_rel_gap = f64::NAN;
    // Algorithm 1 lines 2–4: W starts from the trace heuristic
    // (identity) and B from the base matrix. When
    // `reset_direction` is off, W instead carries over from the
    // previous α round (see the setting's docs).
    let mut w = match (&state.carried_w, st.reset_direction) {
        (Some(w), false) => w.clone(),
        _ => Mat::identity(lift.nn),
    };
    let mut a_eff = effective_adjacency(problem, st.enhancements, None);
    let mut prev_z: Option<Vec<f64>> = None;
    let mut prev_w: Option<Mat> = None;
    let mut outcome = RoundOutcome::IterBudget;

    for _t in 0..st.max_iter {
        state.global_iter += 1;
        let global_iter = state.global_iter;
        let objective = objective_matrix(problem, &a_eff, Some((&w, alpha)));
        let warm = if st.warm_start {
            state.warm_z.as_deref()
        } else {
            None
        };
        let reuse = if st.admm_reuse {
            Some(&mut state.admm_reuse)
        } else {
            None
        };
        let sp1 = solve_subproblem1(
            problem,
            &a_eff,
            &objective,
            backend,
            warm,
            reuse,
            &plan,
            &mut state.assembly,
        )?;
        sp1_iterations += sp1.iterations;
        last_objective = sp1.objective;
        last_primal = sp1.primal_residual;
        last_dual = sp1.dual_residual;
        let z = sp1.z.clone();
        guard_finite(&z, "subproblem1")?;
        let z_mat = lift.z_matrix(&z);
        let (w_new, gap) = solve_subproblem2(&z_mat, n)?;
        guard_finite(w_new.as_slice(), "subproblem2")?;
        let trace_z = z_mat.trace().max(1e-300);
        // A genuinely PSD Z* keeps <W,Z> ≥ 0 up to solver tolerance; a
        // markedly negative gap means the iterate left the cone.
        if !gap.is_finite() || gap < -1e-3 * trace_z.max(1.0) {
            return Err(FloorplanError::NumericalBreakdown {
                stage: "subproblem2",
                reason: format!("indefinite Z*: <W,Z> = {gap:.3e}, trace = {trace_z:.3e}"),
            });
        }

        // Diagnostics in original-connectivity units.
        let positions = lift.extract_positions(&z);
        let wirelength =
            crate::diagnostics::quadratic_wirelength(problem, &positions) * scale * scale;
        state.trace.push(IterTrace {
            alpha,
            iteration: global_iter,
            wirelength,
            rank_gap: gap,
            sp1_seconds: sp1.solve_seconds,
            sp1_status: sp1.status,
        });

        let rel_gap = (gap / trace_z).max(0.0);
        last_wirelength = wirelength;
        last_gap = gap;
        last_rel_gap = rel_gap;
        match &mut state.best {
            Some(b) => {
                // Prefer rank-certified iterates (their X block is a
                // genuine layout); among certified, lower wirelength;
                // among uncertified, smaller rank gap.
                let cert_now = rel_gap < st.eps_rank;
                let cert_best = b.rel_gap < st.eps_rank;
                let better = match (cert_now, cert_best) {
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) => wirelength < b.wirelength,
                    (false, false) => rel_gap < b.rel_gap,
                };
                if better {
                    b.positions = positions.clone();
                    b.wirelength = wirelength;
                    b.rel_gap = rel_gap;
                }
            }
            None => {
                state.best = Some(BestIterate {
                    positions: positions.clone(),
                    wirelength,
                    rel_gap,
                })
            }
        }

        // Enhancement updates for the next iteration (Eq. 20).
        a_eff = effective_adjacency(problem, st.enhancements, Some(&positions));

        // Convergence of the inner loop (Algorithm 1 line 10).
        let z_delta = match &prev_z {
            Some(pz) => {
                let num: f64 = z
                    .iter()
                    .zip(pz.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let den: f64 = z.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
                num / den
            }
            None => f64::INFINITY,
        };
        let w_delta = match &prev_w {
            Some(pw) => (&w_new - pw).norm_fro() / (n as f64),
            None => f64::INFINITY,
        };
        prev_z = Some(z.clone());
        prev_w = Some(w_new.clone());
        if st.warm_start {
            state.warm_z = Some(z);
        }
        w = w_new;
        state.carried_w = Some(w.clone());

        // One telemetry event per convex iteration. The field
        // slice is only built when telemetry is on, keeping the
        // disabled hot path allocation- and I/O-free.
        if telemetry::enabled() {
            telemetry::event(
                "convex.iter",
                &[
                    ("alpha", alpha.into()),
                    ("iteration", global_iter.into()),
                    ("round", round.into()),
                    ("objective", sp1.objective.into()),
                    ("wirelength", wirelength.into()),
                    ("rank_gap", gap.into()),
                    ("rel_gap", rel_gap.into()),
                    ("z_delta", z_delta.into()),
                    ("w_delta", w_delta.into()),
                    ("sp1_seconds", sp1.solve_seconds.into()),
                    ("sp1_status", format!("{:?}", sp1.status).into()),
                ],
            );
            telemetry::counter_add("convex.iterations", 1);
        }

        // Outer termination (Algorithm 1 line 12): rank satisfied.
        if rel_gap < st.eps_rank && z_delta + w_delta < st.eps_conv {
            state.converged = true;
            outcome = RoundOutcome::RankCertified;
            break;
        }
        if z_delta + w_delta < st.eps_conv {
            outcome = RoundOutcome::InnerConverged;
            break; // inner converged, rank not yet: escalate α
        }
    }

    // Check rank after the inner loop as well.
    if !state.converged {
        if let Some(b) = &state.best {
            if b.rel_gap < st.eps_rank {
                state.converged = true;
                outcome = RoundOutcome::RankCertified;
            }
        }
    }

    let round_secs = round_t0.elapsed().as_secs_f64();
    let summary = RoundSummary {
        round,
        alpha,
        iterations: state.global_iter - round_start_iter,
        sp1_iterations,
        backend: backend.name(),
        stage: st.stage,
        constraints,
        objective: last_objective,
        wirelength: last_wirelength,
        rank_gap: last_gap,
        rel_gap: last_rel_gap,
        primal_residual: last_primal,
        dual_residual: last_dual,
        fastpath_hits: FASTPATH_HIT.value().saturating_sub(fastpath_hits0),
        fastpath_fallbacks: FASTPATH_FALLBACK.value().saturating_sub(fastpath_fallbacks0),
        outcome: match outcome {
            RoundOutcome::RankCertified => "rank_certified",
            RoundOutcome::InnerConverged => "inner_converged",
            RoundOutcome::IterBudget => "iter_budget",
        },
        seconds: round_secs,
        recovered_from: state.pending_recovery.take(),
    };
    if telemetry::enabled() {
        telemetry::event(
            "convex.alpha_round",
            &[
                ("round", round.into()),
                ("alpha", alpha.into()),
                ("iterations", summary.iterations.into()),
                (
                    "best_rel_gap",
                    state.best.as_ref().map_or(f64::NAN, |b| b.rel_gap).into(),
                ),
            ],
        );
        telemetry::event(
            "round.summary",
            &[
                ("round", summary.round.into()),
                ("alpha", summary.alpha.into()),
                ("iterations", summary.iterations.into()),
                ("sp1_iterations", summary.sp1_iterations.into()),
                ("backend", summary.backend.into()),
                ("stage", summary.stage.into()),
                ("constraints", summary.constraints.into()),
                ("objective", summary.objective.into()),
                ("wirelength", summary.wirelength.into()),
                ("rank_gap", summary.rank_gap.into()),
                ("rel_gap", summary.rel_gap.into()),
                ("primal_residual", summary.primal_residual.into()),
                ("dual_residual", summary.dual_residual.into()),
                ("fastpath_hits", summary.fastpath_hits.into()),
                ("fastpath_fallbacks", summary.fastpath_fallbacks.into()),
                ("outcome", summary.outcome.into()),
                ("seconds", summary.seconds.into()),
                (
                    "recovered_from",
                    summary
                        .recovered_from
                        .clone()
                        .map_or(telemetry::Value::Str(""), telemetry::Value::Text),
                ),
            ],
        );
        ROUND_WALL.record((round_secs * 1e6) as u64);
    }
    state.rounds.push(summary);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::check_distance_feasibility;
    use crate::{GlobalFloorplanProblem, ProblemOptions};
    use gfp_netlist::suite;

    fn tiny_settings() -> FloorplannerSettings {
        let mut s = FloorplannerSettings::fast();
        s.max_iter = 6;
        // The loose fast() certificate (5e-3) can accept an iterate
        // whose X block still collapses a pair on this instance; the
        // tighter gap keeps the extracted layout near-feasible.
        s.eps_rank = 1e-3;
        s
    }

    #[test]
    fn solves_n10_and_separates_modules() {
        let b = suite::gsrc_n10();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let fp = SdpFloorplanner::new(tiny_settings()).solve(&p).unwrap();
        assert_eq!(fp.positions.len(), 10);
        assert!(fp.iterations > 0);
        assert!(!fp.trace.is_empty());
        // The layout must be close to feasible: modules are spread, not
        // collapsed onto a point (the trivial optimum previous methods hit).
        let report = check_distance_feasibility(&p, &fp.positions, 0.10);
        assert!(
            report.violations <= report.pairs / 5,
            "too many violated pairs: {report:?}"
        );
        // Non-trivial spread.
        let (mut min_x, mut max_x) = (f64::MAX, f64::MIN);
        for &(x, _) in &fp.positions {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
        }
        assert!(max_x - min_x > 1.0, "layout collapsed");
    }

    #[test]
    fn rank_gap_shrinks_along_trace() {
        let b = suite::gsrc_n10();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let fp = SdpFloorplanner::new(tiny_settings()).solve(&p).unwrap();
        let first = fp.trace.first().unwrap().rank_gap;
        let last = fp.trace.last().unwrap().rank_gap;
        assert!(
            last <= first * 1.5 + 1e-9,
            "rank gap grew: {first} -> {last}"
        );
    }

    #[test]
    fn trace_alphas_follow_schedule() {
        let b = suite::gsrc_n10();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let mut s = tiny_settings();
        s.eps_rank = 1e-12; // unreachable: forces alpha escalation
        s.max_iter = 2;
        s.max_alpha_rounds = 3;
        let fp = SdpFloorplanner::new(s.clone()).solve(&p).unwrap();
        assert!(!fp.converged);
        let alphas: Vec<f64> = fp.trace.iter().map(|t| t.alpha).collect();
        assert!(alphas.windows(2).all(|w| w[1] >= w[0]));
        assert!(*alphas.last().unwrap() > s.alpha0);
    }

    #[test]
    fn outline_keeps_modules_inside() {
        let b = suite::gsrc_n10();
        let (nl, outline) = b.with_pads_on_outline(1.0);
        let opts = ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        };
        let p = GlobalFloorplanProblem::from_netlist(&nl, &opts).unwrap();
        let fp = SdpFloorplanner::new(tiny_settings()).solve(&p).unwrap();
        for (i, &(x, y)) in fp.positions.iter().enumerate() {
            assert!(
                x > -1.0 && x < outline.width + 1.0 && y > -1.0 && y < outline.height + 1.0,
                "module {i} at ({x}, {y}) escaped outline {outline:?}"
            );
        }
    }

    #[test]
    fn ppm_module_stays_put() {
        let b = suite::gsrc_n10();
        let (nl, outline) = b.with_pads_on_outline(1.0);
        let (cx, cy) = outline.center();
        let nl = nl.with_fixed_module(3, cx, cy);
        let opts = ProblemOptions {
            outline: Some(outline),
            ..ProblemOptions::default()
        };
        let p = GlobalFloorplanProblem::from_netlist(&nl, &opts).unwrap();
        let fp = SdpFloorplanner::new(tiny_settings()).solve(&p).unwrap();
        let (x, y) = fp.positions[3];
        let tol = 0.05 * outline.width;
        assert!(
            (x - cx).abs() < tol && (y - cy).abs() < tol,
            "fixed module moved to ({x}, {y}), expected ({cx}, {cy})"
        );
    }
}

#[cfg(test)]
mod distance_control_tests {
    use super::*;
    use crate::{GlobalFloorplanProblem, ProblemOptions};
    use gfp_netlist::suite;

    /// Section IV-D's "controllable area constraint": a user max-distance
    /// constraint pulls a chosen pair together; a min-distance override
    /// pushes another apart.
    #[test]
    fn max_distance_constraint_is_honored() {
        let b = suite::gsrc_n10();
        let mut p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        // Find a weakly connected pair to make the constraint binding.
        let (i, j) = (0usize, 7usize);
        let bound = {
            let r = (p.radii[i] + p.radii[j]).powi(2);
            r * 2.25 // allow 1.5x the tangency distance
        };
        p.add_max_distance(i, j, bound);
        let mut s = FloorplannerSettings::fast();
        s.max_iter = 4;
        let fp = SdpFloorplanner::new(s).solve(&p).unwrap();
        let d2 = (fp.positions[i].0 - fp.positions[j].0).powi(2)
            + (fp.positions[i].1 - fp.positions[j].1).powi(2);
        assert!(
            d2 <= bound * 1.15,
            "pair ({i},{j}) distance² {d2:.1} exceeds bound {bound:.1}"
        );
    }

    #[test]
    fn min_distance_override_strengthens_bound() {
        let b = suite::gsrc_n10();
        let mut p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let (i, j) = (1usize, 2usize);
        let strong = 4.0 * (p.radii[i] + p.radii[j]).powi(2);
        p.add_min_distance(i, j, strong);
        let bound = p.distance_bounds(&p.a, &[(i, j)])[0];
        assert!((bound - strong).abs() < 1e-9);
        let mut s = FloorplannerSettings::fast();
        s.max_iter = 4;
        let fp = SdpFloorplanner::new(s).solve(&p).unwrap();
        let d2 = (fp.positions[i].0 - fp.positions[j].0).powi(2)
            + (fp.positions[i].1 - fp.positions[j].1).powi(2);
        assert!(
            d2 >= strong * 0.7,
            "pair ({i},{j}) distance² {d2:.1} below strengthened bound {strong:.1}"
        );
    }

    #[test]
    fn normalized_scales_custom_bounds() {
        let b = suite::gsrc_n10();
        let mut p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        p.add_max_distance(0, 1, 1000.0);
        let l = p.length_scale();
        let norm = p.normalized();
        assert!((norm.max_distance[0].2 - 1000.0 / (l * l)).abs() < 1e-12);
    }
}

#[cfg(test)]
mod ipm_backend_tests {
    use super::*;
    use crate::{GlobalFloorplanProblem, ProblemOptions};
    use gfp_conic::ipm::BarrierSettings;
    use gfp_netlist::suite;

    /// The dense IPM backend drives the full Algorithm 1 on a small
    /// unconstrained instance and reaches a layout comparable to ADMM.
    #[test]
    fn ipm_backend_full_driver() {
        let b = suite::gsrc_n10();
        let p = GlobalFloorplanProblem::from_netlist(
            &b.netlist,
            &ProblemOptions::default(),
        )
        .unwrap();
        let mut s = FloorplannerSettings::fast();
        s.max_iter = 3;
        s.max_alpha_rounds = 4;
        s.backend = Backend::Ipm(BarrierSettings {
            eps: 1e-6,
            ..BarrierSettings::default()
        });
        let ipm = SdpFloorplanner::new(s).solve(&p).unwrap();
        assert_eq!(ipm.positions.len(), 10);
        assert!(ipm.positions.iter().all(|p| p.0.is_finite() && p.1.is_finite()));
        // The α escalation must drive the rank gap down overall (the
        // per-iteration gap alone is not monotone — the convex
        // iteration trades it against wirelength inside a round).
        let first = ipm.trace.first().unwrap().rank_gap;
        let last = ipm.trace.last().unwrap().rank_gap;
        assert!(
            last <= first,
            "rank gap did not improve under IPM backend: {first} -> {last}"
        );
    }

    #[test]
    fn paper_options_match_experimental_setup() {
        let outline = gfp_netlist::Outline::new(100.0, 100.0);
        let opts = ProblemOptions::paper(outline);
        assert_eq!(opts.aspect_limit, 3.0);
        assert!(opts.use_pads);
        assert_eq!(opts.outline.unwrap(), outline);
    }
}
