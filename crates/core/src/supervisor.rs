//! Supervised solving: budgets, guards, fallback and degradation.
//!
//! [`SdpFloorplanner::solve`](crate::SdpFloorplanner::solve) is the
//! bare Algorithm 1 driver: any backend failure or numerical breakdown
//! propagates as an error and the work done so far is lost.
//! [`SolveSupervisor`] wraps the same outer loop with a supervision
//! layer built for unattended runs:
//!
//! * **Checkpoint/resume** — the outer-loop state ([`OuterState`]: α,
//!   the direction matrix `W`, the warm-start `Z`, the cross-solve
//!   ADMM reuse state and the best iterate seen so far) is
//!   checkpointed before every α round; a failed round is rolled back
//!   instead of poisoning the run.
//! * **Backend fallback** — on failure the sub-problem-1 backend is
//!   swapped (ADMM ↔ dense barrier IPM) and the round retried from the
//!   checkpoint.
//! * **α backtracking** — if the fallback also fails, the rank penalty
//!   is divided by [`SupervisorSettings::alpha_backtrack`] and the
//!   carried direction matrix is discarded; oversized penalties are the
//!   most common cause of divergence.
//! * **Budgets** — optional per-round and total wall-clock limits stop
//!   runaway solves. They default to `None`: wall limits make the
//!   control flow machine-dependent, so deterministic runs (tests,
//!   reproducibility studies) must leave them off.
//! * **Degradation, not panic** — [`SolveSupervisor::solve`] is
//!   infallible. It always returns the best-known placement together
//!   with a machine-readable quality taxonomy ([`SolveQuality`],
//!   [`DegradeCause`]); if literally nothing solved, the deterministic
//!   spread embedding is returned as a [`SolveQuality::Placeholder`].
//! * **Durable checkpoints** — with
//!   [`SupervisorSettings::checkpoint_dir`] set, every completed α
//!   round is also snapshotted to disk (atomic, CRC-protected,
//!   generation ring; see `gfp-store`), and
//!   [`SolveSupervisor::resume_from_dir`] restarts a killed process
//!   from the newest good snapshot with a bitwise-identical
//!   trajectory (see `crate::checkpoint` for the determinism
//!   contract).
//!
//! All supervision decisions depend only on deterministic solver
//! outcomes (when wall limits are `None`), so a supervised solve is as
//! reproducible as a bare one — including under injected faults from
//! `gfp-fault`, whose hooks fire on deterministic call counts.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gfp_conic::ipm::BarrierSettings;
use gfp_conic::AdmmSettings;
use gfp_store::SnapshotStore;
use gfp_telemetry as telemetry;

use crate::checkpoint::{decode_state, encode_state, STATE_FORMAT_VERSION};

use crate::iterate::{
    run_alpha_round, Backend, FloorplannerSettings, GlobalFloorplan, OuterState, RoundOutcome,
};
use crate::{FloorplanError, GlobalFloorplanProblem};

/// Knobs of the supervision layer (on top of
/// [`FloorplannerSettings`], which budget the algorithm itself).
#[derive(Debug, Clone)]
pub struct SupervisorSettings {
    /// Total recovery attempts (fallbacks + backtracks) before the run
    /// degrades to the best-known placement.
    pub max_recoveries: usize,
    /// Swap the sub-problem-1 backend (ADMM ↔ IPM) on the first
    /// failure.
    pub backend_fallback: bool,
    /// Divisor applied to α when backtracking (must be > 1).
    pub alpha_backtrack: f64,
    /// Maximum α backtracks before giving up.
    pub max_backtracks: usize,
    /// Wall-clock limit per α round, checked **between** rounds (a
    /// round is never interrupted mid-flight). `None` (the default)
    /// keeps the control flow deterministic.
    pub round_wall_limit: Option<Duration>,
    /// Total wall-clock limit, checked before each round. `None` (the
    /// default) keeps the control flow deterministic.
    pub total_wall_limit: Option<Duration>,
    /// Directory for durable per-round checkpoints. When set, the
    /// outer-loop state is snapshotted (atomically, CRC-protected; see
    /// `gfp-store`) after every completed α round and once more when
    /// the run ends, and [`SolveSupervisor::resume_from_dir`] can
    /// restart a killed process from the newest good snapshot with a
    /// bitwise-identical trajectory. `None` (the default) keeps solves
    /// purely in-memory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Generations retained in the snapshot ring (clamped to ≥ 1).
    /// Older snapshots are pruned after each write; loads fall back
    /// through the ring when newer generations are torn or corrupt.
    pub checkpoint_keep: usize,
    /// Per-solve report destination. When set, the end-of-solve
    /// [`gfp_telemetry::SolveReport`] is written here and the
    /// process-global `GFP_REPORT` environment variable is ignored for
    /// this solve — the scoped handle that lets concurrent supervised
    /// solves (daemon workers) each keep their own report instead of
    /// clobbering one shared path. `None` (the default) falls back to
    /// `GFP_REPORT`.
    pub report_path: Option<PathBuf>,
}

impl Default for SupervisorSettings {
    fn default() -> Self {
        SupervisorSettings {
            max_recoveries: 4,
            backend_fallback: true,
            alpha_backtrack: 4.0,
            max_backtracks: 2,
            round_wall_limit: None,
            total_wall_limit: None,
            checkpoint_dir: None,
            checkpoint_keep: 3,
            report_path: None,
        }
    }
}

/// How good the returned placement is — the coarse, machine-readable
/// verdict of a supervised solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveQuality {
    /// Rank certificate met with no recovery needed.
    Certified,
    /// Rank certificate met, but only after at least one fallback or
    /// backtrack.
    Recovered,
    /// No certificate: an iteration or wall-clock budget ran out on a
    /// healthy run — no failures, no recoveries, a usable best iterate
    /// (iteration budgets: same meaning as `converged: false` from the
    /// bare solver). The returned checkpoint is valid and
    /// [`SolveSupervisor::resume`] continues the run.
    BudgetExhausted,
    /// Failures consumed the recovery budget, or a wall limit fired on
    /// a run that had already needed recovery; the placement is the
    /// best iterate seen before degradation.
    Degraded,
    /// Nothing solved at all: the placement is the deterministic
    /// spread embedding, usable only as a seed.
    Placeholder,
}

impl SolveQuality {
    /// Stable machine-readable identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            SolveQuality::Certified => "certified",
            SolveQuality::Recovered => "recovered",
            SolveQuality::BudgetExhausted => "budget_exhausted",
            SolveQuality::Degraded => "degraded",
            SolveQuality::Placeholder => "placeholder",
        }
    }
}

/// One reason a supervised solve lost quality. A run accumulates one
/// entry per failure or tripped budget, in chronological order.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DegradeCause {
    /// A NaN/Inf or indefiniteness guard fired
    /// ([`FloorplanError::NumericalBreakdown`]).
    NumericalBreakdown {
        /// Pipeline stage that tripped the guard.
        stage: &'static str,
    },
    /// The active conic backend returned an error.
    BackendFailure {
        /// Backend that failed (`"admm"` or `"ipm"`).
        backend: &'static str,
        /// Rendered error.
        detail: String,
    },
    /// A wall-clock budget fired.
    WallBudget {
        /// `"round"` or `"total"`.
        scope: &'static str,
    },
    /// The recovery budget itself ran out.
    RecoveryExhausted,
}

impl DegradeCause {
    /// Stable machine-readable identifier.
    pub fn code(&self) -> &'static str {
        match self {
            DegradeCause::NumericalBreakdown { .. } => "numerical_breakdown",
            DegradeCause::BackendFailure { .. } => "backend_failure",
            DegradeCause::WallBudget { .. } => "wall_budget",
            DegradeCause::RecoveryExhausted => "recovery_exhausted",
        }
    }
}

/// The (infallible) outcome of a supervised solve: the best-known
/// placement plus everything needed to judge and resume it.
#[derive(Debug, Clone)]
pub struct DegradedResult {
    /// Best-known placement. Always present — see
    /// [`DegradedResult::quality`] for how much to trust it.
    pub floorplan: GlobalFloorplan,
    /// Coarse quality verdict.
    pub quality: SolveQuality,
    /// Chronological failure/budget record (empty on a clean run).
    pub causes: Vec<DegradeCause>,
    /// Recovery attempts consumed.
    pub recoveries: usize,
    /// Backend fallbacks performed.
    pub fallbacks: usize,
    /// α backtracks performed.
    pub backtracks: usize,
    /// Backend active when the run ended (`"admm"` or `"ipm"`).
    pub final_backend: &'static str,
    /// Final outer-loop state; feed it to [`SolveSupervisor::resume`]
    /// (with the same problem) to continue with enlarged budgets.
    pub checkpoint: OuterState,
}

/// Supervision loop around the convex-iteration driver. See the
/// [module docs](self) for the recovery policy.
#[derive(Debug, Clone)]
pub struct SolveSupervisor {
    settings: FloorplannerSettings,
    sup: SupervisorSettings,
}

/// Builds the opposite backend for fallback. The fallback gets the
/// reduced-budget profile of [`FloorplannerSettings::fast`]: after a
/// failure the goal is a usable iterate, not peak accuracy.
fn fallback_backend(primary: &Backend) -> Backend {
    match primary {
        Backend::Admm(_) => Backend::Ipm(BarrierSettings {
            eps: 1e-6,
            ..BarrierSettings::default()
        }),
        Backend::Ipm(_) => Backend::Admm(AdmmSettings {
            eps: 1e-5,
            max_iter: 8000,
            ..AdmmSettings::default()
        }),
    }
}

fn cause_of(err: &FloorplanError, backend: &'static str) -> DegradeCause {
    match err {
        FloorplanError::NumericalBreakdown { stage, .. } => {
            DegradeCause::NumericalBreakdown { stage }
        }
        other => DegradeCause::BackendFailure {
            backend,
            detail: other.to_string(),
        },
    }
}

impl SolveSupervisor {
    /// Supervises with the default [`SupervisorSettings`].
    pub fn new(settings: FloorplannerSettings) -> Self {
        SolveSupervisor {
            settings,
            sup: SupervisorSettings::default(),
        }
    }

    /// Supervises with explicit supervision knobs.
    pub fn with_supervision(settings: FloorplannerSettings, sup: SupervisorSettings) -> Self {
        SolveSupervisor { settings, sup }
    }

    /// The algorithm settings.
    pub fn settings(&self) -> &FloorplannerSettings {
        &self.settings
    }

    /// The supervision knobs.
    pub fn supervision(&self) -> &SupervisorSettings {
        &self.sup
    }

    /// Runs a supervised solve. Never fails: the worst case is a
    /// [`SolveQuality::Placeholder`] result carrying the spread
    /// embedding and the accumulated [`DegradeCause`] list.
    pub fn solve(&self, problem: &GlobalFloorplanProblem) -> DegradedResult {
        let norm = problem.normalized();
        let state = OuterState::new(&norm, &self.settings);
        self.run(problem, state)
    }

    /// Resumes a previous run from its checkpoint. `problem` must be
    /// the same problem the checkpoint came from (the state stores
    /// normalized-coordinate data tied to that instance); typically the
    /// supervisor is rebuilt with enlarged budgets first.
    pub fn resume(&self, problem: &GlobalFloorplanProblem, checkpoint: OuterState) -> DegradedResult {
        self.run(problem, checkpoint)
    }

    /// Resumes a killed solve from the newest good on-disk snapshot in
    /// `dir` (written by a previous run configured with
    /// [`SupervisorSettings::checkpoint_dir`]). Torn or corrupted
    /// generations are skipped by CRC; the run continues from the last
    /// completed α round and, because round replay is deterministic,
    /// produces the bitwise-identical trajectory of an uninterrupted
    /// run. `problem` must be the same instance the snapshots came
    /// from.
    ///
    /// # Errors
    ///
    /// [`FloorplanError::Checkpoint`] when the directory cannot be
    /// opened, holds no snapshot at all, every generation is corrupt,
    /// or the newest good payload has an unknown format version.
    pub fn resume_from_dir(
        &self,
        problem: &GlobalFloorplanProblem,
        dir: impl AsRef<Path>,
    ) -> Result<DegradedResult, FloorplanError> {
        let dir = dir.as_ref();
        let store = SnapshotStore::open(dir, self.sup.checkpoint_keep)
            .map_err(|e| FloorplanError::Checkpoint { reason: e.to_string() })?;
        let snap = store
            .load_latest()
            .map_err(|e| FloorplanError::Checkpoint { reason: e.to_string() })?
            .ok_or_else(|| FloorplanError::Checkpoint {
                reason: format!("no snapshot found in {}", dir.display()),
            })?;
        let state = decode_state(snap.version, &snap.payload).map_err(|e| {
            FloorplanError::Checkpoint {
                reason: format!("generation {}: {e}", snap.generation),
            }
        })?;
        telemetry::counter_add("store.resume", 1);
        if telemetry::enabled() {
            telemetry::event(
                "store.resume",
                &[
                    ("generation", snap.generation.into()),
                    ("round", state.round.into()),
                    ("global_iter", state.global_iter.into()),
                    ("converged", state.converged.into()),
                ],
            );
        }
        Ok(self.run(problem, state))
    }

    /// Best-effort durable checkpoint: a solve must never fail because
    /// the disk did (the full state is still returned in-memory), so
    /// write errors are counted (`store.write_error` inside the store)
    /// and reported as an event, not propagated. Encode and write run
    /// inside a `supervisor.persist` span, so a report splits a durable
    /// solve's time into persistence and the rest.
    fn persist(&self, store: &mut Option<SnapshotStore>, state: &OuterState) {
        let Some(store) = store.as_mut() else { return };
        let _span = telemetry::span("supervisor.persist");
        let payload = encode_state(state);
        if let Err(e) = store.write(STATE_FORMAT_VERSION, &payload) {
            if telemetry::enabled() {
                telemetry::event(
                    "supervisor.checkpoint_write_failed",
                    &[("error", e.to_string().into()), ("round", state.round.into())],
                );
            }
        }
    }

    /// Drives [`run_inner`](Self::run_inner) and, when
    /// [`SupervisorSettings::report_path`] is set (or, failing that,
    /// `GFP_REPORT` names a path), captures a
    /// [`gfp_telemetry::SolveReport`] (see
    /// [`DegradedResult::solve_report`]) and writes it there. Report
    /// capture happens *after* the supervisor span closes so the span
    /// tree includes the full solve; write failures are reported as a
    /// telemetry event, never propagated — same best-effort contract
    /// as durable checkpoints.
    fn run(&self, problem: &GlobalFloorplanProblem, state: OuterState) -> DegradedResult {
        let result = self.run_inner(problem, state);
        if let Some(path) = self
            .sup
            .report_path
            .clone()
            .or_else(telemetry::report_path_from_env)
        {
            let report = result.solve_report();
            if let Err(e) = report.write_to(&path) {
                telemetry::counter_add("supervisor.report_write_error", 1);
                if telemetry::enabled() {
                    telemetry::event(
                        "supervisor.report_write_failed",
                        &[
                            ("path", path.display().to_string().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                }
            }
        }
        result
    }

    fn run_inner(&self, problem: &GlobalFloorplanProblem, mut state: OuterState) -> DegradedResult {
        let _span = telemetry::span("supervisor.solve");
        let t0 = Instant::now();
        let st = &self.settings;
        let scale = problem.length_scale();
        let norm = problem.normalized();

        let fallback = fallback_backend(&st.backend);
        let mut active = st.backend.clone();

        let mut causes: Vec<DegradeCause> = Vec::new();
        let mut recoveries = 0usize;
        let mut fallbacks = 0usize;
        let mut backtracks = 0usize;
        let mut exhausted = false;
        let mut wall_tripped = false;

        // Durable checkpointing is optional and best-effort: an
        // unopenable directory degrades to an in-memory-only run.
        let mut store: Option<SnapshotStore> = self.sup.checkpoint_dir.as_ref().and_then(|dir| {
            match SnapshotStore::open(dir, self.sup.checkpoint_keep) {
                Ok(s) => Some(s),
                Err(e) => {
                    if telemetry::enabled() {
                        telemetry::event(
                            "supervisor.checkpoint_open_failed",
                            &[("error", e.to_string().into())],
                        );
                    }
                    None
                }
            }
        });

        while state.round < st.max_alpha_rounds && !state.converged {
            if let Some(limit) = self.sup.total_wall_limit {
                if t0.elapsed() >= limit {
                    causes.push(DegradeCause::WallBudget { scope: "total" });
                    wall_tripped = true;
                    break;
                }
            }
            // Checkpoint before the round: on failure everything the
            // poisoned round wrote (trace rows, warm starts, carried W)
            // is rolled back in one assignment.
            let checkpoint = state.clone();
            let round_t0 = Instant::now();
            match run_alpha_round(&norm, scale, st, &active, &mut state) {
                Ok(RoundOutcome::RankCertified) => break,
                Ok(RoundOutcome::InnerConverged) | Ok(RoundOutcome::IterBudget) => {
                    state.alpha *= st.alpha_growth;
                    state.round += 1;
                    telemetry::counter_add("supervisor.rounds", 1);
                    // Persist at the round boundary, after escalation:
                    // a resume replays from here and the next round
                    // sees exactly the state an uninterrupted run
                    // would.
                    self.persist(&mut store, &state);
                    if let Some(limit) = self.sup.round_wall_limit {
                        if round_t0.elapsed() >= limit {
                            causes.push(DegradeCause::WallBudget { scope: "round" });
                            wall_tripped = true;
                            break;
                        }
                    }
                }
                Err(err) => {
                    let cause = cause_of(&err, active.name());
                    let cause_code = cause.code();
                    recoveries += 1;
                    state = checkpoint;
                    let action: &'static str;
                    if recoveries > self.sup.max_recoveries {
                        causes.push(cause);
                        causes.push(DegradeCause::RecoveryExhausted);
                        exhausted = true;
                        action = "exhausted";
                    } else if self.sup.backend_fallback && fallbacks == 0 {
                        // First line of defense: the other backend,
                        // same checkpoint.
                        active = fallback.clone();
                        fallbacks += 1;
                        causes.push(cause);
                        action = "fallback";
                    } else if backtracks < self.sup.max_backtracks {
                        // Second line: shrink the rank penalty and drop
                        // the carried direction matrix — an oversized
                        // α W term is the usual divergence driver. The
                        // fallback backend (if any) is reverted: the
                        // primary gets first shot at the easier round.
                        if fallbacks > 0 {
                            active = st.backend.clone();
                        }
                        state.alpha =
                            (state.alpha / self.sup.alpha_backtrack).max(f64::MIN_POSITIVE);
                        state.carried_w = None;
                        // Warm duals came from the diverging α; the
                        // equilibration cache is a pure function of
                        // the (unchanged) constraint matrix and stays.
                        state.admm_reuse.clear_warm();
                        backtracks += 1;
                        causes.push(cause);
                        action = "backtrack";
                    } else {
                        causes.push(cause);
                        causes.push(DegradeCause::RecoveryExhausted);
                        exhausted = true;
                        action = "exhausted";
                    }
                    // The next completed round's summary reports what
                    // it recovered from ("<cause>:<action>").
                    state.pending_recovery = Some(format!("{cause_code}:{action}"));
                    if telemetry::enabled() {
                        telemetry::event(
                            "supervisor.recovery",
                            &[
                                ("error", err.to_string().into()),
                                ("backend", active.name().into()),
                                ("action", action.into()),
                                ("recoveries", recoveries.into()),
                            ],
                        );
                        telemetry::counter_add("supervisor.recoveries", 1);
                    }
                    if exhausted {
                        break;
                    }
                }
            }
        }

        // Final snapshot: captures convergence (so a resume of a
        // finished run returns immediately) and the state of wall- or
        // recovery-terminated runs.
        self.persist(&mut store, &state);

        let converged = state.converged;
        let checkpoint = state.clone();
        let floorplan = state.into_floorplan(scale);
        let quality = match &floorplan {
            Some(_) if converged && recoveries == 0 && !wall_tripped => SolveQuality::Certified,
            Some(_) if converged => SolveQuality::Recovered,
            // A wall trip on an otherwise clean run is a budget, not a
            // failure: the best iterate is healthy and the checkpoint
            // resumes it.
            Some(_) if wall_tripped && recoveries == 0 && !exhausted => {
                SolveQuality::BudgetExhausted
            }
            Some(_) if exhausted || wall_tripped => SolveQuality::Degraded,
            Some(_) if causes.is_empty() => SolveQuality::BudgetExhausted,
            Some(_) => SolveQuality::Degraded,
            None => SolveQuality::Placeholder,
        };
        let floorplan = floorplan.unwrap_or_else(|| {
            // Nothing solved: fall back to the deterministic spread
            // embedding so downstream stages still get a layout.
            let spread = norm.spread_positions();
            let wirelength =
                crate::diagnostics::quadratic_wirelength(&norm, &spread) * scale * scale;
            let positions = spread.into_iter().map(|(x, y)| (x * scale, y * scale)).collect();
            GlobalFloorplan {
                positions,
                objective: wirelength,
                rank_gap: f64::INFINITY,
                alpha: checkpoint.final_alpha,
                converged: false,
                iterations: checkpoint.global_iter,
                trace: checkpoint.trace.clone(),
                rounds: checkpoint.rounds.clone(),
            }
        });

        if telemetry::enabled() {
            telemetry::event(
                "supervisor.done",
                &[
                    ("quality", quality.as_str().into()),
                    ("recoveries", recoveries.into()),
                    ("fallbacks", fallbacks.into()),
                    ("backtracks", backtracks.into()),
                    ("rounds", checkpoint.round.into()),
                    ("converged", converged.into()),
                    ("backend", active.name().into()),
                ],
            );
            telemetry::counter_add("supervisor.solves", 1);
        }

        DegradedResult {
            floorplan,
            quality,
            causes,
            recoveries,
            fallbacks,
            backtracks,
            final_backend: active.name(),
            checkpoint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalFloorplanProblem, ProblemOptions};
    use gfp_netlist::suite;

    fn n10_problem() -> GlobalFloorplanProblem {
        let b = suite::gsrc_n10();
        GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap()
    }

    fn tiny_settings() -> FloorplannerSettings {
        let mut s = FloorplannerSettings::fast();
        s.max_iter = 4;
        s.max_alpha_rounds = 4;
        s
    }

    #[test]
    fn clean_run_is_certified_or_budget_exhausted() {
        let p = n10_problem();
        let r = SolveSupervisor::new(tiny_settings()).solve(&p);
        assert!(matches!(
            r.quality,
            SolveQuality::Certified | SolveQuality::BudgetExhausted
        ));
        assert!(r.causes.is_empty());
        assert_eq!(r.recoveries, 0);
        assert_eq!(r.floorplan.positions.len(), 10);
        assert_eq!(r.final_backend, "admm");
    }

    #[test]
    fn supervised_matches_bare_solver_on_clean_run() {
        let p = n10_problem();
        let s = tiny_settings();
        let bare = crate::SdpFloorplanner::new(s.clone()).solve(&p).unwrap();
        let sup = SolveSupervisor::new(s).solve(&p);
        assert_eq!(bare.positions, sup.floorplan.positions);
        assert_eq!(bare.iterations, sup.floorplan.iterations);
        assert_eq!(bare.converged, sup.floorplan.converged);
    }

    #[test]
    fn zero_round_budget_yields_placeholder() {
        let p = n10_problem();
        let mut s = tiny_settings();
        s.max_alpha_rounds = 0;
        let r = SolveSupervisor::new(s).solve(&p);
        assert_eq!(r.quality, SolveQuality::Placeholder);
        assert_eq!(r.floorplan.positions.len(), 10);
        assert!(r.floorplan.positions.iter().all(|p| p.0.is_finite()));
        assert!(!r.floorplan.converged);
    }

    #[test]
    fn resume_continues_from_checkpoint() {
        let p = n10_problem();
        let mut s = tiny_settings();
        s.eps_rank = 1e-12; // unreachable: force budget exhaustion
        s.max_alpha_rounds = 2;
        let sup = SolveSupervisor::new(s.clone());
        let first = sup.solve(&p);
        assert_eq!(first.quality, SolveQuality::BudgetExhausted);
        let rounds_done = first.checkpoint.round;
        let mut s2 = s;
        s2.max_alpha_rounds = 4;
        let second = SolveSupervisor::new(s2).resume(&p, first.checkpoint);
        assert!(second.checkpoint.round > rounds_done);
        assert!(second.floorplan.iterations > first.floorplan.iterations);
    }

    #[test]
    fn total_wall_limit_zero_degrades_immediately() {
        let p = n10_problem();
        let sup = SolveSupervisor::with_supervision(
            tiny_settings(),
            SupervisorSettings {
                total_wall_limit: Some(std::time::Duration::ZERO),
                ..SupervisorSettings::default()
            },
        );
        let r = sup.solve(&p);
        assert_eq!(r.quality, SolveQuality::Placeholder);
        assert_eq!(r.causes, vec![DegradeCause::WallBudget { scope: "total" }]);
    }

    /// Downstream log consumers key on these identifiers; the match is
    /// exhaustive (no wildcard arm) so adding a variant without
    /// extending the pinned table is a compile error, and renaming a
    /// code is a test failure.
    #[test]
    fn quality_codes_are_stable_and_exhaustive() {
        const QUALITIES: [(SolveQuality, &str); 5] = [
            (SolveQuality::Certified, "certified"),
            (SolveQuality::Recovered, "recovered"),
            (SolveQuality::BudgetExhausted, "budget_exhausted"),
            (SolveQuality::Degraded, "degraded"),
            (SolveQuality::Placeholder, "placeholder"),
        ];
        for (q, code) in QUALITIES {
            assert_eq!(q.as_str(), code);
            // Exhaustiveness: every variant must appear in the table.
            match q {
                SolveQuality::Certified
                | SolveQuality::Recovered
                | SolveQuality::BudgetExhausted
                | SolveQuality::Degraded
                | SolveQuality::Placeholder => {}
            }
        }
        // All codes distinct.
        for (i, (_, a)) in QUALITIES.iter().enumerate() {
            for (_, b) in &QUALITIES[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn cause_codes_are_stable_and_exhaustive() {
        let causes: [(DegradeCause, &str); 4] = [
            (
                DegradeCause::NumericalBreakdown { stage: "x" },
                "numerical_breakdown",
            ),
            (
                DegradeCause::BackendFailure { backend: "admm", detail: String::new() },
                "backend_failure",
            ),
            (DegradeCause::WallBudget { scope: "round" }, "wall_budget"),
            (DegradeCause::RecoveryExhausted, "recovery_exhausted"),
        ];
        for (c, code) in &causes {
            assert_eq!(c.code(), *code);
            // Exhaustive within the defining crate: a new variant
            // breaks this match until the table above is extended.
            match c {
                DegradeCause::NumericalBreakdown { .. }
                | DegradeCause::BackendFailure { .. }
                | DegradeCause::WallBudget { .. }
                | DegradeCause::RecoveryExhausted => {}
            }
        }
        for (i, (_, a)) in causes.iter().enumerate() {
            for (_, b) in &causes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// A wall limit tripping mid-run on an otherwise healthy solve is
    /// a budget, not a degradation: the result must say
    /// `budget_exhausted` and carry a checkpoint that [`resume`]
    /// accepts and continues.
    #[test]
    fn round_wall_trip_is_budget_exhausted_and_resumable() {
        let p = n10_problem();
        let mut s = tiny_settings();
        s.eps_rank = 1e-12; // unreachable: the run can only stop on budgets
        let sup = SolveSupervisor::with_supervision(
            s.clone(),
            SupervisorSettings {
                // Checked after the round completes, so exactly one
                // round runs and the trip is deterministic.
                round_wall_limit: Some(Duration::ZERO),
                ..SupervisorSettings::default()
            },
        );
        let first = sup.solve(&p);
        assert_eq!(first.quality, SolveQuality::BudgetExhausted);
        assert_eq!(first.quality.as_str(), "budget_exhausted");
        assert_eq!(first.causes, vec![DegradeCause::WallBudget { scope: "round" }]);
        assert_eq!(first.recoveries, 0);
        assert_eq!(first.checkpoint.round, 1);
        assert!(!first.floorplan.converged);

        // The checkpoint is valid: a resume without the wall limit
        // picks up at round 1 and makes further progress.
        let resumed = SolveSupervisor::new(s).resume(&p, first.checkpoint);
        assert!(resumed.checkpoint.round > 1);
        assert!(resumed.floorplan.iterations > first.floorplan.iterations);
    }
}
