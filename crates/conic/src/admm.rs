//! SCS-style ADMM solver for cone programs.
//!
//! Splits `min cᵀx  s.t.  Ax + s = b, s ∈ K` into a linear solve, a
//! cone projection and a dual ascent step. Over-relaxation, adaptive
//! penalty and Ruiz equilibration are applied. The linear solve's
//! matrix `εI + ĀᵀĀ` (`Ā` the equilibrated `A`) is independent of the
//! penalty, so adapting `ρ` is free: it is factored once per
//! constraint matrix ([`SparseCholesky`]), and each iteration's
//! x-update is one `Aᵀ` product and two triangular sweeps.
//!
//! On programs with a PSD block of order ≥ 64, where the projection
//! dominates an iteration, the loop runs safeguarded type-II Anderson
//! acceleration on the projection input `v = s − y/ρ` (`anderson.rs`):
//! each iteration still makes one projection, but of an extrapolated
//! point, which cuts the iteration count by about 40% on the n200
//! flat solve. Its history lives inside one solve (never in
//! [`AdmmReuse`] or a checkpoint), every checked, returned or carried
//! iterate is a plain ADMM step, and below the gate the loop is the
//! plain splitting bit for bit.

use std::time::Instant;

use gfp_linalg::sparse::CsrMat;
use gfp_linalg::vec_ops::{dot, norm2};
use gfp_linalg::SparseCholesky;
use gfp_telemetry as telemetry;

use crate::anderson::Anderson;
use crate::cone::{project_product, PSD_PARTIAL_MIN_N};
use crate::scaling::{equilibrate, Equilibration};
use crate::solution::{SolveInfo, SolveStatus, Solution};
use crate::{Cone, ConeProgram, ConicError};

// Cached metric handles (DESIGN §13): `solve` runs per outer
// iteration, so each site resolves its registry entry once instead of
// probing the name map on every call.
static ADMM_CACHE_HIT: telemetry::CounterHandle = telemetry::CounterHandle::new("admm.cache_hit");
static ADMM_CACHE_BUILD: telemetry::CounterHandle =
    telemetry::CounterHandle::new("admm.cache_build");
static ADMM_WARM_REUSE: telemetry::CounterHandle =
    telemetry::CounterHandle::new("admm.warm_reuse");
static ADMM_ITERATIONS: telemetry::CounterHandle =
    telemetry::CounterHandle::new("admm.iterations");
/// ADMM iterations consumed per solve (distribution across sp1 calls).
static ADMM_SOLVE_ITERATIONS: telemetry::HistogramHandle =
    telemetry::HistogramHandle::new("admm.solve_iterations");

/// Tuning parameters of the [`AdmmSolver`]: the budget and the
/// tolerance. The splitting's own constants (`ρ₀`, over-relaxation,
/// equilibration rounds, proximal `ε`, check cadence) are fixed.
#[derive(Debug, Clone)]
pub struct AdmmSettings {
    /// Iteration budget.
    pub max_iter: usize,
    /// Target relative tolerance for residuals and gap.
    pub eps: f64,
}

impl Default for AdmmSettings {
    fn default() -> Self {
        AdmmSettings {
            max_iter: 20_000,
            eps: 1e-6,
        }
    }
}

/// Initial penalty parameter `ρ`; residual balancing adapts it.
const RHO0: f64 = 1.0;

/// Over-relaxation parameter `α ∈ (0, 2)`; 1.5–1.8 typically helps.
const RELAXATION: f64 = 1.6;

/// Rounds of Ruiz equilibration. After them `b` and `c` are also
/// normalized to unit norm (SCS-style scalar scaling), which the badly
/// scaled floorplanning SDPs need.
const SCALING_ITERS: usize = 10;

/// Proximal regularization `ε` of the x-update matrix `εI + ĀᵀĀ`;
/// positive so that a program with an empty column of `A` still
/// factors.
const PROX_EPS: f64 = 1e-8;

/// Iteration cadence of the (slightly costly) convergence check;
/// residual balancing runs at every second check.
const CHECK_INTERVAL: usize = 25;

/// Per-check-point convergence trace entry (for diagnostics and the
/// convergence experiments of Fig. 5(a)).
#[derive(Debug, Clone, Copy)]
pub struct IterationStats {
    /// Iteration index.
    pub iteration: usize,
    /// Primal objective at this point.
    pub objective: f64,
    /// Relative primal residual.
    pub primal_residual: f64,
    /// Relative dual residual.
    pub dual_residual: f64,
}

/// Constraint-derived state reused across consecutive ADMM solves of
/// programs that share the same `A` and cone list — exactly the shape
/// of the convex-iteration α rounds, where only the objective `c` (via
/// `α·W`) and occasionally `b` change between calls.
///
/// Holds the equilibrated constraint matrix, the accumulated Ruiz
/// scaling and the sparse Cholesky factor of the x-update matrix
/// `εI + ĀᵀĀ` (all pure functions of `A` + cones, validated by exact
/// comparison against the caller's `A`), and the final primal/dual
/// iterate of the previous solve for warm starting.
///
/// Pass a `Default`-constructed value to
/// [`AdmmSolver::solve_with_reuse`]; the first call fills it, later
/// calls skip the Ruiz loop and the factorization and start from the
/// carried duals. A solve that diverges clears the carried iterate so
/// a poisoned state is never re-entered.
#[derive(Debug, Clone, Default)]
pub struct AdmmReuse {
    cache: Option<AdmmCache>,
    warm: Option<AdmmWarmState>,
}

impl AdmmReuse {
    /// Fresh, empty reuse state (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a carried iterate from a previous solve is available.
    pub fn is_warm(&self) -> bool {
        self.warm.is_some()
    }

    /// Drops the carried iterate (keeps the constraint cache, which
    /// is validated against `A` on every solve anyway).
    pub fn clear_warm(&mut self) {
        self.warm = None;
    }

    /// Extracts a plain-data image of the reuse state for the
    /// checkpoint codec. The constraint cache must be captured (a
    /// resumed solve that rebuilt the cache would also drop the warm
    /// iterate and diverge from the uninterrupted trajectory); its
    /// factor is not, because it is a deterministic function of the
    /// captured `a_scaled` and `prox_eps`.
    pub fn snapshot(&self) -> AdmmReuseSnapshot {
        AdmmReuseSnapshot {
            cache: self.cache.as_ref().map(|c| AdmmCacheSnapshot {
                a_orig: c.a_orig.clone(),
                a_scaled: c.a_scaled.clone(),
                row_scale: c.eq.d.clone(),
                col_scale: c.eq.e.clone(),
                scaling_iters: c.scaling_iters,
                prox_eps: c.prox_eps,
            }),
            warm: self.warm.as_ref().map(|w| AdmmWarmSnapshot {
                y: w.y.clone(),
                s: w.s.clone(),
                rho: w.rho,
            }),
        }
    }

    /// Rebuilds reuse state from a snapshot (inverse of
    /// [`snapshot`](Self::snapshot)), refactoring `εI + ĀᵀĀ` from the
    /// captured matrix. The factor is bitwise the one the snapshotted
    /// solve used.
    ///
    /// # Errors
    ///
    /// Returns [`ConicError::Linalg`] when the captured matrix does not
    /// factor (a snapshot no solve could have written).
    pub fn from_snapshot(snap: AdmmReuseSnapshot) -> Result<Self, ConicError> {
        let cache = match snap.cache {
            Some(c) => Some(AdmmCache {
                factor: SparseCholesky::new(&c.a_scaled.normal_matrix(c.prox_eps))?,
                a_orig: c.a_orig,
                a_scaled: c.a_scaled,
                eq: Equilibration { d: c.row_scale, e: c.col_scale },
                scaling_iters: c.scaling_iters,
                prox_eps: c.prox_eps,
            }),
            None => None,
        };
        Ok(AdmmReuse {
            cache,
            warm: snap.warm.map(|w| AdmmWarmState { y: w.y, s: w.s, rho: w.rho }),
        })
    }
}

/// Plain-data image of [`AdmmReuse`], the serialization surface for
/// durable checkpoints. Field-for-field public so an external codec
/// can encode it without this crate knowing about byte formats.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmReuseSnapshot {
    /// The constraint cache, when one was built.
    pub cache: Option<AdmmCacheSnapshot>,
    /// The carried final iterate, when the previous solve converged.
    pub warm: Option<AdmmWarmSnapshot>,
}

/// Plain-data image of the constraint cache (see `AdmmCache`).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmCacheSnapshot {
    /// The caller's `A` exactly as given (cache validity key).
    pub a_orig: CsrMat,
    /// Equilibrated `D·A·E`.
    pub a_scaled: CsrMat,
    /// Ruiz row scaling `D` (diagonal).
    pub row_scale: Vec<f64>,
    /// Ruiz column scaling `E` (diagonal).
    pub col_scale: Vec<f64>,
    /// Ruiz rounds the cache was built with.
    pub scaling_iters: usize,
    /// Proximal ε of the factored matrix `εI + ĀᵀĀ`.
    pub prox_eps: f64,
}

/// Plain-data image of the carried warm-start iterate.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmWarmSnapshot {
    /// Final unscaled dual iterate.
    pub y: Vec<f64>,
    /// Final unscaled slack iterate.
    pub s: Vec<f64>,
    /// Final penalty parameter.
    pub rho: f64,
}

/// Cached scaling work keyed (by exact comparison) on the original
/// constraint matrix.
#[derive(Debug, Clone)]
struct AdmmCache {
    /// The caller's `A` exactly as given, for validity checking.
    a_orig: CsrMat,
    /// Equilibrated `D·A·E`.
    a_scaled: CsrMat,
    /// Accumulated Ruiz scaling.
    eq: Equilibration,
    /// Sparse Cholesky factor of `εI + ĀᵀĀ`.
    factor: SparseCholesky,
    /// Number of Ruiz rounds the cache was built with.
    scaling_iters: usize,
    /// Proximal ε of the factored matrix.
    prox_eps: f64,
}

/// Final unscaled iterate of a completed solve, mapped back into the
/// next solve's scaled space when the constraint cache is valid.
#[derive(Debug, Clone)]
struct AdmmWarmState {
    y: Vec<f64>,
    s: Vec<f64>,
    rho: f64,
}

/// Operator-splitting conic solver.
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct AdmmSolver {
    settings: AdmmSettings,
}

impl AdmmSolver {
    /// Creates a solver with the given settings.
    pub fn new(settings: AdmmSettings) -> Self {
        AdmmSolver { settings }
    }

    /// Solves the program from a cold start.
    ///
    /// # Errors
    ///
    /// Returns [`ConicError::InvalidProgram`] for inconsistent input.
    /// An exhausted iteration budget is **not** an error: it yields a
    /// solution with [`SolveStatus::MaxIterations`].
    pub fn solve(&self, program: &ConeProgram) -> Result<Solution, ConicError> {
        self.solve_with_trace(program, None).map(|(s, _)| s)
    }

    /// Solves the program and optionally records a convergence trace
    /// at every check interval. `warm` provides a primal warm start in
    /// the *original* (unscaled) variable space.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_with_trace(
        &self,
        program: &ConeProgram,
        warm: Option<&[f64]>,
    ) -> Result<(Solution, Vec<IterationStats>), ConicError> {
        self.solve_inner(program, warm, None)
    }

    /// Like [`solve_with_trace`](Self::solve_with_trace), but carries
    /// constraint-derived work and the final iterate across solves via
    /// `reuse` (see [`AdmmReuse`]). When the program's `A` matches the
    /// cached one exactly, the Ruiz equilibration and preconditioner
    /// are reused and the previous solve's duals warm-start this one;
    /// otherwise the call behaves exactly like a cold solve and
    /// refills the cache. A first call with an empty `reuse` is
    /// bitwise identical to [`solve_with_trace`](Self::solve_with_trace).
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_with_reuse(
        &self,
        program: &ConeProgram,
        warm: Option<&[f64]>,
        reuse: &mut AdmmReuse,
    ) -> Result<(Solution, Vec<IterationStats>), ConicError> {
        self.solve_inner(program, warm, Some(reuse))
    }

    fn solve_inner(
        &self,
        program: &ConeProgram,
        warm: Option<&[f64]>,
        mut reuse: Option<&mut AdmmReuse>,
    ) -> Result<(Solution, Vec<IterationStats>), ConicError> {
        program.validate()?;
        let _span = telemetry::span("admm.solve");
        let t0 = Instant::now();
        let st = &self.settings;
        let m = program.num_rows();
        let d = program.num_vars();
        if let Some(w) = warm {
            if w.len() != d {
                return Err(ConicError::InvalidProgram {
                    reason: format!("warm start has {} entries, expected {d}", w.len()),
                });
            }
        }

        // --- scaled copies -------------------------------------------------
        // The equilibration and the factor below are pure functions of
        // `A` and the cone list: the Ruiz loop reads only A's
        // row/column norms, and `b`/`c` are scaled once at the end by
        // the accumulated diagonals. A reusing caller with an unchanged
        // `A` therefore skips straight to that final elementwise
        // scaling — bitwise identical to recomputing. The cache leaves
        // `reuse` for the solve and goes back at its end.
        let mut b = program.b.clone();
        let mut c = program.c.clone();
        let cached = reuse
            .as_deref_mut()
            .and_then(|r| r.cache.take())
            .filter(|cache| {
                cache.scaling_iters == SCALING_ITERS
                    && cache.prox_eps == PROX_EPS
                    && cache.a_orig == program.a
            });
        let cache_valid = cached.is_some();
        let cache = match cached {
            Some(cache) => {
                for (bi, &di) in b.iter_mut().zip(cache.eq.d.iter()) {
                    *bi *= di;
                }
                for (ci, &ei) in c.iter_mut().zip(cache.eq.e.iter()) {
                    *ci *= ei;
                }
                ADMM_CACHE_HIT.add(1);
                cache
            }
            None => {
                let mut a = program.a.clone();
                let eq = equilibrate(&mut a, &mut b, &mut c, &program.cones, SCALING_ITERS);
                let factor = SparseCholesky::new(&a.normal_matrix(PROX_EPS))?;
                if let Some(r) = reuse.as_deref_mut() {
                    // A changed (or first call): the carried iterate
                    // belongs to a different geometry, drop it.
                    r.warm = None;
                    ADMM_CACHE_BUILD.add(1);
                }
                AdmmCache {
                    a_orig: program.a.clone(),
                    a_scaled: a,
                    eq,
                    factor,
                    scaling_iters: SCALING_ITERS,
                    prox_eps: PROX_EPS,
                }
            }
        };
        let (a, eq, factor) = (&cache.a_scaled, &cache.eq, &cache.factor);
        // Scalar normalization: b <- sb*b, c <- sc*c with unit norms.
        let sb = 1.0 / norm2(&b).max(1e-12);
        let sc = 1.0 / norm2(&c).max(1e-12);
        for v in b.iter_mut() {
            *v *= sb;
        }
        for v in c.iter_mut() {
            *v *= sc;
        }

        // --- state ---------------------------------------------------------
        let mut x = match warm {
            Some(w) => {
                // Map into scaled space: x̄ = sb·E⁻¹ x.
                w.iter().zip(eq.e.iter()).map(|(xi, ei)| sb * xi / ei).collect()
            }
            None => vec![0.0; d],
        };
        let mut s = Vec::new();
        let mut y = Vec::new();
        let mut rho = RHO0;
        let mut warm_duals = false;
        if cache_valid {
            if let Some(w) = reuse.as_deref().and_then(|r| r.warm.as_ref()) {
                if w.y.len() == m && w.s.len() == m {
                    // Map the previous solve's final iterate into this
                    // solve's scaled space: s̃ = sb·D·s, ỹ = sc·D⁻¹·y.
                    // The row scaling is uniform within SOC/PSD blocks
                    // and positive, so the mapped s̃ stays in the cone.
                    s = w.s.clone();
                    for (si, &di) in s.iter_mut().zip(eq.d.iter()) {
                        *si = sb * (di * *si);
                    }
                    y = w.y.clone();
                    for (yi, &di) in y.iter_mut().zip(eq.d.iter()) {
                        *yi = sc * (*yi / di);
                    }
                    rho = w.rho;
                    warm_duals = true;
                    ADMM_WARM_REUSE.add(1);
                }
            }
        }
        if !warm_duals {
            s = b.clone();
            project_product(&program.cones, &mut s);
            y = vec![0.0; m];
        }

        let norm_b_unscaled = {
            let mut t = b.clone();
            eq.unscale_s(&mut t); // D⁻¹ b̄ = sb · b_orig
            norm2(&t) / sb
        };
        let norm_c_unscaled = norm2(&program.c);

        let mut trace = Vec::new();
        // Per-iteration scratch, allocated once: the hot loop below is
        // allocation-free.
        let mut ax = vec![0.0; m];
        let mut rhs = vec![0.0; d];
        let mut tmp = vec![0.0; m];
        let mut ax_or = vec![0.0; m];
        let mut pr = vec![0.0; m];
        let mut aty = vec![0.0; d];
        let mut status = SolveStatus::MaxIterations;
        let mut iterations_used = st.max_iter;
        let mut pri_rel = f64::INFINITY;
        let mut dua_rel = f64::INFINITY;
        let mut gap_rel = f64::INFINITY;

        // Anderson acceleration of the projection input (see
        // `anderson.rs`) engages where a PSD block reaches the
        // partial-spectrum size: there the projection dominates an
        // iteration, so fewer iterations pay for the bookkeeping.
        // Below it the loop is the plain splitting, bit for bit.
        let mut anderson = program
            .cones
            .iter()
            .any(|c| matches!(*c, Cone::Psd(n) if n >= PSD_PARTIAL_MIN_N))
            .then(|| Anderson::new(&s, &y, rho));
        // The iterate a check reads (and the solve returns) is a plain
        // ADMM output: the step that makes it does not extrapolate.
        let is_check = |k: usize| k.is_multiple_of(CHECK_INTERVAL) || k == st.max_iter;

        // Fault-injection state (inert unless `fault-inject` is on):
        // `stall_injected` suppresses convergence acceptance so the
        // budget runs out; `residual_perturb` inflates the next
        // residual check once.
        let mut stall_injected = false;
        let mut residual_perturb: Option<f64> = None;

        let mut iter = 0;
        while iter < st.max_iter {
            // Fault-injection hook at the (serial) iteration boundary.
            if let Some(fired) = gfp_fault::poll(gfp_fault::Site::AdmmIter) {
                match fired.kind {
                    gfp_fault::FaultKind::Nan => x[0] = f64::NAN,
                    gfp_fault::FaultKind::Inf => x[0] = f64::INFINITY,
                    gfp_fault::FaultKind::Stall => stall_injected = true,
                    gfp_fault::FaultKind::BudgetExhaust => {
                        // Return the plain iterate, not an extrapolated one.
                        if let Some(aa) = anderson.as_mut() {
                            if aa.take_plain(&mut s) {
                                project_product(&program.cones, &mut s);
                                aa.dual_into(&s, rho, &mut y);
                            }
                        }
                        break;
                    }
                    gfp_fault::FaultKind::PerturbResidual => {
                        residual_perturb = Some(fired.magnitude);
                    }
                    _ => {}
                }
            }
            // ---- x-update: (εI + AᵀA) x = Aᵀ(b − s − y/ρ) − c/ρ + ε x_prev,
            // solved exactly by the cached factor
            for i in 0..m {
                tmp[i] = b[i] - s[i] - y[i] / rho;
            }
            a.matvec_transpose_into(&tmp, &mut rhs);
            for j in 0..d {
                rhs[j] += -c[j] / rho + PROX_EPS * x[j];
            }
            factor.solve_in_place(&mut rhs);
            std::mem::swap(&mut x, &mut rhs);

            // ---- over-relaxation on Ax
            a.matvec_into(&x, &mut ax);
            for i in 0..m {
                ax_or[i] = RELAXATION * ax[i] + (1.0 - RELAXATION) * (b[i] - s[i]);
            }

            // ---- s-update: project b − Ax̂ − y/ρ (s is not read again
            // this iteration, so the projection input overwrites it)
            for i in 0..m {
                s[i] = b[i] - ax_or[i] - y[i] / rho;
            }
            match anderson.as_mut() {
                None => {
                    project_product(&program.cones, &mut s);
                    // ---- y-update
                    for i in 0..m {
                        y[i] += rho * (ax_or[i] + s[i] - b[i]);
                    }
                }
                Some(aa) => {
                    aa.step(&mut s, !is_check(iter + 1));
                    project_product(&program.cones, &mut s);
                    aa.dual_into(&s, rho, &mut y);
                }
            }

            iter += 1;

            // ---- convergence check (in unscaled space)
            if is_check(iter) {
                // primal residual: D⁻¹ (Ax + s − b)
                for i in 0..m {
                    pr[i] = (ax[i] + s[i] - b[i]) / (eq.d[i] * sb);
                }
                pri_rel = norm2(&pr) / (1.0 + norm_b_unscaled);
                if let Some(mag) = residual_perturb.take() {
                    pri_rel *= 1.0 + mag;
                }

                // dual residual: E⁻¹ (Aᵀỹ + c̃)  — note c̃ = E c so this is Aᵀy + c.
                a.matvec_transpose_into(&y, &mut aty);
                for j in 0..d {
                    aty[j] = (aty[j] + c[j]) / (eq.e[j] * sc);
                }
                dua_rel = norm2(&aty) / (1.0 + norm_c_unscaled);

                // duality gap, in original units: c̄ᵀx̄ = sb·sc·cᵀx.
                let cx = dot(&c, &x) / (sb * sc);
                let by = dot(&b, &y) / (sb * sc);
                gap_rel = (cx + by).abs() / (1.0 + cx.abs() + by.abs());

                trace.push(IterationStats {
                    iteration: iter,
                    objective: cx,

                    primal_residual: pri_rel,
                    dual_residual: dua_rel,
                });

                // Sampled residual events: every 4th check keeps the
                // JSONL volume proportional to, not equal to, the
                // check cadence.
                if telemetry::enabled() && (trace.len() - 1) % 4 == 0 {
                    telemetry::event(
                        "admm.residuals",
                        &[
                            ("iteration", iter.into()),
                            ("objective", cx.into()),
                            ("primal_residual", pri_rel.into()),
                            ("dual_residual", dua_rel.into()),
                            ("gap", gap_rel.into()),
                            ("rho", rho.into()),
                        ],
                    );
                }

                if !stall_injected && pri_rel < st.eps && dua_rel < st.eps && gap_rel < st.eps {
                    status = SolveStatus::Optimal;
                    iterations_used = iter;
                    break;
                }

                // Divergence guard: the plain (non-HSDE) splitting has
                // no infeasibility certificates; unbounded iterate
                // growth is the practical signal.
                let xn = norm2(&x);
                if !xn.is_finite() || xn > 1e12 {
                    if let Some(r) = reuse.as_deref_mut() {
                        // Never carry a diverged iterate into the next
                        // solve; the constraint cache stays (it is a
                        // pure function of A).
                        r.warm = None;
                        r.cache = Some(cache);
                    }
                    return Err(ConicError::Diverged {
                        iterations: iter,
                        primal_residual: pri_rel,
                    });
                }

                // ---- adaptive rho (residual balancing)
                if iter % (CHECK_INTERVAL * 2) == 0 {
                    let before = rho;
                    if pri_rel > 10.0 * dua_rel && rho < 1e4 {
                        rho *= 2.0;
                    } else if dua_rel > 10.0 * pri_rel && rho > 1e-4 {
                        rho /= 2.0;
                    }
                    if rho != before {
                        if let Some(aa) = anderson.as_mut() {
                            aa.restart(&s, &y, rho);
                        }
                    }
                }
            }
        }

        if status != SolveStatus::Optimal {
            let relaxed = 10.0 * st.eps;
            if pri_rel < relaxed && dua_rel < relaxed && gap_rel < relaxed {
                status = SolveStatus::Inaccurate;
            }
            iterations_used = iter;
        }

        // ---- unscale ------------------------------------------------------
        eq.unscale_x(&mut x);
        eq.unscale_s(&mut s);
        eq.unscale_y(&mut y);
        for v in x.iter_mut() {
            *v /= sb;
        }
        for v in s.iter_mut() {
            *v /= sb;
        }
        for v in y.iter_mut() {
            *v /= sc;
        }
        let objective = dot(&program.c, &x);

        if let Some(r) = reuse.as_deref_mut() {
            r.warm = Some(AdmmWarmState {
                y: y.clone(),
                s: s.clone(),
                rho,
            });
            r.cache = Some(cache);
        }

        if telemetry::enabled() {
            telemetry::event(
                "admm.done",
                &[
                    ("status", format!("{status:?}").into()),
                    ("iterations", iterations_used.into()),
                    ("primal_residual", pri_rel.into()),
                    ("dual_residual", dua_rel.into()),
                    ("gap", gap_rel.into()),
                    ("objective", objective.into()),
                    ("seconds", t0.elapsed().as_secs_f64().into()),
                ],
            );
            ADMM_ITERATIONS.add(iterations_used as u64);
            ADMM_SOLVE_ITERATIONS.record(iterations_used as u64);
        }

        Ok((
            Solution {
                x,
                y,
                s,
                objective,
                status,
                info: SolveInfo {
                    iterations: iterations_used,
                    primal_residual: pri_rel,
                    dual_residual: dua_rel,
                    duality_gap: gap_rel,
                    solve_seconds: t0.elapsed().as_secs_f64(),
                },
            },
            trace,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConeProgramBuilder;

    fn solve(builder: &mut ConeProgramBuilder, eps: f64) -> Solution {
        let p = builder.build().unwrap();
        let solver = AdmmSolver::new(AdmmSettings {
            eps,
            ..AdmmSettings::default()
        });
        solver.solve(&p).unwrap()
    }

    #[test]
    fn lp_simple_box() {
        // min -x - y  s.t.  x + y <= 1, x >= 0, y >= 0  =>  opt = -1
        let mut b = ConeProgramBuilder::new(2);
        b.set_objective_coeff(0, -1.0);
        b.set_objective_coeff(1, -1.0);
        b.add_le(&[(0, 1.0), (1, 1.0)], 1.0);
        b.add_ge(&[(0, 1.0)], 0.0);
        b.add_ge(&[(1, 1.0)], 0.0);
        let sol = solve(&mut b, 1e-8);
        assert!(sol.status.is_usable());
        assert!((sol.objective + 1.0).abs() < 1e-5, "obj {}", sol.objective);
    }

    #[test]
    fn lp_with_equality() {
        // min x - y  s.t.  x + y = 1, x,y >= 0  =>  x=0, y=1, opt=-1
        let mut b = ConeProgramBuilder::new(2);
        b.set_objective_coeff(0, 1.0);
        b.set_objective_coeff(1, -1.0);
        b.add_eq(&[(0, 1.0), (1, 1.0)], 1.0);
        b.add_ge(&[(0, 1.0)], 0.0);
        b.add_ge(&[(1, 1.0)], 0.0);
        let sol = solve(&mut b, 1e-8);
        assert!((sol.objective + 1.0).abs() < 1e-5);
        assert!(sol.x[0].abs() < 1e-4);
        assert!((sol.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn socp_norm_bound() {
        // min t  s.t.  ||(3,4)|| <= t   =>  t = 5
        let mut b = ConeProgramBuilder::new(1);
        b.set_objective_coeff(0, 1.0);
        b.add_soc(&[(&[(0, -1.0)], 0.0), (&[], 3.0), (&[], 4.0)]);
        let sol = solve(&mut b, 1e-8);
        assert!((sol.x[0] - 5.0).abs() < 1e-4, "t = {}", sol.x[0]);
    }

    #[test]
    fn sdp_correlation_matrix() {
        // min 2 Z01 s.t. Z00 = Z11 = 1, Z PSD  =>  opt -2 at Z01 = -1.
        use gfp_linalg::svec::svec_index;
        let mut b = ConeProgramBuilder::new(3);
        b.set_objective_coeff(svec_index(2, 1, 0), std::f64::consts::SQRT_2);
        b.add_eq(&[(svec_index(2, 0, 0), 1.0)], 1.0);
        b.add_eq(&[(svec_index(2, 1, 1), 1.0)], 1.0);
        b.add_psd_vars(&[0, 1, 2]);
        let sol = solve(&mut b, 1e-7);
        assert!(sol.status.is_usable());
        assert!((sol.objective + 2.0).abs() < 1e-3, "obj {}", sol.objective);
    }

    #[test]
    fn sdp_trace_heuristic_distance() {
        // min trace(Z) s.t. Z11 >= 4 (svec var), Z PSD, 2x2.
        // Optimal: Z = diag(0, 4), trace 4.
        use gfp_linalg::svec::svec_index;
        let mut b = ConeProgramBuilder::new(3);
        b.set_objective_coeff(svec_index(2, 0, 0), 1.0);
        b.set_objective_coeff(svec_index(2, 1, 1), 1.0);
        b.add_ge(&[(svec_index(2, 1, 1), 1.0)], 4.0);
        b.add_psd_vars(&[0, 1, 2]);
        let sol = solve(&mut b, 1e-7);
        assert!((sol.objective - 4.0).abs() < 1e-3, "obj {}", sol.objective);
        assert!(sol.x[svec_index(2, 0, 0)].abs() < 1e-3);
    }

    #[test]
    fn warm_start_accepts_and_runs() {
        let mut b = ConeProgramBuilder::new(2);
        b.set_objective_coeff(0, -1.0);
        b.add_le(&[(0, 1.0)], 2.0);
        b.add_ge(&[(0, 1.0)], 0.0);
        b.add_eq(&[(1, 1.0)], 3.0);
        let p = b.build().unwrap();
        let solver = AdmmSolver::new(AdmmSettings::default());
        let (sol, trace) = solver
            .solve_with_trace(&p, Some(&[2.0, 3.0]))
            .unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-4);
        assert!((sol.x[1] - 3.0).abs() < 1e-4);
        assert!(!trace.is_empty());
    }

    #[test]
    fn rejects_bad_warm_start_length() {
        let mut b = ConeProgramBuilder::new(1);
        b.add_eq(&[(0, 1.0)], 1.0);
        let p = b.build().unwrap();
        let solver = AdmmSolver::new(AdmmSettings::default());
        assert!(solver.solve_with_trace(&p, Some(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn max_iterations_status_on_tiny_budget() {
        let mut b = ConeProgramBuilder::new(2);
        b.set_objective_coeff(0, -1.0);
        b.add_le(&[(0, 1.0), (1, 0.5)], 1.0);
        b.add_ge(&[(0, 1.0)], 0.0);
        b.add_ge(&[(1, 1.0)], 0.0);
        let p = b.build().unwrap();
        let solver = AdmmSolver::new(AdmmSettings {
            max_iter: 2,
            eps: 1e-12,
        });
        let sol = solver.solve(&p).unwrap();
        assert_eq!(sol.status, SolveStatus::MaxIterations);
    }

    /// A small SDP shaped like the floorplanning sub-problem: PSD
    /// variable with linear constraints, objective varied across
    /// "rounds" while A stays fixed.
    fn round_program(weight: f64) -> ConeProgram {
        use gfp_linalg::svec::svec_index;
        let mut b = ConeProgramBuilder::new(6);
        b.set_objective_coeff(svec_index(3, 0, 0), 1.0);
        b.set_objective_coeff(svec_index(3, 1, 1), weight);
        b.set_objective_coeff(svec_index(3, 2, 2), 1.0);
        b.add_eq(&[(svec_index(3, 0, 0), 1.0)], 1.0);
        b.add_ge(&[(svec_index(3, 1, 1), 1.0)], 2.0);
        b.add_ge(&[(svec_index(3, 2, 2), 1.0)], 0.5);
        b.add_psd_vars(&[0, 1, 2, 3, 4, 5]);
        b.build().unwrap()
    }

    /// A MaxCut-style SDP on a 64×64 PSD variable (`diag Z = 1`, a
    /// fixed pseudo-random objective): the block reaches the size from
    /// which Anderson acceleration engages.
    fn large_psd_program() -> ConeProgram {
        use gfp_linalg::svec::{svec_index, svec_len};
        let n = 64;
        let mut b = ConeProgramBuilder::new(svec_len(n));
        for j in 0..n {
            for i in j..n {
                let v = ((i * 31 + j * 17) as f64).sin();
                let coeff = if i == j {
                    v.abs()
                } else {
                    std::f64::consts::SQRT_2 * v
                };
                b.set_objective_coeff(svec_index(n, i, j), coeff);
            }
            b.add_eq(&[(svec_index(n, j, j), 1.0)], 1.0);
        }
        b.add_psd_vars(&(0..svec_len(n)).collect::<Vec<_>>());
        b.build().unwrap()
    }

    #[test]
    fn first_reusing_solve_is_bitwise_identical_to_cold() {
        for (p, eps) in [(round_program(1.0), 1e-7), (large_psd_program(), 1e-5)] {
            let solver = AdmmSolver::new(AdmmSettings {
                eps,
                ..AdmmSettings::default()
            });
            let (cold, cold_trace) = solver.solve_with_trace(&p, None).unwrap();
            let mut reuse = AdmmReuse::new();
            let (first, first_trace) = solver.solve_with_reuse(&p, None, &mut reuse).unwrap();
            assert_eq!(cold.x.len(), first.x.len());
            for (a, b) in cold.x.iter().zip(first.x.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "x must match bitwise");
            }
            for (a, b) in cold.y.iter().zip(first.y.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "y must match bitwise");
            }
            for (a, b) in cold.s.iter().zip(first.s.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "s must match bitwise");
            }
            assert_eq!(cold_trace.len(), first_trace.len());
            assert!(reuse.is_warm(), "reuse must capture the final iterate");
        }
    }

    #[test]
    fn warm_reuse_matches_cold_solution_and_saves_iterations() {
        let solver = AdmmSolver::new(AdmmSettings {
            eps: 1e-7,
            ..AdmmSettings::default()
        });
        let mut reuse = AdmmReuse::new();
        // Round 1 fills the cache and the carried iterate.
        let p1 = round_program(1.0);
        let (cold1, _) = solver.solve_with_reuse(&p1, None, &mut reuse).unwrap();
        // Round 2: a gently scaled objective, same A — the α-round
        // pattern the reuse is designed for. The carried duals must
        // converge to the cold answer, faster.
        let p2 = round_program(1.1);
        let (warm, _) = solver.solve_with_reuse(&p2, None, &mut reuse).unwrap();
        let (cold, _) = solver.solve_with_trace(&p2, None).unwrap();
        assert!(warm.status.is_usable() && cold.status.is_usable());
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-5 * (1.0 + cold.objective.abs()),
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        for (w, c) in warm.x.iter().zip(cold.x.iter()) {
            assert!((w - c).abs() < 1e-4, "warm x {w} vs cold x {c}");
        }
        assert!(
            warm.info.iterations <= cold.info.iterations,
            "warm start must not be slower on a near-identical round: warm {} vs cold {}",
            warm.info.iterations,
            cold.info.iterations
        );
        // Re-solving the *same* program from its own solution must be
        // close to free.
        let (resolved, _) = solver.solve_with_reuse(&p2, None, &mut reuse).unwrap();
        assert!(
            resolved.info.iterations < cold1.info.iterations,
            "re-solve from optimum took {} iterations",
            resolved.info.iterations
        );
    }

    #[test]
    fn changing_a_invalidates_cache_and_warm_state() {
        let solver = AdmmSolver::new(AdmmSettings::default());
        let mut reuse = AdmmReuse::new();
        let p1 = round_program(1.0);
        solver.solve_with_reuse(&p1, None, &mut reuse).unwrap();
        assert!(reuse.is_warm());
        // Different constraint matrix: a plain LP.
        let mut b = ConeProgramBuilder::new(2);
        b.set_objective_coeff(0, -1.0);
        b.add_le(&[(0, 1.0), (1, 1.0)], 1.0);
        b.add_ge(&[(0, 1.0)], 0.0);
        b.add_ge(&[(1, 1.0)], 0.0);
        let p2 = b.build().unwrap();
        let (sol, _) = solver.solve_with_reuse(&p2, None, &mut reuse).unwrap();
        assert!((sol.objective + 1.0).abs() < 1e-4, "obj {}", sol.objective);
        // The cold p2 result must be reproduced exactly despite the
        // stale cache (it was rebuilt, and the carried duals dropped).
        let (cold, _) = solver.solve_with_trace(&p2, None).unwrap();
        for (a, b) in sol.x.iter().zip(cold.x.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "rebuilt cache must match cold");
        }
    }

    #[test]
    fn x_update_residual_is_at_rounding_level() {
        // A floorplanning-shaped SDP: one distance row per pair of
        // an 8×8 PSD variable, so the factor fills in a pair clique.
        use gfp_linalg::svec::svec_index;
        let n = 8;
        let mut b = ConeProgramBuilder::new(n * (n + 1) / 2);
        for i in 0..n {
            b.set_objective_coeff(svec_index(n, i, i), 1.0 + i as f64);
        }
        b.add_eq(&[(svec_index(n, 0, 0), 1.0)], 1.0);
        for i in 0..n {
            for j in 0..i {
                let row = [
                    (svec_index(n, i, i), 1.0),
                    (svec_index(n, j, j), 1.0),
                    (svec_index(n, i, j), -std::f64::consts::SQRT_2),
                ];
                b.add_ge(&row, 1.0 + (i * j) as f64);
            }
        }
        b.add_psd_vars(&(0..n * (n + 1) / 2).collect::<Vec<_>>());
        let p = b.build().unwrap();
        let solver = AdmmSolver::new(AdmmSettings { max_iter: 50, ..AdmmSettings::default() });
        let mut reuse = AdmmReuse::new();
        solver.solve_with_reuse(&p, None, &mut reuse).unwrap();
        let cache = reuse.cache.as_ref().expect("the solve fills the cache");

        let a = &cache.a_scaled;
        let rhs: Vec<f64> = (0..a.ncols()).map(|j| (j as f64 + 1.0).sin()).collect();
        let mut x = rhs.clone();
        cache.factor.solve_in_place(&mut x);
        let mut mx = a.matvec_transpose(&a.matvec(&x));
        for (v, xi) in mx.iter_mut().zip(&x) {
            *v += cache.prox_eps * xi;
        }
        let r: Vec<f64> = mx.iter().zip(&rhs).map(|(u, v)| u - v).collect();
        let rel = norm2(&r) / norm2(&rhs);
        assert!(rel <= 1e-12, "x-update relative residual {rel:e}");
    }

    #[test]
    fn duals_certify_lp_optimum() {
        // min -x s.t. x <= 3 (plus x >= 0). Dual of "x <= 3" must be 1.
        let mut b = ConeProgramBuilder::new(1);
        b.set_objective_coeff(0, -1.0);
        b.add_le(&[(0, 1.0)], 3.0);
        b.add_ge(&[(0, 1.0)], 0.0);
        let sol = solve(&mut b, 1e-9);
        assert!((sol.x[0] - 3.0).abs() < 1e-5);
        // Aᵀy + c = 0: y_le * 1 + y_ge * (-1) - 1 = 0, with y_ge = 0.
        assert!((sol.y[0] - 1.0).abs() < 1e-4, "dual {}", sol.y[0]);
    }
}

#[cfg(test)]
mod divergence_tests {
    use super::*;
    use crate::ConeProgramBuilder;

    #[test]
    fn unbounded_problem_is_detected_or_capped() {
        // min -x with only x >= 0: unbounded below. The solver must
        // either report divergence or exhaust iterations — never claim
        // optimality.
        let mut b = ConeProgramBuilder::new(1);
        b.set_objective_coeff(0, -1.0);
        b.add_ge(&[(0, 1.0)], 0.0);
        let p = b.build().unwrap();
        let solver = AdmmSolver::new(AdmmSettings {
            max_iter: 20_000,
            ..AdmmSettings::default()
        });
        match solver.solve(&p) {
            Err(crate::ConicError::Diverged { .. }) => {}
            Ok(sol) => assert_ne!(sol.status, SolveStatus::Optimal, "claimed optimal on unbounded"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
