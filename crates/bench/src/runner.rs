//! End-to-end pipelines: global floorplanning method → shared
//! legalizer → final HPWL, mirroring the paper's evaluation protocol.

use std::time::Instant;

use gfp_baselines::analytical::AnalyticalFloorplanner;
use gfp_baselines::annealing::Annealer;
use gfp_baselines::ar::ArFloorplanner;
use gfp_baselines::pp::{PpFloorplanner, PpSettings};
use gfp_baselines::qp::QuadraticPlacer;
use gfp_core::enhance::Enhancements;
use gfp_core::{
    FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveQuality, SolveSupervisor,
};
use gfp_legalize::{legalize, LegalizeSettings};
use gfp_netlist::suite::Benchmark;
use gfp_netlist::{Netlist, Outline};
use gfp_telemetry as telemetry;

use crate::Budget;

/// Result of one method on one benchmark/outline.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name.
    pub method: String,
    /// Legalized HPWL; `None` when legalization failed (the paper's
    /// missing points).
    pub hpwl: Option<f64>,
    /// Global floorplanning wall-clock seconds.
    pub global_seconds: f64,
    /// Legalization wall-clock seconds.
    pub legal_seconds: f64,
    /// Failure detail when `hpwl` is `None`.
    pub failure: Option<String>,
}

impl MethodResult {
    fn failed(method: &str, global_seconds: f64, reason: String) -> Self {
        MethodResult {
            method: method.to_string(),
            hpwl: None,
            global_seconds,
            legal_seconds: 0.0,
            failure: Some(reason),
        }
    }
}

/// Emits the end-of-method telemetry event for one pipeline result.
fn method_event(result: &MethodResult) {
    if telemetry::enabled() {
        telemetry::event(
            "pipeline.method",
            &[
                ("method", telemetry::Value::Text(result.method.clone())),
                ("hpwl", result.hpwl.unwrap_or(f64::NAN).into()),
                ("global_seconds", result.global_seconds.into()),
                ("legal_seconds", result.legal_seconds.into()),
                ("failed", result.failure.is_some().into()),
            ],
        );
    }
}

/// A prepared benchmark instance: netlist with pads snapped to the
/// outline, the captured problem, and the outline itself.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Benchmark name.
    pub name: String,
    /// Netlist with pads on the outline boundary.
    pub netlist: Netlist,
    /// Captured problem (aspect limit 3, outline bounds, pads).
    pub problem: GlobalFloorplanProblem,
    /// The fixed outline.
    pub outline: Outline,
    /// Budget for solver settings.
    pub budget: Budget,
}

impl Pipeline {
    /// Prepares a benchmark at the given outline aspect ratio
    /// (height : width, so the paper's "1:2" is `ratio = 2.0`).
    ///
    /// # Panics
    ///
    /// Panics if the benchmark cannot be captured (generator
    /// invariants guarantee it can).
    pub fn new(bench: &Benchmark, ratio: f64, budget: Budget) -> Self {
        let (netlist, outline) = bench.with_pads_on_outline(ratio);
        let options = ProblemOptions {
            outline: Some(outline),
            aspect_limit: 3.0,
            ..ProblemOptions::default()
        };
        let problem = GlobalFloorplanProblem::from_netlist(&netlist, &options)
            .expect("benchmark capture");
        Pipeline {
            name: bench.name.clone(),
            netlist,
            problem,
            outline,
            budget,
        }
    }

    fn legalize_centers(&self, method: &str, centers: &[(f64, f64)], t_global: f64) -> MethodResult {
        let t0 = Instant::now();
        let outcome = {
            let _span = telemetry::span("pipeline.legalize");
            legalize(
                &self.netlist,
                &self.problem,
                &self.outline,
                centers,
                &LegalizeSettings::default(),
            )
        };
        let legal_seconds = t0.elapsed().as_secs_f64();
        let (hpwl, failure) = match outcome {
            Ok(legal) => (Some(legal.hpwl), None),
            Err(e) => (None, Some(e.to_string())),
        };
        let result = MethodResult {
            method: method.to_string(),
            hpwl,
            global_seconds: t_global,
            legal_seconds,
            failure,
        };
        method_event(&result);
        result
    }

    /// Runs a global placer under the `pipeline.global` span, then
    /// legalizes its centers with [`legalize_centers`](Self::legalize_centers).
    /// A placer error becomes a failed result with its own
    /// `pipeline.method` event.
    fn global_then_legalize<E: std::fmt::Display>(
        &self,
        method: &str,
        place: impl FnOnce() -> Result<Vec<(f64, f64)>, E>,
    ) -> MethodResult {
        let t0 = Instant::now();
        let placed = {
            let _span = telemetry::span("pipeline.global");
            place()
        };
        let t = t0.elapsed().as_secs_f64();
        match placed {
            Ok(centers) => self.legalize_centers(method, &centers, t),
            Err(e) => {
                let r = MethodResult::failed(method, t, e.to_string());
                method_event(&r);
                r
            }
        }
    }

    /// Ours: a supervised SDP solve of `problem`, then the shared
    /// legalizer. A `degraded` or `placeholder` verdict is a failed row
    /// (`verdict <quality>`), as in the benchmark: its placement is not
    /// the algorithm's answer, so it is not legalized.
    fn supervised_then_legalize(
        &self,
        problem: &GlobalFloorplanProblem,
        settings: FloorplannerSettings,
    ) -> MethodResult {
        self.global_then_legalize("ours", || {
            let result = SolveSupervisor::new(settings).solve(problem);
            match result.quality {
                SolveQuality::Degraded | SolveQuality::Placeholder => {
                    Err(format!("verdict {}", result.quality.as_str()))
                }
                _ => Ok(result.floorplan.positions),
            }
        })
    }

    /// Budget-default SDP settings for this instance.
    pub fn sdp_settings(&self) -> FloorplannerSettings {
        self.budget.sdp_settings(self.problem.n)
    }

    /// Ours: the SDP convex-iteration floorplanner with the given
    /// settings (use [`sdp_settings`](Self::sdp_settings) for the
    /// budget default), then the shared legalizer.
    pub fn run_sdp(&self, settings: FloorplannerSettings) -> MethodResult {
        self.supervised_then_legalize(&self.problem, settings)
    }

    /// Ours with specific enhancements / α (for the Fig. 4 sweeps). The
    /// global solve runs on a problem captured at `aspect_limit`; its
    /// centers are legalized against [`problem`](Self::problem)
    /// (aspect limit 3), like every other method's.
    pub fn run_sdp_variant(
        &self,
        enhancements: Enhancements,
        aspect_limit: f64,
        alpha0: Option<f64>,
    ) -> MethodResult {
        let options = ProblemOptions {
            outline: Some(self.outline),
            aspect_limit,
            ..ProblemOptions::default()
        };
        let problem = match GlobalFloorplanProblem::from_netlist(&self.netlist, &options) {
            Ok(p) => p,
            Err(e) => return MethodResult::failed("ours", 0.0, e.to_string()),
        };
        let mut settings = self.budget.sdp_settings(problem.n);
        settings.enhancements = enhancements;
        if let Some(a) = alpha0 {
            settings.alpha0 = a;
            settings.max_alpha_rounds = 1; // pinned α, as in the sweep
            settings.max_iter = settings.max_iter.max(8);
        }
        self.supervised_then_legalize(&problem, settings)
    }

    /// The AR baseline → shared legalizer.
    pub fn run_ar(&self) -> MethodResult {
        self.global_then_legalize("ar", || {
            ArFloorplanner::default()
                .place(&self.problem)
                .map(|pl| pl.positions)
        })
    }

    /// The PP baseline → shared legalizer.
    pub fn run_pp(&self) -> MethodResult {
        let settings = PpSettings {
            restarts: if self.budget == Budget::Quick { 1 } else { 3 },
        };
        self.global_then_legalize("pp", || {
            PpFloorplanner::new(settings)
                .place(&self.problem)
                .map(|pl| pl.positions)
        })
    }

    /// The QP baseline → shared legalizer.
    pub fn run_qp(&self) -> MethodResult {
        self.global_then_legalize("qp", || {
            QuadraticPlacer::default()
                .place(&self.problem)
                .map(|pl| pl.positions)
        })
    }

    /// The Parquet-style annealer. It produces legal shapes directly
    /// (its own packing is the legalization, as in the paper where
    /// Parquet results are reported from the tool itself).
    pub fn run_annealing(&self) -> MethodResult {
        let t0 = Instant::now();
        let settings = self.budget.anneal_settings();
        let placed = {
            let _span = telemetry::span("pipeline.global");
            Annealer::new(settings).place(&self.netlist, &self.problem, &self.outline)
        };
        let result = match placed {
            Ok(fp) => {
                let t = t0.elapsed().as_secs_f64();
                MethodResult {
                    method: "parquet-sa".into(),
                    hpwl: if fp.fits { Some(fp.hpwl) } else { None },
                    global_seconds: t,
                    legal_seconds: 0.0,
                    failure: if fp.fits {
                        None
                    } else {
                        Some("packing exceeds outline".into())
                    },
                }
            }
            Err(e) => {
                MethodResult::failed("parquet-sa", t0.elapsed().as_secs_f64(), e.to_string())
            }
        };
        method_event(&result);
        result
    }

    /// The analytical baseline → shared legalizer.
    pub fn run_analytical(&self) -> MethodResult {
        self.global_then_legalize("analytical", || {
            AnalyticalFloorplanner::default()
                .place(&self.netlist, &self.problem, &self.outline)
                .map(|pl| pl.positions)
        })
    }
}

/// Percentage improvement of `ours` over `other` (the paper's Δ%):
/// `(other − ours) / ours · 100`.
pub fn delta_percent(ours: Option<f64>, other: Option<f64>) -> Option<f64> {
    match (ours, other) {
        (Some(a), Some(b)) if a > 0.0 => Some((b - a) / a * 100.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_netlist::suite;

    #[test]
    fn pipeline_prepares_benchmark() {
        let p = Pipeline::new(&suite::gsrc_n10(), 2.0, Budget::Quick);
        assert_eq!(p.problem.n, 10);
        assert!((p.outline.aspect_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(p.problem.aspect_limit, 3.0);
    }

    #[test]
    fn delta_percent_math() {
        assert_eq!(delta_percent(Some(100.0), Some(115.0)), Some(15.0));
        assert_eq!(delta_percent(None, Some(1.0)), None);
        assert_eq!(delta_percent(Some(1.0), None), None);
    }

    #[test]
    fn placeholder_verdict_is_a_failed_row() {
        let p = Pipeline::new(&suite::gsrc_n10(), 1.0, Budget::Quick);
        let mut settings = p.sdp_settings();
        settings.max_alpha_rounds = 0;
        let r = p.run_sdp(settings);
        assert_eq!(r.method, "ours");
        assert_eq!(r.hpwl, None);
        assert_eq!(r.failure.as_deref(), Some("verdict placeholder"));
        // The spread embedding is not legalized.
        assert_eq!(r.legal_seconds, 0.0);
    }

    #[test]
    fn qp_pipeline_end_to_end() {
        let p = Pipeline::new(&suite::gsrc_n10(), 1.0, Budget::Quick);
        let r = p.run_qp();
        // QP collapses its layout, which may or may not legalize, but
        // the pipeline must produce a well-formed result either way.
        assert_eq!(r.method, "qp");
        assert!(r.hpwl.is_some() || r.failure.is_some());
    }
}
