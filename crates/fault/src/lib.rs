//! Deterministic fault injection for the gfp numeric pipeline.
//!
//! Robustness work needs reproducible failures: an ADMM iterate that
//! goes NaN at exactly iteration 7, an eigendecomposition that stalls
//! on the 3rd call, a CSR matvec that returns Inf once. This crate
//! provides **seed-driven, call-count-triggered** injection hooks that
//! the numeric crates poll at well-defined *serial* boundaries
//! (iteration starts, kernel entries), so every injected failure
//! reproduces bit-identically at any `GFP_THREADS` setting.
//!
//! # Zero cost unless enabled
//!
//! All hooks compile to empty `#[inline(always)]` functions unless the
//! `fault-inject` cargo feature is on. Release builds without the
//! feature therefore carry **no injection branches at all** — verified
//! in CI by a `--no-default-features` build pass.
//!
//! # Usage (tests only)
//!
//! ```
//! use gfp_fault as fault;
//!
//! // Arm: NaN-corrupt the ADMM iterate at its 3rd iteration boundary.
//! fault::arm(fault::FaultPlan::single(
//!     fault::Site::AdmmIter,
//!     fault::FaultKind::Nan,
//!     2,
//! ));
//! // ... run the solver under supervision, assert graceful recovery ...
//! fault::disarm();
//! ```
//!
//! With the feature off, `arm` is inert and `poll` always returns
//! `None`, so the example above compiles and runs either way.
//!
//! # Determinism contract
//!
//! Hooks must only be polled from serial code (an outer iteration
//! loop, a kernel entry point called from one thread at a time within
//! a solve). Hit counters then advance in program order and the Nth
//! hit is the same operation on every run and worker count. All sites
//! instrumented in-tree satisfy this.

use std::fmt;

/// Injection sites instrumented across the workspace. Each is polled
/// at a serial execution boundary (see the determinism contract in
/// the [crate docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Site {
    /// ADMM outer-iteration boundary (`gfp-conic`, `admm.rs`).
    AdmmIter,
    /// Barrier IPM centering-loop boundary (`gfp-conic`, `ipm.rs`).
    IpmNewton,
    /// Symmetric eigendecomposition entry (`gfp-linalg`, `eigen.rs`).
    Eigh,
    /// CSR matrix-vector product (`gfp-linalg`, `sparse.rs`).
    CsrMatvec,
    /// Top-`k` partial eigensolver entry (`gfp-linalg`, `top_pairs` in
    /// `tridiag.rs`), polled once per call; sub-problem 2's fast path
    /// is its only caller. `Stall`/`BudgetExhaust` → a convergence
    /// error, `Nan`/`Inf` → a non-finite input error, `PerturbResidual`
    /// → the residual certificate fails (`Ok(None)`); each sends
    /// sub-problem 2 down its dense route.
    TopPairs,
    /// Durable snapshot write (`gfp-store`, `snapshot.rs`). Kinds map
    /// to storage failures: `Nan`/`Inf`/`Stall` → the write fails with
    /// an injected I/O error (nothing lands on disk), `BudgetExhaust`
    /// → a torn write (only a prefix of the record persists),
    /// `PerturbResidual` → one payload byte is flipped after the CRC
    /// is computed (silent corruption).
    CheckpointWrite,
    /// Wire-frame read on a daemon connection (`gfp-service`,
    /// `daemon.rs`). Kinds map to transport failures:
    /// `Nan`/`Inf`/`Stall` → the read fails with an injected I/O
    /// error, `BudgetExhaust` → a torn frame (only a prefix of the
    /// record arrives), `PerturbResidual` → one payload byte is
    /// flipped in flight (caught by the frame CRC).
    ServiceFrameRead,
    /// Response write on a daemon connection (`gfp-service`,
    /// `daemon.rs`). Any fired kind drops the connection mid-stream:
    /// a prefix of the response frame is written, then the socket is
    /// shut down — the client sees a truncated frame.
    ServiceConnDrop,
    /// Job admission (`gfp-service`, `daemon.rs`). Any fired kind
    /// makes the bounded queue report itself full, so the submission
    /// is rejected with a retry-after hint exactly as under real
    /// overload.
    ServiceQueueFull,
    /// Worker picking up a job attempt (`gfp-service`, `daemon.rs`).
    /// Any fired kind kills the attempt before the solve starts — the
    /// deterministic in-process stand-in for a worker thread dying —
    /// and the job takes the retry/backoff path.
    ServiceWorkerDeath,
}

impl Site {
    /// Every instrumented site, for matrix-style tests.
    pub const ALL: [Site; 10] = [
        Site::AdmmIter,
        Site::IpmNewton,
        Site::Eigh,
        Site::CsrMatvec,
        Site::TopPairs,
        Site::CheckpointWrite,
        Site::ServiceFrameRead,
        Site::ServiceConnDrop,
        Site::ServiceQueueFull,
        Site::ServiceWorkerDeath,
    ];

    /// The service-layer sites (`gfp-service`), for matrix-style
    /// tests over just the serving path.
    pub const SERVICE: [Site; 4] = [
        Site::ServiceFrameRead,
        Site::ServiceConnDrop,
        Site::ServiceQueueFull,
        Site::ServiceWorkerDeath,
    ];

    /// Stable name used in telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            Site::AdmmIter => "admm.iter",
            Site::IpmNewton => "ipm.newton",
            Site::Eigh => "eigh",
            Site::CsrMatvec => "csr.matvec",
            Site::TopPairs => "top_pairs",
            Site::CheckpointWrite => "checkpoint.write",
            Site::ServiceFrameRead => "service.frame_read",
            Site::ServiceConnDrop => "service.conn_drop",
            Site::ServiceQueueFull => "service.queue_full",
            Site::ServiceWorkerDeath => "service.worker_death",
        }
    }

    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    fn index(self) -> usize {
        match self {
            Site::AdmmIter => 0,
            Site::IpmNewton => 1,
            Site::Eigh => 2,
            Site::CsrMatvec => 3,
            Site::TopPairs => 4,
            Site::CheckpointWrite => 5,
            Site::ServiceFrameRead => 6,
            Site::ServiceConnDrop => 7,
            Site::ServiceQueueFull => 8,
            Site::ServiceWorkerDeath => 9,
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an armed fault does when it fires. The *interpretation* is up
/// to the instrumented site; the canonical semantics are:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Overwrite one deterministic entry of the site's state with NaN.
    Nan,
    /// Overwrite one deterministic entry with `+∞`.
    Inf,
    /// Force the site to stop making progress (e.g. suppress the
    /// solver's convergence acceptance) until its budget runs out.
    Stall,
    /// Exhaust the site's iteration budget immediately (early stop
    /// with whatever iterate is current).
    BudgetExhaust,
    /// Perturb the site's residual/metric by `magnitude` (relative).
    PerturbResidual,
}

impl FaultKind {
    /// Every kind, for matrix-style tests.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Nan,
        FaultKind::Inf,
        FaultKind::Stall,
        FaultKind::BudgetExhaust,
        FaultKind::PerturbResidual,
    ];

    /// Stable name used in telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Nan => "nan",
            FaultKind::Inf => "inf",
            FaultKind::Stall => "stall",
            FaultKind::BudgetExhaust => "budget_exhaust",
            FaultKind::PerturbResidual => "perturb_residual",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault: fire `count` times at site hits strictly after the
/// first `after` (so `after = 0` fires on the very first hit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Where to fire.
    pub site: Site,
    /// What to do.
    pub kind: FaultKind,
    /// Site hits to skip before firing.
    pub after: u64,
    /// How many consecutive hits fire (0 = never).
    pub count: u64,
    /// Kind-specific magnitude (e.g. the residual perturbation factor).
    pub magnitude: f64,
}

/// A set of armed faults, the unit handed to [`arm`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The armed faults; the first matching spec wins at each hit.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (arming it clears all faults but keeps counting
    /// site hits).
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-fault plan firing once, with magnitude 1.
    pub fn single(site: Site, kind: FaultKind, after: u64) -> Self {
        FaultPlan {
            specs: vec![FaultSpec {
                site,
                kind,
                after,
                count: 1,
                magnitude: 1.0,
            }],
        }
    }

    /// Adds a spec (builder style).
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// A deterministic pseudo-random single-fault plan derived from
    /// `seed` with splitmix64: same seed, same plan, forever. Useful
    /// for fuzz-style sweeps (`for seed in 0..N`).
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let site = Site::ALL[(next() % Site::ALL.len() as u64) as usize];
        let kind = FaultKind::ALL[(next() % FaultKind::ALL.len() as u64) as usize];
        let after = next() % 8;
        let magnitude = 10f64.powi((next() % 5) as i32);
        FaultPlan {
            specs: vec![FaultSpec {
                site,
                kind,
                after,
                count: 1,
                magnitude,
            }],
        }
    }
}

/// A fault that just fired at a polled site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fired {
    /// What to do.
    pub kind: FaultKind,
    /// Kind-specific magnitude from the spec.
    pub magnitude: f64,
}

#[cfg(feature = "fault-inject")]
mod imp {
    use super::{FaultPlan, Fired, Site};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    struct ArmedSpec {
        spec: super::FaultSpec,
        fired: u64,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static FIRED_TOTAL: AtomicU64 = AtomicU64::new(0);
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static HITS: [AtomicU64; 10] = [ZERO; 10];
    static PLAN: Mutex<Vec<ArmedSpec>> = Mutex::new(Vec::new());

    pub fn arm(plan: FaultPlan) {
        let mut armed = PLAN.lock().expect("fault plan lock");
        armed.clear();
        armed.extend(plan.specs.into_iter().map(|spec| ArmedSpec { spec, fired: 0 }));
        for h in &HITS {
            h.store(0, Ordering::Relaxed);
        }
        FIRED_TOTAL.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::SeqCst);
        gfp_telemetry::counter_add("fault.armed", 1);
    }

    pub fn disarm() {
        ARMED.store(false, Ordering::SeqCst);
        PLAN.lock().expect("fault plan lock").clear();
    }

    pub fn is_armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    pub fn injected_total() -> u64 {
        FIRED_TOTAL.load(Ordering::Relaxed)
    }

    pub fn site_hits(site: Site) -> u64 {
        HITS[site.index()].load(Ordering::Relaxed)
    }

    pub fn poll(site: Site) -> Option<Fired> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let hit = HITS[site.index()].fetch_add(1, Ordering::Relaxed);
        let mut plan = PLAN.lock().expect("fault plan lock");
        for armed in plan.iter_mut() {
            if armed.spec.site == site && hit >= armed.spec.after && armed.fired < armed.spec.count
            {
                armed.fired += 1;
                FIRED_TOTAL.fetch_add(1, Ordering::Relaxed);
                let fired = Fired {
                    kind: armed.spec.kind,
                    magnitude: armed.spec.magnitude,
                };
                drop(plan);
                gfp_telemetry::counter_add("fault.injected", 1);
                if gfp_telemetry::enabled() {
                    gfp_telemetry::event(
                        "fault.injected",
                        &[
                            ("site", gfp_telemetry::Value::Text(site.name().into())),
                            ("kind", gfp_telemetry::Value::Text(fired.kind.name().into())),
                            ("hit", hit.into()),
                        ],
                    );
                }
                return Some(fired);
            }
        }
        None
    }
}

#[cfg(not(feature = "fault-inject"))]
mod imp {
    //! Inert mirror: every hook folds to nothing; arming is a no-op.
    use super::{FaultPlan, Fired, Site};

    #[inline(always)]
    pub fn arm(_plan: FaultPlan) {}

    #[inline(always)]
    pub fn disarm() {}

    #[inline(always)]
    pub fn is_armed() -> bool {
        false
    }

    #[inline(always)]
    pub fn injected_total() -> u64 {
        0
    }

    #[inline(always)]
    pub fn site_hits(_site: Site) -> u64 {
        0
    }

    #[inline(always)]
    pub fn poll(_site: Site) -> Option<Fired> {
        None
    }
}

/// Whether injection support is compiled in (the `fault-inject`
/// feature). When `false`, [`arm`] is inert and [`poll`] is a no-op.
pub const COMPILED_IN: bool = cfg!(feature = "fault-inject");

/// Arms a plan, resetting all site hit counters and fired counts.
/// Inert without the `fault-inject` feature.
pub fn arm(plan: FaultPlan) {
    imp::arm(plan);
}

/// Disarms everything; subsequent [`poll`]s return `None`.
pub fn disarm() {
    imp::disarm();
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    imp::is_armed()
}

/// Total faults fired since the last [`arm`].
pub fn injected_total() -> u64 {
    imp::injected_total()
}

/// Hits recorded at `site` since the last [`arm`] (0 when disarmed or
/// compiled out).
pub fn site_hits(site: Site) -> u64 {
    imp::site_hits(site)
}

/// The injection hook: called by instrumented sites once per serial
/// boundary crossing. Returns the fault to apply, if one fires.
///
/// With the `fault-inject` feature off this is an `#[inline(always)]`
/// `None`, so hook call sites optimize away entirely.
#[inline(always)]
pub fn poll(site: Site) -> Option<Fired> {
    imp::poll(site)
}

/// Convenience hook for kernels holding a mutable buffer: polls
/// `site`, applies `Nan`/`Inf` corruption to `data[0]` directly, and
/// hands any other fired kind back to the caller to interpret.
#[inline(always)]
pub fn corrupt_first(site: Site, data: &mut [f64]) -> Option<Fired> {
    let fired = poll(site)?;
    match fired.kind {
        FaultKind::Nan => {
            if let Some(v) = data.first_mut() {
                *v = f64::NAN;
            }
            Some(fired)
        }
        FaultKind::Inf => {
            if let Some(v) = data.first_mut() {
                *v = f64::INFINITY;
            }
            Some(fired)
        }
        _ => Some(fired),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed state is process-global; serialize tests touching it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..32 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        // And not all identical.
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fires_at_the_exact_hit() {
        let _g = LOCK.lock().unwrap();
        arm(FaultPlan::single(Site::Eigh, FaultKind::Nan, 2));
        assert!(poll(Site::Eigh).is_none()); // hit 0
        assert!(poll(Site::AdmmIter).is_none()); // other site
        assert!(poll(Site::Eigh).is_none()); // hit 1
        let fired = poll(Site::Eigh).expect("hit 2 fires");
        assert_eq!(fired.kind, FaultKind::Nan);
        assert!(poll(Site::Eigh).is_none()); // count exhausted
        assert_eq!(injected_total(), 1);
        assert_eq!(site_hits(Site::Eigh), 4);
        disarm();
        assert!(poll(Site::Eigh).is_none());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn corrupt_first_writes_nan_and_inf() {
        let _g = LOCK.lock().unwrap();
        arm(
            FaultPlan::single(Site::CsrMatvec, FaultKind::Nan, 0).with(FaultSpec {
                site: Site::CsrMatvec,
                kind: FaultKind::Inf,
                after: 1,
                count: 1,
                magnitude: 1.0,
            }),
        );
        let mut v = vec![1.0, 2.0];
        assert!(corrupt_first(Site::CsrMatvec, &mut v).is_some());
        assert!(v[0].is_nan());
        v[0] = 1.0;
        assert!(corrupt_first(Site::CsrMatvec, &mut v).is_some());
        assert!(v[0].is_infinite());
        disarm();
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn compiled_out_is_inert() {
        let _g = LOCK.lock().unwrap();
        assert!(!COMPILED_IN);
        arm(FaultPlan::single(Site::Eigh, FaultKind::Nan, 0));
        assert!(!is_armed());
        assert!(poll(Site::Eigh).is_none());
        assert_eq!(injected_total(), 0);
        disarm();
    }
}
