//! Runtime toggle for the spectral fast paths.
//!
//! The partial-eigendecomposition shortcuts (deflated `W = I − VVᵀ` in
//! sub-problem 2, the partial-spectrum PSD projection inside ADMM)
//! trade a full dense `eigh` for a handful of Lanczos iterations. They
//! fall back to the exact dense path whenever their residual checks
//! fail, so they are safe by construction — but for A/B comparisons,
//! regression hunting and benchmarking, both paths must be selectable
//! at run time:
//!
//! * Environment: set `GFP_NO_SPECTRAL_FASTPATH=1` (any value other
//!   than `0` or empty) to disable the fast paths process-wide.
//! * Programmatic: [`set_enabled`] overrides the environment, e.g. to
//!   run on/off comparisons inside one process.
//!
//! The toggle only chooses *which* certified-accurate path runs; it is
//! read at fast-path entry points only, never inside a kernel, so a
//! given solve sees a consistent setting.

use std::sync::atomic::{AtomicU8, Ordering};

const UNSET: u8 = 0;
const ON: u8 = 1;
const OFF: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNSET);

fn env_wants_fastpath() -> bool {
    match std::env::var("GFP_NO_SPECTRAL_FASTPATH") {
        Ok(v) => {
            let v = v.trim();
            v.is_empty() || v == "0"
        }
        Err(_) => true,
    }
}

/// Whether the spectral fast paths are currently enabled. Unless
/// [`set_enabled`] ran first, the first call consults
/// `GFP_NO_SPECTRAL_FASTPATH`; subsequent calls are a single relaxed
/// atomic load.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = env_wants_fastpath();
            STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces the fast paths on or off for this process, overriding the
/// environment. Returns the previously effective setting.
pub fn set_enabled(on: bool) -> bool {
    let prev = enabled();
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    prev
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_round_trips() {
        let initial = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(initial);
        assert_eq!(enabled(), initial);
    }
}
