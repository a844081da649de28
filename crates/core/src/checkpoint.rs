//! Binary codec between [`OuterState`] and durable snapshot payloads.
//!
//! The store ([`gfp_store`]) moves opaque bytes; this module is the
//! solver-side half that knows the shape of the outer-loop state. The
//! encoding is versioned (see [`STATE_FORMAT_VERSION`]) and bitwise
//! lossless: every `f64` round-trips through its bit pattern, so a
//! decoded state replays the exact trajectory the encoded state would
//! have — the resume-determinism contract.
//!
//! What gets captured, and why:
//!
//! * the outer-loop scalars (`alpha`, `round`, `global_iter`,
//!   `converged`, `final_alpha`), the carried direction matrix `W`,
//!   the warm-start `svec(Z)`, the best iterate and the full
//!   per-iteration trace — the visible state of Algorithm 1;
//! * the **ADMM reuse state** (constraint cache + warm duals). This is
//!   the subtle part: a resumed solve that silently rebuilt the cache
//!   would also drop the warm iterate (the cache-miss path clears it)
//!   and the trajectory would diverge from the uninterrupted run. The
//!   cache's sparse Cholesky factor is *not* captured: decoding
//!   refactors it from the captured equilibrated matrix, which gives
//!   the same bits.
//!
//! Decoding never panics on malformed bytes: every read is bounds- and
//! tag-checked ([`DecodeError`]), and structural invariants (CSR
//! shape, matrix dimensions) are revalidated before the state is
//! rebuilt, because a payload that passed its CRC can still be a
//! version from the future or a foreign file.

use gfp_conic::{AdmmCacheSnapshot, AdmmReuse, AdmmReuseSnapshot, AdmmWarmSnapshot, SolveStatus};
use gfp_linalg::sparse::CsrMat;
use gfp_linalg::Mat;
use gfp_store::{DecodeError, Decoder, Encoder};

use crate::iterate::{BestIterate, IterTrace, OuterState, RoundSummary};

/// Version stamped into every snapshot envelope by the supervisor.
/// Bump when the [`OuterState`] encoding changes shape; decoding
/// rejects unknown versions instead of guessing.
///
/// * v1 — PR 5 initial codec.
/// * v2 — appended the per-round [`RoundSummary`] table and the
///   supervisor's pending-recovery note.
/// * v3 — round rows carry the hierarchy stage tag and the
///   distance-constraint count (sparsification telemetry).
/// * v4 — the ADMM cache drops the Jacobi diagonal of the retired CG
///   x-update. v3 payloads still decode: the diagonal is read and
///   dropped.
pub const STATE_FORMAT_VERSION: u16 = 4;

/// Oldest envelope version [`decode_state`] still reads.
const OLDEST_DECODABLE_VERSION: u16 = 3;

fn put_status(e: &mut Encoder, s: SolveStatus) {
    e.put_u8(match s {
        SolveStatus::Optimal => 0,
        SolveStatus::Inaccurate => 1,
        SolveStatus::MaxIterations => 2,
    });
}

fn get_status(d: &mut Decoder<'_>) -> Result<SolveStatus, DecodeError> {
    let offset = d.position();
    match d.u8()? {
        0 => Ok(SolveStatus::Optimal),
        1 => Ok(SolveStatus::Inaccurate),
        2 => Ok(SolveStatus::MaxIterations),
        _ => Err(DecodeError { offset, expected: "solve status tag (0..=2)" }),
    }
}

fn put_mat(e: &mut Encoder, m: &Mat) {
    e.put_usize(m.nrows());
    e.put_usize(m.ncols());
    e.put_f64s(m.as_slice());
}

fn get_mat(d: &mut Decoder<'_>) -> Result<Mat, DecodeError> {
    let offset = d.position();
    let rows = d.usize()?;
    let cols = d.usize()?;
    let data = d.f64s()?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(DecodeError { offset, expected: "matrix data matching rows*cols" });
    }
    Ok(Mat::from_vec(rows, cols, data))
}

fn put_csr(e: &mut Encoder, m: &CsrMat) {
    let (indptr, indices, values) = m.csr_parts();
    e.put_usize(m.nrows());
    e.put_usize(m.ncols());
    e.put_usizes(indptr);
    e.put_usizes(indices);
    e.put_f64s(values);
}

fn get_csr(d: &mut Decoder<'_>) -> Result<CsrMat, DecodeError> {
    let offset = d.position();
    let rows = d.usize()?;
    let cols = d.usize()?;
    let indptr = d.usizes()?;
    let indices = d.usizes()?;
    let values = d.f64s()?;
    CsrMat::from_csr_parts(rows, cols, indptr, indices, values)
        .ok_or(DecodeError { offset, expected: "structurally valid CSR arrays" })
}

fn put_positions(e: &mut Encoder, ps: &[(f64, f64)]) {
    e.put_usize(ps.len());
    for &(x, y) in ps {
        e.put_f64(x);
        e.put_f64(y);
    }
}

fn get_positions(d: &mut Decoder<'_>) -> Result<Vec<(f64, f64)>, DecodeError> {
    let offset = d.position();
    let len = d.usize()?;
    if len.checked_mul(16).is_none_or(|bytes| bytes > d.remaining()) {
        return Err(DecodeError { offset, expected: "position list length" });
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push((d.f64()?, d.f64()?));
    }
    Ok(out)
}

fn put_round(e: &mut Encoder, r: &RoundSummary) {
    e.put_usize(r.round);
    e.put_f64(r.alpha);
    e.put_usize(r.iterations);
    e.put_usize(r.sp1_iterations);
    e.put_u8(match r.backend {
        "ipm" => 1,
        _ => 0,
    });
    e.put_u8(match r.stage {
        "top" => 1,
        "leaf" => 2,
        "refine" => 3,
        _ => 0,
    });
    e.put_u64(r.constraints);
    e.put_f64(r.objective);
    e.put_f64(r.wirelength);
    e.put_f64(r.rank_gap);
    e.put_f64(r.rel_gap);
    e.put_f64(r.primal_residual);
    e.put_f64(r.dual_residual);
    e.put_u64(r.fastpath_hits);
    e.put_u64(r.fastpath_fallbacks);
    e.put_u8(match r.outcome {
        "rank_certified" => 0,
        "inner_converged" => 1,
        _ => 2,
    });
    e.put_f64(r.seconds);
    e.put_option(r.recovered_from.as_ref(), |e, s| e.put_bytes(s.as_bytes()));
}

fn get_round(d: &mut Decoder<'_>) -> Result<RoundSummary, DecodeError> {
    let round = d.usize()?;
    let alpha = d.f64()?;
    let iterations = d.usize()?;
    let sp1_iterations = d.usize()?;
    let backend_offset = d.position();
    let backend = match d.u8()? {
        0 => "admm",
        1 => "ipm",
        _ => return Err(DecodeError { offset: backend_offset, expected: "backend tag (0..=1)" }),
    };
    let stage_offset = d.position();
    let stage = match d.u8()? {
        0 => "flat",
        1 => "top",
        2 => "leaf",
        3 => "refine",
        _ => return Err(DecodeError { offset: stage_offset, expected: "stage tag (0..=3)" }),
    };
    let constraints = d.u64()?;
    let objective = d.f64()?;
    let wirelength = d.f64()?;
    let rank_gap = d.f64()?;
    let rel_gap = d.f64()?;
    let primal_residual = d.f64()?;
    let dual_residual = d.f64()?;
    let fastpath_hits = d.u64()?;
    let fastpath_fallbacks = d.u64()?;
    let outcome_offset = d.position();
    let outcome = match d.u8()? {
        0 => "rank_certified",
        1 => "inner_converged",
        2 => "iter_budget",
        _ => return Err(DecodeError { offset: outcome_offset, expected: "outcome tag (0..=2)" }),
    };
    let seconds = d.f64()?;
    let recovered_offset = d.position();
    let recovered_from = d
        .option(|d| d.bytes())?
        .map(|b| String::from_utf8(b))
        .transpose()
        .map_err(|_| DecodeError { offset: recovered_offset, expected: "utf-8 recovery note" })?;
    Ok(RoundSummary {
        round,
        alpha,
        iterations,
        sp1_iterations,
        backend,
        stage,
        constraints,
        objective,
        wirelength,
        rank_gap,
        rel_gap,
        primal_residual,
        dual_residual,
        fastpath_hits,
        fastpath_fallbacks,
        outcome,
        seconds,
        recovered_from,
    })
}

/// Encodes the outer-loop state as a snapshot payload (the bytes the
/// supervisor hands to [`gfp_store::SnapshotStore::write`] under
/// [`STATE_FORMAT_VERSION`]).
pub fn encode_state(state: &OuterState) -> Vec<u8> {
    let mut e = Encoder::with_capacity(4096);
    e.put_f64(state.alpha);
    e.put_usize(state.round);
    e.put_usize(state.global_iter);
    e.put_option(state.carried_w.as_ref(), put_mat);
    e.put_option(state.warm_z.as_ref(), |e, z| e.put_f64s(z));

    let reuse = state.admm_reuse.snapshot();
    e.put_option(reuse.cache.as_ref(), |e, c| {
        put_csr(e, &c.a_orig);
        put_csr(e, &c.a_scaled);
        e.put_f64s(&c.row_scale);
        e.put_f64s(&c.col_scale);
        e.put_usize(c.scaling_iters);
        e.put_f64(c.prox_eps);
    });
    e.put_option(reuse.warm.as_ref(), |e, w| {
        e.put_f64s(&w.y);
        e.put_f64s(&w.s);
        e.put_f64(w.rho);
    });

    e.put_option(state.best.as_ref(), |e, b| {
        put_positions(e, &b.positions);
        e.put_f64(b.wirelength);
        e.put_f64(b.rel_gap);
    });

    e.put_usize(state.trace.len());
    for t in &state.trace {
        e.put_f64(t.alpha);
        e.put_usize(t.iteration);
        e.put_f64(t.wirelength);
        e.put_f64(t.rank_gap);
        e.put_f64(t.sp1_seconds);
        put_status(&mut e, t.sp1_status);
    }

    e.put_bool(state.converged);
    e.put_f64(state.final_alpha);

    e.put_usize(state.rounds.len());
    for r in &state.rounds {
        put_round(&mut e, r);
    }
    e.put_option(state.pending_recovery.as_ref(), |e, s| e.put_bytes(s.as_bytes()));
    e.into_bytes()
}

/// Decodes a snapshot payload produced by [`encode_state`], or by the
/// v3 encoder before it (see [`STATE_FORMAT_VERSION`]). `version` is
/// the envelope's format version; unknown versions are rejected up
/// front.
pub fn decode_state(version: u16, payload: &[u8]) -> Result<OuterState, DecodeError> {
    if !(OLDEST_DECODABLE_VERSION..=STATE_FORMAT_VERSION).contains(&version) {
        return Err(DecodeError { offset: 0, expected: "known state format version" });
    }
    let mut d = Decoder::new(payload);
    let alpha = d.f64()?;
    let round = d.usize()?;
    let global_iter = d.usize()?;
    let carried_w = d.option(get_mat)?;
    let warm_z = d.option(|d| d.f64s())?;

    let cache_offset = d.position();
    let cache = d.option(|d| {
        let a_orig = get_csr(d)?;
        let a_scaled = get_csr(d)?;
        let row_scale = d.f64s()?;
        let col_scale = d.f64s()?;
        if version == 3 {
            d.f64s()?; // the Jacobi diagonal of the CG x-update
        }
        // Decoding refactors the cache, so its shapes must agree (and
        // stay bounded by the payload's scale vectors) before then.
        let (rows, cols) = (a_orig.nrows(), a_orig.ncols());
        if (a_scaled.nrows(), a_scaled.ncols()) != (rows, cols)
            || (row_scale.len(), col_scale.len()) != (rows, cols)
        {
            let expected = "ADMM cache shapes that agree";
            return Err(DecodeError { offset: cache_offset, expected });
        }
        Ok(AdmmCacheSnapshot {
            a_orig,
            a_scaled,
            row_scale,
            col_scale,
            scaling_iters: d.usize()?,
            prox_eps: d.f64()?,
        })
    })?;
    let warm = d.option(|d| {
        Ok(AdmmWarmSnapshot { y: d.f64s()?, s: d.f64s()?, rho: d.f64()? })
    })?;
    let admm_reuse = AdmmReuse::from_snapshot(AdmmReuseSnapshot { cache, warm }).map_err(|_| {
        DecodeError { offset: cache_offset, expected: "an ADMM cache whose normal matrix factors" }
    })?;

    let best = d.option(|d| {
        Ok(BestIterate {
            positions: get_positions(d)?,
            wirelength: d.f64()?,
            rel_gap: d.f64()?,
        })
    })?;

    let trace_offset = d.position();
    let trace_len = d.usize()?;
    // Each trace row is at least 41 payload bytes; reject forged
    // lengths before reserving.
    if trace_len.checked_mul(41).is_none_or(|bytes| bytes > d.remaining()) {
        return Err(DecodeError { offset: trace_offset, expected: "trace length" });
    }
    let mut trace = Vec::with_capacity(trace_len);
    for _ in 0..trace_len {
        trace.push(IterTrace {
            alpha: d.f64()?,
            iteration: d.usize()?,
            wirelength: d.f64()?,
            rank_gap: d.f64()?,
            sp1_seconds: d.f64()?,
            sp1_status: get_status(&mut d)?,
        });
    }

    let converged = d.bool()?;
    let final_alpha = d.f64()?;

    let rounds_offset = d.position();
    let rounds_len = d.usize()?;
    // Each round row is at least 116 payload bytes; reject forged
    // lengths before reserving.
    if rounds_len.checked_mul(116).is_none_or(|bytes| bytes > d.remaining()) {
        return Err(DecodeError { offset: rounds_offset, expected: "round table length" });
    }
    let mut rounds = Vec::with_capacity(rounds_len);
    for _ in 0..rounds_len {
        rounds.push(get_round(&mut d)?);
    }
    let recovery_offset = d.position();
    let pending_recovery = d
        .option(|d| d.bytes())?
        .map(|b| String::from_utf8(b))
        .transpose()
        .map_err(|_| DecodeError { offset: recovery_offset, expected: "utf-8 recovery note" })?;
    d.finish()?;

    Ok(OuterState {
        alpha,
        round,
        global_iter,
        carried_w,
        warm_z,
        admm_reuse,
        best,
        trace,
        converged,
        final_alpha,
        rounds,
        pending_recovery,
        // Pure scratch, deliberately not captured: an empty workspace
        // rebuilds its buffers on the first resumed round and the
        // assembled programs are identical either way.
        assembly: crate::lifted::AssemblyWorkspace::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterate::FloorplannerSettings;
    use crate::{GlobalFloorplanProblem, ProblemOptions};
    use gfp_netlist::suite;

    fn solved_state() -> OuterState {
        // Run a couple of real rounds so every Option field is
        // populated (cache, warm duals, best iterate, trace).
        let b = suite::gsrc_n10();
        let p =
            GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap();
        let mut s = FloorplannerSettings::fast();
        s.max_iter = 2;
        s.max_alpha_rounds = 2;
        s.eps_rank = 1e-12;
        let sup = crate::supervisor::SolveSupervisor::new(s);
        sup.solve(&p).checkpoint
    }

    fn assert_states_bitwise_equal(a: &OuterState, b: &OuterState) {
        // Encoding is injective over the captured fields, so comparing
        // encodings compares states bitwise without PartialEq on every
        // nested type.
        assert_eq!(encode_state(a), encode_state(b));
    }

    #[test]
    fn roundtrip_is_bitwise_lossless() {
        let state = solved_state();
        assert!(state.best.is_some(), "fixture state must be populated");
        assert!(!state.trace.is_empty());
        let payload = encode_state(&state);
        let decoded = decode_state(STATE_FORMAT_VERSION, &payload).unwrap();
        assert_eq!(decoded.round, state.round);
        assert_eq!(decoded.global_iter, state.global_iter);
        assert_eq!(decoded.alpha.to_bits(), state.alpha.to_bits());
        assert_eq!(decoded.trace.len(), state.trace.len());
        assert_eq!(decoded.admm_reuse.is_warm(), state.admm_reuse.is_warm());
        assert_states_bitwise_equal(&decoded, &state);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let state = solved_state();
        let payload = encode_state(&state);
        assert!(decode_state(STATE_FORMAT_VERSION + 1, &payload).is_err());
        assert!(decode_state(OLDEST_DECODABLE_VERSION - 1, &payload).is_err());
    }

    #[test]
    fn cache_shapes_that_disagree_are_rejected() {
        let mut state = solved_state();
        let mut snap = state.admm_reuse.snapshot();
        snap.cache.as_mut().expect("fixture state has a cache").col_scale.pop();
        state.admm_reuse = AdmmReuse::from_snapshot(snap).unwrap();
        let err = decode_state(STATE_FORMAT_VERSION, &encode_state(&state)).unwrap_err();
        assert_eq!(err.expected, "ADMM cache shapes that agree");
    }

    #[test]
    fn truncations_never_panic() {
        let state = solved_state();
        let payload = encode_state(&state);
        // Every prefix must decode to Err, never panic. Step through
        // all short lengths plus the exact length minus small tails.
        let step = (payload.len() / 257).max(1);
        for cut in (0..payload.len()).step_by(step) {
            assert!(
                decode_state(STATE_FORMAT_VERSION, &payload[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let state = solved_state();
        let mut payload = encode_state(&state);
        payload.push(0);
        assert!(decode_state(STATE_FORMAT_VERSION, &payload).is_err());
    }

    #[test]
    fn seeded_byte_flips_never_panic() {
        let state = solved_state();
        let payload = encode_state(&state);
        let mut rng = gfp_rand::Rng::seed_from_u64(0xC0FFEE);
        for _ in 0..512 {
            let mut bytes = payload.clone();
            let idx = (rng.next_u64() as usize) % bytes.len();
            let bit = (rng.next_u64() % 8) as u32;
            bytes[idx] ^= 1u8 << bit;
            // Either a clean decode (flip landed in float payload
            // bits) or a structured error — never a panic.
            let _ = decode_state(STATE_FORMAT_VERSION, &bytes);
        }
    }
}
