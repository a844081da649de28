//! Durable checkpoint + resume: on-disk behaviour of the supervisor.
//!
//! The bitwise-trajectory proof lives in `golden_trace.rs` (it needs
//! the telemetry stream); this file covers the storage-facing
//! contract: snapshots actually land per round, corrupt generations
//! fall back without losing determinism, and the error paths are
//! structured.

use std::path::PathBuf;

use gfp_conic::AdmmSettings;
use gfp_core::checkpoint::{decode_state, encode_state, STATE_FORMAT_VERSION};
use gfp_core::lifted::Lift;
use gfp_core::supervisor::{SolveSupervisor, SupervisorSettings};
use gfp_core::{
    Backend, FloorplanError, FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions,
};
use gfp_netlist::suite;
use gfp_store::{SnapshotStore, HEADER_LEN};

fn n10_problem() -> GlobalFloorplanProblem {
    let b = suite::gsrc_n10();
    GlobalFloorplanProblem::from_netlist(&b.netlist, &ProblemOptions::default()).unwrap()
}

/// Small but multi-round: the certificate is unreachable, so the round
/// count is fixed and deterministic.
fn settings(rounds: usize) -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.max_iter = 2;
    s.max_alpha_rounds = rounds;
    s.eps_rank = 1e-12;
    s
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gfp-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn supervisor(rounds: usize, dir: Option<PathBuf>) -> SolveSupervisor {
    SolveSupervisor::with_supervision(
        settings(rounds),
        SupervisorSettings {
            checkpoint_dir: dir,
            ..SupervisorSettings::default()
        },
    )
}

fn position_bits(r: &gfp_core::DegradedResult) -> Vec<(u64, u64)> {
    r.floorplan
        .positions
        .iter()
        .map(|&(x, y)| (x.to_bits(), y.to_bits()))
        .collect()
}

#[test]
fn per_round_snapshots_land_on_disk() {
    let p = n10_problem();
    let dir = temp_dir("land");
    let r = supervisor(3, Some(dir.clone())).solve(&p);
    assert_eq!(r.checkpoint.round, 3);

    // Three round-boundary snapshots plus the final one, ring-pruned
    // to the default keep (3).
    let store = SnapshotStore::open(&dir, 3).unwrap();
    let gens = store.generations().unwrap();
    assert_eq!(gens, vec![1, 2, 3], "expected a pruned ring, got {gens:?}");
    let snap = store.load_latest().unwrap().expect("final snapshot present");
    let state =
        gfp_core::checkpoint::decode_state(snap.version, &snap.payload).expect("decodable");
    assert_eq!(state.round, 3);
    assert_eq!(state.global_iter, r.checkpoint.global_iter);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupting the newest generations forces resume to fall back to an
/// older round boundary — and because round replay is deterministic,
/// the final placement is still bit-for-bit the uninterrupted one.
#[test]
fn corrupt_generations_fall_back_and_stay_bitwise_identical() {
    let p = n10_problem();

    // Reference: uninterrupted 3-round run, no persistence.
    let reference = supervisor(3, None).solve(&p);

    // Killed-at-round-2 run with checkpoints.
    let dir = temp_dir("fallback");
    let _ = supervisor(2, Some(dir.clone())).solve(&p);

    // Corrupt the two newest snapshots: flip a payload byte in one,
    // tear the other mid-record.
    let store = SnapshotStore::open(&dir, 3).unwrap();
    let gens = store.generations().unwrap();
    assert!(gens.len() >= 3, "need a full ring, got {gens:?}");
    let newest = store.path_for(*gens.last().unwrap());
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
    let second = store.path_for(gens[gens.len() - 2]);
    let mut bytes = std::fs::read(&second).unwrap();
    bytes[HEADER_LEN + 7] ^= 0x40;
    std::fs::write(&second, &bytes).unwrap();

    // Resume must skip both bad generations, restart from the round-1
    // boundary, replay rounds 1–2 and land exactly where the
    // uninterrupted run did.
    let resumed = supervisor(3, None)
        .resume_from_dir(&p, &dir)
        .expect("fallback to the oldest good generation");
    assert_eq!(resumed.checkpoint.round, 3);
    assert_eq!(position_bits(&reference), position_bits(&resumed));
    assert_eq!(reference.floorplan.iterations, resumed.floorplan.iterations);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_empty_or_missing_dir_is_a_structured_error() {
    let p = n10_problem();
    let dir = temp_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let err = supervisor(3, None).resume_from_dir(&p, &dir).unwrap_err();
    assert!(matches!(err, FloorplanError::Checkpoint { .. }), "got {err:?}");
    assert!(err.to_string().contains("no snapshot found"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_every_generation_corrupt_is_a_structured_error() {
    let p = n10_problem();
    let dir = temp_dir("allbad");
    let _ = supervisor(2, Some(dir.clone())).solve(&p);
    let store = SnapshotStore::open(&dir, 3).unwrap();
    for gen in store.generations().unwrap() {
        std::fs::write(store.path_for(gen), b"GFPSgarbage").unwrap();
    }
    let err = supervisor(3, None).resume_from_dir(&p, &dir).unwrap_err();
    assert!(matches!(err, FloorplanError::Checkpoint { .. }), "got {err:?}");
    assert!(err.to_string().contains("torn or corrupt"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resumed run configured with the same checkpoint directory keeps
/// appending generations (no renumbering), so repeated crashes always
/// move forward.
#[test]
fn resumed_run_continues_the_generation_sequence() {
    let p = n10_problem();
    let dir = temp_dir("contgen");
    let _ = supervisor(2, Some(dir.clone())).solve(&p);
    let before = SnapshotStore::open(&dir, 3).unwrap().generations().unwrap();
    let max_before = *before.last().unwrap();

    let resumed = supervisor(3, Some(dir.clone()))
        .resume_from_dir(&p, &dir)
        .expect("resume");
    assert_eq!(resumed.checkpoint.round, 3);
    let after = SnapshotStore::open(&dir, 3).unwrap().generations().unwrap();
    assert!(
        *after.last().unwrap() > max_before,
        "generations did not advance: {before:?} -> {after:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A v3 snapshot, written before the ADMM cache dropped the Jacobi
/// diagonal of its CG x-update, still decodes and resumes: the fixture
/// is the round-1 generation of `supervisor(1, dir).solve(n10)` from
/// the last v3 build. The decoder drops the diagonal and refactors the
/// cache, so the resume lands exactly where a v4 snapshot of the same
/// state does.
#[test]
fn v3_snapshot_with_cg_diagonal_decodes_and_resumes() {
    let p = n10_problem();
    let dir = temp_dir("v3");
    let store = SnapshotStore::open(&dir, 3).unwrap();
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/snap_v3_n10_round1.gfps");
    std::fs::copy(fixture, store.path_for(1)).unwrap();

    let snap = store.load_latest().unwrap().expect("fixture generation");
    assert_eq!(snap.version, 3);
    let state = decode_state(snap.version, &snap.payload).expect("v3 decodes");
    assert_eq!(state.round, 1);
    assert!(state.admm_reuse.is_warm());
    let cache = state.admm_reuse.snapshot().cache.expect("the v3 cache survives");
    // v4 drops exactly the diagonal: a length prefix and one f64 per
    // column.
    let v4 = encode_state(&state);
    assert_eq!(v4.len() + 8 * (1 + cache.col_scale.len()), snap.payload.len());
    let from_v4 = decode_state(STATE_FORMAT_VERSION, &v4).unwrap();

    let resumed = supervisor(3, None).resume_from_dir(&p, &dir).expect("v3 resumes");
    let reference = supervisor(3, None).resume(&p, from_v4);
    assert_eq!(resumed.checkpoint.round, 3);
    assert_eq!(position_bits(&resumed), position_bits(&reference));
    assert!(resumed.floorplan.positions.iter().all(|&(x, y)| x.is_finite() && y.is_finite()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume after round 1 of a solve whose sub-problem-1 programs
/// cross the acceleration gate lands bitwise on the uninterrupted run.
/// 62 modules lift to a 64×64 PSD block, so every ADMM solve runs the
/// Anderson-accelerated loop; its history lives inside one solve and
/// never reaches a snapshot, so replaying round 2 from the round-1
/// snapshot retraces it.
#[test]
fn resume_above_the_acceleration_gate_is_bitwise() {
    let bench = suite::generate(&suite::SuiteSpec {
        name: "n62",
        modules: 62,
        nets: 560,
        pads: 200,
        area_min: 500.0,
        area_max: 8_000.0,
        seed: 0x6e36_0062,
    });
    let p =
        GlobalFloorplanProblem::from_netlist(&bench.netlist, &ProblemOptions::default()).unwrap();
    assert_eq!(
        Lift::new(p.n).nn,
        64,
        "the lifted block must reach the gate"
    );
    let sup = |rounds: usize, dir: Option<PathBuf>| {
        let mut s = settings(rounds);
        s.backend = Backend::Admm(AdmmSettings {
            eps: 1e-5,
            max_iter: 150,
        });
        SolveSupervisor::with_supervision(
            s,
            SupervisorSettings {
                checkpoint_dir: dir,
                ..SupervisorSettings::default()
            },
        )
    };
    let reference = sup(2, None).solve(&p);

    let dir = temp_dir("gate");
    let killed = sup(1, Some(dir.clone())).solve(&p);
    assert_eq!(killed.checkpoint.round, 1);
    let resumed = sup(2, None)
        .resume_from_dir(&p, &dir)
        .expect("resume after round 1");
    assert_eq!(resumed.checkpoint.round, 2);
    assert_eq!(position_bits(&reference), position_bits(&resumed));
    assert_eq!(reference.floorplan.iterations, resumed.floorplan.iterations);
    let _ = std::fs::remove_dir_all(&dir);
}
