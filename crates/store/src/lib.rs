//! Durable snapshot store for crash-safe solves.
//!
//! The convex-iteration outer loop is the longest-running stage of the
//! pipeline; this crate makes its per-round iterate the unit of
//! durability, so a killed process restarts from the last committed
//! round instead of from scratch. It is deliberately generic: the
//! store moves opaque byte payloads, and the solver-state codec that
//! produces them lives next to the types it encodes (see
//! `gfp_core::checkpoint`).
//!
//! Three layers, std-only, no serde:
//!
//! * `codec` — little-endian [`Encoder`]/[`Decoder`] primitives with
//!   positioned, non-panicking decode errors and bitwise-lossless
//!   `f64` round-trips (`to_bits`), the foundation of the
//!   resume-determinism contract.
//! * `crc32` — CRC-32 (IEEE) payload checksums ([`crc32()`]).
//! * `snapshot` — the versioned record envelope
//!   (magic + format version + length + CRC) and [`SnapshotStore`]:
//!   atomic temp-fsync-rename writes, a generation ring of the newest
//!   K snapshots, and corruption-detecting loads that fall back to the
//!   newest good generation.
//!
//! Writes poll the `checkpoint.write` fault-injection site (inert
//! without the `fault-inject` feature) so crash/torn-write/corruption
//! paths are testable deterministically, and emit `store.*` telemetry
//! counters and events.

mod codec;
mod crc32;
mod snapshot;

pub use codec::{DecodeError, Decoder, Encoder};
pub use crc32::crc32;
pub use snapshot::{
    decode_record, encode_record, RecordError, Snapshot, SnapshotStore, StoreError, HEADER_LEN,
    MAGIC,
};
