//! The `gfpw` length-prefixed wire protocol.
//!
//! Every message travels as one self-delimiting **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GFPW"
//! 4       2     protocol version (1)
//! 6       2     message type tag
//! 8       8     payload length in bytes (little-endian)
//! 16      4     CRC-32 (IEEE) of the payload
//! 20      n     payload
//! ```
//!
//! The envelope deliberately mirrors the `gfp-store` snapshot record:
//! fixed header, explicit length, CRC over the payload. A reader can
//! always decide "frame or garbage" from the first 20 bytes, and a
//! torn TCP stream is detected as a typed error rather than a hang or
//! a misparse.
//!
//! # Decoder contract
//!
//! **Malformed bytes never panic.** Every decode path returns a
//! [`WireError`] carrying the *byte offset* at which decoding failed,
//! so a fuzzer (or an operator reading a log line) can point at the
//! exact spot in a captured frame. This is the same contract the
//! netlist parsers pin with their torture suite; the wire decoder has
//! its own (`tests/protocol_torture.rs`).
//!
//! Payload lengths are capped at [`MAX_PAYLOAD`] before any
//! allocation, so a hostile length field cannot OOM the daemon.

use std::fmt;
use std::io::{self, Read, Write};

use gfp_store::crc32;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"GFPW";

/// Protocol version spoken by this build.
pub const VERSION: u16 = 1;

/// Fixed frame header size preceding the payload.
pub const HEADER_LEN: usize = 20;

/// Hard cap on payload size (16 MiB): larger length fields are
/// rejected before allocating. Netlists of every suite size fit with
/// orders of magnitude to spare.
pub const MAX_PAYLOAD: u64 = 16 * 1024 * 1024;

/// Typed decode failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Fewer bytes than the fixed header.
    TooShort {
        /// Bytes present.
        have: usize,
    },
    /// The magic bytes are wrong.
    BadMagic {
        /// Offset of the first mismatching byte (0..4).
        offset: usize,
    },
    /// Unsupported protocol version.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// Unknown message type tag.
    UnknownType {
        /// Tag found in the header.
        found: u16,
    },
    /// Length field exceeds [`MAX_PAYLOAD`].
    Oversize {
        /// Length claimed by the header.
        len: u64,
    },
    /// Header length disagrees with the bytes present (torn frame).
    Truncated {
        /// Payload bytes claimed by the header.
        expected: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// Payload checksum mismatch (corruption in flight).
    CrcMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload as received.
        actual: u32,
    },
    /// The payload body failed to decode.
    Payload {
        /// Byte offset *within the payload* where decoding failed.
        offset: usize,
        /// What was expected there.
        reason: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooShort { have } => {
                write!(f, "frame too short: {have} bytes < {HEADER_LEN}-byte header")
            }
            WireError::BadMagic { offset } => {
                write!(f, "bad magic at byte {offset} (not a GFPW frame)")
            }
            WireError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found} (expected {VERSION})")
            }
            WireError::UnknownType { found } => write!(f, "unknown message type {found:#06x}"),
            WireError::Oversize { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::Truncated { expected, actual } => {
                write!(f, "torn frame: header claims {expected} payload bytes, found {actual}")
            }
            WireError::CrcMismatch { expected, actual } => {
                write!(f, "payload CRC mismatch: header {expected:#010x}, got {actual:#010x}")
            }
            WireError::Payload { offset, reason } => {
                write!(f, "bad payload at byte {offset}: expected {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Message type tags. Requests are < 128, responses ≥ 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
enum Tag {
    Ping = 1,
    Submit = 2,
    Status = 3,
    Fetch = 4,
    Cancel = 5,
    Stats = 6,
    Shutdown = 7,
    Pong = 128,
    Submitted = 129,
    Rejected = 130,
    StatusRep = 131,
    Result = 132,
    Error = 133,
    StatsRep = 134,
    ShuttingDown = 135,
}

impl Tag {
    fn from_u16(v: u16) -> Option<Tag> {
        Some(match v {
            1 => Tag::Ping,
            2 => Tag::Submit,
            3 => Tag::Status,
            4 => Tag::Fetch,
            5 => Tag::Cancel,
            6 => Tag::Stats,
            7 => Tag::Shutdown,
            128 => Tag::Pong,
            129 => Tag::Submitted,
            130 => Tag::Rejected,
            131 => Tag::StatusRep,
            132 => Tag::Result,
            133 => Tag::Error,
            134 => Tag::StatsRep,
            135 => Tag::ShuttingDown,
            _ => return None,
        })
    }
}

/// Where a submitted job's netlist comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// A named instance of the built-in benchmark suite
    /// (`gfp_netlist::suite`), e.g. `"n10"`.
    Suite(String),
    /// Inline YAL netlist text, parsed with default [`YalOptions`]
    /// (power nets skipped).
    ///
    /// [`YalOptions`]: gfp_netlist::yal::YalOptions
    Yal(String),
}

impl JobSource {
    /// Stable label for telemetry and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSource::Suite(_) => "suite",
            JobSource::Yal(_) => "yal",
        }
    }

    /// The source content (suite name or YAL text).
    pub fn content(&self) -> &str {
        match self {
            JobSource::Suite(s) | JobSource::Yal(s) => s,
        }
    }
}

/// A solve submission. Budget fields of 0 mean "daemon default".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Netlist source.
    pub source: JobSource,
    /// Per-job wall deadline in milliseconds (0 = none): the solve is
    /// budgeted to this and degrades honestly when it cannot certify
    /// in time.
    pub deadline_ms: u64,
    /// `FloorplannerSettings::max_iter` override (0 = default).
    pub max_iter: u32,
    /// `FloorplannerSettings::max_alpha_rounds` override (0 = default).
    pub max_rounds: u32,
}

/// Job lifecycle phase as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued = 0,
    /// A worker is solving (or retrying) it.
    Running = 1,
    /// Finished; a result is available via Fetch.
    Done = 2,
    /// Cancelled before completion; no result.
    Cancelled = 3,
}

impl JobPhase {
    /// Stable machine-readable identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Parses the wire byte.
    pub fn from_u8(v: u8) -> Option<JobPhase> {
        Some(match v {
            0 => JobPhase::Queued,
            1 => JobPhase::Running,
            2 => JobPhase::Done,
            3 => JobPhase::Cancelled,
            _ => return None,
        })
    }
}

/// Status poll answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Solve attempts started so far (retries increment this).
    pub attempts: u32,
    /// Final quality verdict (`SolveQuality::as_str`), once done.
    pub quality: Option<String>,
    /// Whether the result came from the content-hash cache.
    pub cache_hit: bool,
}

/// A finished solve, bit-exact: positions travel as raw f64 bits so a
/// resumed-after-crash result can be compared bitwise against an
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Job id.
    pub job: u64,
    /// Quality verdict (`SolveQuality::as_str`).
    pub quality: String,
    /// True when the verdict is anything below certified/recovered —
    /// the honest "this placement is usable but uncertified" flag of
    /// degraded-mode serving.
    pub degraded: bool,
    /// Solve attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Served from the content-hash cache.
    pub cache_hit: bool,
    /// Objective value, raw bits.
    pub objective_bits: u64,
    /// Total inner iterations.
    pub iterations: u64,
    /// Outer α rounds completed.
    pub rounds: u64,
    /// Module positions, raw `(x, y)` f64 bits in module order.
    pub positions_bits: Vec<(u64, u64)>,
}

/// Daemon-wide load/health numbers (for admission tuning and bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    /// Jobs waiting in the queue.
    pub queued: u32,
    /// Jobs currently being solved.
    pub running: u32,
    /// Jobs finished since startup (includes cache hits).
    pub completed: u64,
    /// Submissions rejected by admission control since startup.
    pub rejected: u64,
    /// Results served from the content-hash cache since startup.
    pub cache_hits: u64,
    /// Worker threads in the pool.
    pub workers: u32,
    /// Queue capacity.
    pub queue_cap: u32,
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a netlist for solving.
    Submit(SubmitRequest),
    /// Poll a job's lifecycle phase.
    Status {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Fetch a finished job's result.
    Fetch {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Cancel a queued (or running) job.
    Cancel {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Daemon load/health numbers.
    Stats,
    /// Graceful shutdown (drain and exit).
    Shutdown,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The job was admitted (or served instantly from cache).
    Submitted {
        /// Assigned job id.
        job: u64,
        /// True when a cached result was attached immediately; the
        /// job is already `Done`.
        cache_hit: bool,
    },
    /// Admission control rejected the submission: the queue is full.
    /// Never a silent drop — the client is told when to come back.
    Rejected {
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
        /// Queue occupancy at rejection time.
        queue_len: u32,
    },
    /// Status poll answer.
    Status(JobStatus),
    /// Finished job payload.
    Result(JobResult),
    /// Typed failure (unknown job, bad netlist, wire error echo...).
    Error {
        /// Stable machine-readable code (`unknown_job`,
        /// `bad_netlist`, `not_done`, `cancelled`, `bad_frame`,
        /// `shutting_down`).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Daemon load/health numbers.
    Stats(DaemonStats),
    /// Acknowledges a graceful shutdown request.
    ShuttingDown,
}

// ---------------------------------------------------------------------------
// Payload cursor: every read is bounds-checked and errors carry the
// offset where decoding failed.
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn err(&self, reason: &'static str) -> WireError {
        WireError::Payload { offset: self.pos, reason }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(self.err(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let start = self.pos;
        let len = self.u32(what)? as usize;
        // Cap string lengths to the remaining payload: a hostile
        // length cannot trigger a huge allocation.
        if self.buf.len() - self.pos < len {
            self.pos = start;
            return Err(self.err(what));
        }
        let bytes = self.take(len, what)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => {
                self.pos = start;
                Err(self.err("valid UTF-8 string"))
            }
        }
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Payload {
                offset: self.pos,
                reason: "end of payload (trailing bytes)",
            });
        }
        Ok(())
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Frame envelope
// ---------------------------------------------------------------------------

fn encode_frame(tag: Tag, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(tag as u16).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a complete frame and returns `(type_tag, payload)`.
/// Never panics on arbitrary bytes; see [`WireError`] for what each
/// failure means.
fn decode_frame(bytes: &[u8]) -> Result<(Tag, &[u8]), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::TooShort { have: bytes.len() });
    }
    for (offset, (&got, &want)) in bytes.iter().zip(MAGIC.iter()).enumerate() {
        if got != want {
            return Err(WireError::BadMagic { offset });
        }
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let tag_raw = u16::from_le_bytes([bytes[6], bytes[7]]);
    let tag = Tag::from_u16(tag_raw).ok_or(WireError::UnknownType { found: tag_raw })?;
    let len = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize { len });
    }
    let payload = &bytes[HEADER_LEN..];
    if len != payload.len() as u64 {
        return Err(WireError::Truncated { expected: len, actual: payload.len() as u64 });
    }
    let expected = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    let actual = crc32(payload);
    if expected != actual {
        return Err(WireError::CrcMismatch { expected, actual });
    }
    Ok((tag, payload))
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the request as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let tag = match self {
            Request::Ping => Tag::Ping,
            Request::Submit(s) => {
                let kind: u8 = match &s.source {
                    JobSource::Suite(_) => 0,
                    JobSource::Yal(_) => 1,
                };
                p.push(kind);
                put_str(&mut p, s.source.content());
                p.extend_from_slice(&s.deadline_ms.to_le_bytes());
                p.extend_from_slice(&s.max_iter.to_le_bytes());
                p.extend_from_slice(&s.max_rounds.to_le_bytes());
                Tag::Submit
            }
            Request::Status { job } => {
                p.extend_from_slice(&job.to_le_bytes());
                Tag::Status
            }
            Request::Fetch { job } => {
                p.extend_from_slice(&job.to_le_bytes());
                Tag::Fetch
            }
            Request::Cancel { job } => {
                p.extend_from_slice(&job.to_le_bytes());
                Tag::Cancel
            }
            Request::Stats => Tag::Stats,
            Request::Shutdown => Tag::Shutdown,
        };
        encode_frame(tag, &p)
    }

    /// Decodes a complete request frame.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let (tag, payload) = decode_frame(bytes)?;
        let mut c = Cursor::new(payload);
        let req = match tag {
            Tag::Ping => Request::Ping,
            Tag::Submit => {
                let kind = c.u8("source kind byte")?;
                let content = c.str("source content string")?;
                let source = match kind {
                    0 => JobSource::Suite(content),
                    1 => JobSource::Yal(content),
                    _ => {
                        return Err(WireError::Payload {
                            offset: 0,
                            reason: "source kind 0 (suite) or 1 (yal)",
                        })
                    }
                };
                Request::Submit(SubmitRequest {
                    source,
                    deadline_ms: c.u64("deadline_ms")?,
                    max_iter: c.u32("max_iter")?,
                    max_rounds: c.u32("max_rounds")?,
                })
            }
            Tag::Status => Request::Status { job: c.u64("job id")? },
            Tag::Fetch => Request::Fetch { job: c.u64("job id")? },
            Tag::Cancel => Request::Cancel { job: c.u64("job id")? },
            Tag::Stats => Request::Stats,
            Tag::Shutdown => Request::Shutdown,
            _ => return Err(WireError::UnknownType { found: tag as u16 }),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let tag = match self {
            Response::Pong => Tag::Pong,
            Response::Submitted { job, cache_hit } => {
                p.extend_from_slice(&job.to_le_bytes());
                p.push(u8::from(*cache_hit));
                Tag::Submitted
            }
            Response::Rejected { retry_after_ms, queue_len } => {
                p.extend_from_slice(&retry_after_ms.to_le_bytes());
                p.extend_from_slice(&queue_len.to_le_bytes());
                Tag::Rejected
            }
            Response::Status(s) => {
                p.extend_from_slice(&s.job.to_le_bytes());
                p.push(s.phase as u8);
                p.extend_from_slice(&s.attempts.to_le_bytes());
                put_str(&mut p, s.quality.as_deref().unwrap_or(""));
                p.push(u8::from(s.cache_hit));
                Tag::StatusRep
            }
            Response::Result(r) => {
                encode_result_payload(r, &mut p);
                Tag::Result
            }
            Response::Error { code, detail } => {
                put_str(&mut p, code);
                put_str(&mut p, detail);
                Tag::Error
            }
            Response::Stats(s) => {
                p.extend_from_slice(&s.queued.to_le_bytes());
                p.extend_from_slice(&s.running.to_le_bytes());
                p.extend_from_slice(&s.completed.to_le_bytes());
                p.extend_from_slice(&s.rejected.to_le_bytes());
                p.extend_from_slice(&s.cache_hits.to_le_bytes());
                p.extend_from_slice(&s.workers.to_le_bytes());
                p.extend_from_slice(&s.queue_cap.to_le_bytes());
                Tag::StatsRep
            }
            Response::ShuttingDown => Tag::ShuttingDown,
        };
        encode_frame(tag, &p)
    }

    /// Decodes a complete response frame.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        let (tag, payload) = decode_frame(bytes)?;
        let mut c = Cursor::new(payload);
        let resp = match tag {
            Tag::Pong => Response::Pong,
            Tag::Submitted => Response::Submitted {
                job: c.u64("job id")?,
                cache_hit: c.u8("cache_hit flag")? != 0,
            },
            Tag::Rejected => Response::Rejected {
                retry_after_ms: c.u64("retry_after_ms")?,
                queue_len: c.u32("queue_len")?,
            },
            Tag::StatusRep => {
                let job = c.u64("job id")?;
                let phase_raw = c.u8("job phase byte")?;
                let phase = JobPhase::from_u8(phase_raw).ok_or(WireError::Payload {
                    offset: 8,
                    reason: "job phase 0..=3",
                })?;
                let attempts = c.u32("attempts")?;
                let quality = c.str("quality string")?;
                let cache_hit = c.u8("cache_hit flag")? != 0;
                Response::Status(JobStatus {
                    job,
                    phase,
                    attempts,
                    quality: if quality.is_empty() { None } else { Some(quality) },
                    cache_hit,
                })
            }
            Tag::Result => Response::Result(decode_result_payload(&mut c)?),
            Tag::Error => Response::Error {
                code: c.str("error code string")?,
                detail: c.str("error detail string")?,
            },
            Tag::StatsRep => Response::Stats(DaemonStats {
                queued: c.u32("queued")?,
                running: c.u32("running")?,
                completed: c.u64("completed")?,
                rejected: c.u64("rejected")?,
                cache_hits: c.u64("cache_hits")?,
                workers: c.u32("workers")?,
                queue_cap: c.u32("queue_cap")?,
            }),
            Tag::ShuttingDown => Response::ShuttingDown,
            _ => return Err(WireError::UnknownType { found: tag as u16 }),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Serializes a [`JobResult`] body (shared by the wire frame and the
/// on-disk result record, which must stay bit-compatible).
pub(crate) fn encode_result_payload(r: &JobResult, p: &mut Vec<u8>) {
    p.extend_from_slice(&r.job.to_le_bytes());
    put_str(p, &r.quality);
    p.push(u8::from(r.degraded));
    p.extend_from_slice(&r.attempts.to_le_bytes());
    p.push(u8::from(r.cache_hit));
    p.extend_from_slice(&r.objective_bits.to_le_bytes());
    p.extend_from_slice(&r.iterations.to_le_bytes());
    p.extend_from_slice(&r.rounds.to_le_bytes());
    p.extend_from_slice(&(r.positions_bits.len() as u32).to_le_bytes());
    for &(x, y) in &r.positions_bits {
        p.extend_from_slice(&x.to_le_bytes());
        p.extend_from_slice(&y.to_le_bytes());
    }
}

fn decode_result_payload(c: &mut Cursor<'_>) -> Result<JobResult, WireError> {
    let job = c.u64("job id")?;
    let quality = c.str("quality string")?;
    let degraded = c.u8("degraded flag")? != 0;
    let attempts = c.u32("attempts")?;
    let cache_hit = c.u8("cache_hit flag")? != 0;
    let objective_bits = c.u64("objective bits")?;
    let iterations = c.u64("iterations")?;
    let rounds = c.u64("rounds")?;
    let n = c.u32("position count")? as usize;
    // 16 bytes per position must fit in the remaining payload before
    // any allocation.
    if c.buf.len() - c.pos < n * 16 {
        return Err(c.err("position bit pairs"));
    }
    let mut positions_bits = Vec::with_capacity(n);
    for _ in 0..n {
        positions_bits.push((c.u64("position x bits")?, c.u64("position y bits")?));
    }
    Ok(JobResult {
        job,
        quality,
        degraded,
        attempts,
        cache_hit,
        objective_bits,
        iterations,
        rounds,
        positions_bits,
    })
}

/// Standalone decode of an on-disk result record body (same layout as
/// the wire payload).
pub(crate) fn decode_result_bytes(bytes: &[u8]) -> Result<JobResult, WireError> {
    let mut c = Cursor::new(bytes);
    let r = decode_result_payload(&mut c)?;
    c.finish()?;
    Ok(r)
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// What [`read_frame_bytes`] can fail with: transport vs. protocol.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed or closed mid-frame.
    Io(io::Error),
    /// The bytes read do not form a valid frame.
    Wire(WireError),
    /// The stream closed cleanly at a frame boundary (no bytes read).
    Eof,
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "transport: {e}"),
            FrameReadError::Wire(e) => write!(f, "protocol: {e}"),
            FrameReadError::Eof => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Reads exactly one frame off `r` and returns its raw bytes (header
/// + payload), ready for `Request::decode` / `Response::decode`.
///
/// The header is read first, the length validated against
/// [`MAX_PAYLOAD`] *before* the payload allocation, then the payload
/// read to completion. A clean EOF before any byte is
/// [`FrameReadError::Eof`]; EOF mid-frame is a [`WireError::Truncated`].
pub fn read_frame_bytes(r: &mut impl Read) -> Result<Vec<u8>, FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Err(FrameReadError::Eof)
                } else {
                    Err(FrameReadError::Wire(WireError::TooShort { have: filled }))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    // Validate the envelope prefix before trusting the length field.
    for (offset, (&got, &want)) in header.iter().zip(MAGIC.iter()).enumerate() {
        if got != want {
            return Err(FrameReadError::Wire(WireError::BadMagic { offset }));
        }
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(FrameReadError::Wire(WireError::BadVersion { found: version }));
    }
    let len = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    if len > MAX_PAYLOAD {
        return Err(FrameReadError::Wire(WireError::Oversize { len }));
    }
    let mut bytes = Vec::with_capacity(HEADER_LEN + len as usize);
    bytes.extend_from_slice(&header);
    bytes.resize(HEADER_LEN + len as usize, 0);
    let mut got = 0usize;
    while got < len as usize {
        match r.read(&mut bytes[HEADER_LEN + got..]) {
            Ok(0) => {
                return Err(FrameReadError::Wire(WireError::Truncated {
                    expected: len,
                    actual: got as u64,
                }));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(bytes)
}

/// Writes one already-encoded frame to `w` and flushes.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Submit(SubmitRequest {
            source: JobSource::Suite("n10".into()),
            deadline_ms: 1234,
            max_iter: 3,
            max_rounds: 2,
        }));
        roundtrip_req(Request::Submit(SubmitRequest {
            source: JobSource::Yal("MODULE a;\nENDMODULE;".into()),
            deadline_ms: 0,
            max_iter: 0,
            max_rounds: 0,
        }));
        roundtrip_req(Request::Status { job: 7 });
        roundtrip_req(Request::Fetch { job: u64::MAX });
        roundtrip_req(Request::Cancel { job: 0 });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn submit_frame_bytes_are_pinned() {
        // The roundtrips above would pass with any checksum, so one
        // frame is pinned byte for byte, CRC-32 field included.
        let frame = Request::Submit(SubmitRequest {
            source: JobSource::Suite("n10".into()),
            deadline_ms: 1234,
            max_iter: 3,
            max_rounds: 2,
        })
        .encode();
        #[rustfmt::skip]
        let expected: [u8; 44] = [
            b'G', b'F', b'P', b'W', 1, 0, 2, 0, // magic, version 1, tag Submit
            24, 0, 0, 0, 0, 0, 0, 0, // payload length
            0x01, 0x2c, 0x6e, 0x32, // CRC-32 of the payload
            0, 3, 0, 0, 0, b'n', b'1', b'0', // suite source "n10"
            0xd2, 0x04, 0, 0, 0, 0, 0, 0, // deadline_ms 1234
            3, 0, 0, 0, 2, 0, 0, 0, // max_iter 3, max_rounds 2
        ];
        assert_eq!(frame, expected);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Submitted { job: 42, cache_hit: true });
        roundtrip_resp(Response::Rejected { retry_after_ms: 250, queue_len: 8 });
        roundtrip_resp(Response::Status(JobStatus {
            job: 1,
            phase: JobPhase::Running,
            attempts: 2,
            quality: None,
            cache_hit: false,
        }));
        roundtrip_resp(Response::Status(JobStatus {
            job: 1,
            phase: JobPhase::Done,
            attempts: 1,
            quality: Some("certified".into()),
            cache_hit: true,
        }));
        roundtrip_resp(Response::Result(JobResult {
            job: 9,
            quality: "degraded".into(),
            degraded: true,
            attempts: 3,
            cache_hit: false,
            objective_bits: 0x3FF0_0000_0000_0000,
            iterations: 17,
            rounds: 2,
            positions_bits: vec![(1, 2), (u64::MAX, 0)],
        }));
        roundtrip_resp(Response::Error { code: "unknown_job".into(), detail: "job 9".into() });
        roundtrip_resp(Response::Stats(DaemonStats {
            queued: 1,
            running: 2,
            completed: 3,
            rejected: 4,
            cache_hits: 5,
            workers: 6,
            queue_cap: 7,
        }));
        roundtrip_resp(Response::ShuttingDown);
    }

    #[test]
    fn typed_errors_carry_offsets() {
        let good = Request::Status { job: 3 }.encode();

        assert_eq!(
            Request::decode(&good[..HEADER_LEN - 1]),
            Err(WireError::TooShort { have: HEADER_LEN - 1 })
        );

        let mut bad = good.clone();
        bad[2] ^= 0xFF;
        assert_eq!(Request::decode(&bad), Err(WireError::BadMagic { offset: 2 }));

        let mut bad = good.clone();
        bad[4] = 9;
        assert_eq!(Request::decode(&bad), Err(WireError::BadVersion { found: 9 }));

        let mut bad = good.clone();
        bad[6] = 0x77;
        assert!(matches!(Request::decode(&bad), Err(WireError::UnknownType { found: 0x77 })));

        let mut bad = good.clone();
        bad[8..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(Request::decode(&bad), Err(WireError::Oversize { .. })));

        assert!(matches!(
            Request::decode(&good[..good.len() - 2]),
            Err(WireError::Truncated { expected: 8, actual: 6 })
        ));

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(Request::decode(&bad), Err(WireError::CrcMismatch { .. })));

        // Payload too short for the declared field: typed, with offset.
        let torn_payload = encode_frame(Tag::Status, &3u32.to_le_bytes());
        match Request::decode(&torn_payload) {
            Err(WireError::Payload { offset: 0, reason }) => assert_eq!(reason, "job id"),
            other => panic!("expected payload error, got {other:?}"),
        }

        // Trailing garbage after a valid body is rejected.
        let mut p = 3u64.to_le_bytes().to_vec();
        p.push(0xEE);
        let trailing = encode_frame(Tag::Status, &p);
        assert_eq!(
            Request::decode(&trailing),
            Err(WireError::Payload { offset: 8, reason: "end of payload (trailing bytes)" })
        );
    }

    #[test]
    fn stream_roundtrip_and_eof() {
        let a = Request::Ping.encode();
        let b = Request::Status { job: 5 }.encode();
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut r = &stream[..];
        assert_eq!(read_frame_bytes(&mut r).unwrap(), a);
        assert_eq!(read_frame_bytes(&mut r).unwrap(), b);
        assert!(matches!(read_frame_bytes(&mut r), Err(FrameReadError::Eof)));

        // EOF mid-frame is a typed truncation, not a hang or a panic.
        let mut torn = &b[..b.len() - 3];
        assert!(matches!(
            read_frame_bytes(&mut torn),
            Err(FrameReadError::Wire(WireError::Truncated { .. }))
        ));
        let mut torn_header = &a[..HEADER_LEN - 4];
        assert!(matches!(
            read_frame_bytes(&mut torn_header),
            Err(FrameReadError::Wire(WireError::TooShort { have: 16 }))
        ));
    }
}
