//! Library half of the `gfp-trace` analyzer binary.
//!
//! Consumes the observability artifacts the pipeline emits — JSONL
//! traces (`GFP_TRACE`) and versioned solve reports (`GFP_REPORT`,
//! schema [`SOLVE_REPORT_SCHEMA`]) — and renders them for humans and
//! CI:
//!
//! * [`render_tree`] — hotspot span tree with per-path call counts
//!   and total/self wall time, from a report *or* a raw JSONL trace;
//! * [`render_rounds`] — the per-α-round convergence table of a
//!   report (one row per `round.summary`);
//! * [`diff_reports`] — threshold-gated comparison of two reports
//!   (wall time, iteration counts, cache/fastpath hit rates), the CI
//!   regression gate: any finding makes `gfp-trace diff` exit
//!   nonzero.
//!
//! The logic lives here (not in the binary) so the gates are unit
//! tested; `src/bin/gfp_trace.rs` is a thin argv wrapper around
//! [`run`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use gfp_telemetry::json::{self, Json};
use gfp_telemetry::report::span_rows;
use gfp_telemetry::{SolveReport, SpanRow, Value, SOLVE_REPORT_SCHEMA};

/// Exit code for a clean run.
pub const EXIT_OK: i32 = 0;
/// Exit code when `diff` finds at least one regression.
pub const EXIT_REGRESSION: i32 = 1;
/// Exit code for usage or input errors.
pub const EXIT_ERROR: i32 = 2;

/// Allowed relative wall-time growth per span path (0.5 = +50%).
const WALL_REL: f64 = 0.5;
/// Absolute wall-time slack per span path, seconds.
const WALL_ABS: f64 = 0.05;
/// Allowed relative growth of iteration-style counters.
const ITER_REL: f64 = 0.25;
/// Absolute iteration slack.
const ITER_ABS: u64 = 128;
/// Allowed drop in cache/fastpath hit rates (0.10 = 10 points).
const HIT_RATE_DROP: f64 = 0.10;

/// One threshold violation found by [`diff_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// What regressed (span path, counter name, or hit-rate label).
    pub metric: String,
    /// Baseline value.
    pub before: f64,
    /// Candidate value.
    pub after: f64,
    /// Human-readable explanation with the tripped threshold.
    pub detail: String,
}

/// Loads span rows from `path`: a solve report (JSON object with the
/// report schema) or a raw JSONL trace (one record per line, from a
/// `GFP_TRACE` run). Dispatches on the first non-whitespace byte of
/// the first line: a full report is a multi-line object, a trace line
/// is a complete object per line.
pub fn load_spans(path: &Path) -> Result<Vec<SpanRow>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if looks_like_report(&text) {
        Ok(SolveReport::from_json(&text)?.spans)
    } else {
        spans_from_jsonl(&text)
    }
}

/// True when `text` parses as one JSON document carrying the report
/// schema tag (as opposed to a JSONL trace, where only individual
/// lines parse).
fn looks_like_report(text: &str) -> bool {
    json::parse(text)
        .ok()
        .and_then(|doc| doc.get("schema").and_then(Json::as_str).map(String::from))
        .is_some_and(|s| s == SOLVE_REPORT_SCHEMA)
}

/// Aggregates the `span_end` records of a JSONL trace into path-keyed
/// rows (count, total seconds, self seconds). Span paths are rebuilt
/// by walking each record's parent chain through the `id` space.
pub fn spans_from_jsonl(text: &str) -> Result<Vec<SpanRow>, String> {
    // id → (name, parent id); filled from every record that carries
    // an id, so truncated traces (missing span_end) still resolve
    // ancestor names.
    let mut names: HashMap<u64, (String, u64)> = HashMap::new();
    let mut ends: Vec<(u64, f64)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("");
        let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
        if id == 0 {
            continue;
        }
        let parent = doc.get("parent").and_then(Json::as_u64).unwrap_or(0);
        if let Some(name) = doc.get("name").and_then(Json::as_str) {
            names.insert(id, (name.to_string(), parent));
        }
        if kind == "span_end" {
            let secs = doc.get("secs").and_then(Json::as_f64).unwrap_or(0.0);
            ends.push((id, secs));
        }
    }
    let mut agg: HashMap<String, (u64, f64)> = HashMap::new();
    for (id, secs) in ends {
        let mut parts: Vec<&str> = Vec::new();
        let mut cur = id;
        // Parent chains are trees by construction; the depth cap only
        // guards against corrupted input.
        for _ in 0..64 {
            let Some((name, parent)) = names.get(&cur) else { break };
            parts.push(name);
            if *parent == 0 {
                break;
            }
            cur = *parent;
        }
        parts.reverse();
        let path = parts.join("/");
        let e = agg.entry(path).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += secs;
    }
    let mut stats: Vec<(String, u64, f64)> =
        agg.into_iter().map(|(p, (c, t))| (p, c, t)).collect();
    stats.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(span_rows(stats))
}

/// Renders the span tree: one line per path (indented by depth) with
/// call count and total/self wall time, then the top self-time
/// hotspots.
pub fn render_tree(spans: &[SpanRow]) -> String {
    let mut out = String::new();
    if spans.is_empty() {
        out.push_str("(no spans recorded)\n");
        return out;
    }
    out.push_str("span tree (count, total s, self s):\n");
    for row in spans {
        let depth = row.path.matches('/').count();
        let leaf = row.path.rsplit('/').next().unwrap_or(&row.path);
        let _ = writeln!(
            out,
            "  {:indent$}{leaf:<width$} x{:<6} total {:>9.3}s  self {:>9.3}s",
            "",
            row.count,
            row.total_secs,
            row.self_secs,
            indent = depth * 2,
            width = 28usize.saturating_sub(depth * 2),
        );
    }
    let mut hot: Vec<&SpanRow> = spans.iter().collect();
    hot.sort_by(|a, b| {
        b.self_secs
            .partial_cmp(&a.self_secs)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    out.push_str("hotspots (self time):\n");
    for row in hot.iter().take(5) {
        let _ = writeln!(out, "  {:>9.3}s  {}", row.self_secs, row.path);
    }
    out
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::U64(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::F64(x) => {
            if x.is_finite() {
                format!("{x:.4e}")
            } else {
                "-".to_string()
            }
        }
        Value::Bool(x) => x.to_string(),
        Value::Str(s) => s.to_string(),
        Value::Text(s) => s.clone(),
    }
}

/// Renders the per-α-round convergence table of a report.
pub fn render_rounds(report: &SolveReport) -> String {
    const COLS: [&str; 13] = [
        "round",
        "alpha",
        "iterations",
        "sp1_iterations",
        "backend",
        "stage",
        "constraints",
        "objective",
        "rel_gap",
        "primal_residual",
        "fastpath_hits",
        "outcome",
        "seconds",
    ];
    let mut out = String::new();
    let quality = report
        .meta_field("quality")
        .map(fmt_value)
        .unwrap_or_else(|| "?".to_string());
    let _ = writeln!(out, "quality: {quality}  rounds: {}", report.rounds.len());
    let mut widths: Vec<usize> = COLS.iter().map(|c| c.len()).collect();
    let cells: Vec<Vec<String>> = report
        .rounds
        .iter()
        .map(|row| {
            COLS.iter()
                .map(|col| {
                    row.iter()
                        .find(|(k, _)| k == col)
                        .map(|(_, v)| fmt_value(v))
                        .unwrap_or_else(|| "-".to_string())
                })
                .collect()
        })
        .collect();
    for row in &cells {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for (i, col) in COLS.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", col, w = widths[i]);
    }
    out.push('\n');
    for (ri, row) in cells.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
        }
        // Recovery notes ride at the end of the line, when present.
        let recovered = report.rounds[ri]
            .iter()
            .find(|(k, _)| k == "recovered_from")
            .map(|(_, v)| fmt_value(v))
            .unwrap_or_default();
        if !recovered.is_empty() {
            let _ = write!(out, "recovered_from={recovered}");
        }
        out.push('\n');
    }
    out
}

fn counter_of(report: &SolveReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

/// Compares `after` against the `before` baseline. Returns one
/// [`Regression`] per tripped gate:
///
/// * **wall time** — any span path whose `total_secs` grew by more
///   than 50% and 0.05 s;
/// * **iterations** — any `*iterations*` counter that grew by more
///   than 25% and 128;
/// * **hit rates** — ADMM cache, partial-eigendecomposition fastpath
///   and Gershgorin screen rates that dropped more than 10 points.
///
/// A growth must clear both the relative and the absolute bar, so tiny
/// noisy metrics cannot fail CI.
pub fn diff_reports(before: &SolveReport, after: &SolveReport) -> Vec<Regression> {
    let mut out = Vec::new();

    let base: HashMap<&str, f64> = before
        .spans
        .iter()
        .map(|r| (r.path.as_str(), r.total_secs))
        .collect();
    for row in &after.spans {
        let Some(&was) = base.get(row.path.as_str()) else { continue };
        let limit = was * (1.0 + WALL_REL) + WALL_ABS;
        if row.total_secs > limit {
            out.push(Regression {
                metric: format!("span:{}", row.path),
                before: was,
                after: row.total_secs,
                detail: format!(
                    "wall time {:.3}s -> {:.3}s exceeds {:.3}s (+{:.0}% +{:.3}s)",
                    was,
                    row.total_secs,
                    limit,
                    WALL_REL * 100.0,
                    WALL_ABS
                ),
            });
        }
    }

    for (name, after_v) in &after.counters {
        if !name.contains("iterations") {
            continue;
        }
        let was = counter_of(before, name);
        let limit = (was as f64 * (1.0 + ITER_REL)) + ITER_ABS as f64;
        if (*after_v as f64) > limit {
            out.push(Regression {
                metric: format!("counter:{name}"),
                before: was as f64,
                after: *after_v as f64,
                detail: format!(
                    "iteration count {was} -> {after_v} exceeds {limit:.0} (+{:.0}% +{})",
                    ITER_REL * 100.0,
                    ITER_ABS
                ),
            });
        }
    }

    // (label, hits, misses): rate = hits / (hits + misses).
    let rates: [(&str, &str, &str); 3] = [
        ("admm.cache", "admm.cache_hit", "admm.cache_build"),
        (
            "kernel.eigh_partial",
            "kernel.eigh_partial.hit",
            "kernel.eigh_partial.fallback",
        ),
        (
            "kernel.project_psd.gershgorin",
            "kernel.project_psd.gershgorin_hits",
            "kernel.project_psd.calls",
        ),
    ];
    for (label, hit_name, miss_name) in rates {
        let rate = |r: &SolveReport| -> Option<f64> {
            let hits = counter_of(r, hit_name) as f64;
            let other = counter_of(r, miss_name) as f64;
            // The Gershgorin pair is hits-out-of-calls, the others
            // hits-plus-misses; calls already include the hits.
            let total = if miss_name.ends_with(".calls") {
                other
            } else {
                hits + other
            };
            (total > 0.0).then(|| hits / total)
        };
        let (Some(was), Some(now)) = (rate(before), rate(after)) else { continue };
        if now < was - HIT_RATE_DROP {
            out.push(Regression {
                metric: format!("hit_rate:{label}"),
                before: was,
                after: now,
                detail: format!(
                    "hit rate {:.1}% -> {:.1}% dropped more than {:.0} points",
                    was * 100.0,
                    now * 100.0,
                    HIT_RATE_DROP * 100.0
                ),
            });
        }
    }

    out
}

fn usage() -> String {
    "usage:\n  gfp-trace tree   <report.json | trace.jsonl>\n  gfp-trace rounds <report.json>\n  gfp-trace diff   <baseline.json> <candidate.json>\n"
        .to_string()
}

/// Argv entry point shared by the binary and the tests. Returns the
/// process exit code; human output goes to `out`, errors to `err`.
pub fn run(args: &[String], out: &mut dyn std::io::Write, err: &mut dyn std::io::Write) -> i32 {
    macro_rules! fail {
        ($($t:tt)*) => {{
            let _ = writeln!(err, $($t)*);
            return EXIT_ERROR;
        }};
    }
    match args.first().map(String::as_str) {
        Some("tree") => {
            let [_, path] = args else { fail!("{}", usage()) };
            match load_spans(Path::new(path)) {
                Ok(spans) => {
                    let _ = write!(out, "{}", render_tree(&spans));
                    EXIT_OK
                }
                Err(e) => fail!("gfp-trace: {e}"),
            }
        }
        Some("rounds") => {
            let [_, path] = args else { fail!("{}", usage()) };
            match SolveReport::read_from(Path::new(path)) {
                Ok(report) => {
                    let _ = write!(out, "{}", render_rounds(&report));
                    EXIT_OK
                }
                Err(e) => fail!("gfp-trace: {e}"),
            }
        }
        Some("diff") => {
            let [_, before, after] = args else { fail!("{}", usage()) };
            let before = match SolveReport::read_from(Path::new(before)) {
                Ok(r) => r,
                Err(e) => fail!("gfp-trace: {e}"),
            };
            let after = match SolveReport::read_from(Path::new(after)) {
                Ok(r) => r,
                Err(e) => fail!("gfp-trace: {e}"),
            };
            let regressions = diff_reports(&before, &after);
            if regressions.is_empty() {
                let _ = writeln!(out, "no regressions ({} spans compared)", after.spans.len());
                EXIT_OK
            } else {
                for r in &regressions {
                    let _ = writeln!(out, "REGRESSION {}: {}", r.metric, r.detail);
                }
                let _ = writeln!(out, "{} regression(s) found", regressions.len());
                EXIT_REGRESSION
            }
        }
        _ => fail!("{}", usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SolveReport {
        SolveReport {
            meta: vec![("quality".to_string(), Value::Str("certified"))],
            rounds: vec![vec![
                ("round".to_string(), Value::U64(0)),
                ("alpha".to_string(), Value::F64(16.0)),
                ("iterations".to_string(), Value::U64(5)),
                ("backend".to_string(), Value::Str("admm")),
                ("stage".to_string(), Value::Str("flat")),
                ("constraints".to_string(), Value::U64(45)),
                ("outcome".to_string(), Value::Str("rank_certified")),
                ("seconds".to_string(), Value::F64(0.25)),
                ("recovered_from".to_string(), Value::Str("")),
            ]],
            spans: vec![
                SpanRow {
                    path: "supervisor.solve".to_string(),
                    count: 1,
                    total_secs: 1.0,
                    self_secs: 0.2,
                },
                SpanRow {
                    path: "supervisor.solve/sdp.alpha_round".to_string(),
                    count: 2,
                    total_secs: 0.8,
                    self_secs: 0.8,
                },
            ],
            counters: vec![
                ("admm.cache_build".to_string(), 1),
                ("admm.cache_hit".to_string(), 9),
                ("admm.iterations".to_string(), 1000),
            ],
            histograms: Vec::new(),
            gauges: Vec::new(),
            events: vec![("round.summary".to_string(), 1)],
        }
    }

    #[test]
    fn self_diff_is_clean() {
        let r = sample_report();
        assert!(diff_reports(&r, &r).is_empty());
    }

    #[test]
    fn inflated_wall_time_is_a_regression() {
        let before = sample_report();
        let mut after = sample_report();
        // The CI gate doctors reports exactly like this (sed on the
        // line-oriented JSON): every total_secs gains a leading 9.
        for row in after.spans.iter_mut() {
            row.total_secs += 9.0;
        }
        let regs = diff_reports(&before, &after);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs.iter().all(|r| r.metric.starts_with("span:")));
    }

    #[test]
    fn doctored_report_file_fails_diff_via_run() {
        let dir = std::env::temp_dir().join(format!("gfp_trace_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.json");
        let doctored = dir.join("doctored.json");
        std::fs::write(&clean, sample_report().to_json()).unwrap();
        std::fs::write(
            &doctored,
            sample_report()
                .to_json()
                .replace("\"total_secs\":", "\"total_secs\":9"),
        )
        .unwrap();
        let args = |a: &str, b: &str| {
            vec!["diff".to_string(), a.to_string(), b.to_string()]
        };
        let mut out = Vec::new();
        let mut err = Vec::new();
        let clean_s = clean.to_str().unwrap();
        let doctored_s = doctored.to_str().unwrap();
        assert_eq!(run(&args(clean_s, clean_s), &mut out, &mut err), EXIT_OK);
        assert_eq!(
            run(&args(clean_s, doctored_s), &mut out, &mut err),
            EXIT_REGRESSION
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("REGRESSION span:"), "{text}");
        // `diff` takes exactly two paths: a third argument is a usage
        // error.
        let mut extra = args(clean_s, doctored_s);
        extra.push(clean_s.to_string());
        assert_eq!(run(&extra, &mut Vec::new(), &mut err), EXIT_ERROR);
        assert_eq!(run(&args(clean_s, "")[..2], &mut Vec::new(), &mut err), EXIT_ERROR);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn iteration_blowup_and_hit_rate_drop_are_regressions() {
        let before = sample_report();
        let mut after = sample_report();
        after.counters = vec![
            ("admm.cache_build".to_string(), 9),
            ("admm.cache_hit".to_string(), 1),
            ("admm.iterations".to_string(), 5000),
        ];
        let regs = diff_reports(&before, &after);
        let metrics: Vec<&str> = regs.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"counter:admm.iterations"), "{metrics:?}");
        assert!(metrics.contains(&"hit_rate:admm.cache"), "{metrics:?}");
    }

    #[test]
    fn tree_renders_from_jsonl_trace() {
        let trace = "\
{\"us\":1,\"kind\":\"span_start\",\"name\":\"solve\",\"id\":1}\n\
{\"us\":2,\"kind\":\"span_start\",\"name\":\"sp1\",\"id\":2,\"parent\":1}\n\
{\"us\":3,\"kind\":\"span_end\",\"name\":\"sp1\",\"id\":2,\"parent\":1,\"secs\":0.5}\n\
{\"us\":4,\"kind\":\"span_end\",\"name\":\"solve\",\"id\":1,\"secs\":2.0}\n";
        let spans = spans_from_jsonl(trace).unwrap();
        assert_eq!(spans.len(), 2);
        let solve = spans.iter().find(|r| r.path == "solve").unwrap();
        assert!((solve.self_secs - 1.5).abs() < 1e-12);
        let rendered = render_tree(&spans);
        assert!(rendered.contains("hotspots"), "{rendered}");
    }

    #[test]
    fn rounds_table_lists_each_round() {
        let table = render_rounds(&sample_report());
        assert!(table.contains("quality: certified"), "{table}");
        assert!(table.contains("rank_certified"), "{table}");
        // Hierarchy columns: stage label and per-round constraint count.
        assert!(table.contains("stage"), "{table}");
        assert!(table.contains("flat"), "{table}");
        assert!(table.contains("constraints"), "{table}");
        assert!(table.contains("45"), "{table}");
    }
}
