//! The benchmark's own spans and the deltas of the program's telemetry
//! registry, turned into the per-layer metrics of a traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer (nothing is added inside the program); they are kept in
//! memory and written as JSONL when a traced run ends. Counter,
//! histogram and span-stat deltas come from `gfp_telemetry`, which the
//! traced run switches on with its default null sink.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use gfp_telemetry as telemetry;

use crate::stats::{self, Span};

/// In-memory span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    id_stride: u64,
    /// Finished spans, in completion order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder whose ids are `first_id, first_id + stride, …`, so
    /// logs of concurrent client threads merge without collisions.
    pub fn new(epoch: Instant, first_id: u64, stride: u64) -> Self {
        SpanLog {
            epoch,
            next_id: first_id.max(1),
            id_stride: stride.max(1),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the run's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A fresh span id, taken before the span's children are recorded
    /// so they can name it as their parent.
    pub fn new_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += self.id_stride;
        id
    }

    /// Records a finished span under an id from [`SpanLog::new_id`].
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u64,
        request: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        start_us: u64,
        end_us: u64,
    ) {
        self.spans.push(Span {
            request,
            id,
            parent,
            layer,
            name,
            start_us,
            end_us: end_us.max(start_us),
        });
    }

    /// Times `f` as a leaf span and returns its result.
    pub fn time<R>(
        &mut self,
        request: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_us();
        let out = f();
        let end = self.now_us();
        let id = self.new_id();
        self.record(id, request, parent, layer, name, start, end);
        out
    }
}

/// Mean duration in seconds of the spans called `name`, per request.
pub fn mean_span_s(spans: &[Span], name: &str, requests: usize) -> f64 {
    let us: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_us - s.start_us)
        .sum();
    per(us as f64 / 1e6, requests)
}

/// Mean self time in seconds of the root (`parent == 0`) request spans.
pub fn mean_root_self_s(spans: &[Span], requests: usize) -> f64 {
    let us: u64 = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == "request")
        .map(|s| stats::self_time_us(s, spans))
        .sum();
    per(us as f64 / 1e6, requests)
}

/// Writes spans as JSONL, one object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"request\": {}, \"span\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
            s.request,
            s.id,
            s.parent,
            s.layer,
            s.name,
            s.start_us,
            s.end_us,
            stats::self_time_us(s, spans)
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn per(total: f64, requests: usize) -> f64 {
    if requests == 0 {
        0.0
    } else {
        total / requests as f64
    }
}

/// A copy of the telemetry registry's order-independent aggregates:
/// counters, histogram `(count, sum)` pairs and span-path totals.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
    spans: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Reads the registry now.
    pub fn take() -> Snapshot {
        Snapshot {
            counters: telemetry::counters_snapshot()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            histograms: telemetry::histograms_snapshot()
                .into_iter()
                .map(|h| (h.name, (h.count, h.sum)))
                .collect(),
            spans: telemetry::span_stats_snapshot()
                .into_iter()
                .map(|(path, _, secs)| (path, secs))
                .collect(),
        }
    }

    /// `self − earlier`, entry by entry.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.counters.get(k).copied().unwrap_or(0)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, &(c, s))| {
                    let (c0, s0) = earlier.histograms.get(k).copied().unwrap_or((0, 0));
                    (k.clone(), (c - c0, s - s0))
                })
                .collect(),
            spans: self
                .spans
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.spans.get(k).copied().unwrap_or(0.0)))
                .collect(),
        }
    }

    /// Adds another delta into this one.
    pub fn accumulate(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, &(c, s)) in &other.histograms {
            let e = self.histograms.entry(k.clone()).or_default();
            e.0 += c;
            e.1 += s;
        }
        for (k, v) in &other.spans {
            *self.spans.entry(k.clone()).or_default() += v;
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn histogram(&self, name: &str) -> (f64, f64) {
        let (c, s) = self.histograms.get(name).copied().unwrap_or((0, 0));
        (c as f64, s as f64)
    }

    /// Total seconds of every span path that ends in `suffix` (whole
    /// path components only).
    fn span_secs(&self, suffix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(p, _)| *p == suffix || p.ends_with(&format!("/{suffix}")))
            .fold(0.0, |total, (_, s)| total + s)
    }
}

/// Everything a traced run measured, before it is reduced to metrics.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Completed requests (served: jobs).
    pub requests: usize,
    /// Telemetry deltas over the measured requests.
    pub telemetry: Snapshot,
    /// The benchmark's spans of the measured phase.
    pub spans: Vec<Span>,
    /// Input-generation seconds of each set-up.
    pub generate_s: Vec<f64>,
    /// Σ round seconds of hierarchical `top` / `leaf` stages.
    pub hier_top_s: f64,
    /// See `hier_top_s`.
    pub hier_leaf_s: f64,
    /// Served: jobs answered from the result cache.
    pub cache_hits: usize,
    /// Served: Σ attempts over fresh (solved) jobs.
    pub attempts: u64,
    /// Served: fresh (solved) jobs.
    pub fresh_jobs: usize,
    /// Served: `Rejected` replies the clients received.
    pub rejects: u64,
}

/// The per-layer metric names and units, in report order.
/// `telemetry.overhead_frac` and `parallel.speedup` need a second run
/// and are filled in by the orchestrating process.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("netlist.generate_s", "s"),
    ("netlist.hpwl_s", "s"),
    ("core.capture_s", "s"),
    ("core.solve_s", "s"),
    ("core.alpha_rounds", "count"),
    ("core.convex_iters", "count"),
    ("core.round_s_mean", "s"),
    ("core.assembly_s", "s"),
    ("core.sparsify_kept_frac", "ratio"),
    ("hier.top_s", "s"),
    ("hier.leaf_s", "s"),
    ("conic.admm_sdp_s", "s"),
    ("conic.admm_iters", "count"),
    ("conic.admm_cache_hit_frac", "ratio"),
    ("conic.project_psd_s", "s"),
    ("conic.project_psd_calls", "count"),
    ("conic.partial_hit_frac", "ratio"),
    ("conic.gershgorin_frac", "ratio"),
    ("linalg.eigh_s", "s"),
    ("linalg.eigh_calls", "count"),
    ("linalg.lanczos_s", "s"),
    ("linalg.cg_iters_mean", "count"),
    ("legalize.total_s", "s"),
    ("legalize.graph_s", "s"),
    ("conic.admm_legalize_s", "s"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.fetch_s", "s"),
    ("service.cache_hit_frac", "ratio"),
    ("service.attempts_mean", "count"),
    ("service.rejects", "count"),
    ("store.snapshot_writes", "count"),
    ("store.snapshot_mb", "MiB"),
    ("parallel.parallel_frac", "ratio"),
    ("parallel.speedup", "ratio"),
    ("bench.request_self_s", "s"),
    ("telemetry.overhead_frac", "ratio"),
];

/// Reduces a traced run to its per-layer metrics. Times and counts
/// are per request; fractions are ratios of the run's totals; a ratio
/// with no denominator reads 0.
pub fn layer_metrics(inp: &LayerInputs) -> BTreeMap<&'static str, f64> {
    let t = &inp.telemetry;
    let n = inp.requests;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (cg_count, cg_sum) = t.histogram("admm.cg_iterations");
    let (round_count, round_us) = t.histogram("round.wall_micros");
    let (_, assembly_us) = t.histogram("kernel.assembly");
    let kept = t.counter("sparsify.kept");
    let partial_hit = t.counter("kernel.eigh_partial.hit");
    let cache_hit = t.counter("admm.cache_hit");
    let psd_calls = t.counter("kernel.project_psd.calls");
    let cutover_par = t.counter("parallel.cutover.parallel");
    let m = [
        ("netlist.generate_s", stats::median(&inp.generate_s)),
        ("netlist.hpwl_s", mean_span_s(&inp.spans, "netlist.hpwl", n)),
        ("core.capture_s", mean_span_s(&inp.spans, "core.capture", n)),
        ("core.solve_s", mean_span_s(&inp.spans, "core.solve", n)),
        ("core.alpha_rounds", per(t.counter("supervisor.rounds"), n)),
        ("core.convex_iters", per(t.counter("convex.iterations"), n)),
        ("core.round_s_mean", ratio(round_us / 1e6, round_count)),
        ("core.assembly_s", per(assembly_us / 1e6, n)),
        (
            "core.sparsify_kept_frac",
            ratio(kept, kept + t.counter("sparsify.pruned")),
        ),
        ("hier.top_s", per(inp.hier_top_s, n)),
        ("hier.leaf_s", per(inp.hier_leaf_s, n)),
        (
            "conic.admm_sdp_s",
            per(t.span_secs("sdp.alpha_round/admm.solve"), n),
        ),
        ("conic.admm_iters", per(t.counter("admm.iterations"), n)),
        (
            "conic.admm_cache_hit_frac",
            ratio(cache_hit, cache_hit + t.counter("admm.cache_build")),
        ),
        (
            "conic.project_psd_s",
            per(t.counter("kernel.project_psd.micros") / 1e6, n),
        ),
        ("conic.project_psd_calls", per(psd_calls, n)),
        (
            "conic.partial_hit_frac",
            ratio(
                partial_hit,
                partial_hit + t.counter("kernel.eigh_partial.fallback"),
            ),
        ),
        (
            "conic.gershgorin_frac",
            ratio(t.counter("kernel.project_psd.gershgorin_hits"), psd_calls),
        ),
        (
            "linalg.eigh_s",
            per(t.counter("kernel.eigh.micros") / 1e6, n),
        ),
        ("linalg.eigh_calls", per(t.counter("kernel.eigh.calls"), n)),
        (
            "linalg.lanczos_s",
            per(t.counter("kernel.lanczos.micros") / 1e6, n),
        ),
        ("linalg.cg_iters_mean", ratio(cg_sum, cg_count)),
        ("legalize.total_s", mean_span_s(&inp.spans, "legalize", n)),
        (
            "legalize.graph_s",
            per(t.span_secs("legalize/legalize.graph"), n),
        ),
        (
            "conic.admm_legalize_s",
            per(t.span_secs("legalize/legalize.socp/admm.solve"), n),
        ),
        (
            "service.submit_s",
            mean_span_s(&inp.spans, "service.submit", n),
        ),
        (
            "service.queue_wait_s",
            mean_span_s(&inp.spans, "service.queue_wait", n),
        ),
        ("service.run_s", mean_span_s(&inp.spans, "service.run", n)),
        (
            "service.fetch_s",
            mean_span_s(&inp.spans, "service.fetch", n),
        ),
        ("service.cache_hit_frac", per(inp.cache_hits as f64, n)),
        (
            "service.attempts_mean",
            per(inp.attempts as f64, inp.fresh_jobs),
        ),
        ("service.rejects", per(inp.rejects as f64, n)),
        (
            "store.snapshot_writes",
            per(t.counter("store.snapshot_write"), n),
        ),
        (
            "store.snapshot_mb",
            per(t.counter("store.snapshot_bytes") / (1024.0 * 1024.0), n),
        ),
        (
            "parallel.parallel_frac",
            ratio(
                cutover_par,
                cutover_par + t.counter("parallel.cutover.serial"),
            ),
        ),
        ("bench.request_self_s", mean_root_self_s(&inp.spans, n)),
    ];
    m.into_iter().collect()
}
