//! The four workloads: inputs made from the seed, the solver settings
//! each one runs, the closed request loops that measure them, and the
//! output checks.
//!
//! The program only ever receives generated netlists: in-process
//! workloads hand `Netlist` values to the public solve functions, the
//! served workload sends YAL text over the daemon's wire protocol.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gfp_conic::AdmmSettings;
use gfp_core::hierarchical::{HierarchicalFloorplanner, HierarchicalSettings};
use gfp_core::{
    Backend, FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveQuality,
    SolveSupervisor, SparsifyMode,
};
use gfp_legalize::{legalize, LegalizeSettings};
use gfp_netlist::suite::{self, SuiteSpec};
use gfp_netlist::{hpwl::hpwl, yal, Net, Netlist, Outline, PinRef};
use gfp_service::{
    Client, Daemon, DaemonConfig, JobPhase, JobResult, JobSource, Request, Response, SubmitRequest,
};
use gfp_telemetry as telemetry;

use crate::speed;
use crate::stats::{self, Span};
use crate::trace::{self, LayerInputs, Snapshot, SpanLog};

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// `GFP_THREADS` of the workload's process.
    pub threads: usize,
    /// The work runs on one thread, so the process is pinned to one
    /// vCPU (when `taskset` is there) and the speed sampler shares it.
    pub pinned: bool,
    /// Reference seconds one request takes (served: per job of both
    /// clients together). Sizes a run; see [`planned_requests`].
    pub request_s: f64,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gsrc_legalized",
        threads: 1,
        pinned: true,
        request_s: 1.3,
    },
    Workload {
        name: "flat_n200",
        threads: 2,
        pinned: false,
        request_s: 17.0,
    },
    Workload {
        name: "hier_n500",
        threads: 1,
        pinned: true,
        request_s: 2.5,
    },
    Workload {
        name: "served_n10",
        threads: 1,
        pinned: false,
        request_s: 0.11,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How one child run is driven.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Workload seed (0 sends the first request's instance unrelabelled).
    pub seed: u64,
    /// Length of the measured phase on the reference host.
    pub seconds: f64,
    /// Cap on measured requests (served: jobs).
    pub max_requests: usize,
    /// Switch the telemetry registry on for the measured phase.
    pub traced: bool,
    /// Toy sizes for a quick end-to-end check.
    pub smoke: bool,
}

/// What one run measured. Every time is in reference seconds (see
/// [`crate::speed`]) unless its name says wall.
#[derive(Debug, Default)]
pub struct RunRecord {
    /// Requests started (served: jobs sent).
    pub attempted: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Seconds of each set-up (inputs, daemon, warm-up).
    pub setup_s: Vec<f64>,
    /// Seconds per completed request, in request order.
    pub latencies: Vec<f64>,
    /// Seconds inside the solve call, per in-process request.
    pub solve_s: Vec<f64>,
    /// HPWL per distinct result.
    pub hpwls: Vec<f64>,
    /// Length of the measured phase: from its start to the last
    /// request's completion.
    pub phase_s: f64,
    /// Median host speed factor of the run (reference seconds per
    /// wall second).
    pub speed: f64,
    /// Median wall seconds per request, for comparison with
    /// `latencies`.
    pub wall_p50_s: f64,
    /// Peak resident set of the run's process, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The benchmark's spans of the measured phase (traced runs only).
    pub spans: Vec<Span>,
}

/// Set-ups per run; the run reports their median.
const SETUPS: usize = 3;
/// Closed-loop clients of the served workload.
const CLIENTS: usize = 2;
/// Every fourth job of a served client resubmits one of its earlier
/// requests verbatim.
const REPEAT_EVERY: usize = 4;
/// `(max_iter, max_rounds)` budgets of a client's fresh jobs, cycled
/// in this order: a synthetic mix, not measured traffic. Weighted
/// 1:2:1 so that, with the quarter of repeats answered from the cache,
/// the median latency falls inside the `(3, 2)` class rather than on
/// the step between two classes.
const BUDGETS: [(u32, u32); 4] = [(2, 1), (3, 2), (4, 3), (3, 2)];
/// Status poll interval of the served clients.
const POLL: Duration = Duration::from_millis(5);
/// A served job that takes longer than this is a failure.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Relabelling seed of the warm-up request, which runs the canonical
/// n10 in an order no measured input uses (so a served warm-up job
/// never answers a measured one from the cache).
const WARMUP_SEED: u64 = 0x5741_524d_5550;

/// SplitMix64 finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small deterministic generator for the served clients' choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }

    /// A uniformly random order of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

fn canonical(name: &str) -> SuiteSpec {
    suite::specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("workload instances are suite names")
}

/// Requests (served: jobs) a run makes: as many as fill `seconds` at
/// the workload's `request_s`, at least one. The count does not depend
/// on how fast the host runs today, so every run of a seed measures
/// the same requests; a slow host makes the run longer instead.
fn planned_requests(w: &Workload, p: &RunParams) -> usize {
    ((p.seconds / w.request_s) as usize).clamp(1, p.max_requests.max(1))
}

/// Wall intervals a run measured, in seconds since the run's epoch.
#[derive(Debug)]
struct WallTimes {
    epoch: Instant,
    /// Each set-up.
    setups: Vec<(f64, f64)>,
    /// Each completed request, in completion order per client.
    requests: Vec<(f64, f64)>,
    /// Each successful in-process solve call.
    solves: Vec<(f64, f64)>,
    /// Start of the measured phase.
    phase_start: f64,
}

impl WallTimes {
    fn new(epoch: Instant) -> WallTimes {
        WallTimes {
            epoch,
            setups: Vec::new(),
            requests: Vec::new(),
            solves: Vec::new(),
            phase_start: 0.0,
        }
    }

    /// Seconds since the epoch.
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Runs one workload in this process, with the speed sampler running
/// alongside, and reports its times in reference seconds.
pub fn run(workload: &Workload, p: &RunParams) -> RunRecord {
    let n = planned_requests(workload, p);
    let size = |full| if p.smoke { "n50" } else { full };
    let epoch = Instant::now();
    let mut wall = WallTimes::new(epoch);
    let (mut rec, speed) = speed::sample_during(epoch, || match workload.name {
        "gsrc_legalized" => run_in_process(Pipeline::Legalized, "n10", n, p, &mut wall),
        "flat_n200" => run_in_process(Pipeline::Flat, size("n200"), n, p, &mut wall),
        "hier_n500" => run_in_process(Pipeline::Hier, size("n500"), n, p, &mut wall),
        "served_n10" => run_served(n, p, &mut wall),
        other => unreachable!("unknown workload {other}"),
    });
    let reference = |&(a, b): &(f64, f64)| speed.reference_s(a, b);
    rec.setup_s = wall.setups.iter().map(reference).collect();
    rec.latencies = wall.requests.iter().map(reference).collect();
    rec.solve_s = wall.solves.iter().map(reference).collect();
    let phase_end = wall
        .requests
        .iter()
        .map(|r| r.1)
        .fold(wall.phase_start, f64::max);
    rec.phase_s = speed.reference_s(wall.phase_start, phase_end);
    rec.speed = speed.median_factor();
    rec.wall_p50_s = stats::median(&wall.requests.iter().map(|(a, b)| b - a).collect::<Vec<_>>());
    rec
}

/// The same netlist with its pads and nets listed in an order drawn
/// from `seed` (seed 0 keeps the order). This is how the workload seed
/// varies the inputs: the program sees different bytes and
/// floating-point summation orders, while the instance stays fixed,
/// because solve time varies so much between instances of one size
/// that a run of one to about a hundred requests could not average
/// over enough of them. Modules keep their order: the sparsifier draws its
/// stabilizer pairs by module index, so a module permutation changes
/// the problem itself (one flat n200 request took 1575 ADMM iterations
/// under one module order and 2025 under another).
fn relabel(nl: &Netlist, seed: u64) -> Netlist {
    if seed == 0 {
        return nl.clone();
    }
    let mut rng = Rng(splitmix64(seed));
    let pad_order = rng.permutation(nl.pads().len());
    let net_order = rng.permutation(nl.nets().len());
    let mut pad_to = vec![0; pad_order.len()];
    for (new, &old) in pad_order.iter().enumerate() {
        pad_to[old] = new;
    }
    let nets = net_order
        .iter()
        .map(|&k| {
            let net = &nl.nets()[k];
            let pins = net
                .pins
                .iter()
                .map(|pin| match *pin {
                    PinRef::Module(i) => PinRef::Module(i),
                    PinRef::Pad(i) => PinRef::Pad(pad_to[i]),
                })
                .collect();
            Net {
                pins,
                ..net.clone()
            }
        })
        .collect();
    Netlist::new(
        nl.modules().to_vec(),
        pad_order.iter().map(|&i| nl.pads()[i].clone()).collect(),
        nets,
    )
    .expect("reordering a valid netlist keeps it valid")
}

// ---------------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Pipeline {
    Legalized,
    Flat,
    Hier,
}

/// Pads on a 1:1 outline, as in the paper's Table II set-up.
struct Instance {
    netlist: Netlist,
    outline: Outline,
}

impl Instance {
    fn generate(spec: &SuiteSpec) -> Instance {
        let (netlist, outline) = suite::generate(spec).with_pads_on_outline(1.0);
        Instance { netlist, outline }
    }

    fn relabelled(&self, seed: u64) -> Instance {
        Instance {
            netlist: relabel(&self.netlist, seed),
            outline: self.outline,
        }
    }
}

/// Relabelling seed of request (served: fresh job) `index`, from 0,
/// of a run with `seed`; the first request of seed 0 keeps the
/// generated order.
fn request_seed(seed: u64, index: u64) -> u64 {
    if (seed, index) == (0, 0) {
        0
    } else {
        splitmix64(seed ^ splitmix64(index + 1))
    }
}

/// Flat and hierarchical budget, the end-to-end budget of the kernel
/// benchmark: the paper's large-α start for n ≥ 100, 2 α rounds of
/// [`CONVEX_ITERS`] convex iterations, and every sub-problem-1 solve
/// run by ADMM to eps 1e-4 or 1200 iterations.
fn budgeted() -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.alpha0 = 1024.0;
    s.max_alpha_rounds = 2;
    s.max_iter = CONVEX_ITERS;
    s.backend = Backend::Admm(AdmmSettings {
        eps: 1e-4,
        max_iter: 1200,
        ..AdmmSettings::default()
    });
    s
}

/// Convex iterations per α round of `flat_n200` and `hier_n500`: one,
/// not the kernel benchmark's two, with which one flat n200 request
/// took 29 s at width 2, longer than a run.
const CONVEX_ITERS: usize = 1;
/// Cluster cap of `hier_n500`: the top cone (102-dim) still takes the
/// partial-spectrum path, the leaves the dense one. With 250 clusters
/// (a 252-dim top cone) one request took 26–40 s, a whole run.
const HIER_CLUSTERS: usize = 100;

fn hier_settings(n: usize) -> HierarchicalSettings {
    let mut top = budgeted();
    top.sparsify.mode = SparsifyMode::On;
    HierarchicalSettings {
        max_clusters: HIER_CLUSTERS.min(n / 2).max(2),
        top,
        leaf: budgeted(),
        refine: None,
        ..HierarchicalSettings::default()
    }
}

struct Answer {
    positions: Vec<(f64, f64)>,
    /// Legalized HPWL (the legalized pipeline only).
    legal_hpwl: Option<f64>,
    /// Wall interval of the solve call, seconds since the run's epoch.
    solve: (f64, f64),
    hier_top_s: f64,
    hier_leaf_s: f64,
}

/// One request: capture, solve and (legalized pipeline) legalize, each
/// timed as a child span of `parent`.
fn solve_one(
    pipeline: Pipeline,
    inst: &Instance,
    log: &mut SpanLog,
    request: u64,
    parent: u64,
) -> Result<Answer, String> {
    let options = ProblemOptions {
        outline: Some(inst.outline),
        aspect_limit: 3.0,
        ..ProblemOptions::default()
    };
    let problem = log
        .time(request, parent, "core", "core.capture", || {
            GlobalFloorplanProblem::from_netlist(&inst.netlist, &options)
        })
        .map_err(|e| format!("capture: {e}"))?;
    let n = problem.n;
    let solved = log.time(request, parent, "core", "core.solve", || match pipeline {
        Pipeline::Legalized => {
            let r = SolveSupervisor::new(FloorplannerSettings::fast()).solve(&problem);
            Ok((r.floorplan.positions, r.quality, r.floorplan.rounds))
        }
        Pipeline::Flat => {
            let mut settings = budgeted();
            settings.sparsify.mode = SparsifyMode::On;
            let r = SolveSupervisor::new(settings).solve(&problem);
            Ok((r.floorplan.positions, r.quality, r.floorplan.rounds))
        }
        Pipeline::Hier => HierarchicalFloorplanner::new(hier_settings(n))
            .solve(&problem)
            .map(|fp| (fp.positions, fp.quality, fp.rounds))
            .map_err(|e| format!("hierarchical solve: {e}")),
    });
    let solve = log.spans.last().map_or((0.0, 0.0), |s| {
        (s.start_us as f64 / 1e6, s.end_us as f64 / 1e6)
    });
    let (positions, quality, rounds) = solved?;
    check_positions(&positions, n)?;
    if matches!(quality, SolveQuality::Degraded | SolveQuality::Placeholder) {
        return Err(format!("verdict {}", quality.as_str()));
    }
    let stage_s = |stage: &str| -> f64 {
        rounds
            .iter()
            .filter(|r| r.stage == stage)
            .map(|r| r.seconds)
            .sum()
    };
    let legal_hpwl = match pipeline {
        Pipeline::Legalized => {
            let legal = log
                .time(request, parent, "legalize", "legalize", || {
                    legalize(
                        &inst.netlist,
                        &problem,
                        &inst.outline,
                        &positions,
                        &LegalizeSettings::default(),
                    )
                })
                .map_err(|e| format!("legalize: {e}"))?;
            Some(legal.hpwl)
        }
        _ => None,
    };
    Ok(Answer {
        hier_top_s: stage_s("top"),
        hier_leaf_s: stage_s("leaf"),
        positions,
        legal_hpwl,
        solve,
    })
}

fn check_positions(positions: &[(f64, f64)], n: usize) -> Result<(), String> {
    if positions.len() != n {
        return Err(format!("{} positions for {n} modules", positions.len()));
    }
    if let Some(i) = positions
        .iter()
        .position(|(x, y)| !x.is_finite() || !y.is_finite())
    {
        return Err(format!("module {i} has a non-finite position"));
    }
    Ok(())
}

fn check_hpwl(h: f64) -> Result<f64, String> {
    if h.is_finite() && h > 0.0 {
        Ok(h)
    } else {
        Err(format!("HPWL {h} is not a positive number"))
    }
}

fn run_in_process(
    pipeline: Pipeline,
    instance: &str,
    requests: usize,
    p: &RunParams,
    wall: &mut WallTimes,
) -> RunRecord {
    let mut rec = RunRecord::default();
    let mut generate_s = Vec::new();
    let mut base = None;
    for _ in 0..SETUPS {
        let t0 = wall.now();
        base = Some(Instance::generate(&canonical(instance)));
        let warm = Instance::generate(&canonical("n10")).relabelled(WARMUP_SEED);
        generate_s.push(wall.now() - t0);
        // The warm-up is a paper-protocol request whatever the
        // workload: at the flat and hierarchical budget an n10 solve
        // takes milliseconds, too short to time steadily.
        let mut scratch = SpanLog::new(Instant::now(), 1, 1);
        if let Err(e) = solve_one(Pipeline::Legalized, &warm, &mut scratch, 0, 0) {
            rec.failures.push(format!("warm-up: {e}"));
        }
        wall.setups.push((t0, wall.now()));
    }

    if p.traced {
        telemetry::set_enabled(true);
    }
    let mut telemetry_total = Snapshot::default();
    let (mut top_s, mut leaf_s) = (0.0, 0.0);
    let mut log = SpanLog::new(wall.epoch, 1, 1);
    let base = base.expect("at least one set-up");
    wall.phase_start = wall.now();
    while rec.attempted < requests {
        let inst = &base.relabelled(request_seed(p.seed, rec.attempted as u64));
        let request = rec.attempted as u64 + 1;
        rec.attempted += 1;
        let before = p.traced.then(Snapshot::take);
        let root = log.new_id();
        let start = log.now_us();
        let answer = solve_one(pipeline, inst, &mut log, request, root);
        let end = log.now_us();
        log.record(root, request, 0, "bench", "request", start, end);
        if let Some(before) = before {
            telemetry_total.accumulate(&Snapshot::take().since(&before));
        }
        wall.requests.push((start as f64 / 1e6, end as f64 / 1e6));
        let answer = answer.and_then(|a| {
            let h = match a.legal_hpwl {
                Some(h) => h,
                None => log.time(request, 0, "netlist", "netlist.hpwl", || {
                    hpwl(&inst.netlist, &a.positions)
                }),
            };
            check_hpwl(h).map(|h| (a, h))
        });
        match answer {
            Ok((a, h)) => {
                wall.solves.push(a.solve);
                if request == 1 {
                    rec.hpwls.push(h);
                }
                top_s += a.hier_top_s;
                leaf_s += a.hier_leaf_s;
            }
            Err(e) => rec.failures.push(format!("request {request}: {e}")),
        }
    }
    telemetry::set_enabled(false);

    if p.traced {
        rec.layers = trace::layer_metrics(&LayerInputs {
            requests: wall.requests.len(),
            telemetry: telemetry_total,
            spans: log.spans.clone(),
            generate_s,
            hier_top_s: top_s,
            hier_leaf_s: leaf_s,
            ..LayerInputs::default()
        });
        rec.spans = log.spans;
    }
    rec
}

// ---------------------------------------------------------------------------
// Served workload
// ---------------------------------------------------------------------------

/// YAL text for a netlist: one square cell type per module, one
/// signal `N<k>` per net, and a net's pad as a parent IOLIST pin named
/// after the net's signal (suite nets carry at most one pad).
fn to_yal(nl: &Netlist) -> String {
    let mut signals: Vec<Vec<usize>> = vec![Vec::new(); nl.num_modules()];
    let mut pads = String::new();
    for (k, net) in nl.nets().iter().enumerate() {
        for m in net.module_pins() {
            signals[m].push(k);
        }
        if let Some(p) = net.pad_pins().next() {
            let pad = &nl.pads()[p];
            let _ = writeln!(pads, "N{k} PI {} {};", pad.x, pad.y);
        }
    }
    let mut out = String::new();
    for (i, m) in nl.modules().iter().enumerate() {
        let s = m.area.sqrt();
        let _ = writeln!(
            out,
            "MODULE t{i};\nTYPE GENERAL;\nDIMENSIONS 0 0 0 {s} {s} {s} {s} 0;\n\
             IOLIST;\nP1 B 0 0 METAL1;\nENDIOLIST;\nENDMODULE;"
        );
    }
    out.push_str("MODULE bound;\nTYPE PARENT;\nIOLIST;\n");
    out.push_str(&pads);
    out.push_str("ENDIOLIST;\nNETWORK;\n");
    for (i, sigs) in signals.iter().enumerate() {
        let _ = write!(out, "C{i} t{i}");
        for k in sigs {
            let _ = write!(out, " N{k}");
        }
        out.push_str(";\n");
    }
    out.push_str("ENDNETWORK;\nENDMODULE;\n");
    out
}

/// A fresh served job: the YAL text sent and the netlist the parser
/// returns for it (HPWL is measured on the latter).
struct FreshJob {
    text: String,
    netlist: Netlist,
}

impl FreshJob {
    fn generate(spec: &SuiteSpec, seed: u64) -> Result<FreshJob, String> {
        let text = to_yal(&relabel(&suite::generate(spec).netlist, seed));
        let netlist = yal::parse(&text, &yal::YalOptions::default())
            .map_err(|e| format!("generated YAL does not parse: {e}"))?;
        Ok(FreshJob { text, netlist })
    }

    fn request(&self, (max_iter, max_rounds): (u32, u32)) -> SubmitRequest {
        SubmitRequest {
            source: JobSource::Yal(self.text.clone()),
            deadline_ms: 0,
            max_iter,
            max_rounds,
        }
    }
}

fn is_clean(r: &JobResult) -> bool {
    !r.degraded
        && matches!(
            r.quality.as_str(),
            "certified" | "recovered" | "budget_exhausted"
        )
}

fn same_result(a: &JobResult, b: &JobResult) -> bool {
    a.quality == b.quality
        && a.objective_bits == b.objective_bits
        && a.iterations == b.iterations
        && a.rounds == b.rounds
        && a.positions_bits == b.positions_bits
}

fn positions_of(r: &JobResult) -> Vec<(f64, f64)> {
    r.positions_bits
        .iter()
        .map(|&(x, y)| (f64::from_bits(x), f64::from_bits(y)))
        .collect()
}

/// Submits, polls to completion and fetches one job, recording the
/// client-side spans. Returns the result and the number of `Rejected`
/// replies received (a submit refused 1000 times fails).
fn serve_one(
    client: &Client,
    req: &SubmitRequest,
    log: &mut SpanLog,
    request: u64,
) -> Result<(JobResult, u64), String> {
    let root = log.new_id();
    let start = log.now_us();
    let mut rejects = 0u64;
    let job = loop {
        match client.call(&Request::Submit(req.clone())) {
            Ok(Response::Submitted { job, .. }) => break job,
            Ok(Response::Rejected { retry_after_ms, .. }) if rejects < 1000 => {
                rejects += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 2000)));
            }
            Ok(other) => return Err(format!("submit answered {other:?}")),
            Err(e) => return Err(format!("submit: {e}")),
        }
    };
    let acked = log.now_us();
    let waited = Instant::now();
    let mut running_at = None;
    let done_at = loop {
        let status = client
            .status(job)
            .map_err(|e| format!("status of job {job}: {e}"))?;
        let now = log.now_us();
        match status.phase {
            JobPhase::Queued => {}
            JobPhase::Running => {
                running_at.get_or_insert(now);
            }
            JobPhase::Done => break now,
            JobPhase::Cancelled => return Err(format!("job {job} was cancelled")),
        }
        if waited.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {job} not done after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
    };
    let running_at = running_at.unwrap_or(done_at);
    let result = client
        .fetch(job)
        .map_err(|e| format!("fetch of job {job}: {e}"))?;
    let fetched = log.now_us();
    for (name, a, b) in [
        ("service.submit", start, acked),
        ("service.queue_wait", acked, running_at),
        ("service.run", running_at, done_at),
        ("service.fetch", done_at, fetched),
    ] {
        let id = log.new_id();
        log.record(id, request, root, "service", name, a, b);
    }
    log.record(root, request, 0, "bench", "request", start, fetched);
    Ok((result, rejects))
}

#[derive(Default)]
struct ClientTally {
    attempted: usize,
    /// Wall interval of each completed job, seconds since the epoch.
    intervals: Vec<(f64, f64)>,
    hpwls: Vec<f64>,
    failures: Vec<String>,
    cache_hits: usize,
    attempts: u64,
    fresh_jobs: usize,
    rejects: u64,
    spans: Vec<Span>,
}

/// One closed-loop client sending `jobs` jobs: every fourth resubmits
/// one of its own earlier requests verbatim, the others take the next
/// fresh netlist (client `c` takes pool indices `c, c + CLIENTS, …`)
/// with the next budget of the cycle.
fn client_loop(
    c: usize,
    client: &Client,
    pool: &[FreshJob],
    jobs: usize,
    seed: u64,
    epoch: Instant,
) -> ClientTally {
    let mut t = ClientTally::default();
    let mut rng = Rng(splitmix64(seed) ^ (c as u64 + 1));
    let mut log = SpanLog::new(epoch, c as u64 + 1, CLIENTS as u64);
    let mut history: Vec<(usize, (u32, u32))> = Vec::new();
    let mut first: HashMap<(usize, (u32, u32)), JobResult> = HashMap::new();
    let mut fresh_taken = 0;
    while t.attempted < jobs {
        t.attempted += 1;
        let repeat = t.attempted % REPEAT_EVERY == 0;
        let key = if repeat {
            history[rng.below(history.len())]
        } else {
            let idx = (c + CLIENTS * fresh_taken) % pool.len();
            let budget = BUDGETS[fresh_taken % BUDGETS.len()];
            fresh_taken += 1;
            (idx, budget)
        };
        let job = &pool[key.0];
        let request = ((t.attempted - 1) * CLIENTS + c + 1) as u64;
        let started = epoch.elapsed().as_secs_f64();
        let served = serve_one(client, &job.request(key.1), &mut log, request);
        let outcome = served.and_then(|(r, rejects)| {
            t.rejects += rejects;
            t.intervals.push((started, epoch.elapsed().as_secs_f64()));
            let positions = positions_of(&r);
            check_positions(&positions, job.netlist.num_modules())?;
            if r.cache_hit {
                t.cache_hits += 1;
                match first.get(&key) {
                    Some(f) if !same_result(f, &r) => {
                        return Err("cache hit differs from the first result".into())
                    }
                    Some(_) => {}
                    None => {
                        first.insert(key, r.clone());
                    }
                }
            } else {
                if !is_clean(&r) {
                    return Err(format!("verdict {} (degraded {})", r.quality, r.degraded));
                }
                t.attempts += u64::from(r.attempts);
                t.fresh_jobs += 1;
                first.entry(key).or_insert_with(|| r.clone());
            }
            if !repeat {
                let h = log.time(request, 0, "netlist", "netlist.hpwl", || {
                    hpwl(&job.netlist, &positions)
                });
                t.hpwls.push(check_hpwl(h)?);
            }
            Ok(())
        });
        if let Err(e) = outcome {
            t.failures.push(format!("job {request}: {e}"));
        }
        if !repeat {
            history.push(key);
        }
    }
    t.spans = log.spans;
    t
}

/// Starts a daemon under `root` and serves one warm-up job through it.
fn start_daemon(root: &PathBuf, warm: &FreshJob) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(root);
    let daemon = Daemon::start(DaemonConfig {
        root: root.clone(),
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let client = Client::new(daemon.addr());
    let mut log = SpanLog::new(Instant::now(), 1, 1);
    let (r, _) = serve_one(&client, &warm.request((3, 2)), &mut log, 0)?;
    if !is_clean(&r) {
        return Err(format!("warm-up verdict {}", r.quality));
    }
    Ok(daemon)
}

fn run_served(jobs: usize, p: &RunParams, wall: &mut WallTimes) -> RunRecord {
    let mut rec = RunRecord::default();
    let mut generate_s = Vec::new();
    let root = |k: usize| {
        PathBuf::from(format!(
            "target/benchmark/served-{}-{k}",
            std::process::id()
        ))
    };
    let mut pool = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        let t0 = wall.now();
        let generated: Result<Vec<FreshJob>, String> = (0..jobs as u64)
            .map(|i| FreshJob::generate(&canonical("n10"), request_seed(p.seed, i)))
            .collect();
        let warm = FreshJob::generate(&canonical("n10"), WARMUP_SEED);
        generate_s.push(wall.now() - t0);
        let started = generated.and_then(|g| {
            pool = g;
            start_daemon(&root(k), &warm?)
        });
        wall.setups.push((t0, wall.now()));
        match started {
            Ok(d) if k + 1 == SETUPS => daemon = Some(d),
            Ok(d) => {
                drop(d);
                let _ = std::fs::remove_dir_all(root(k));
            }
            Err(e) => {
                rec.failures.push(format!("set-up: {e}"));
                return rec;
            }
        }
    }
    let Some(mut daemon) = daemon else {
        return rec;
    };

    if p.traced {
        telemetry::set_enabled(true);
    }
    let before = Snapshot::take();
    let client = Client::new(daemon.addr());
    let epoch = wall.epoch;
    wall.phase_start = wall.now();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (client, pool) = (&client, &pool);
                let share = jobs / CLIENTS + usize::from(c < jobs % CLIENTS);
                s.spawn(move || client_loop(c, client, pool, share, p.seed, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let delta = Snapshot::take().since(&before);
    telemetry::set_enabled(false);
    daemon.stop();
    let _ = std::fs::remove_dir_all(root(SETUPS - 1));

    let mut inputs = LayerInputs {
        telemetry: delta,
        generate_s,
        ..LayerInputs::default()
    };
    for t in tallies {
        rec.attempted += t.attempted;
        wall.requests.extend(t.intervals);
        rec.hpwls.extend(t.hpwls);
        rec.failures.extend(t.failures);
        inputs.spans.extend(t.spans);
        inputs.cache_hits += t.cache_hits;
        inputs.attempts += t.attempts;
        inputs.fresh_jobs += t.fresh_jobs;
        inputs.rejects += t.rejects;
    }
    inputs.requests = wall.requests.len();
    if p.traced {
        inputs.spans.sort_by_key(|s| (s.start_us, s.id));
        rec.layers = trace::layer_metrics(&inputs);
        rec.spans = inputs.spans;
    }
    rec
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabel_keeps_the_problem() {
        let nl = suite::generate(&canonical("n10")).netlist;
        assert_eq!(relabel(&nl, 0), nl);
        let r = relabel(&nl, 7);
        assert_ne!(r, nl);
        // Place every module by its name, so both orders see one layout.
        let place = |n: &Netlist| -> Vec<(f64, f64)> {
            n.modules()
                .iter()
                .map(|m| {
                    let k = nl.module_index(&m.name).expect("same names") as f64;
                    (k * 13.0 % 7.0, k * 5.0 % 11.0)
                })
                .collect()
        };
        let (a, b) = (hpwl(&nl, &place(&nl)), hpwl(&r, &place(&r)));
        assert!((a - b).abs() <= 1e-12 * a, "{a} vs {b}");
    }

    #[test]
    fn yal_text_round_trips_the_netlist_shape() {
        let nl = suite::generate(&canonical("n10")).netlist;
        let parsed = yal::parse(&to_yal(&nl), &yal::YalOptions::default()).expect("parses");
        assert_eq!(parsed.num_modules(), nl.num_modules());
        assert_eq!(parsed.nets().len(), nl.nets().len());
        for (a, b) in nl.modules().iter().zip(parsed.modules()) {
            assert!((a.area - b.area).abs() <= 1e-9 * a.area);
        }
        let pins = |n: &Netlist| n.nets().iter().map(|e| e.pins.len()).sum::<usize>();
        assert_eq!(pins(&parsed), pins(&nl));
    }
}
