//! Layered end-to-end benchmark of the floorplanner.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--runs K] [--smoke] [--out PATH] [--label TEXT]
//! benchmark compare A.json B.json
//! ```
//!
//! Each workload run happens in a fresh child process of this binary
//! with the workload's `GFP_THREADS`, so peak RSS, the process-global
//! telemetry registry and warm caches belong to that workload alone.
//! End-to-end metrics come from untraced runs. `--trace 1` (or
//! `--traced`) runs the workload untraced and then traced, and reports
//! the per-layer metrics of the traced run plus the tracing overhead.
//! Every metric is printed as `workload metric value unit`; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A result file with every run
//! goes to `target/benchmark/` (or `--out`), and `compare` reads two
//! such files against the bounds in `BENCHMARK.json`. See README.md.

mod compare;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;

use gfp_telemetry::json::{self, Json};

use workloads::{RunParams, RunRecord, Workload, WORKLOADS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
         [--runs K] [--smoke] [--out PATH] [--label TEXT]\n       \
         benchmark compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// Parsed command line of the orchestrating process.
struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    smoke: bool,
    out: Option<PathBuf>,
    label: String,
    /// Internal: run one workload in this process (`--child`).
    child: bool,
    max_requests: usize,
}

fn parse_cli(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        seed: 0,
        seconds: 12.0,
        traced: false,
        runs: 1,
        smoke: false,
        out: None,
        label: String::new(),
        child: false,
        max_requests: usize::MAX,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned();
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    cli.workloads = vec![workloads::find(&name)?];
                }
            }
            "--seed" => cli.seed = value()?.parse().ok()?,
            "--seconds" => cli.seconds = value()?.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--traced" => cli.traced = true,
            "--runs" => cli.runs = value()?.parse().ok().filter(|&k| k >= 1)?,
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--label" => cli.label = value()?,
            "--child" => cli.child = true,
            "--max-requests" => cli.max_requests = value()?.parse().ok()?,
            _ => return None,
        }
    }
    Some(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let Some(mut cli) = parse_cli(&args) else {
        return usage();
    };
    if cli.child {
        return child_main(&cli);
    }
    // The smoke tier exercises the traced path too.
    cli.traced |= cli.smoke;
    match orchestrate(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}

// ---------------------------------------------------------------------------
// Child: one workload run in this process
// ---------------------------------------------------------------------------

fn child_main(cli: &Cli) -> ExitCode {
    let [workload] = cli.workloads[..] else {
        return usage();
    };
    let params = RunParams {
        seed: cli.seed,
        seconds: cli.seconds,
        max_requests: cli.max_requests,
        traced: cli.traced,
        smoke: cli.smoke,
    };
    let mut rec = workloads::run(workload, &params);
    rec.peak_rss_mb = workloads::peak_rss_mb();
    if cli.traced {
        let path = PathBuf::from(format!("target/benchmark/{}.spans.jsonl", workload.name));
        if let Err(e) = trace::write_spans(&path, &rec.spans) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(3);
        }
    }
    println!("{}", record_json(&rec));
    ExitCode::SUCCESS
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn nums(vs: &[f64]) -> String {
    format!(
        "[{}]",
        vs.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", ")
    )
}

fn string(s: &str) -> String {
    let mut out = String::new();
    gfp_telemetry::escape_json(s, &mut out);
    out
}

fn record_json(r: &RunRecord) -> String {
    let layers: Vec<String> = r
        .layers
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), num(*v)))
        .collect();
    let failures: Vec<String> = r.failures.iter().map(|f| string(f)).collect();
    format!(
        "{{\"attempted\": {}, \"failures\": [{}], \"setup_s\": {}, \"latencies\": {}, \
         \"solve_s\": {}, \"hpwls\": {}, \"phase_s\": {}, \"speed\": {}, \"wall_p50_s\": {}, \
         \"peak_rss_mb\": {}, \"layers\": {{{}}}}}",
        r.attempted,
        failures.join(", "),
        nums(&r.setup_s),
        nums(&r.latencies),
        nums(&r.solve_s),
        nums(&r.hpwls),
        num(r.phase_s),
        num(r.speed),
        num(r.wall_p50_s),
        num(r.peak_rss_mb),
        layers.join(", ")
    )
}

fn floats(j: Option<&Json>) -> Vec<f64> {
    j.and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|v| v.as_f64().unwrap_or(f64::NAN))
        .collect()
}

fn parse_record(line: &str) -> Result<RunRecord, String> {
    let j = json::parse(line).map_err(|e| format!("child output: {e}"))?;
    let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let layers = j
        .get("layers")
        .and_then(Json::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| {
            let name = trace::LAYER_METRICS.iter().find(|m| m.0 == k)?.0;
            Some((name, v.as_f64().unwrap_or(f64::NAN)))
        })
        .collect();
    Ok(RunRecord {
        attempted: j.get("attempted").and_then(Json::as_u64).unwrap_or(0) as usize,
        failures: j
            .get("failures")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect(),
        setup_s: floats(j.get("setup_s")),
        latencies: floats(j.get("latencies")),
        solve_s: floats(j.get("solve_s")),
        hpwls: floats(j.get("hpwls")),
        phase_s: f("phase_s"),
        speed: f("speed"),
        wall_p50_s: f("wall_p50_s"),
        peak_rss_mb: f("peak_rss_mb"),
        layers,
        spans: Vec::new(),
    })
}

/// The vCPU pinned workloads run on: the last one this process may
/// use, if `taskset` can pin to it. `None` (run unpinned) otherwise.
fn pin_cpu() -> Option<&'static str> {
    static CPU: OnceLock<Option<String>> = OnceLock::new();
    CPU.get_or_init(|| {
        let cpu = speed::allowed_cpus().last()?.to_string();
        let works = Command::new("taskset")
            .args(["-c", &cpu, "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        works.then_some(cpu)
    })
    .as_deref()
}

/// Runs one workload in a fresh child process with `GFP_THREADS =
/// threads` and waits for it. A pinned workload's child runs under
/// `taskset` on [`pin_cpu`].
fn spawn_child(
    w: &Workload,
    cli: &Cli,
    traced: bool,
    threads: usize,
    max_requests: usize,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = match pin_cpu().filter(|_| w.pinned) {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", cpu]).arg(exe);
            c
        }
        None => Command::new(exe),
    };
    cmd.args(["--child", "--workload", w.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--max-requests", &max_requests.to_string()])
        .env("GFP_THREADS", threads.to_string())
        .env_remove("GFP_TRACE")
        .env_remove("GFP_REPORT")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {} child: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("{} child exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    parse_record(line)
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// The end-to-end metrics, in report order: `(name, unit)`.
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("requests_per_min", "1/min"),
    ("hpwl_geomean", "um"),
    ("peak_rss_mb", "MiB"),
];

fn requests_per_min(r: &RunRecord) -> f64 {
    r.latencies.len() as f64 * 60.0 / r.phase_s
}

/// End-to-end metrics of one run, plus its sample count and the
/// percentile `latency_tail_s` reports: the highest one with at least
/// ten samples beyond it (p90 for the served workload's fixed job
/// count; the median when fewer than 40 requests ran).
fn e2e_metrics(r: &RunRecord) -> BTreeMap<&'static str, f64> {
    let n = r.latencies.len();
    let tail_pct = stats::tail_percentile(n).unwrap_or(50.0);
    BTreeMap::from([
        ("setup_s", stats::median(&r.setup_s)),
        ("latency_p50_s", stats::median(&r.latencies)),
        ("requests_per_min", requests_per_min(r)),
        ("hpwl_geomean", stats::geomean(&r.hpwls)),
        ("peak_rss_mb", r.peak_rss_mb),
        ("speed_factor", r.speed),
        ("wall_latency_p50_s", r.wall_p50_s),
        ("samples", n as f64),
        ("latency_tail_pct", tail_pct),
        ("latency_tail_s", stats::percentile(&r.latencies, tail_pct)),
    ])
}

/// Requests the width-1 comparison solve of `parallel.speedup` uses.
const SPEEDUP_REQUESTS: usize = 3;

/// A traced run: untraced, then traced, and for multi-threaded
/// workloads a short width-1 run for `parallel.speedup`.
fn traced_metrics(
    w: &Workload,
    cli: &Cli,
    max_requests: usize,
    children: &mut Vec<RunRecord>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let base = spawn_child(w, cli, false, w.threads, max_requests)?;
    let traced = spawn_child(w, cli, true, w.threads, max_requests)?;
    let mut layers = e2e_metrics(&base);
    layers.extend(traced.layers.iter().map(|(k, v)| (*k, *v)));
    // Tracing overhead as extra time per request. In-process requests
    // are paired by index (both runs see the same inputs in the same
    // order); served jobs overlap, so their throughputs are compared.
    let overhead = if w.name == "served_n10" {
        requests_per_min(&base) / requests_per_min(&traced) - 1.0
    } else {
        let k = base.latencies.len().min(traced.latencies.len());
        let sum = |v: &[f64]| v[..k].iter().sum::<f64>();
        sum(&traced.latencies) / sum(&base.latencies) - 1.0
    };
    layers.insert("telemetry.overhead_frac", overhead);
    let speedup = if w.threads > 1 {
        let k = SPEEDUP_REQUESTS.min(base.solve_s.len());
        let one = spawn_child(w, cli, false, 1, k)?;
        let k = k.min(one.solve_s.len());
        let m = stats::median(&one.solve_s[..k]) / stats::median(&base.solve_s[..k]);
        children.push(one);
        m
    } else {
        1.0
    };
    layers.insert("parallel.speedup", speedup);
    children.push(base);
    children.push(traced);
    Ok(layers)
}

/// One workload's runs, as stored in the result file.
struct WorkloadResult {
    workload: &'static Workload,
    /// Metric values of each run.
    runs: Vec<BTreeMap<&'static str, f64>>,
    attempted: usize,
    failures: Vec<String>,
}

fn orchestrate(cli: &Cli) -> Result<bool, String> {
    let mut results = Vec::new();
    for &w in &cli.workloads {
        let max_requests = match (cli.smoke, w.name) {
            (true, "served_n10") => 16,
            (true, _) => 2,
            (false, _) => cli.max_requests,
        };
        let mut res = WorkloadResult {
            workload: w,
            runs: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        };
        for _ in 0..cli.runs {
            let mut children = Vec::new();
            let metrics = if cli.traced {
                traced_metrics(w, cli, max_requests, &mut children)?
            } else {
                let c = spawn_child(w, cli, false, w.threads, max_requests)?;
                let m = e2e_metrics(&c);
                children.push(c);
                m
            };
            for c in children {
                res.attempted += c.attempted;
                res.failures.extend(c.failures);
            }
            res.runs.push(metrics);
        }
        print_workload(&res, cli.traced);
        results.push(res);
    }
    let correct = results.iter().all(|r| r.failures.is_empty());
    let path = cli.out.clone().unwrap_or_else(|| default_out(cli));
    write_result_file(&path, cli, &results)?;
    println!("{}", summary_json(cli, &results, correct));
    Ok(correct)
}

/// The metrics a run reports: end-to-end, plus per-layer when traced.
fn metric_list(traced: bool) -> Vec<(&'static str, &'static str)> {
    let mut list = E2E_METRICS.to_vec();
    if traced {
        list.extend_from_slice(trace::LAYER_METRICS);
    }
    list
}

/// Median over a workload's runs of one metric.
fn run_median(res: &WorkloadResult, name: &str) -> f64 {
    let vs: Vec<f64> = res
        .runs
        .iter()
        .filter_map(|m| m.get(name).copied())
        .collect();
    stats::median(&vs)
}

fn print_workload(res: &WorkloadResult, traced: bool) {
    let w = res.workload.name;
    for (name, unit) in metric_list(traced) {
        println!("{w} {name} {} {unit}", run_median(res, name));
    }
    let samples = run_median(res, "samples");
    let tail_rule = if samples >= 20.0 {
        "highest percentile with 10 samples beyond"
    } else {
        "under 20 requests, no percentile has 10 beyond"
    };
    let cpu = match pin_cpu().filter(|_| res.workload.pinned) {
        Some(cpu) => format!("pinned to CPU {cpu}"),
        None => "unpinned".into(),
    };
    println!(
        "{w} info: {} run(s) at GFP_THREADS={}, {cpu}; {samples} requests per run; latency p{} \
         {} s ({tail_rule}); host speed factor {}, wall latency p50 {} s; {} failed check(s)",
        res.runs.len(),
        res.workload.threads,
        run_median(res, "latency_tail_pct"),
        run_median(res, "latency_tail_s"),
        run_median(res, "speed_factor"),
        run_median(res, "wall_latency_p50_s"),
        res.failures.len()
    );
    for f in res.failures.iter().take(10) {
        eprintln!("{w} FAILED: {f}");
    }
}

fn summary_json(cli: &Cli, results: &[WorkloadResult], correct: bool) -> String {
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    // With tracing on, the summary carries the per-layer metrics only:
    // the end-to-end numbers of record come from untraced runs.
    let names: Vec<(&str, &str)> = if cli.traced {
        trace::LAYER_METRICS.to_vec()
    } else {
        E2E_METRICS.to_vec()
    };
    for res in results {
        for &(name, unit) in &names {
            let key = if single {
                name.to_string()
            } else {
                format!("{}/{name}", res.workload.name)
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&key),
                num(run_median(res, name)),
                string(unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().map(|r| r.attempted).sum::<usize>(),
        results.iter().map(|r| r.failures.len()).sum::<usize>(),
        metrics.join(", ")
    )
}

fn default_out(cli: &Cli) -> PathBuf {
    let which = match cli.workloads[..] {
        [w] => w.name,
        _ => "all",
    };
    PathBuf::from(format!(
        "target/benchmark/{which}-seed{}{}{}.json",
        cli.seed,
        if cli.traced { "-traced" } else { "" },
        if cli.smoke { "-smoke" } else { "" },
    ))
}

fn host_json() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_default();
    format!("{{\"cpus\": {cpus}, \"cpu_model\": {}}}", string(&model))
}

fn write_result_file(path: &PathBuf, cli: &Cli, results: &[WorkloadResult]) -> Result<(), String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"gfp-benchmark-result-v1\",\n  \"label\": {},\n  \"host\": {},\n  \
         \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"smoke\": {},\n  \
         \"workloads\": [",
        string(&cli.label),
        host_json(),
        cli.seed,
        num(cli.seconds),
        cli.traced,
        cli.smoke
    );
    for (i, res) in results.iter().enumerate() {
        let runs: Vec<String> = res
            .runs
            .iter()
            .map(|m| {
                let kv: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("{}: {}", string(k), num(*v)))
                    .collect();
                format!("      {{{}}}", kv.join(", "))
            })
            .collect();
        let _ = write!(
            out,
            "{}\n    {{\"name\": {}, \"gfp_threads\": {}, \"attempted\": {}, \"failed\": {}, \
             \"runs\": [\n{}\n    ]}}",
            if i == 0 { "" } else { "," },
            string(res.workload.name),
            res.workload.threads,
            res.attempted,
            res.failures.len(),
            runs.join(",\n")
        );
    }
    out.push_str("\n  ]\n}\n");
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
