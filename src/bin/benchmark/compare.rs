//! `benchmark compare A.json B.json`: one row per (workload,
//! end-to-end metric) with both medians, both quartile spreads and the
//! verdict of B against A under the bounds in `BENCHMARK.json`.
//!
//! B fails the comparison when a row is `worse`, when a value A has is
//! missing from B (a workload B did not run, a metric B did not report
//! or reported as `null`), or when a workload of B failed more output
//! checks than the same workload of A.

use std::process::ExitCode;

use gfp_telemetry::json::{self, Json};

use crate::stats::{self, Better, Verdict};

struct Bound {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(bench: &Json) -> Result<Vec<Bound>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Bound {
                name: s("name").ok_or("end_to_end entry without a name")?,
                unit: s("unit").unwrap_or_default(),
                better: s("better")
                    .as_deref()
                    .and_then(Better::parse)
                    .ok_or("end_to_end entry without better = lower|higher")?,
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

fn workloads(result: &Json) -> &[Json] {
    result
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or(&[])
}

fn workload<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    workloads(result)
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Values of `metric` over the runs of a workload: runs without the
/// metric are skipped, a `null` value (a non-finite number) reads NaN.
fn values(w: &Json, metric: &str) -> Vec<f64> {
    w.get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get(metric))
        .map(|v| v.as_f64().unwrap_or(f64::NAN))
        .collect()
}

fn failed(w: &Json) -> u64 {
    w.get("failed").and_then(Json::as_u64).unwrap_or(0)
}

/// One (workload, metric) row: A's and B's run values and the verdict,
/// `None` when B lacks a value A has.
struct Row<'a> {
    workload: String,
    bound: &'a Bound,
    a: Vec<f64>,
    b: Vec<f64>,
    verdict: Option<Verdict>,
}

/// B against A: the rows, plus one line per workload-level problem (a
/// workload missing from B, more failed checks in B than in A).
fn compare<'a>(bounds: &'a [Bound], a: &Json, b: &Json) -> (Vec<Row<'a>>, Vec<String>) {
    let (mut rows, mut problems) = (Vec::new(), Vec::new());
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or_default();
        let Some(wb) = workload(b, name) else {
            problems.push(format!("workload {name} is missing from B"));
            continue;
        };
        if failed(wb) > failed(wa) {
            problems.push(format!(
                "workload {name} failed {} check(s) in B against {} in A",
                failed(wb),
                failed(wa)
            ));
        }
        for m in bounds {
            let (va, vb) = (values(wa, &m.name), values(wb, &m.name));
            if va.is_empty() {
                continue;
            }
            let finite = |v: &[f64]| !v.is_empty() && v.iter().all(|x| x.is_finite());
            let verdict =
                (finite(&va) && finite(&vb)).then(|| stats::verdict(&va, &vb, m.better, m.bound));
            rows.push(Row {
                workload: name.to_string(),
                bound: m,
                a: va,
                b: vb,
                verdict,
            });
        }
    }
    (rows, problems)
}

/// True when B passes: no row worse or missing and no problem line.
fn passes(rows: &[Row], problems: &[String]) -> bool {
    problems.is_empty()
        && rows
            .iter()
            .all(|r| matches!(r.verdict, Some(v) if v != Verdict::Worse))
}

fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs exactly two result files".into());
    };
    let bounds = bounds(&read_json("BENCHMARK.json")?)?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let (rows, problems) = compare(&bounds, &a, &b);
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<15} {:<17} {:>13} {:>13} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "sprd A", "sprd B", "bound"
    );
    for r in &rows {
        let m = r.bound;
        let (ma, mb) = (stats::median(&r.a), stats::median(&r.b));
        println!(
            "{:<15} {:<17} {:>13.6} {:>13.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.1}%  {} \
             ({}, {} is better, {}/{} runs)",
            r.workload,
            m.name,
            ma,
            mb,
            100.0 * (mb - ma) / ma.abs(),
            100.0 * stats::spread(&r.a),
            100.0 * stats::spread(&r.b),
            100.0 * m.bound,
            r.verdict.map_or("missing", Verdict::as_str),
            m.unit,
            m.better.as_str(),
            r.a.len(),
            r.b.len()
        );
    }
    for p in &problems {
        println!("FAIL: {p}");
    }
    Ok(passes(&rows, &problems))
}

/// Entry point of the `compare` subcommand: exit 0 when B passes, 1
/// when it does not, 2 on bad input.
pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Vec<Bound> {
        let text = r#"{"end_to_end": [
            {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "hpwl_geomean", "unit": "um", "better": "lower", "bound": 0.005}]}"#;
        bounds(&json::parse(text).expect("valid JSON")).expect("valid bounds")
    }

    /// A result file with one workload `w` whose three runs read
    /// `latency` and `hpwl`, and `failed` failed checks.
    fn result(failed: u64, latency: &str, hpwl: &str) -> Json {
        let run = format!(r#"{{"latency_p50_s": {latency}, "hpwl_geomean": {hpwl}}}"#);
        json::parse(&format!(
            r#"{{"workloads": [{{"name": "w", "failed": {failed}, "runs": [{run}, {run}, {run}]}}]}}"#
        ))
        .expect("valid JSON")
    }

    fn verdicts(a: &Json, b: &Json) -> (Vec<&'static str>, bool) {
        let bounds = bench();
        let (rows, problems) = compare(&bounds, a, b);
        let names = rows
            .iter()
            .map(|r| r.verdict.map_or("missing", Verdict::as_str))
            .collect();
        (names, passes(&rows, &problems))
    }

    #[test]
    fn same_runs_pass_and_a_slower_b_fails() {
        let a = result(0, "1.0", "100.0");
        assert_eq!(verdicts(&a, &a), (vec!["unchanged", "unchanged"], true));
        let slower = result(0, "1.2", "100.0");
        assert_eq!(verdicts(&a, &slower), (vec!["worse", "unchanged"], false));
    }

    #[test]
    fn more_failed_checks_in_b_fail() {
        let a = result(0, "1.0", "100.0");
        let (names, ok) = verdicts(&a, &result(2, "1.0", "100.0"));
        assert_eq!(names, ["unchanged", "unchanged"]);
        assert!(!ok);
        // Fewer failures than A is no regression.
        assert!(verdicts(&result(2, "1.0", "100.0"), &a).1);
    }

    #[test]
    fn a_null_or_absent_value_in_b_is_missing() {
        let a = result(0, "1.0", "100.0");
        assert_eq!(
            verdicts(&a, &result(0, "1.0", "null")),
            (vec!["unchanged", "missing"], false)
        );
        let no_hpwl = json::parse(
            r#"{"workloads": [{"name": "w", "failed": 0, "runs": [{"latency_p50_s": 1.0}]}]}"#,
        )
        .expect("valid JSON");
        assert_eq!(
            verdicts(&a, &no_hpwl),
            (vec!["unchanged", "missing"], false)
        );
    }

    #[test]
    fn a_workload_missing_from_b_fails() {
        let a = result(0, "1.0", "100.0");
        let empty = json::parse(r#"{"workloads": []}"#).expect("valid JSON");
        let bounds = bench();
        let (rows, problems) = compare(&bounds, &a, &empty);
        assert!(rows.is_empty());
        assert_eq!(problems, ["workload w is missing from B"]);
        assert!(!passes(&rows, &problems));
    }
}
