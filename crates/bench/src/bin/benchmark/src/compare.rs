//! `benchmark compare A.json B.json`: one row per (workload, end-to-end
//! metric) of two reports, judged against the metric's bound in
//! `BENCHMARK.json`. B is the candidate, A the base.
//!
//! A row reads `REGRESSED` when B is worse than A by more than the bound,
//! `unresolved` when either side's per-rep spread (interquartile range
//! over the median) is wider than the bound, unless every rep of B beats
//! every rep of A, and `ok` otherwise. The exit code is 1 when any row
//! regressed or is missing.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::quartiles;

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json` from the working directory (the repository root),
/// else next to this package.
fn spec() -> Result<Json, String> {
    let here = Path::new("BENCHMARK.json");
    if here.exists() {
        return load(here);
    }
    load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json"))
}

fn spread(reps: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(reps);
    if med != 0.0 {
        (q3 - q1) / med.abs()
    } else {
        0.0
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let (a, b, spec) = (load(Path::new(a))?, load(Path::new(b))?, spec()?);
    let mut bad = false;
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "spread", "bound"
    );
    let empty = Json::obj();
    for (wname, wa) in a.get("workloads").unwrap_or(&empty).fields() {
        let wb = b.get("workloads").and_then(|w| w.get(wname));
        for m in spec.get("end_to_end").map(Json::arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::str).unwrap_or("?");
            let bound = m.f("bound").unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::str) == Some("lower");
            let value = |w: &Json| {
                w.get("metrics")
                    .and_then(|ms| ms.get(name))
                    .and_then(|v| v.f("value").ok())
            };
            let reps = |w: &Json| -> Vec<f64> {
                w.get("reps")
                    .and_then(|r| r.get(name))
                    .map(|r| r.arr().iter().filter_map(Json::num).collect())
                    .unwrap_or_default()
            };
            let (Some(va), Some(vb)) = (value(wa), wb.and_then(value)) else {
                println!("{wname:<14} {name:<14} {:>12} {:>12}  missing", "-", "-");
                bad = true;
                continue;
            };
            let worse = if lower { vb - va } else { va - vb } / va;
            let (ra, rb) = (reps(wa), wb.map(reps).unwrap_or_default());
            let sp = spread(&ra).max(spread(&rb));
            let b_always_better = !ra.is_empty()
                && !rb.is_empty()
                && if lower {
                    rb.iter().copied().fold(f64::MIN, f64::max)
                        < ra.iter().copied().fold(f64::MAX, f64::min)
                } else {
                    rb.iter().copied().fold(f64::MAX, f64::min)
                        > ra.iter().copied().fold(f64::MIN, f64::max)
                };
            let verdict = if sp > bound && !b_always_better {
                "unresolved"
            } else if worse > bound {
                bad = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{wname:<14} {name:<14} {va:>12.4} {vb:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                worse * 100.0,
                sp * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
