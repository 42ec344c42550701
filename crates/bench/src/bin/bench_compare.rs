//! Bench-regression gate: diffs a fresh `IVL_BENCH_JSON` run against a
//! checked-in baseline and fails on regressions beyond a threshold.
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json> [--threshold FRACTION]
//! ```
//!
//! For every benchmark present in both files the relative change of the
//! median is computed as `(fresh - baseline) / baseline`. A change above
//! `--threshold` (default 1.0, i.e. more than 2× slower) fails the gate.
//! The default is deliberately generous because CI runs the quick-mode
//! harness, whose medians on shared runners are noisy; the gate exists to
//! catch order-of-magnitude mistakes (an accidental debug-path, a lost
//! optimisation), not single-digit-percent drift. Improvements never fail.
//!
//! Exit codes: 0 = within threshold, 1 = regression, 2 = usage/parse error.

use std::process::ExitCode;

use ivl_bench::snapshot;

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    snapshot::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run(baseline_path: &str, fresh_path: &str, threshold: f64) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;
    if baseline.is_empty() {
        return Err(format!("{baseline_path} contains no benchmarks"));
    }

    let mut regressed = false;
    println!(
        "{:<44} {:>12} {:>12} {:>9}  verdict",
        "benchmark", "baseline ns", "fresh ns", "change"
    );
    for (name, base_median) in &baseline {
        let Some((_, fresh_median)) = fresh.iter().find(|(n, _)| n == name) else {
            println!(
                "{name:<44} {base_median:>12.1} {:>12} {:>9}  MISSING",
                "-", "-"
            );
            regressed = true;
            continue;
        };
        let change = (fresh_median - base_median) / base_median;
        let over = change > threshold;
        regressed |= over;
        println!(
            "{name:<44} {base_median:>12.1} {fresh_median:>12.1} {:>+8.1}%  {}",
            change * 100.0,
            if over { "REGRESSED" } else { "ok" }
        );
    }
    for (name, _) in &fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("{name:<44} (new benchmark, not in baseline)");
        }
    }
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 1.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--threshold needs a numeric fraction (e.g. 1.0 = allow up to 2x)");
                    return ExitCode::from(2);
                };
                threshold = v;
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json> [--threshold FRACTION]");
        return ExitCode::from(2);
    }

    match run(&paths[0], &paths[1], threshold) {
        Ok(false) => {
            println!("bench gate: OK (threshold +{:.0}%)", threshold * 100.0);
            ExitCode::SUCCESS
        }
        Ok(true) => {
            eprintln!(
                "bench gate: FAILED — median regression beyond +{:.0}% (or baseline bench missing)",
                threshold * 100.0
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::run;

    fn write_json(dir: &std::path::Path, name: &str, entries: &[(&str, f64)]) -> String {
        let mut body = String::from("{\n  \"benches\": [\n");
        for (i, (n, m)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            body.push_str(&format!(
                "    {{\"name\": \"{n}\", \"median_ns\": {m}}}{comma}\n"
            ));
        }
        body.push_str("  ]\n}\n");
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bench_compare_test_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn within_threshold_passes() {
        let dir = tmpdir("pass");
        let base = write_json(&dir, "base.json", &[("g/a", 100.0), ("g/b", 50.0)]);
        let fresh = write_json(&dir, "fresh.json", &[("g/a", 150.0), ("g/b", 10.0)]);
        assert!(!run(&base, &fresh, 1.0).unwrap());
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let dir = tmpdir("fail");
        let base = write_json(&dir, "base.json", &[("g/a", 100.0)]);
        let fresh = write_json(&dir, "fresh.json", &[("g/a", 250.0)]);
        assert!(run(&base, &fresh, 1.0).unwrap());
        assert!(!run(&base, &fresh, 2.0).unwrap());
    }

    #[test]
    fn missing_baseline_bench_fails() {
        let dir = tmpdir("missing");
        let base = write_json(&dir, "base.json", &[("g/a", 100.0), ("g/gone", 1.0)]);
        let fresh = write_json(&dir, "fresh.json", &[("g/a", 100.0)]);
        assert!(run(&base, &fresh, 1.0).unwrap());
    }

    #[test]
    fn snapshot_truncated_after_its_first_entry_is_a_parse_error() {
        let dir = tmpdir("truncated");
        let base = write_json(&dir, "base.json", &[("g/a", 100.0), ("g/b", 50.0)]);
        let text = std::fs::read_to_string(&base).unwrap();
        let cut = text.lines().take(3).collect::<Vec<_>>().join("\n");
        std::fs::write(&base, cut).unwrap();
        let fresh = write_json(&dir, "fresh.json", &[("g/a", 100.0)]);
        // `main` exits 2 on an `Err`.
        assert!(run(&base, &fresh, 1.0).unwrap_err().starts_with("parse "));
    }

    #[test]
    fn unreadable_file_is_an_error() {
        assert!(run("/nonexistent/base.json", "/nonexistent/fresh.json", 1.0).is_err());
    }
}
