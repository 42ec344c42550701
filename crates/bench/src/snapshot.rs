//! `BENCH_*.json` micro-bench snapshots: what `cargo bench -p ivl-bench`
//! writes to the path `IVL_BENCH_JSON` names, and what `bench_compare`
//! gates a fresh run against.
//!
//! One bench per line, so two snapshots diff line by line:
//!
//! ```text
//! {
//!   "suite": "micro",
//!   "unit": "ns_per_iter",
//!   "benches": [
//!     {"name": "crypto/aes128_encrypt_block", "median_ns": 6.486, ...},
//!     ...
//!   ]
//! }
//! ```
//!
//! Timings are rounded to three decimals before writing; every value goes
//! through the shared [`ivl_sim_core::json`] writer. Reading keeps the
//! `(name, median_ns)` pairs, which is all the gate compares.

use ivl_sim_core::json::Json;
use ivl_testkit::bench::BenchStats;

/// A timing or rate at the snapshot's three-decimal precision.
fn three_decimals(v: f64) -> Json {
    Json::F64((v * 1000.0).round() / 1000.0)
}

/// Serializes one suite's results as a snapshot document.
pub fn to_json(suite: &str, results: &[BenchStats]) -> String {
    let mut out = format!(
        "{{\n  \"suite\": {},\n  \"unit\": \"ns_per_iter\",\n  \"benches\": [\n",
        Json::from(suite.to_string())
    );
    for (i, r) in results.iter().enumerate() {
        let entry = Json::object([
            ("name", r.full_name().into()),
            ("median_ns", three_decimals(r.median_ns)),
            ("p95_ns", three_decimals(r.p95_ns)),
            ("mean_ns", three_decimals(r.mean_ns)),
            ("min_ns", three_decimals(r.min_ns)),
            ("max_ns", three_decimals(r.max_ns)),
            ("throughput_per_sec", three_decimals(r.throughput_per_sec())),
            ("samples", Json::U64(r.samples as u64)),
            ("iters_per_sample", Json::U64(r.iters_per_sample)),
        ]);
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!("    {entry}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a snapshot into `(full_name, median_ns)` pairs, in file order. A
/// document without a `benches` member holds no benchmarks.
///
/// # Errors
///
/// Returns a description of the first malformed construct: invalid JSON
/// (a truncated file included) or a bench without a name or median.
pub fn parse(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let benches = match (&doc, doc.get("benches")) {
        (Json::Object(_), None) => return Ok(Vec::new()),
        (_, Some(Json::Array(benches))) => benches,
        _ => return Err("expected an object with a `benches` array".to_string()),
    };
    let entry = |b: &Json| {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a bench has no name")?;
        let median = b.get("median_ns").and_then(Json::as_f64);
        let median = median.ok_or_else(|| format!("bench `{name}` has no median_ns field"))?;
        Ok((name.to_string(), median))
    };
    benches.iter().map(entry).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use ivl_testkit::bench::{BenchConfig, FakeClock, Harness};

    fn run_fixture(seed: u64) -> Vec<BenchStats> {
        let cfg = BenchConfig {
            target_sample_ns: 100_000,
            samples: 12,
            warmup_batches: 1,
        };
        let mut h = Harness::with_clock("fixture", cfg, Box::new(FakeClock::seed_from(seed)));
        h.group("g");
        let mut x = 0u64;
        h.bench("work", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        h.finish()
    }

    #[test]
    fn json_output_is_well_formed() {
        let json = to_json("fixture", &run_fixture(3));
        assert!(json.contains("\"suite\": \"fixture\""));
        assert!(json.contains("\"name\": \"g/work\""));
        assert!(json.contains("\"median_ns\": "));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn parse_round_trips_serialized_results() {
        let stats = run_fixture(5);
        let parsed = parse(&to_json("fixture", &stats)).unwrap();
        assert_eq!(parsed.len(), stats.len());
        assert_eq!(parsed[0].0, stats[0].full_name());
        assert!((parsed[0].1 - stats[0].median_ns).abs() < 0.001);
    }

    #[test]
    fn control_characters_in_names_round_trip() {
        let mut stats = run_fixture(5);
        stats[0].name = "tab\there\u{1}".to_string();
        let parsed = parse(&to_json("fixture", &stats)).unwrap();
        assert_eq!(parsed[0].0, "g/tab\there\u{1}");
    }

    #[test]
    fn parse_handles_escaped_names() {
        let json = r#"{"benches": [{"name": "g\\h/\"x\"", "median_ns": 12.5}]}"#;
        let parsed = parse(json).unwrap();
        assert_eq!(parsed, vec![("g\\h/\"x\"".to_string(), 12.5)]);
    }

    #[test]
    fn parse_rejects_missing_median() {
        let json = r#"{"benches": [{"name": "a/b", "p95_ns": 1.0}]}"#;
        assert!(parse(json).is_err());
    }

    #[test]
    fn parse_of_empty_document_is_empty() {
        assert_eq!(parse("{}").unwrap(), vec![]);
    }

    #[test]
    fn checked_in_snapshots_parse() {
        let read = |name: &str| {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + name;
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
        };
        for pr in ["baseline", "pr3", "pr5", "pr6", "pr8", "pr12"] {
            let name = format!("BENCH_{pr}.json");
            let benches = parse(&read(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut names: Vec<&str> = benches.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert!(!names.is_empty(), "{name} holds no benchmarks");
            assert_eq!(names.len(), benches.len(), "{name} repeats a bench name");
        }
        // A benchmark report, not a micro snapshot: it only has to be JSON.
        Json::parse(&read("BENCH_pr18.json")).expect("BENCH_pr18.json parses");
    }
}
