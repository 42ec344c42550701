//! Runs the whole benchmark at smoke size, so it cannot rot between the
//! runs that use it: every workload, both passes, every metric printed,
//! and every check passing.

use std::process::Command;

#[test]
fn smoke_run_passes_every_check_and_prints_every_metric() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-report.json");
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let last = stdout.lines().last().expect("a summary line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    for w in [
        "steady-small",
        "steady-large",
        "alloc-ramp",
        "figure-matrix",
    ] {
        for m in [
            "wall_s",
            "sim_maps",
            "setup_s",
            "peak_rss_mib",
            "memctl.data.self_ms",
        ] {
            assert!(last.contains(&format!("\"{w}.{m}\"")), "{w}.{m} missing");
        }
    }
    assert!(out.exists(), "report written");
}
