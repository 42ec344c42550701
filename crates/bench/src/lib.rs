//! Figure/table regeneration harness.
//!
//! One binary per table and figure of the paper's evaluation (see
//! DESIGN.md's experiment index); each prints the rows/series the paper
//! reports and writes the same text under `target/figures/`. The heavy
//! simulations (Figures 15/16/18/19 share the same 16 mixes × 4 schemes
//! runs) execute in parallel across (mix, scheme) jobs on [`run_points`]'
//! scoped-thread pool.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ivl_simulator::{run_mix, MixResult, RunConfig, SchemeKind};
use ivl_workloads::mixes::{Mix, MIXES};

pub mod perf;
pub mod snapshot;

/// Where figure text outputs land.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Prints `content` to stdout and mirrors it into `target/figures/<name>`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let path = figures_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create figure file");
    f.write_all(content.as_bytes()).expect("write figure file");
    eprintln!("[saved {}]", path.display());
}

/// Whether quick mode was requested (`IVL_QUICK=1` or `--quick`): shorter
/// runs for smoke-testing the harness.
pub fn quick_mode() -> bool {
    std::env::var("IVL_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}

/// The run configuration honoring quick mode.
pub fn run_config() -> RunConfig {
    if quick_mode() {
        RunConfig {
            warmup_accesses: 5_000,
            measure_accesses: 30_000,
            seed: 2024,
        }
    } else {
        RunConfig::evaluation()
    }
}

/// Workers for a campaign pool: one per CPU the process may use
/// (`available_parallelism` honours the cgroup CPU quota).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every mix under every scheme in `schemes`, in parallel across
/// (mix, scheme) pairs. Results are ordered (mix-major, scheme-minor).
pub fn run_matrix(schemes: &[SchemeKind], run: &RunConfig) -> Vec<MixResult> {
    run_matrix_on(&MIXES, schemes, run)
}

/// Runs a selected set of mixes under every scheme in `schemes`.
///
/// Emits a progress line to stderr as each (mix, scheme) point finishes.
/// Progress reporting rides on a shared atomic counter, so completion
/// order shows through on stderr while the returned results stay in job
/// order.
pub fn run_matrix_on(mixes: &[Mix], schemes: &[SchemeKind], run: &RunConfig) -> Vec<MixResult> {
    run_matrix_on_with_workers(mixes, schemes, run, available_workers())
}

/// [`run_matrix_on`] with an explicit worker count. `workers = 1` runs the
/// jobs serially on one pool thread in job order — the determinism tests
/// pin serial vs. pooled runs against each other this way.
pub fn run_matrix_on_with_workers(
    mixes: &[Mix],
    schemes: &[SchemeKind],
    run: &RunConfig,
    workers: usize,
) -> Vec<MixResult> {
    let jobs: Vec<(&Mix, SchemeKind)> = mixes
        .iter()
        .flat_map(|m| schemes.iter().map(move |s| (m, *s)))
        .collect();
    run_points(
        &jobs,
        workers,
        |(mix, scheme)| format!("{:<5} {:<14}", mix.name, scheme.label()),
        |(mix, scheme)| run_mix(mix, *scheme, run),
    )
}

/// Generic parallel point sweep: runs `f` over `points` on up to `workers`
/// scoped threads, printing a `[n/total] <label> <elapsed> (eta …)`
/// progress line to stderr as each point completes — the ETA is the mean
/// per-point wall time extrapolated over the points still outstanding.
/// Results preserve input order.
///
/// The pool is one shared cursor over the point list: each worker claims
/// the next unclaimed index and keeps its `(index, result)` pairs, which
/// are sorted back into input order once every worker has joined. With one
/// worker the points run in input order. A panicking point is re-raised
/// here once its worker has been joined.
///
/// The sweep binaries (figure matrices, sensitivity grids) funnel their
/// per-point simulation work through here so every campaign parallelizes
/// the same way.
pub fn run_points<P, T, L, F>(points: &[P], workers: usize, label: L, f: F) -> Vec<T>
where
    P: Sync,
    T: Send,
    L: Fn(&P) -> String + Sync,
    F: Fn(&P) -> T + Sync,
{
    let total = points.len();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let worker = || {
        let mut out = Vec::new();
        loop {
            // `Relaxed` suffices: the cursor only hands out distinct
            // indices, and results come back through `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(p) = points.get(i) else { return out };
            out.push((i, f(p)));
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            let elapsed = started.elapsed().as_secs_f64();
            let eta = elapsed / n as f64 * (total - n) as f64;
            eprintln!(
                "[{n:>3}/{total}] {} {:>6.1}s (eta {eta:>5.1}s)",
                label(p),
                elapsed
            );
        }
    };
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, total.max(1)))
            .map(|_| scope.spawn(worker))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Finds the result for (mix, scheme) in a `run_matrix` output.
pub fn find<'a>(results: &'a [MixResult], mix: &str, scheme: SchemeKind) -> &'a MixResult {
    results
        .iter()
        .find(|r| r.mix == mix && r.scheme == scheme)
        .unwrap_or_else(|| panic!("missing result for {mix}/{scheme:?}"))
}

/// Formats a ratio table row with fixed-width columns.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<10}");
    for v in values {
        s.push_str(&format!(" {v:>8.3}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_runs_in_quick_shape() {
        let run = RunConfig::smoke_test();
        let mixes = [*ivl_workloads::mixes::mix_by_name("S-1").unwrap()];
        let results = run_matrix_on(&mixes, &[SchemeKind::Baseline, SchemeKind::IvPro], &run);
        assert_eq!(results.len(), 2);
        assert_eq!(
            find(&results, "S-1", SchemeKind::IvPro).scheme,
            SchemeKind::IvPro
        );
    }

    /// `run_points` with a throwaway label, as the pool tests call it.
    fn pool<I: Sync, T: Send>(jobs: &[I], workers: usize, f: impl Fn(&I) -> T + Sync) -> Vec<T> {
        run_points(jobs, workers, |_| String::new(), f)
    }

    #[test]
    fn pool_preserves_input_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let out = pool(&jobs, 8, |&j| {
            // Stagger completion so late jobs often finish before early
            // ones; ordering must still hold.
            std::thread::sleep(std::time::Duration::from_micros((257 - j) % 7 * 50));
            j * 3
        });
        assert_eq!(out, jobs.iter().map(|j| j * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_handles_empty_and_single_job_lists() {
        let none: Vec<u32> = Vec::new();
        assert!(pool(&none, 4, |&j| j).is_empty());
        assert_eq!(pool(&[41u32], 16, |&j| j + 1), vec![42]);
    }

    #[test]
    fn pool_worker_count_larger_than_jobs_is_fine() {
        assert_eq!(pool(&[1u32, 2, 3], 64, |&j| j), vec![1, 2, 3]);
    }

    #[test]
    fn pool_panicking_job_propagates() {
        let caught = std::panic::catch_unwind(|| {
            pool(&[0u32, 1], 2, |&j| {
                assert!(j != 1, "boom");
                j
            })
        });
        let payload = caught.expect_err("the job's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        // One slow job at the head of the list: the other workers must take
        // the rest, and nothing may run twice.
        let jobs: Vec<usize> = (0..64).collect();
        let runs: Vec<AtomicUsize> = (0..jobs.len()).map(|_| AtomicUsize::new(0)).collect();
        let out = pool(&jobs, 4, |&j| {
            runs[j].fetch_add(1, Ordering::Relaxed);
            if j == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            j
        });
        assert_eq!(out, jobs);
        for (j, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::Relaxed),
                1,
                "job {j} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn pool_results_identical_across_worker_counts() {
        let jobs: Vec<u64> = (0..41).collect();
        let serial = pool(&jobs, 1, |&j| j * j + 1);
        for workers in [2, 3, 8] {
            assert_eq!(serial, pool(&jobs, workers, |&j| j * j + 1));
        }
    }

    #[test]
    fn pool_of_one_runs_jobs_in_input_order() {
        let order = std::sync::Mutex::new(Vec::new());
        pool(&[3u32, 1, 2], 1, |&j| order.lock().unwrap().push(j));
        assert_eq!(order.into_inner().unwrap(), vec![3, 1, 2]);
    }

    #[test]
    fn row_formats() {
        let s = row("S-1", &[1.0, 0.5]);
        assert!(s.contains("S-1") && s.contains("1.000") && s.contains("0.500"));
    }
}
