//! The four pinned workloads, their points, and the untraced work a rep's
//! child process does: zero-length set-up runs, plain reps through the
//! program's own entry points, and the pool-timed rep.

use std::fmt::Write as _;
use std::time::Instant;

use ivl_secure_mem::subsystem::IvStats;
use ivl_sim_core::stats::HitMiss;
use ivl_simulator::{run_mix, MixResult, RunConfig, SchemeKind};
use ivl_workloads::mixes::{mix_by_name, Mix};

use crate::json::Json;

/// Simulated-access window of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Window {
    /// `RunConfig::evaluation()`: 100k warmup + 400k measured per core.
    Evaluation,
    /// The figure harness's quick mode: 5k warmup + 30k measured per core.
    Quick,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    mixes: &'static [&'static str],
    schemes: &'static [SchemeKind],
    window: Window,
    /// Whether each point's measured window must be non-empty (`Some(true)`)
    /// or empty (`Some(false)`). At quick length most matrix points never
    /// leave their ramp, and then report the whole run; either is fine
    /// there.
    measured: Option<bool>,
    /// Runs through `run_matrix_on_with_workers` on the campaign pool
    /// instead of calling `run_mix` point by point.
    pub pooled: bool,
}

const ALL_MIXES: [&str; 16] = [
    "S-1", "S-2", "S-3", "S-4", "S-5", "S-6", "M-1", "M-2", "M-3", "M-4", "M-5", "M-6", "L-1",
    "L-2", "L-3", "L-4",
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady-small",
        why: "S-1 x {Baseline, IvLeague-Pro}, evaluation length: small footprint, so trace \
              generation, L2/LLC and the run loop dominate host time",
        mixes: &["S-1"],
        schemes: &[SchemeKind::Baseline, SchemeKind::IvPro],
        window: Window::Evaluation,
        measured: Some(true),
        pooled: false,
    },
    Workload {
        name: "steady-large",
        why: "L-1 x {Baseline, IvLeague-Pro}, evaluation length: footprint far beyond LLC and \
              metadata caches, so the integrity walk, NFL/LMM and DRAM dominate time and memory",
        mixes: &["L-1"],
        schemes: &[SchemeKind::Baseline, SchemeKind::IvPro],
        window: Window::Evaluation,
        measured: Some(true),
        pooled: false,
    },
    Workload {
        name: "alloc-ramp",
        why: "L-1..L-4 x IvLeague-Pro, quick length: every core stays in its footprint ramp, so \
              page allocation is exercised and the measured window stays empty",
        mixes: &["L-1", "L-2", "L-3", "L-4"],
        schemes: &[SchemeKind::IvPro],
        window: Window::Quick,
        measured: Some(false),
        pooled: false,
    },
    Workload {
        name: "figure-matrix",
        why: "16 mixes x 4 main schemes, quick length, on the campaign pool: the bulk of \
              all_figures --quick and the only workload that exercises run_points",
        mixes: &ALL_MIXES,
        schemes: &SchemeKind::MAIN,
        window: Window::Quick,
        measured: None,
        pooled: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One (mix, scheme) simulation of a workload.
pub type Point = (&'static Mix, SchemeKind);

impl Workload {
    fn mixes(&self) -> Vec<&'static Mix> {
        self.mixes
            .iter()
            .map(|m| mix_by_name(m).expect("pinned mix exists"))
            .collect()
    }

    /// Points in job order (mix-major, scheme-minor), the order
    /// `run_matrix_on_with_workers` uses.
    pub fn points(&self) -> Vec<Point> {
        self.mixes()
            .into_iter()
            .flat_map(|m| self.schemes.iter().map(move |s| (m, *s)))
            .collect()
    }

    pub fn run_config(&self, seed: u64, smoke: bool) -> RunConfig {
        let (warmup_accesses, measure_accesses) = match (smoke, self.window) {
            (true, _) => (200, 1_000),
            (false, Window::Evaluation) => {
                let e = RunConfig::evaluation();
                (e.warmup_accesses, e.measure_accesses)
            }
            (false, Window::Quick) => (5_000, 30_000),
        };
        RunConfig {
            warmup_accesses,
            measure_accesses,
            seed,
        }
    }

    /// Pool width: `min(2, nproc)` for the campaign workload, 1 otherwise.
    pub fn workers(&self) -> usize {
        if self.pooled {
            nproc().min(2)
        } else {
            1
        }
    }

    /// Simulated core accesses one rep performs: every core runs until it
    /// has issued `warmup + measure` accesses.
    pub fn sim_accesses(&self, run: &RunConfig) -> u64 {
        let per_core = run.warmup_accesses + run.measure_accesses;
        self.points()
            .iter()
            .map(|(mix, _)| {
                (mix.benchmarks.len() * mix.class.threads_per_process()) as u64 * per_core
            })
            .sum()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fields of a point's result the traced driver reproduces, on one
/// line: per-core window instructions and cycles, every `IvStats` field,
/// and the runner's read-latency and access counters. Equal lines mean
/// bit-equal simulated results.
pub fn canonical_line(r: &MixResult) -> String {
    let mut s = format!("{} {}", r.mix, r.scheme.label());
    let cores: Vec<String> = r
        .cores
        .iter()
        .map(|c| format!("{}:{}", c.instrs, c.cycles))
        .collect();
    write!(
        s,
        " core_accesses={} llc_miss_reads={} read_latency_sum={} cores={} iv={}",
        r.core_accesses,
        r.llc_miss_reads,
        r.read_latency_sum,
        cores.join(","),
        iv_fields(&r.stats)
    )
    .expect("write to String");
    s
}

fn iv_fields(s: &IvStats) -> String {
    let hm = |h: HitMiss| format!("{}/{}", h.hits(), h.misses());
    let levels: Vec<String> = s.fetches_by_level.iter().map(u64::to_string).collect();
    [
        s.data_reads.to_string(),
        s.data_writes.to_string(),
        s.meta_reads.to_string(),
        s.meta_writes.to_string(),
        s.verifications.to_string(),
        s.path_len_sum.to_string(),
        hm(s.counter_cache),
        hm(s.tree_cache),
        hm(s.mac_cache),
        hm(s.lmm_cache),
        hm(s.nflb),
        s.nfl_mem_reads.to_string(),
        s.nfl_mem_writes.to_string(),
        s.nfl_claims.to_string(),
        s.nfl_recycles.to_string(),
        s.hot_migrations.to_string(),
        s.hot_demotions.to_string(),
        s.alloc_failures.to_string(),
        levels.join(":"),
    ]
    .join(",")
}

/// Checks a workload's results must pass without any reference, as
/// (point index, message). Smoke windows are too short for any point to
/// leave its footprint ramp, so they skip the non-empty-window check.
pub fn invariant_errors(w: &Workload, results: &[MixResult], smoke: bool) -> Vec<(usize, String)> {
    let mut errs = Vec::new();
    for (i, r) in results.iter().enumerate() {
        let tag = format!("{} {}", r.mix, r.scheme.label());
        if r.failed {
            errs.push((i, format!("{tag}: a page allocation failed")));
        }
        match w.measured {
            Some(false) if r.core_accesses != 0 => errs.push((
                i,
                format!(
                    "{tag}: core_accesses = {} but the point must stay in its ramp",
                    r.core_accesses
                ),
            )),
            Some(true) if !smoke && r.core_accesses == 0 => {
                errs.push((i, format!("{tag}: the measurement window is empty")))
            }
            _ => {}
        }
    }
    errs
}

pub fn errors_json(errs: Vec<(usize, String)>) -> Json {
    Json::Arr(
        errs.into_iter()
            .map(|(i, e)| Json::obj().with("point", i).with("error", e))
            .collect(),
    )
}

/// The Figure 15/16/18/19 text `all_figures` writes for this matrix.
fn figure_text(results: &[MixResult]) -> String {
    use ivl_bench::perf::{fig15, fig16, fig18, fig19};
    [
        fig15(results),
        fig16(results),
        fig18(results),
        fig19(results),
    ]
    .join("\n")
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
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

/// Result lines (and, for the figure matrix, figure text) of one rep.
fn results_json(w: &Workload, results: &[MixResult], smoke: bool) -> Json {
    let lines: Vec<String> = results.iter().map(canonical_line).collect();
    let mut out = Json::obj()
        .with("lines", lines)
        .with("errors", errors_json(invariant_errors(w, results, smoke)));
    if w.pooled {
        out.push("figs", figure_text(results));
    }
    out
}

/// Set-up cost: each point's zero-length `run_mix` (it builds the scheme,
/// DRAM, LLC and generators, runs no event, and tears them down), timed in
/// rounds over the points: at least `min_rounds`, then more while the
/// rounds have taken under a second, up to 51. Cheap set-ups, whose times
/// vary most from call to call, so get the most samples.
pub fn child_setup(w: &Workload, seed: u64, min_rounds: usize) -> Json {
    let run = RunConfig {
        warmup_accesses: 0,
        measure_accesses: 0,
        seed,
    };
    let points = w.points();
    let mut samples = vec![Vec::new(); points.len()];
    let start = Instant::now();
    for round in 0..51 {
        if round >= min_rounds && start.elapsed().as_secs_f64() >= 1.0 {
            break;
        }
        for (i, (mix, scheme)) in points.iter().enumerate() {
            let t = Instant::now();
            std::hint::black_box(run_mix(mix, *scheme, &run));
            samples[i].push(t.elapsed().as_secs_f64());
        }
    }
    let samples: Vec<Json> = samples.into_iter().map(Json::from).collect();
    Json::obj().with("samples", Json::Arr(samples))
}

/// One untraced rep through the program's own entry points: `run_mix`
/// per point, or `run_matrix_on_with_workers` for the campaign workload.
pub fn child_plain(w: &Workload, run: &RunConfig, smoke: bool) -> Json {
    let t = Instant::now();
    let results = if w.pooled {
        let mixes: Vec<Mix> = w.mixes().into_iter().copied().collect();
        ivl_bench::run_matrix_on_with_workers(&mixes, w.schemes, run, w.workers())
    } else {
        w.points()
            .iter()
            .map(|(mix, scheme)| run_mix(mix, *scheme, run))
            .collect()
    };
    let wall = t.elapsed().as_secs_f64();
    results_json(w, &results, smoke)
        .with("wall_s", wall)
        .with("rss_mib", peak_rss_mib())
}

/// The pool rep: the same points on `ivl_bench::run_points`, with each
/// point's closure timed so busy time, utilisation and the tail show.
pub fn child_pool(w: &Workload, run: &RunConfig, smoke: bool) -> Json {
    let points = w.points();
    let t = Instant::now();
    let timed = ivl_bench::run_points(
        &points,
        w.workers(),
        |(mix, scheme)| format!("{:<5} {:<14}", mix.name, scheme.label()),
        |(mix, scheme)| {
            let start = t.elapsed().as_secs_f64();
            let r = run_mix(mix, *scheme, run);
            (r, start, t.elapsed().as_secs_f64())
        },
    );
    let wall = t.elapsed().as_secs_f64();
    let spans: Vec<Json> = timed
        .iter()
        .map(|(_, a, b)| Json::Arr(vec![Json::Num(*a), Json::Num(*b)]))
        .collect();
    let results: Vec<MixResult> = timed.into_iter().map(|(r, _, _)| r).collect();
    results_json(w, &results, smoke)
        .with("wall_s", wall)
        .with("workers", w.workers())
        .with("spans", Json::Arr(spans))
}
