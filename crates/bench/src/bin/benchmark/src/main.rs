//! End-to-end and per-layer host-time benchmark of the IvLeague simulator.
//!
//! # Running it
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless] [--out FILE]
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     compare A.json B.json
//! cargo test --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
//! ```
//!
//! With no `--workload` it runs all four workloads, interleaving their reps
//! round-robin, then the traced pass, and prints every end-to-end metric
//! and the per-layer split. With the defaults (`--seconds 25` of reps per
//! workload) that takes about 130 s on a 2-CPU host.
//! `--trace 0` runs only the untraced reps and prints the end-to-end
//! metrics; `--trace 1` runs only the traced pass and prints the per-layer
//! metrics. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; with several
//! workloads a metric is keyed `<workload>.<metric>`. The full report (every
//! rep, the per-point layer split) goes to `--out`, by default
//! `<target dir>/benchmark/report.json`, next to the per-workload
//! `<workload>.trace.json` and folded stacks `<workload>.folded`.
//! `--smoke` runs tiny windows, one rep and no golden check; a test runs
//! it so the benchmark cannot rot.
//!
//! The loop is closed: each (workload, rep) runs in its own child process,
//! started when the previous one has exited, so `peak_rss_mib` is per
//! workload and the traced pass never shares a heap with the untraced
//! reps. Reps run until the next one would overrun `--seconds` (at least
//! two). No more threads than `nproc` run at once: children run one at a
//! time, and only `figure-matrix` uses a pool, `min(2, nproc)` wide.
//! `--seed` (default 2024) sets `RunConfig::seed`; the goldens exist for
//! 2024 only. Host time covers warmup and measurement, because users pay
//! both on every run. Modelled caches start empty, and simulated
//! statistics cover the measurement window, as in the figures.
//!
//! # Workloads
//!
//! Shares below are of the traced wall time, measured on a 2-CPU host.
//!
//! - `steady-small`: S-1 × {Baseline, IvLeague-Pro}, serial, evaluation
//!   window (100k warmup + 400k measured accesses per core). The footprint
//!   is small, so the run is mostly steady state: trace generation, L2/LLC
//!   and the run loop take about half the host time, page allocation and
//!   deallocation about 4 %. Changes to `workloads`, `cache-sim` and the run
//!   loop show here; allocation changes should not.
//! - `steady-large`: L-1 × {Baseline, IvLeague-Pro}, serial, evaluation
//!   window. The footprint is far beyond the LLC and the metadata caches,
//!   so `memctl.data` (integrity walk, NFL/LMM and DRAM) is the largest
//!   layer (about 40 %), the dealloc flush takes about 14 %, and
//!   IvLeague-Pro's resident set (200 MiB) is ten times Baseline's. Changes
//!   to `ivleague`, `secure-mem` and `dram-sim` show here, in time and
//!   memory.
//! - `alloc-ramp`: L-1..L-4 × IvLeague-Pro, serial, quick window (5k + 30k
//!   per core). No point leaves its footprint ramp in this window: half of
//!   all trace events are page allocations, none is a deallocation, and the
//!   measured window stays empty (checked: `core_accesses == 0`). It drives
//!   the integrity layer through `page_alloc` (about 30 %) as much as
//!   through `data_access`, so a data-path gain that costs allocation
//!   shows here.
//! - `figure-matrix`: the 16 mixes × 4 main schemes through
//!   `run_matrix_on_with_workers`, quick window, `min(2, nproc)` workers.
//!   The bulk of `all_figures --quick` and the only workload on the
//!   campaign pool (`ivl_testkit::par` behind `run_points`): pool changes
//!   show here and nowhere else. Its Figure 15/16/18/19 text is checked.
//!
//! # End-to-end metrics
//!
//! | metric | unit | better | bound | definition |
//! |---|---|---|---|---|
//! | `wall_s` | s | lower | 0.25 | minimum over reps of one rep's host wall-clock |
//! | `sim_maps` | Macc/s | higher | 0.25 | simulated core accesses of a rep (Σ cores × (warmup + measure)) per second of `wall_s`, in millions |
//! | `setup_s` | s | lower | 0.25 | Σ over points of the median zero-length `run_mix` (`RunConfig{0, 0, seed}`: build the scheme, DRAM, LLC and generators, run nothing, tear down), over 5 to 51 rounds |
//! | `peak_rss_mib` | MiB | lower | 0.20 | largest `VmHWM` among the rep children; on `figure-matrix` it depends on whether work stealing overlaps two large L-mix points |
//!
//! Times are gated on the best rep: the simulated work is deterministic, so
//! host noise only adds time. The median and quartiles of the per-rep
//! times are printed but not gated. The noise behind these choices, on a
//! 2-CPU VM shared with other tenants: single `steady-small` reps ranged
//! 1.52–2.58 s within twelve minutes, with a heavy upper tail that the
//! minimum discards. The host also shifts speed for minutes at a time:
//! over ten consecutive runs (one per seed, about 25 s of reps each) every
//! workload got about 15 % faster at once, which put the quartile spread
//! of ten `wall_s` values at 0.10–0.19. No statistic inside one run can
//! remove that, hence bounds of 0.25 on the times. Times are not
//! normalised by a host-speed probe: a random walk over 32 MiB, timed
//! beside each of 51 reps, varied as much as the reps did, and dividing by
//! it left their coefficient of variation at 0.14–0.15 (raw: 0.15).
//!
//! A checked output fails when a point's result differs from the golden
//! (seed 2024) or from the first rep, when the traced driver disagrees
//! with `run_mix`, when a child panics, or when an invariant breaks: an
//! allocation failed, the measured window is empty at evaluation length,
//! or it is non-empty in `alloc-ramp`. `failed` counts those out of
//! `attempted`; any failure makes `correct` false and the exit code 1.
//!
//! # Output check
//!
//! For seed 2024 every point's result must equal `golden/<workload>.lines`
//! bit for bit (per-core window instructions and cycles, every `IvStats`
//! field, LLC-miss reads, read-latency sum and core accesses), and the
//! figure matrix's text must equal `golden/figure-matrix.figs`, which is
//! what `all_figures --quick` writes. `--bless` rewrites the goldens from
//! the first rep. This is a regression check against the program as it
//! stood, not accuracy against the paper; EXPERIMENTS.md owns that. Other
//! seeds are checked rep against rep and, in the traced pass, against the
//! traced driver.
//!
//! # Per-layer metrics (traced pass)
//!
//! One extra rep per workload steps its points through the bench-side
//! driver in `traced.rs`, which times each layer from outside through its
//! public functions; a closure-timed reference rep on `run_points` goes
//! first. The driver reproduces `run_mix` bit for bit, checked on every
//! point against the reference rep. Self times sum exactly to the traced
//! wall: `sim.runner` is the residual and must not be negative.
//!
//! | layer (module) | metrics | should move |
//! |---|---|---|
//! | `workloads.gen` (`TraceGenerator::next_event`) | `.calls .self_ms .share .ns_per_call` | `sim_maps` on `steady-small` |
//! | `cache.l2` / `cache.llc` (`cache-sim` `access`) | same four + `.hit_rate` | `sim_maps` on `steady-small` |
//! | `cache.inval` (dealloc flush, `invalidate`) | `.calls .share` | `sim_maps` on `steady-large` |
//! | `memctl.data` (`IntegritySubsystem::data_access`, includes `dram-sim`) | same four + `.ns_per_dram_txn` | `sim_maps` on `steady-large`; the IvLeague-Pro point of `steady-small` |
//! | `memctl.alloc` (`page_alloc`) | same four | `sim_maps` on `alloc-ramp`; flat on `steady-small` |
//! | `memctl.dealloc` (`page_dealloc`) | `.calls .share` | `sim_maps` on `steady-large` |
//! | `memctl` simulated counts (whole-run `IvStats`) | `.verifications .path_len .meta_reads .meta_writes .ctr_hit_rate .tree_hit_rate .lmm_hit_rate .nflb_hit_rate .hot_migrations` | explain moves; must stay identical |
//! | `dram` (`DramModel::stats`, whole run) | `.txns .row_hit_rate` | denominators for `memctl.data` |
//! | `sim.runner` (residual) / `sim.setup` | `.self_ms .share` | `sim_maps` on all serial workloads / `setup_s` |
//! | `pool` (`run_points`, the reference rep) | `.workers .busy_s .util .tail_s .point_s_max` | `wall_s` on `figure-matrix` only |
//! | `trace` | `.overhead_frac .timer_bias_ns .sample_every` | — |
//!
//! `alloc-ramp` never deallocates, so `cache.inval` and `memctl.dealloc`
//! print no times: theirs would read 0 on every run of it. Their times are
//! in the trace artifacts. `pool.tail_s` runs from the last point's start
//! to the end of the sweep. `trace.overhead_frac` compares the traced wall
//! with the same points' closure times in the reference rep. Across runs
//! it measured −0.07 to 0.18 per workload, much of which is the reference
//! rep's own noise. The per-point value is in the trace artifact. Splitting
//! `memctl.data` into walk, NFL and DRAM needs spans inside the program
//! and is not done here.

mod compare;
mod json;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use traced::{run_traced, Clock, LAYERS, SAMPLE_EVERY};
use workload::{by_name, errors_json, invariant_errors, nproc, Workload, WORKLOADS};

/// End-to-end metrics as (name, unit); `BENCHMARK.json` holds their
/// directions and bounds.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_maps", "Macc/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Layers `alloc-ramp` never calls: their times would read 0 on every run
/// of it, so only their call counts and shares are printed. Their times
/// are in the trace artifacts.
const UNTIMED_LAYERS: [&str; 2] = ["cache.inval", "memctl.dealloc"];

/// Every per-layer metric as (name, unit), in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m = Vec::new();
    for l in LAYERS {
        m.push((format!("{l}.calls"), "count"));
        if !UNTIMED_LAYERS.contains(&l) {
            m.push((format!("{l}.self_ms"), "ms"));
        }
        m.push((format!("{l}.share"), "ratio"));
        if !UNTIMED_LAYERS.contains(&l) {
            m.push((format!("{l}.ns_per_call"), "ns"));
        }
    }
    let fixed = [
        ("cache.l2.hit_rate", "ratio"),
        ("cache.llc.hit_rate", "ratio"),
        ("memctl.data.ns_per_dram_txn", "ns"),
        ("memctl.verifications", "count"),
        ("memctl.path_len", "blocks"),
        ("memctl.meta_reads", "count"),
        ("memctl.meta_writes", "count"),
        ("memctl.ctr_hit_rate", "ratio"),
        ("memctl.tree_hit_rate", "ratio"),
        ("memctl.lmm_hit_rate", "ratio"),
        ("memctl.nflb_hit_rate", "ratio"),
        ("memctl.hot_migrations", "count"),
        ("dram.txns", "count"),
        ("dram.row_hit_rate", "ratio"),
        ("sim.runner.self_ms", "ms"),
        ("sim.runner.share", "ratio"),
        ("sim.setup.self_ms", "ms"),
        ("sim.setup.share", "ratio"),
        ("pool.workers", "count"),
        ("pool.busy_s", "s"),
        ("pool.util", "ratio"),
        ("pool.tail_s", "s"),
        ("pool.point_s_max", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.timer_bias_ns", "ns"),
        ("trace.sample_every", "count"),
    ];
    m.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    m
}

/// Fewest rounds of zero-length `run_mix` calls behind `setup_s`.
const SETUP_MIN_ROUNDS: usize = 5;
/// Fewest untraced reps per workload, whatever `--seconds` says.
const MIN_REPS: usize = 2;

struct Opts {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes; `Some(false)`: untraced only; `Some(true)`:
    /// traced only.
    trace: Option<bool>,
    smoke: bool,
    bless: bool,
    out: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => parse_opts(&args).and_then(|o| run(&o)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 2024,
        seconds: 25.0,
        trace: None,
        smoke: false,
        bless: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads
                    .push(by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--bless" => o.bless = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().collect();
    }
    if o.bless && (o.smoke || o.seed != 2024) {
        return Err("--bless writes the seed-2024 goldens: drop --smoke and --seed".into());
    }
    Ok(o)
}

// ---------------------------------------------------------------------------
// Child side: one (workload, rep) per process, answering with one JSON line.

fn child_main(args: &[String]) -> Result<ExitCode, String> {
    let mode = args.first().ok_or("child needs a mode")?.as_str();
    let o = parse_opts(&args[1..])?;
    let w = o.workloads[0];
    let run = w.run_config(o.seed, o.smoke);
    let out = match mode {
        "setup" => workload::child_setup(w, o.seed, if o.smoke { 1 } else { SETUP_MIN_ROUNDS }),
        "plain" => workload::child_plain(w, &run, o.smoke),
        "pool" => workload::child_pool(w, &run, o.smoke),
        "traced" => {
            let clock = Clock::calibrate();
            let traces: Vec<_> = w
                .points()
                .iter()
                .map(|(mix, scheme)| run_traced(mix, *scheme, &run, SAMPLE_EVERY, &clock))
                .collect();
            let results: Vec<_> = traces.iter().map(|t| t.result.clone()).collect();
            traced::summarize(w.name, &traces, &clock, SAMPLE_EVERY).with(
                "errors",
                errors_json(invariant_errors(w, &results, o.smoke)),
            )
        }
        _ => return Err(format!("unknown child mode `{mode}`")),
    };
    println!("{out}");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Parent side.

/// Runs a child to completion and returns its answer, or why there is none.
fn spawn(mode: &str, w: &Workload, o: &Opts) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", mode, "--workload", w.name, "--seed"])
        .arg(o.seed.to_string())
        .stdin(Stdio::null());
    if o.smoke {
        cmd.arg("--smoke");
    }
    // The simulator reads observability and engine switches from `IVL_*`
    // variables; the benchmark measures the default program.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("IVL_") {
            cmd.env_remove(k);
        }
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {mode} child: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(5).collect();
        let tail: Vec<&str> = tail.into_iter().rev().collect();
        return Err(format!(
            "{} {mode} child exited with {}: {}",
            w.name,
            out.status,
            tail.join(" | ")
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} {mode} child: bad answer: {e}", w.name))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// `<target dir>/benchmark`: next to the build, inside the checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("target"), Path::to_path_buf);
    target.join("benchmark")
}

fn write_artifact(name: &str, body: &str) {
    let dir = out_dir();
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("benchmark: could not write {}: {e}", path.display());
    }
}

fn strings(v: Option<&Json>) -> Vec<String> {
    v.map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::str)
        .map(String::from)
        .collect()
}

fn first_diff(got: &[String], want: &[String]) -> Option<usize> {
    (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))
}

fn golden(name: &str) -> Vec<String> {
    std::fs::read_to_string(golden_dir().join(name))
        .unwrap_or_default()
        .lines()
        .map(String::from)
        .collect()
}

fn bless(w: &Workload, a: &Json) -> Result<(), String> {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut files = vec![(
        format!("{}.lines", w.name),
        strings(a.get("lines")).join("\n") + "\n",
    )];
    if let Some(figs) = a.get("figs").and_then(Json::str) {
        files.push(("figure-matrix.figs".into(), figs.to_string()));
    }
    for (name, body) in files {
        let p = dir.join(name);
        std::fs::write(&p, body).map_err(|e| format!("write {}: {e}", p.display()))?;
        eprintln!("benchmark: blessed {}", p.display());
    }
    Ok(())
}

/// Checked outputs of one workload so far.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// The first answer's result lines: the reference for later reps.
    reference: Option<Vec<String>>,
    notes: Vec<String>,
}

impl Checks {
    fn note(&mut self, msg: String) {
        eprintln!("benchmark: {msg}");
        self.notes.push(msg);
    }

    /// Counts `n` points as attempted and failed, with the reason.
    fn fail_all(&mut self, n: usize, why: String) {
        self.attempted += n as u64;
        self.failed += n as u64;
        self.note(why);
    }

    /// Notes the invariant errors a child reported and marks their points.
    fn errors(&mut self, what: &str, answer: &Json, bad: &mut [bool]) {
        for e in answer.get("errors").map(Json::arr).unwrap_or_default() {
            let i = (e.f("point").unwrap_or(0.0) as usize).min(bad.len() - 1);
            bad[i] = true;
            let msg = e.get("error").and_then(Json::str).unwrap_or("?");
            self.note(format!("{what}: {msg}"));
        }
    }

    /// Counts checked outputs, `true` meaning failed.
    fn tally(&mut self, bad: &[bool]) {
        self.attempted += bad.len() as u64;
        self.failed += bad.iter().filter(|b| **b).count() as u64;
    }

    /// Notes a mismatch between `got` and `want` and marks every point
    /// whose line differs.
    fn diff(&mut self, what: &str, got: &[String], want: &[String], bad: &mut [bool]) {
        if let Some(i) = first_diff(got, want) {
            self.note(format!(
                "{what}: first difference at line {}\n  got:  {}\n  want: {}",
                i + 1,
                got.get(i).map_or("<missing>", String::as_str),
                want.get(i).map_or("<missing>", String::as_str)
            ));
            for (j, b) in bad.iter_mut().enumerate() {
                *b |= got.get(j) != want.get(j);
            }
        }
    }

    /// Checks one rep's answer: invariant errors, result lines against the
    /// golden (seed 2024) and the first answer, and the figure text.
    fn rep(&mut self, w: &Workload, o: &Opts, what: &str, answer: &Result<Json, String>) {
        let n = w.points().len();
        let a = match answer {
            Ok(a) => a,
            Err(e) => return self.fail_all(n, e.clone()),
        };
        let what = format!("{} {what}", w.name);
        let lines = strings(a.get("lines"));
        let mut bad = vec![lines.len() != n; n];
        self.errors(&what, a, &mut bad);
        let check_golden = o.seed == 2024 && !o.smoke && !o.bless;
        if check_golden {
            let want = golden(&format!("{}.lines", w.name));
            self.diff(&format!("{what} vs golden"), &lines, &want, &mut bad);
        }
        if let Some(want) = self.reference.clone() {
            self.diff(&format!("{what} vs first rep"), &lines, &want, &mut bad);
        } else {
            self.reference = Some(lines);
        }
        if check_golden && w.pooled {
            let got: Vec<String> = a
                .get("figs")
                .and_then(Json::str)
                .unwrap_or("")
                .lines()
                .map(String::from)
                .collect();
            let want = golden("figure-matrix.figs");
            // Figure text is one more checked output of the rep.
            let mut fig_bad = [false];
            self.diff(
                &format!("{what} figure text vs golden"),
                &got,
                &want,
                &mut fig_bad,
            );
            self.tally(&fig_bad);
        }
        self.tally(&bad);
    }
}

/// Per-workload record of a run.
#[derive(Default)]
struct WorkloadRun {
    checks: Checks,
    /// Per point, the zero-length `run_mix` times.
    setup_samples: Vec<Vec<f64>>,
    /// Untraced reps started, failed ones included.
    reps: usize,
    rep_wall: Vec<f64>,
    rep_rss: Vec<f64>,
    /// Parent-side time spent on this workload's reps, and on the last one.
    spent_s: f64,
    last_rep_s: f64,
    metrics: BTreeMap<String, f64>,
    trace: Option<Json>,
}

/// (q1, median, q3) by the method of Python's `statistics.quantiles`.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let n = s.len() as f64;
    let q = |k: f64| {
        let pos = k * (n + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        let delta = (pos - j as f64).clamp(0.0, 1.0);
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1.0), q(2.0), q(3.0))
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn run(o: &Opts) -> Result<ExitCode, String> {
    let mut runs: BTreeMap<&str, WorkloadRun> = o
        .workloads
        .iter()
        .map(|w| (w.name, WorkloadRun::default()))
        .collect();
    println!(
        "benchmark: seed {} nproc {} {}{}",
        o.seed,
        nproc(),
        if o.smoke { "smoke " } else { "" },
        match o.trace {
            None => "untraced reps + traced pass",
            Some(false) => "untraced reps",
            Some(true) => "traced pass",
        }
    );
    if o.trace != Some(true) {
        untraced_pass(o, &mut runs);
    }
    if o.trace != Some(false) {
        for w in &o.workloads {
            traced_pass(w, o, runs.get_mut(w.name).expect("registered"));
        }
    }
    report(o, &runs)
}

fn untraced_pass(o: &Opts, runs: &mut BTreeMap<&str, WorkloadRun>) {
    for w in &o.workloads {
        let r = runs.get_mut(w.name).expect("registered");
        match spawn("setup", w, o) {
            Ok(a) => {
                r.setup_samples = a
                    .get("samples")
                    .map(Json::arr)
                    .unwrap_or_default()
                    .iter()
                    .map(|p| p.arr().iter().filter_map(Json::num).collect())
                    .collect();
            }
            Err(e) => r.checks.fail_all(w.points().len(), e),
        }
    }
    // Reps round-robin across workloads until the next one would overrun
    // the workload's budget.
    let wanted = |r: &WorkloadRun| {
        if o.smoke {
            r.reps < 1
        } else {
            r.reps < MIN_REPS || r.spent_s + r.last_rep_s <= o.seconds
        }
    };
    while runs.values().any(wanted) {
        for w in &o.workloads {
            let r = runs.get_mut(w.name).expect("registered");
            if !wanted(r) {
                continue;
            }
            r.reps += 1;
            let t = Instant::now();
            let answer = spawn("plain", w, o);
            r.last_rep_s = t.elapsed().as_secs_f64();
            r.spent_s += r.last_rep_s;
            r.checks.rep(w, o, &format!("rep {}", r.reps), &answer);
            let Ok(a) = answer else { continue };
            if o.bless && r.rep_wall.is_empty() {
                if let Err(e) = bless(w, &a) {
                    r.checks.note(e);
                }
            }
            if let (Ok(wall), Ok(rss)) = (a.f("wall_s"), a.f("rss_mib")) {
                r.rep_wall.push(wall);
                r.rep_rss.push(rss);
            }
        }
    }
    for w in &o.workloads {
        let r = runs.get_mut(w.name).expect("registered");
        if r.rep_wall.is_empty() || r.setup_samples.is_empty() {
            continue;
        }
        let wall = min(&r.rep_wall);
        let sim = w.sim_accesses(&w.run_config(o.seed, o.smoke)) as f64;
        let setup: f64 = r.setup_samples.iter().map(|s| median(s)).sum();
        r.metrics.extend([
            ("wall_s".to_string(), wall),
            ("sim_maps".to_string(), sim / wall / 1e6),
            ("setup_s".to_string(), setup),
            ("peak_rss_mib".to_string(), max(&r.rep_rss)),
        ]);
    }
}

/// The traced pass: a closure-timed reference rep on the pool, then the
/// traced driver over the same points, checked against it point by point.
fn traced_pass(w: &Workload, o: &Opts, r: &mut WorkloadRun) {
    let n = w.points().len();
    let pool = spawn("pool", w, o);
    r.checks.rep(w, o, "reference rep", &pool);
    let (pool, mut traced) = match (pool, spawn("traced", w, o)) {
        (Ok(pool), Ok(traced)) => (pool, traced),
        (_, Err(e)) => return r.checks.fail_all(n, e),
        (Err(_), _) => {
            return r
                .checks
                .fail_all(n, format!("{}: no reference rep", w.name))
        }
    };
    let reference = strings(pool.get("lines"));
    // Per point: (start, end) of its closure in the reference rep.
    let spans: Vec<(f64, f64)> = pool
        .get("spans")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|s| {
            let s = s.arr();
            let at = |i: usize| s.get(i).and_then(Json::num).unwrap_or(0.0);
            (at(0), at(1))
        })
        .collect();
    let mut bad = vec![false; n];
    r.checks
        .errors(&format!("{} traced", w.name), &traced, &mut bad);
    let mut points = traced
        .get("points")
        .map(Json::arr)
        .unwrap_or_default()
        .to_vec();
    let lines: Vec<String> = points
        .iter()
        .map(|p| p.get("line").and_then(Json::str).unwrap_or("").to_string())
        .collect();
    let what = format!("{} traced driver vs run_mix", w.name);
    r.checks.diff(&what, &lines, &reference, &mut bad);
    let (mut traced_ns, mut plain_ns) = (0.0, 0.0);
    for (i, p) in points.iter_mut().enumerate() {
        let runner = p.f("runner_ns").unwrap_or(-1.0);
        if runner < 0.0 {
            bad[i.min(n - 1)] = true;
            r.checks.note(format!(
                "{} traced point {i}: sim.runner = {runner} ns < 0",
                w.name
            ));
        }
        let wall = p.f("wall_ns").unwrap_or(0.0);
        let plain = spans.get(i).map_or(0.0, |(a, b)| (b - a) * 1e9);
        traced_ns += wall;
        plain_ns += plain;
        p.push("overhead_frac", wall / plain - 1.0);
    }
    r.checks.tally(&bad);

    let wall = pool.f("wall_s").unwrap_or(0.0);
    let workers = pool.f("workers").unwrap_or(1.0);
    let busy: f64 = spans.iter().map(|(a, b)| b - a).sum();
    let last_start = spans.iter().map(|s| s.0).fold(0.0, f64::max);
    let longest = spans.iter().map(|(a, b)| b - a).fold(0.0, f64::max);
    r.metrics.extend(
        traced
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.num()?))),
    );
    r.metrics.extend([
        ("pool.workers".to_string(), workers),
        ("pool.busy_s".to_string(), busy),
        ("pool.util".to_string(), busy / (workers * wall)),
        ("pool.tail_s".to_string(), wall - last_start),
        ("pool.point_s_max".to_string(), longest),
        (
            "trace.overhead_frac".to_string(),
            traced_ns / plain_ns - 1.0,
        ),
    ]);
    if let Some(folded) = traced.get("folded").and_then(Json::str) {
        write_artifact(&format!("{}.folded", w.name), folded);
    }
    traced.push("points", Json::Arr(points));
    r.trace = Some(traced);
}

fn report(o: &Opts, runs: &BTreeMap<&str, WorkloadRun>) -> Result<ExitCode, String> {
    let mut wanted: Vec<(String, &str)> = Vec::new();
    if o.trace != Some(true) {
        wanted.extend(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)));
    }
    if o.trace != Some(false) {
        wanted.extend(per_layer_metrics());
    }
    let single = o.workloads.len() == 1;
    let (mut attempted, mut failed, mut complete) = (0, 0, true);
    let mut all_metrics = Json::obj();
    let mut workloads = Json::obj();
    for w in &o.workloads {
        let r = &runs[w.name];
        attempted += r.checks.attempted;
        failed += r.checks.failed;
        println!(
            "\n== {}: {} points, {} reps, {} of {} checked outputs failed\n   {}",
            w.name,
            w.points().len(),
            r.rep_wall.len(),
            r.checks.failed,
            r.checks.attempted,
            w.why
        );
        if !r.rep_wall.is_empty() {
            let (q1, med, q3) = quartiles(&r.rep_wall);
            println!(
                "   rep wall s: min {:.4}  q1 {q1:.4}  median {med:.4}  q3 {q3:.4}  (n = {})",
                min(&r.rep_wall),
                r.rep_wall.len()
            );
        }
        let mut metrics = Json::obj();
        for (name, unit) in &wanted {
            let Some(v) = r.metrics.get(name) else {
                complete = false;
                continue;
            };
            println!("   {name:<32} {v:>16.6} {unit}");
            let entry = Json::obj().with("value", *v).with("unit", *unit);
            let key = if single {
                name.clone()
            } else {
                format!("{}.{name}", w.name)
            };
            all_metrics.push(&key, entry.clone());
            metrics.push(name, entry);
        }
        let rounds = r.setup_samples.first().map_or(0, Vec::len);
        let setup_rounds: Vec<f64> = (0..rounds)
            .map(|k| r.setup_samples.iter().filter_map(|p| p.get(k)).sum())
            .collect();
        let sim = w.sim_accesses(&w.run_config(o.seed, o.smoke)) as f64;
        let sim_maps: Vec<f64> = r.rep_wall.iter().map(|t| sim / t / 1e6).collect();
        let mut entry = Json::obj()
            .with("attempted", r.checks.attempted)
            .with("failed", r.checks.failed)
            .with("metrics", metrics)
            .with(
                "reps",
                Json::obj()
                    .with("wall_s", r.rep_wall.clone())
                    .with("sim_maps", sim_maps)
                    .with("setup_s", setup_rounds)
                    .with("peak_rss_mib", r.rep_rss.clone()),
            )
            .with("notes", r.checks.notes.clone());
        if let Some(t) = &r.trace {
            write_artifact(&format!("{}.trace.json", w.name), &t.to_string());
            entry.push("trace", t.clone());
        }
        workloads.push(w.name, entry);
    }
    if !complete {
        eprintln!("benchmark: some metrics could not be measured");
    }
    let correct = failed == 0 && attempted > 0 && complete;
    let report = Json::obj()
        .with("seed", o.seed)
        .with("nproc", nproc())
        .with("smoke", o.smoke)
        .with("seconds", o.seconds)
        .with("correct", correct)
        .with("workloads", workloads);
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("report.json"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report.to_string())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("benchmark: report written to {}", out.display());
    let summary = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", all_metrics);
    println!("{summary}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(p).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn pairs(b: &Json, list: &str, a: &str, c: &str) -> Vec<(String, String)> {
        b.get(list)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::str).unwrap_or("").to_string();
                (s(a), s(c))
            })
            .collect()
    }

    /// `BENCHMARK.json` describes exactly the workloads and metrics this
    /// binary prints.
    #[test]
    fn benchmark_json_matches_what_is_printed() {
        let b = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(pairs(&b, "end_to_end", "name", "unit"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(pairs(&b, "per_layer", "name", "unit"), layers);
        let workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(pairs(&b, "workloads", "name", "why"), workloads);
    }

    /// Every printed per-layer metric is one the traced child computes or
    /// the parent adds.
    #[test]
    fn every_per_layer_metric_is_produced() {
        let clock = Clock::calibrate();
        let w = by_name("steady-small").unwrap();
        let run = w.run_config(7, true);
        let traces: Vec<_> = w
            .points()
            .iter()
            .map(|(mix, scheme)| run_traced(mix, *scheme, &run, SAMPLE_EVERY, &clock))
            .collect();
        let s = traced::summarize(w.name, &traces, &clock, SAMPLE_EVERY);
        let parent = [
            "pool.workers",
            "pool.busy_s",
            "pool.util",
            "pool.tail_s",
            "pool.point_s_max",
            "trace.overhead_frac",
        ];
        for (name, _) in per_layer_metrics() {
            let produced = s.get("metrics").and_then(|m| m.get(&name)).is_some();
            assert!(
                produced || parent.contains(&name.as_str()),
                "{name} is never produced"
            );
        }
    }

    #[test]
    fn quartiles_follow_python_statistics() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let (q1, med, q3) = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((q1, med, q3), (2.75, 5.5, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
