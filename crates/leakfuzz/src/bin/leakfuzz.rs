//! `leakfuzz` — leak-search fuzzing and corpus replay from the shell.
//!
//! ```text
//! leakfuzz fuzz   [--seed N] [--budget-secs N] [--max-cases N] [--out DIR]
//! leakfuzz replay [--corpus DIR]
//! leakfuzz show FILE
//! leakfuzz seed-corpus [--corpus DIR]
//! ```
//!
//! Environment: `IVL_FUZZ_SEED` and `IVL_FUZZ_BUDGET_SECS` set the `fuzz`
//! defaults (flags win). A budget of `0` means unlimited (pair it with
//! `--max-cases`).
//!
//! Exit codes: `fuzz` exits 2 if any *protected* scheme flagged (an
//! isolation regression) and 0 otherwise — Baseline findings are the
//! expected, healthy outcome. `replay` exits 1 on any corpus violation.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ivl_leakfuzz::corpus::{self, CorpusEntry};
use ivl_leakfuzz::fuzz::{fuzz_with, Finding, FuzzConfig};
use ivl_leakfuzz::harness::{run_program, run_program_with_obs, HarnessConfig};
use ivl_sim_core::obs::timeline::write_timeline_jsonl;
use ivl_sim_core::obs::{write_trace_jsonl, Obs, Timeline, TraceFilter, Tracer};
use ivl_simulator::system::SchemeKind;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn parse_u64(args: &[String], flag: &str, env: Option<&str>) -> Result<Option<u64>, String> {
    if let Some(raw) = arg_value(args, flag) {
        return raw
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} wants an integer, got `{raw}`"));
    }
    Ok(env.and_then(env_u64))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: leakfuzz fuzz [--seed N] [--budget-secs N] [--max-cases N] [--out DIR]\n\
         \x20      leakfuzz replay [--corpus DIR]\n\
         \x20      leakfuzz show FILE\n\
         \x20      leakfuzz seed-corpus [--corpus DIR]"
    );
    ExitCode::FAILURE
}

/// Re-runs a finding's program with tracing and the windowed timeline live
/// and dumps both — the forensic artifacts the nightly job uploads next to
/// the `.json`. The timeline lands beside the trace with a `.timeline.jsonl`
/// suffix, turning the raw counterexample into a metrics-over-time
/// narrative (DRAM, LLC, walk-leg series around the probe window).
fn dump_trace(finding: &Finding, cfg: &HarnessConfig, path: &Path) -> std::io::Result<()> {
    let obs = Obs {
        tracer: Tracer::bounded(1 << 20, TraceFilter::default()),
        // A fine-grained window: shrunk programs run for few cycles, so the
        // default 10k-cycle window would flatten the whole run into one cell.
        timeline: Timeline::bounded(256, 1 << 14),
    };
    run_program_with_obs(finding.scheme, &finding.program, cfg, &obs);
    write_trace_jsonl(&obs.tracer.sorted_records(), path)?;
    let tl_path = match path.to_str() {
        Some(p) => PathBuf::from(p.replace(".trace.jsonl", ".timeline.jsonl")),
        None => path.with_extension("timeline.jsonl"),
    };
    write_timeline_jsonl(&obs.timeline.snapshot(), &tl_path)
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let seed = parse_u64(args, "--seed", Some("IVL_FUZZ_SEED"))?;
    let budget = parse_u64(args, "--budget-secs", Some("IVL_FUZZ_BUDGET_SECS"))?;
    let max_cases = parse_u64(args, "--max-cases", None)?;
    let out_dir =
        PathBuf::from(arg_value(args, "--out").unwrap_or_else(|| "target/leakfuzz".to_string()));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let mut cfg = FuzzConfig::default();
    if let Some(s) = seed {
        cfg.seed = s;
    }
    cfg.budget = match budget {
        Some(0) => None,
        Some(secs) => Some(Duration::from_secs(secs)),
        None => cfg.budget,
    };
    cfg.max_cases = max_cases;

    println!(
        "leakfuzz: seed={:#x} budget={} max-cases={} schemes={}",
        cfg.seed,
        cfg.budget
            .map_or("unlimited".to_string(), |b| format!("{}s", b.as_secs())),
        cfg.max_cases
            .map_or("unlimited".to_string(), |c| c.to_string()),
        cfg.schemes
            .iter()
            .map(|k| k.label())
            .collect::<Vec<_>>()
            .join(",")
    );

    let start = Instant::now();
    let harness = cfg.harness;
    let out = out_dir.clone();
    let mut dumped = 0usize;
    let outcome = fuzz_with(&cfg, |finding| {
        println!(
            "leak: scheme={} case={} case-seed={:#x} |t|={:.1} gap={:.1}cy \
             ops={} (shrunk, {} step(s))",
            finding.scheme.label(),
            finding.case_index,
            finding.case_seed,
            finding.report.max_abs_t(),
            finding.report.max_mean_gap(),
            finding.program.prep.len() + finding.program.victim.len(),
            finding.shrink_steps,
        );
        let stem = format!(
            "finding-{dumped:02}-{}",
            finding.scheme.label().to_lowercase()
        );
        let entry = CorpusEntry {
            name: stem.clone(),
            note: format!(
                "fuzzer-found on {} (case {}, case-seed {:#x})",
                finding.scheme.label(),
                finding.case_index,
                finding.case_seed
            ),
            seed: finding.case_seed,
            rounds_per_class: harness.rounds_per_class,
            program: finding.program.clone(),
            leaky: vec![finding.scheme],
            clean: Vec::new(),
        };
        if let Err(e) = entry.save(&out.join(format!("{stem}.json"))) {
            eprintln!("warning: could not save {stem}.json: {e}");
        }
        if let Err(e) = dump_trace(finding, &harness, &out.join(format!("{stem}.trace.jsonl"))) {
            eprintln!("warning: could not dump {stem} trace: {e}");
        }
        dumped += 1;
    });

    let protected = outcome.protected_findings();
    println!(
        "leakfuzz: {} case(s) in {:.1}s{}; {} finding(s) ({} on protected schemes) -> {}",
        outcome.cases_run,
        start.elapsed().as_secs_f64(),
        if outcome.stopped_by_budget {
            " (budget)"
        } else {
            ""
        },
        outcome.findings.len(),
        protected.len(),
        out_dir.display(),
    );
    if !protected.is_empty() {
        for f in &protected {
            eprintln!(
                "ISOLATION REGRESSION: {} distinguishes secrets (|t|={:.1}, gap={:.1}cy)",
                f.scheme.label(),
                f.report.max_abs_t(),
                f.report.max_mean_gap()
            );
        }
        return Ok(ExitCode::from(2));
    }
    if outcome
        .findings
        .iter()
        .all(|f| f.scheme != SchemeKind::Baseline)
    {
        // Not fatal (a tiny --max-cases run may legitimately find
        // nothing), but worth shouting about: the Baseline channel is the
        // fuzzer's built-in positive control.
        eprintln!("warning: no Baseline finding — the distinguisher may have lost sensitivity");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let dir = arg_value(args, "--corpus")
        .map(PathBuf::from)
        .unwrap_or_else(corpus::default_corpus_dir);
    let entries = corpus::load_dir(&dir)?;
    if entries.is_empty() {
        return Err(format!("no .json entries under {}", dir.display()));
    }
    let cfg = HarnessConfig::default();
    let mut violations = Vec::new();
    for (path, entry) in &entries {
        let bad = entry.replay(&cfg);
        if bad.is_empty() {
            println!(
                "replay {}: ok ({} leaky, {} clean)",
                entry.name,
                entry.leaky.len(),
                entry.clean.len()
            );
        } else {
            for v in &bad {
                eprintln!("replay {}: FAIL: {v}", path.display());
            }
            violations.extend(bad);
        }
    }
    if !violations.is_empty() {
        eprintln!("replay: {} violation(s)", violations.len());
        return Ok(ExitCode::FAILURE);
    }
    println!("replay: {} corpus entr(ies) hold", entries.len());

    Ok(ExitCode::SUCCESS)
}

fn cmd_show(args: &[String]) -> Result<ExitCode, String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("show wants a corpus file path")?;
    let entry = CorpusEntry::load(Path::new(path))?;
    print!("{}", entry.to_json());
    println!();
    let cfg = HarnessConfig {
        rounds_per_class: entry.rounds_per_class,
        ..HarnessConfig::default()
    };
    for &kind in entry.leaky.iter().chain(entry.clean.iter()) {
        let report = run_program(kind, &entry.program, &cfg);
        println!(
            "{:16} flagged={:5} max|t|={:8.2} max-gap={:7.1}cy",
            kind.label(),
            report.flagged,
            report.max_abs_t(),
            report.max_mean_gap()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_seed_corpus(args: &[String]) -> Result<ExitCode, String> {
    let dir = arg_value(args, "--corpus")
        .map(PathBuf::from)
        .unwrap_or_else(corpus::default_corpus_dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let entry = corpus::metaleak_entry();
    let path = dir.join(format!("{}.json", entry.name));
    entry
        .save(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("seeded {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("show") => cmd_show(&args[1..]),
        Some("seed-corpus") => cmd_seed_corpus(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("leakfuzz: {msg}");
            ExitCode::FAILURE
        }
    }
}
