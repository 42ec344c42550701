//! One-shot observability run: simulate a mix, run a short attack, and
//! write the combined trace (JSONL) plus the stats registry (JSON) to the
//! exact paths `IVL_TRACE` / `IVL_STATS_JSON` name (defaults:
//! `ivl_trace.jsonl` / `ivl_stats.json`). The trace is always on; the
//! other `IVL_*` variables apply as in any run (`ObsConfig::from_env`).
//!
//! The binary then *validates its own artifacts* — the JSONL parses back,
//! the required event families are present with monotonic cycle stamps,
//! and the stats JSON reconciles with the in-memory accessors — and exits
//! nonzero if anything is off. CI uses it as the observability smoke test.
//!
//! Usage: `obs_run [MIX] [SCHEME] [--quick]`, e.g. `obs_run S-1 IvPro`.

use std::path::PathBuf;
use std::process::ExitCode;

use ivl_attack::{run_attack_with_obs, AttackConfig, TargetScheme};
use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::obs::trace::{parse_jsonl, probe_observations};
use ivl_sim_core::obs::{
    write_stats_json, write_trace_jsonl, Obs, ObsConfig, StatsRegistry, Timeline, Tracer,
};
use ivl_simulator::{run_mix_observed, RunConfig, SchemeKind};
use ivl_workloads::mixes::mix_by_name;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    let mix_name = args.first().map(String::as_str).unwrap_or("S-1");
    let scheme_name = args.get(1).map(String::as_str).unwrap_or("IvPro");
    let Some(mix) = mix_by_name(mix_name) else {
        eprintln!("unknown mix {mix_name:?}");
        return ExitCode::FAILURE;
    };
    let Some(scheme) = SchemeKind::from_label(scheme_name) else {
        eprintln!("unknown scheme {scheme_name:?}");
        return ExitCode::FAILURE;
    };

    // Long enough to leave warmup on the small mixes unless quick mode.
    let run = if ivl_bench::quick_mode() {
        RunConfig::smoke_test()
    } else {
        RunConfig {
            warmup_accesses: 2_000,
            measure_accesses: 60_000,
            seed: 2024,
        }
    };

    let mut obs_cfg = ObsConfig::from_env();
    obs_cfg.trace = true;

    eprintln!("[obs_run] simulating {mix_name} under {}", scheme.label());
    let sys = SystemConfig::default();
    let observed = run_mix_observed(mix, scheme, &run, &sys, &obs_cfg);

    // A short attack against the global tree, traced separately; its
    // cycles are offset past the mix run's so the merged stream keeps one
    // monotonic timeline.
    eprintln!("[obs_run] running attack probe trace");
    let attack_obs = Obs {
        tracer: Tracer::bounded(obs_cfg.trace_cap, obs_cfg.trace_filter.clone()),
        timeline: Timeline::disabled(),
    };
    let attack = run_attack_with_obs(
        TargetScheme::GlobalTree,
        &AttackConfig {
            bits: 64,
            noise: 0.0,
            seed: 7,
        },
        &attack_obs,
    );
    let mut events = observed.events;
    let offset = events.last().map(|r| r.cycle + 1).unwrap_or(0);
    let seq_offset = events.len() as u64;
    for mut r in attack_obs.tracer.sorted_records() {
        r.cycle += offset;
        r.seq += seq_offset;
        events.push(r);
    }

    let mut registry = observed.registry;
    registry.set_gauge("attack.accuracy", attack.accuracy);
    registry.set_counter("attack.probes", 2 * attack.samples.len() as u64);

    let trace_path = obs_cfg
        .trace_path
        .unwrap_or_else(|| PathBuf::from("ivl_trace.jsonl"));
    let stats_path = obs_cfg
        .stats_path
        .unwrap_or_else(|| PathBuf::from("ivl_stats.json"));
    if let Err(e) = write_trace_jsonl(&events, &trace_path) {
        eprintln!("cannot write {}: {e}", trace_path.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = write_stats_json(&registry, &stats_path) {
        eprintln!("cannot write {}: {e}", stats_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[obs_run] wrote {} ({} events) and {} ({} stats)",
        trace_path.display(),
        events.len(),
        stats_path.display(),
        registry.len()
    );

    // ---- Self-validation -------------------------------------------------
    let mut errors: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            errors.push(what.to_string());
        }
    };

    let raw = std::fs::read_to_string(&trace_path).expect("read trace back");
    match parse_jsonl(&raw) {
        Err((line, msg)) => check(
            false,
            &format!("trace JSONL unparseable at line {line}: {msg}"),
        ),
        Ok(parsed) => {
            check(
                parsed.len() == events.len(),
                "trace round-trip lost records",
            );
            check(
                parsed.windows(2).all(|w| w[0].cycle <= w[1].cycle),
                "trace cycles not monotonic",
            );
            let mut required = vec!["dram", "cache", "probe"];
            if scheme != SchemeKind::Insecure && scheme != SchemeKind::Baseline {
                required.extend(["tree_walk", "nflb"]);
            }
            for tag in required {
                check(
                    parsed.iter().any(|r| r.kind.tag() == tag),
                    &format!("missing {tag} events"),
                );
            }
            check(
                probe_observations(&parsed).len() == 2 * attack.samples.len(),
                "probe forensics do not match the attack samples",
            );
        }
    }

    let stats_raw = std::fs::read_to_string(&stats_path).expect("read stats back");
    match StatsRegistry::parse_json(&stats_raw) {
        Err(e) => check(false, &format!("stats JSON unparseable: {e}")),
        Ok(parsed) => {
            check(
                parsed.counter("scheme.data_reads") == Some(observed.result.stats.data_reads),
                "scheme.data_reads does not reconcile with the model accessor",
            );
            check(
                parsed.counter("run.core_accesses") == Some(observed.result.core_accesses),
                "run.core_accesses does not reconcile",
            );
            check(
                parsed.gauge("attack.accuracy") == Some(attack.accuracy),
                "attack.accuracy did not round-trip",
            );
            // Idle-cycle accounting must see idle time on the default
            // mix: cores sleep between misses, so touched banks always
            // free up ahead of the next request.
            check(
                parsed.counter("dram.idle_cycles").is_some_and(|v| v > 0),
                "dram.idle_cycles is zero — idle-cycle accounting saw no idle bank time",
            );
        }
    }

    if errors.is_empty() {
        eprintln!("[obs_run] validation OK");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("[obs_run] FAIL: {e}");
        }
        ExitCode::FAILURE
    }
}
