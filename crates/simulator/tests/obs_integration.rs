//! End-to-end observability checks on a small mix: the trace carries the
//! advertised event kinds with monotonic cycle stamps, the stats registry
//! reconciles with the per-model accessors, and observing a run does not
//! change its simulated outcome.

use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::obs::trace::{parse_jsonl, records_to_jsonl};
use ivl_sim_core::obs::{EventKind, ObsConfig, StatsRegistry, DEFAULT_TRACE_CAP};
use ivl_simulator::{run_mix_observed, RunConfig, SchemeKind};
use ivl_workloads::mixes::mix_by_name;

fn traced_cfg() -> ObsConfig {
    let mut cfg = ObsConfig::off();
    cfg.trace = true;
    cfg.trace_cap = DEFAULT_TRACE_CAP;
    cfg
}

#[test]
fn observed_run_produces_reconciling_artifacts() {
    // S-1 has the smallest footprints, so its init spikes complete (and
    // the warmup→measurement epoch flips) within a short run.
    let mix = mix_by_name("S-1").unwrap();
    let run = RunConfig {
        warmup_accesses: 2_000,
        measure_accesses: 60_000,
        seed: 7,
    };
    let sys = SystemConfig::default();
    let obs = run_mix_observed(mix, SchemeKind::IvPro, &run, &sys, &traced_cfg());
    assert!(
        obs.result.core_accesses > 0,
        "run must reach the measurement window"
    );

    // The trace must carry every advertised event family.
    assert!(!obs.events.is_empty());
    for tag in ["dram", "cache", "tree_walk", "nflb", "page_alloc", "epoch"] {
        assert!(
            obs.events.iter().any(|r| r.kind.tag() == tag),
            "missing {tag} events"
        );
    }
    // Sorted records are cycle-monotonic even though cores interleave.
    assert!(obs.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    // Exactly one measurement-epoch mark.
    assert_eq!(
        obs.events
            .iter()
            .filter(|r| matches!(r.kind, EventKind::Epoch { .. }))
            .count(),
        1
    );

    // JSONL round-trips the event stream (a slice keeps the test quick;
    // the serializer is line-oriented so coverage is per-record anyway).
    let head = &obs.events[..obs.events.len().min(20_000)];
    let parsed = parse_jsonl(&records_to_jsonl(head)).expect("trace JSONL parses");
    assert_eq!(parsed, head);

    // The registry reconciles with the figure-facing result.
    let reg = &obs.registry;
    let st = &obs.result.stats;
    assert_eq!(reg.counter("scheme.data_reads"), Some(st.data_reads));
    assert_eq!(reg.counter("scheme.data_writes"), Some(st.data_writes));
    assert_eq!(reg.counter("scheme.meta_reads"), Some(st.meta_reads));
    assert_eq!(reg.counter("scheme.verifications"), Some(st.verifications));
    assert_eq!(
        reg.counter("run.llc_miss_reads"),
        Some(obs.result.llc_miss_reads)
    );
    assert_eq!(
        reg.counter("run.core_accesses"),
        Some(obs.result.core_accesses)
    );
}

#[test]
fn baseline_trace_covers_tree_walks_per_domain() {
    let mix = mix_by_name("S-1").unwrap();
    let run = RunConfig::smoke_test();
    let sys = SystemConfig::default();
    let obs = run_mix_observed(mix, SchemeKind::Baseline, &run, &sys, &traced_cfg());
    let walks = obs
        .events
        .iter()
        .filter(|r| matches!(r.kind, EventKind::TreeWalkLevel { .. }))
        .count();
    assert!(walks > 0, "baseline BMT walks must be traced");
    assert!(
        obs.events
            .iter()
            .filter(|r| r.component == "scheme")
            .all(|r| r.domain.is_some()),
        "scheme events carry the requesting domain"
    );
}

fn timeline_cfg() -> ObsConfig {
    let mut cfg = ObsConfig::off();
    cfg.timeline = true;
    cfg
}

#[test]
fn timeline_window_sums_reconcile_with_registry_deltas() {
    // The timeline clears at the warmup→measurement flip — the same point
    // the registry snapshot is taken — so per-window sums over the
    // measurement window must equal the registry's epoch deltas exactly.
    let mix = mix_by_name("S-1").unwrap();
    let run = RunConfig {
        warmup_accesses: 2_000,
        measure_accesses: 60_000,
        seed: 7,
    };
    let sys = SystemConfig::default();
    let cfg = timeline_cfg();

    let obs = run_mix_observed(mix, SchemeKind::IvPro, &run, &sys, &cfg);
    assert!(obs.result.core_accesses > 0, "run must reach measurement");
    assert!(!obs.timeline.is_empty(), "timeline must record series");
    assert_eq!(obs.timeline.dropped(), 0, "default cap must not evict");
    assert_eq!(obs.registry.counter("obs.timeline.dropped"), Some(0));

    let tl = &obs.timeline;
    let reg = &obs.registry;
    let hot = reg.counter("scheme.hot_migrations").unwrap_or(0)
        + reg.counter("scheme.hot_demotions").unwrap_or(0);
    let expect = [
        ("dram.reads", reg.counter("dram.reads").unwrap_or(0)),
        ("dram.writes", reg.counter("dram.writes").unwrap_or(0)),
        (
            "llc.misses",
            reg.ratio("llc.data").map_or(0, |hm| hm.misses()),
        ),
        ("llc.evictions", reg.counter("llc.evictions").unwrap_or(0)),
        (
            "scheme.walk_legs",
            reg.counter("scheme.path_len_sum").unwrap_or(0),
        ),
        (
            "scheme.nflb_misses",
            reg.ratio("scheme.nflb").map_or(0, |hm| hm.misses()),
        ),
        (
            "scheme.nfl_claims",
            reg.counter("scheme.nfl_claims").unwrap_or(0),
        ),
        ("scheme.hot_churn", hot),
    ];
    for (series, v) in expect {
        assert_eq!(
            tl.counter_sum(series).unwrap_or(0),
            v,
            "{series} window sum vs registry"
        );
    }
}

/// The registry without the obs layer's own `obs.*` bookkeeping paths.
fn model_stats(reg: &StatsRegistry) -> StatsRegistry {
    let mut out = StatsRegistry::new();
    for (path, value) in reg.iter().filter(|(p, _)| !p.starts_with("obs.")) {
        out.set(path, value.clone());
    }
    out
}

#[test]
fn observation_does_not_change_the_simulation() {
    let mix = mix_by_name("S-2").unwrap();
    let run = RunConfig::smoke_test();
    let sys = SystemConfig::default();
    let plain = run_mix_observed(mix, SchemeKind::IvBasic, &run, &sys, &ObsConfig::off());
    assert!(plain.events.is_empty());
    assert!(plain.timeline.is_empty());
    let plain_result = format!("{:?}", plain.result);
    let plain_stats = model_stats(&plain.registry);

    let mut both = traced_cfg();
    both.timeline = true;
    for (label, cfg) in [
        ("trace", traced_cfg()),
        ("timeline", timeline_cfg()),
        ("trace+timeline", both),
    ] {
        let observed = run_mix_observed(mix, SchemeKind::IvBasic, &run, &sys, &cfg);
        assert_eq!(
            format!("{:?}", observed.result),
            plain_result,
            "{label}: observing changed the MixResult"
        );
        assert_eq!(
            model_stats(&observed.registry),
            plain_stats,
            "{label}: observing changed the registry"
        );
        assert_eq!(observed.events.is_empty(), !cfg.trace, "{label}: trace");
        assert_eq!(
            observed.timeline.is_empty(),
            !cfg.timeline,
            "{label}: timeline"
        );
    }
}
