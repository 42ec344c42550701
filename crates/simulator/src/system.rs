//! The multicore engine and per-mix runner.

use ivl_cache::randomized::RandomizedCache;
use ivl_cache::set_assoc::SetAssocCache;
use ivl_cache::CacheModel;
use ivl_dram::DramModel;
use ivl_secure_mem::baseline::GlobalBmtSubsystem;
use ivl_secure_mem::subsystem::{IntegritySubsystem, IvStats, NoProtection};
use ivl_sim_core::addr::BLOCKS_PER_PAGE;
use ivl_sim_core::config::{IvVariant, SystemConfig};
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::obs::timeline::write_timeline_jsonl;
use ivl_sim_core::obs::{
    decorate_path, path_tag, write_stats_json, write_trace_jsonl, CacheKind, EventKind, Obs,
    ObsConfig, StatsRegistry, TimelineData, TraceRecord,
};
use ivl_sim_core::stats::HitMiss;
use ivl_sim_core::Cycle;
use ivl_workloads::mixes::Mix;
use ivl_workloads::trace::{MemEvent, TraceGenerator};
use ivleague::scheme::{AllocatorKind, IvLeagueSubsystem};

use crate::feed::{with_feed, Claim};

/// The schemes the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Secure global Bonsai Merkle Tree (the paper's Baseline).
    Baseline,
    /// IvLeague with leaf-only mapping.
    IvBasic,
    /// IvLeague with top-down intermediate-node mapping.
    IvInvert,
    /// IvLeague-Invert plus the hotpage region.
    IvPro,
    /// IvLeague with the naive current-TreeLing bit-vector allocator.
    BvV1,
    /// IvLeague with the naive cross-TreeLing bit-vector allocator.
    BvV2,
    /// No memory protection (ablation floor).
    Insecure,
}

impl SchemeKind {
    /// The four schemes of Figures 15/16/18/19, in legend order.
    pub const MAIN: [SchemeKind; 4] = [
        SchemeKind::Baseline,
        SchemeKind::IvBasic,
        SchemeKind::IvInvert,
        SchemeKind::IvPro,
    ];

    /// Every scheme, in evaluation order (the leak-search fuzzer sweeps
    /// this list minus [`Insecure`](SchemeKind::Insecure)).
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Baseline,
        SchemeKind::IvBasic,
        SchemeKind::IvInvert,
        SchemeKind::IvPro,
        SchemeKind::BvV1,
        SchemeKind::BvV2,
        SchemeKind::Insecure,
    ];

    /// Whether the scheme's isolation claims say the metadata timing
    /// channel must be closed. `Baseline` shares one global tree (the
    /// MetaLeak target) and `Insecure` has no metadata at all; every
    /// IvLeague variant — whatever its allocator — must show no
    /// attacker-distinguishable metadata signal.
    pub fn is_protected(self) -> bool {
        !matches!(self, SchemeKind::Baseline | SchemeKind::Insecure)
    }

    /// Parses a figure-legend label (or the common CLI aliases) back into
    /// the scheme; the inverse of [`label`](Self::label).
    pub fn from_label(name: &str) -> Option<SchemeKind> {
        let n = name.to_ascii_lowercase();
        Some(match n.as_str() {
            "baseline" => SchemeKind::Baseline,
            "ivbasic" | "ivleague-basic" | "basic" => SchemeKind::IvBasic,
            "ivinvert" | "ivleague-invert" | "invert" => SchemeKind::IvInvert,
            "ivpro" | "ivleague-pro" | "pro" => SchemeKind::IvPro,
            "bv-v1" | "bvv1" => SchemeKind::BvV1,
            "bv-v2" | "bvv2" => SchemeKind::BvV2,
            "insecure" | "noprotection" => SchemeKind::Insecure,
            _ => return None,
        })
    }

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "Baseline",
            SchemeKind::IvBasic => "IvLeague-Basic",
            SchemeKind::IvInvert => "IvLeague-Invert",
            SchemeKind::IvPro => "IvLeague-Pro",
            SchemeKind::BvV1 => "BV-v1",
            SchemeKind::BvV2 => "BV-v2",
            SchemeKind::Insecure => "NoProtection",
        }
    }

    /// Builds the integrity subsystem for this scheme.
    pub fn build(self, cfg: &SystemConfig) -> SchemeInstance {
        match self {
            SchemeKind::Baseline => {
                SchemeInstance::Baseline(GlobalBmtSubsystem::new(&cfg.secure, cfg.total_pages()))
            }
            SchemeKind::IvBasic => SchemeInstance::Iv(IvLeagueSubsystem::new(
                cfg,
                IvVariant::Basic,
                AllocatorKind::Nfl,
            )),
            SchemeKind::IvInvert => SchemeInstance::Iv(IvLeagueSubsystem::new(
                cfg,
                IvVariant::Invert,
                AllocatorKind::Nfl,
            )),
            SchemeKind::IvPro => SchemeInstance::Iv(IvLeagueSubsystem::new(
                cfg,
                IvVariant::Pro,
                AllocatorKind::Nfl,
            )),
            SchemeKind::BvV1 => SchemeInstance::Iv(IvLeagueSubsystem::new(
                cfg,
                IvVariant::Pro,
                AllocatorKind::BvV1,
            )),
            SchemeKind::BvV2 => SchemeInstance::Iv(IvLeagueSubsystem::new(
                cfg,
                IvVariant::Pro,
                AllocatorKind::BvV2,
            )),
            SchemeKind::Insecure => SchemeInstance::None(NoProtection::new()),
        }
    }
}

/// A concrete scheme instance; an enum (rather than `Box<dyn …>`) so the
/// runner can reach scheme-specific state (forest utilization) afterwards.
// Only a handful of instances exist per run, so the size skew between
// variants costs nothing; boxing would just add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SchemeInstance {
    /// Global-BMT baseline.
    Baseline(GlobalBmtSubsystem),
    /// Any IvLeague variant/allocator.
    Iv(IvLeagueSubsystem),
    /// No protection.
    None(NoProtection),
}

impl SchemeInstance {
    /// The instance as the trait object the memory controller drives.
    /// Public so external harnesses (the attack driver, the leak-search
    /// fuzzer) can run arbitrary access programs against a built scheme.
    pub fn as_subsystem(&mut self) -> &mut dyn IntegritySubsystem {
        match self {
            SchemeInstance::Baseline(s) => s,
            SchemeInstance::Iv(s) => s,
            SchemeInstance::None(s) => s,
        }
    }

    /// Shared-reference counterpart of [`as_subsystem`](Self::as_subsystem).
    pub fn as_subsystem_ref(&self) -> &dyn IntegritySubsystem {
        match self {
            SchemeInstance::Baseline(s) => s,
            SchemeInstance::Iv(s) => s,
            SchemeInstance::None(s) => s,
        }
    }

    /// Scheme statistics so far (monotonic; see [`IvStats::delta`]).
    pub fn stats(&self) -> &IvStats {
        match self {
            SchemeInstance::Baseline(s) => s.stats(),
            SchemeInstance::Iv(s) => s.stats(),
            SchemeInstance::None(s) => s.stats(),
        }
    }
}

/// Run lengths and seed of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Memory accesses per core discarded as warmup (after the footprint
    /// ramp completes; the ramp itself is also warmup).
    pub warmup_accesses: u64,
    /// Memory accesses per core measured.
    pub measure_accesses: u64,
    /// Trace seed.
    pub seed: u64,
}

impl RunConfig {
    /// The configuration the figure harness uses.
    pub fn evaluation() -> Self {
        RunConfig {
            warmup_accesses: 100_000,
            measure_accesses: 400_000,
            seed: 2024,
        }
    }

    /// A tiny configuration for unit/integration tests.
    pub fn smoke_test() -> Self {
        RunConfig {
            warmup_accesses: 2_000,
            measure_accesses: 10_000,
            seed: 7,
        }
    }
}

/// Per-core measurement.
#[derive(Debug, Clone)]
pub struct CoreResult {
    /// Benchmark running on this core.
    pub benchmark: &'static str,
    /// Retired instructions in the measurement window.
    pub instrs: u64,
    /// Cycles in the measurement window.
    pub cycles: Cycle,
    /// Memory-idle IPC of this benchmark (normalization constant).
    pub base_ipc: f64,
}

impl CoreResult {
    /// Achieved IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// IPC normalized to the benchmark's memory-idle IPC.
    pub fn relative_ipc(&self) -> f64 {
        self.ipc() / self.base_ipc
    }
}

/// Result of one (mix, scheme) simulation.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Mix name ("S-1" …).
    pub mix: &'static str,
    /// Scheme that ran.
    pub scheme: SchemeKind,
    /// Per-core results.
    pub cores: Vec<CoreResult>,
    /// Integrity-subsystem statistics over the measurement window.
    pub stats: IvStats,
    /// Per-benchmark average verification path lengths cannot be split out
    /// of the shared subsystem, so path length is reported mix-wide.
    pub avg_path_length: f64,
    /// Whether any page allocation failed (BV-v1 exhaustion → "✗").
    pub failed: bool,
    /// Forest utilization statistics (NFL runs only).
    pub utilization: Option<f64>,
    /// Untracked slots at end of run (NFL runs only).
    pub untracked_slots: Option<u64>,
    /// Slots leaked by the naive BV-v1 allocator (BV runs only).
    pub bv_leaked_slots: Option<u64>,
    /// Bit-vector blocks scanned by the naive allocators (BV runs only).
    pub bv_blocks_scanned: Option<u64>,
    /// LLC-missing data reads observed in the measurement window.
    pub llc_miss_reads: u64,
    /// Sum of their critical-path latencies (cycles).
    pub read_latency_sum: u64,
    /// Memory accesses issued by the cores in the measurement window.
    pub core_accesses: u64,
}

impl MixResult {
    /// Mean LLC-miss read latency.
    pub fn avg_read_latency(&self) -> f64 {
        if self.llc_miss_reads == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.llc_miss_reads as f64
        }
    }
}

impl MixResult {
    /// Weighted IPC: mean of per-core IPCs normalized to each benchmark's
    /// memory-idle IPC (the per-benchmark constant plays the role of the
    /// alone-run IPC in the classical weighted-speedup metric; it cancels
    /// in the scheme-vs-Baseline ratios the figures report).
    pub fn weighted_ipc(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().map(CoreResult::relative_ipc).sum::<f64>() / self.cores.len() as f64
    }
}

struct Core {
    /// Index into the per-process generator table (threads of a process
    /// share one generator: one heap, one footprint).
    gen: usize,
    domain: DomainId,
    l2: SetAssocCache,
    /// Local clock.
    now: Cycle,
    /// Instructions retired since measurement start.
    instrs: u64,
    /// Memory accesses seen since warmup start (for phase control).
    accesses: u64,
    /// Measurement-window start time.
    measure_start: Cycle,
    measure_instrs_start: u64,
    benchmark: &'static str,
    base_ipc: f64,
    mlp: f64,
    inv_ipc: f64,
}

/// One observed (mix, scheme) run: the classic result plus the measured
/// stats registry (epoch-delta'd over the measurement window, with
/// end-of-run gauges) and the cycle-sorted trace events.
#[derive(Debug)]
pub struct ObservedRun {
    /// The figure-facing result, identical to what [`run_mix`] returns.
    pub result: MixResult,
    /// Registry of every exported statistic; counters/ratios/histograms
    /// cover the measurement window only, gauges the end-of-run state.
    pub registry: StatsRegistry,
    /// Trace records, stably sorted by `(cycle, seq)`; empty unless the
    /// config enables tracing.
    pub events: Vec<TraceRecord>,
    /// Windowed simulated-time series over the measurement window (cleared
    /// at the warmup→measurement flip); empty unless the config enables the
    /// timeline.
    pub timeline: TimelineData,
}

/// Runs one mix under one scheme.
pub fn run_mix(mix: &Mix, scheme_kind: SchemeKind, run: &RunConfig) -> MixResult {
    let cfg = SystemConfig::default();
    run_mix_with_config(mix, scheme_kind, run, &cfg)
}

/// Runs one mix under one scheme with an explicit system configuration
/// (used by the sensitivity studies of Figure 20).
///
/// Observability is driven by the environment (`IVL_TRACE`,
/// `IVL_STATS_JSON`, `IVL_TIMELINE`, …), read once per call: when any sink
/// is requested the run records through [`run_mix_observed`] and writes the
/// sinks to paths decorated with a `<mix>.<scheme>` tag, so parallel matrix
/// runs never clobber each other's files.
pub fn run_mix_with_config(
    mix: &Mix,
    scheme_kind: SchemeKind,
    run: &RunConfig,
    cfg: &SystemConfig,
) -> MixResult {
    let obs_cfg = ObsConfig::from_env();
    if !obs_cfg.any_enabled() {
        return run_mix_observed(mix, scheme_kind, run, cfg, &ObsConfig::off()).result;
    }
    let observed = run_mix_observed(mix, scheme_kind, run, cfg, &obs_cfg);
    let tag = format!("{}.{}", path_tag(mix.name), path_tag(scheme_kind.label()));
    if let Some(p) = &obs_cfg.trace_path {
        let path = decorate_path(p, &tag);
        if let Err(e) = write_trace_jsonl(&observed.events, &path) {
            eprintln!("warning: could not write trace {}: {e}", path.display());
        }
    }
    if let Some(p) = &obs_cfg.stats_path {
        let path = decorate_path(p, &tag);
        if let Err(e) = write_stats_json(&observed.registry, &path) {
            eprintln!("warning: could not write stats {}: {e}", path.display());
        }
    }
    if let Some(p) = &obs_cfg.timeline_path {
        let path = decorate_path(p, &tag);
        if let Err(e) = write_timeline_jsonl(&observed.timeline, &path) {
            eprintln!("warning: could not write timeline {}: {e}", path.display());
        }
    }
    observed.result
}

/// Exports everything every model knows into one registry snapshot.
fn export_run_stats(
    scheme: &SchemeInstance,
    dram: &DramModel,
    llc: &RandomizedCache,
    cores: &[Core],
    reg: &mut StatsRegistry,
) {
    scheme.as_subsystem_ref().export_stats("scheme", reg);
    dram.export_stats("dram", reg);
    let lt = llc.tally();
    reg.set_ratio("llc.data", HitMiss::from_parts(lt.hits, lt.misses));
    reg.set_counter("llc.evictions", lt.evictions);
    reg.set_counter("llc.dirty_evictions", lt.dirty_evictions);
    for (i, c) in cores.iter().enumerate() {
        let t = c.l2.tally();
        reg.set_ratio(
            &format!("core{i}.l2"),
            HitMiss::from_parts(t.hits, t.misses),
        );
    }
}

/// Runs one mix under one scheme while recording the observability
/// artifacts `obs_cfg` asks for. With [`ObsConfig::off`] this is exactly
/// [`run_mix_with_config`] minus the environment lookup: the tracer and
/// timeline handles stay disabled and every instrument collapses to one
/// branch.
///
/// Statistics are measured with **epoch deltas**, not resets: at the
/// warmup→measurement flip the run snapshots the full registry (and the
/// raw [`IvStats`]), and the reported values are the end-of-run export
/// minus that snapshot. No model mutates its counters at the flip, so a
/// later consumer can still read lifetime totals off the models.
pub fn run_mix_observed(
    mix: &Mix,
    scheme_kind: SchemeKind,
    run: &RunConfig,
    cfg: &SystemConfig,
    obs_cfg: &ObsConfig,
) -> ObservedRun {
    let obs = Obs::from_config(obs_cfg);
    // Cached enabled flags: the hot loop branches on plain bools instead of
    // re-querying the handles per event.
    let trace_on = obs.tracer.enabled();
    let tl_on = obs.timeline.enabled();
    let mut scheme = scheme_kind.build(cfg);
    scheme.as_subsystem().attach_obs(&obs);
    let mut dram = DramModel::new(&cfg.dram);
    dram.set_obs(obs.clone());
    let mut llc = RandomizedCache::with_geometry(
        cfg.llc.cache.capacity_bytes,
        cfg.llc.cache.ways,
        cfg.llc.cache.line_bytes,
        run.seed ^ 0x11C,
    );

    // Lay the four processes out in disjoint quarters of physical memory;
    // worker threads of a process share its heap (one generator).
    let threads = mix.class.threads_per_process();
    let total_pages = cfg.total_pages();
    let proc_range = total_pages / 4;
    let mut gens: Vec<TraceGenerator> = Vec::new();
    let mut cores: Vec<Core> = Vec::new();
    for (pi, profile) in mix.profiles().into_iter().enumerate() {
        let domain = DomainId::new_unchecked(pi as u16 + 1);
        let base = pi as u64 * proc_range;
        gens.push(TraceGenerator::with_footprint(
            profile,
            domain,
            base,
            run.seed.wrapping_mul(31).wrapping_add(pi as u64),
            profile.footprint_pages(),
            proc_range.next_power_of_two() / 2,
        ));
        for _ti in 0..threads {
            cores.push(Core {
                gen: pi,
                domain,
                // The trace models post-L1 traffic, so the first private
                // level a core owns here is its L2.
                l2: SetAssocCache::with_geometry(
                    cfg.core.l2.capacity_bytes,
                    cfg.core.l2.ways,
                    cfg.core.l2.line_bytes,
                ),
                now: 0,
                instrs: 0,
                accesses: 0,
                measure_start: 0,
                measure_instrs_start: 0,
                benchmark: profile.name,
                base_ipc: profile.base_ipc,
                mlp: profile.mlp,
                inv_ipc: 1.0 / profile.base_ipc,
            });
        }
    }

    let warmup_total = run.warmup_accesses;
    let measure_total = warmup_total + run.measure_accesses;
    let mut measuring = false;
    let mut llc_miss_reads = 0u64;
    let mut read_latency_sum = 0u64;
    let mut core_accesses = 0u64;
    // Epoch snapshots taken at the warmup→measurement flip; measured
    // values are end-of-run exports minus these.
    let mut epoch_stats = IvStats::default();
    let mut epoch_reg = StatsRegistry::new();
    // Warm-up progress without a scan per event: a count of cores still
    // below `warmup_total`, and a bitmask of the (four) generators not yet
    // `warmed_up()`. Both predicates are monotone (a core's access count
    // only grows; a generator's live set stays at its footprint once the
    // spike is over), so each core and generator is counted off exactly
    // once, right after the event that carries it across. The mask is one
    // word, not a heap `Vec`: see DESIGN.md §6 on setup faults.
    let mut cold_cores = cores.iter().filter(|c| c.accesses < warmup_total).count();
    let mut cold_gens: u32 = gens
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.warmed_up())
        .fold(0, |mask, (i, _)| mask | (1 << i));

    // The trace feed: a helper thread makes the generators' events when a
    // CPU is idle, else the loop steps them inline. Either way it takes the
    // same events in the same order (see `feed`).
    let claim = Claim::take(measure_total > 0);
    with_feed(gens, claim.helper(), |feed| {
        // Least-advanced core still inside its access budget executes next,
        // ties to the lowest core index (loose global ordering). A scan over at
        // most 8 cores; a core past its budget drops out of the filter.
        while let Some(idx) = cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.accesses < measure_total)
            .min_by_key(|(_, c)| c.now)
            .map(|(i, _)| i)
        {
            // Flip to the measurement window once every core leaves warmup and
            // its footprint is resident.
            if !measuring && cold_cores == 0 && cold_gens == 0 {
                measuring = true;
                epoch_stats = *scheme.stats();
                export_run_stats(&scheme, &dram, &llc, &cores, &mut epoch_reg);
                // Clear at the same flip the registry snapshot is taken, so the
                // timeline's window sums equal the registry's epoch deltas.
                obs.timeline.clear();
                if obs.tracer.enabled() {
                    let flip = cores.iter().map(|c| c.now).min().unwrap_or(0);
                    obs.tracer.emit(
                        flip,
                        "run",
                        None,
                        None,
                        EventKind::Epoch { label: "measure" },
                    );
                }
                for c in &mut cores {
                    c.measure_start = c.now;
                    c.measure_instrs_start = c.instrs;
                }
            }

            let core = &mut cores[idx];
            let event = feed.next_event(core.gen);
            // Labeled so the cache-hit early exits still fall through to the
            // generator warm-up count below (a plain `continue` would skip it).
            'event: {
                match event {
                    MemEvent::Access {
                        block,
                        is_write,
                        gap_instrs,
                    } => {
                        core.accesses += 1;
                        if core.accesses == warmup_total {
                            cold_cores -= 1;
                        }
                        if measuring {
                            core_accesses += 1;
                        }
                        core.instrs += gap_instrs;
                        core.now += (gap_instrs as f64 * core.inv_ipc) as Cycle;

                        // The trace models post-L1 traffic (see ivl-workloads):
                        // the first hierarchy level consulted is the private L2.
                        let key = block.index();
                        core.now += cfg.core.l2.hit_latency;
                        let l2 = core.l2.access(key, is_write);
                        if trace_on {
                            obs.tracer.emit(
                                core.now,
                                "cache",
                                Some(core.domain),
                                Some(idx as u8),
                                EventKind::CacheAccess {
                                    cache: CacheKind::L2,
                                    hit: l2.hit,
                                    evicted: l2.evicted.is_some(),
                                },
                            );
                        }
                        if l2.hit {
                            break 'event;
                        }
                        // A dirty L2 victim is written back into the LLC after
                        // the demand access.
                        let llc_writeback = l2.evicted.filter(|e| e.dirty).map(|e| e.key);
                        core.now += cfg.llc.cache.hit_latency - cfg.core.l2.hit_latency;
                        let llc_out = llc.access(key, is_write);
                        let llc_hit = llc_out.hit;
                        if tl_on {
                            ivl_cache::timeline_outcome(
                                &obs.timeline,
                                core.now,
                                &llc_out,
                                "llc.misses",
                                "llc.evictions",
                            );
                        }
                        if trace_on {
                            obs.tracer.emit(
                                core.now,
                                "cache",
                                Some(core.domain),
                                Some(idx as u8),
                                EventKind::CacheAccess {
                                    cache: CacheKind::Llc,
                                    hit: llc_hit,
                                    evicted: llc_out.evicted.is_some(),
                                },
                            );
                        }
                        if let Some(e) = llc_out.evicted.filter(|e| e.dirty) {
                            // LLC dirty eviction: secure write-back to memory.
                            scheme.as_subsystem().data_access(
                                core.now,
                                &mut dram,
                                ivl_sim_core::addr::BlockAddr::new(e.key),
                                core.domain,
                                true,
                            );
                        }
                        if let Some(wb) = llc_writeback {
                            let out = llc.access(wb, true);
                            if tl_on {
                                ivl_cache::timeline_outcome(
                                    &obs.timeline,
                                    core.now,
                                    &out,
                                    "llc.misses",
                                    "llc.evictions",
                                );
                            }
                            if let Some(e) = out.evicted.filter(|e| e.dirty) {
                                scheme.as_subsystem().data_access(
                                    core.now,
                                    &mut dram,
                                    ivl_sim_core::addr::BlockAddr::new(e.key),
                                    core.domain,
                                    true,
                                );
                            }
                        }
                        if llc_hit {
                            break 'event;
                        }
                        // LLC miss: the secure memory path.
                        let done = scheme.as_subsystem().data_access(
                            core.now,
                            &mut dram,
                            block,
                            core.domain,
                            is_write,
                        );
                        let latency = done.saturating_sub(core.now);
                        if measuring && !is_write {
                            llc_miss_reads += 1;
                            read_latency_sum += latency;
                        }
                        // MLP hides service latency but not bandwidth queueing:
                        // split the observed latency into a service portion (capped)
                        // that overlaps across outstanding misses, and a queueing
                        // remainder that throttles the core at full weight.
                        let service = latency.min(400);
                        let queueing = latency - service;
                        core.now += queueing + (service as f64 / core.mlp) as Cycle;
                    }
                    MemEvent::Alloc { page } => {
                        let done = scheme.as_subsystem().page_alloc(
                            core.now,
                            &mut dram,
                            page,
                            core.domain,
                        );
                        // Page-fault handling overhead (identical across schemes)
                        // plus the scheme's allocation work.
                        core.now = done + 200;
                        core.instrs += 50;
                    }
                    MemEvent::Dealloc { page } => {
                        // TLB shootdown semantics: a freed page's lines are flushed
                        // from the hierarchy, so no write-back of a dead page can
                        // reach the integrity machinery later.
                        let first = page.block(0).index();
                        let blocks = first..first + BLOCKS_PER_PAGE as u64;
                        core.l2.invalidate_range(blocks.clone());
                        llc.invalidate_range(blocks);
                        let done = scheme.as_subsystem().page_dealloc(
                            core.now,
                            &mut dram,
                            page,
                            core.domain,
                        );
                        core.now = done + 100;
                        core.instrs += 30;
                    }
                }
            }

            let g = cores[idx].gen;
            if cold_gens & (1 << g) != 0 && feed.warmed_up(g) {
                cold_gens &= !(1 << g);
            }
        }
    });

    // Measurement-window statistics: delta against the epoch snapshot
    // instead of having reset the models at the flip.
    let stats = scheme.stats().delta(&epoch_stats);
    let (utilization, untracked) = match &scheme {
        SchemeInstance::Iv(iv) => match iv.forest() {
            Some(f) => (
                Some(f.stats().mean_utilization()),
                Some(f.stats().untracked_slots),
            ),
            None => (None, None),
        },
        _ => (None, None),
    };
    let (bv_leaked, bv_scanned) = match &scheme {
        SchemeInstance::Iv(iv) => match iv.bv() {
            Some(b) => (Some(b.leaked_slots()), Some(b.total_blocks_scanned())),
            None => (None, None),
        },
        _ => (None, None),
    };

    let core_results: Vec<CoreResult> = cores
        .iter()
        .map(|c| CoreResult {
            benchmark: c.benchmark,
            instrs: c.instrs - c.measure_instrs_start,
            cycles: c.now - c.measure_start,
            base_ipc: c.base_ipc,
        })
        .collect();

    let mut end_reg = StatsRegistry::new();
    export_run_stats(&scheme, &dram, &llc, &cores, &mut end_reg);
    let mut registry = end_reg.delta(&epoch_reg);
    registry.set_counter("run.core_accesses", core_accesses);
    registry.set_counter("run.llc_miss_reads", llc_miss_reads);
    registry.set_counter("run.read_latency_sum", read_latency_sum);
    // The obs-layer truncation counters are exported after the delta so the
    // epoch subtraction never touches them: a nonzero value means a ring
    // dropped data silently, visible in every JSON snapshot.
    if obs.tracer.enabled() {
        registry.set_counter("obs.trace.dropped", obs.tracer.dropped());
    }
    if tl_on {
        registry.set_counter("obs.timeline.dropped", obs.timeline.dropped());
    }
    let events = obs.tracer.sorted_records();
    let timeline = obs.timeline.snapshot();

    let result = MixResult {
        mix: mix.name,
        scheme: scheme_kind,
        avg_path_length: stats.avg_path_length(),
        failed: stats.alloc_failures > 0,
        stats,
        cores: core_results,
        utilization,
        untracked_slots: untracked,
        bv_leaked_slots: bv_leaked,
        bv_blocks_scanned: bv_scanned,
        llc_miss_reads,
        read_latency_sum,
        core_accesses,
    };
    ObservedRun {
        result,
        registry,
        events,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_workloads::mixes::mix_by_name;

    #[test]
    fn scheme_labels_round_trip_and_protection_split() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SchemeKind::from_label("IvPro"), Some(SchemeKind::IvPro));
        assert_eq!(SchemeKind::from_label("no-such-scheme"), None);
        let protected: Vec<_> = SchemeKind::ALL
            .into_iter()
            .filter(|k| k.is_protected())
            .collect();
        assert_eq!(protected.len(), 5, "all IvLeague variants are protected");
        assert!(!SchemeKind::Baseline.is_protected());
        assert!(!SchemeKind::Insecure.is_protected());
    }

    #[test]
    fn smoke_runs_all_main_schemes() {
        let mix = mix_by_name("S-3").unwrap();
        let run = RunConfig::smoke_test();
        for scheme in SchemeKind::MAIN {
            let r = run_mix(mix, scheme, &run);
            assert_eq!(r.cores.len(), 4);
            assert!(r.weighted_ipc() > 0.0, "{scheme:?}");
            assert!(!r.failed, "{scheme:?}");
            assert!(r.stats.data_reads > 0);
        }
    }

    #[test]
    fn medium_mixes_spawn_two_threads_per_process() {
        let mix = mix_by_name("M-1").unwrap();
        let r = run_mix(mix, SchemeKind::Insecure, &RunConfig::smoke_test());
        assert_eq!(r.cores.len(), 8);
    }

    #[test]
    fn secure_schemes_cost_more_than_insecure() {
        let mix = mix_by_name("S-1").unwrap();
        let run = RunConfig::smoke_test();
        let insecure = run_mix(mix, SchemeKind::Insecure, &run);
        let baseline = run_mix(mix, SchemeKind::Baseline, &run);
        assert!(
            baseline.weighted_ipc() <= insecure.weighted_ipc() * 1.02,
            "secure {} vs insecure {}",
            baseline.weighted_ipc(),
            insecure.weighted_ipc()
        );
        assert!(baseline.stats.meta_reads > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mix = mix_by_name("S-2").unwrap();
        let run = RunConfig::smoke_test();
        let a = run_mix(mix, SchemeKind::IvPro, &run);
        let b = run_mix(mix, SchemeKind::IvPro, &run);
        assert!((a.weighted_ipc() - b.weighted_ipc()).abs() < 1e-12);
        assert_eq!(a.stats.total_mem_accesses(), b.stats.total_mem_accesses());
    }
}
