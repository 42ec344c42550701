//! Campaign determinism: the work-stealing parallel runner must be
//! invisible in the results. Every (mix, scheme) simulation owns its
//! models and PRNG streams, so a serial sweep and a stolen-to-pieces
//! parallel sweep of the same matrix must produce **bit-identical**
//! `MixResult`s — any divergence means shared mutable state leaked into
//! the simulation (or a nondeterministic map iteration started steering
//! timing), which would also poison figure reproducibility.

use ivl_bench::run_matrix_on_with_workers;
use ivl_cache::randomized::RandomizedCache;
use ivl_cache::set_assoc::SetAssocCache;
use ivl_cache::CacheModel;
use ivl_dram::DramModel;
use ivl_secure_mem::subsystem::IvStats;
use ivl_sim_core::addr::BlockAddr;
use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::Cycle;
use ivl_simulator::system::SchemeInstance;
use ivl_simulator::{run_mix, CoreResult, MixResult, RunConfig, SchemeKind};
use ivl_workloads::mixes::{Mix, MIXES};
use ivl_workloads::trace::{MemEvent, TraceGenerator};

const MAIN_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Baseline,
    SchemeKind::IvBasic,
    SchemeKind::IvInvert,
    SchemeKind::IvPro,
];

struct Core {
    gen: usize,
    domain: DomainId,
    l2: SetAssocCache,
    now: Cycle,
    instrs: u64,
    accesses: u64,
    measure_start: Cycle,
    measure_instrs_start: u64,
    benchmark: &'static str,
    base_ipc: f64,
    mlp: f64,
    inv_ipc: f64,
}

/// Reference runner: `run_mix` rebuilt from the public model objects.
/// Like the production loop it picks cores with a linear `min_by_key` scan
/// over the cores still inside their access budget (least-advanced core
/// first, ties to the lowest index), but it decides the warm-up flip by
/// rescanning every core and generator on every event.
fn run_mix_linear_scan(mix: &Mix, scheme_kind: SchemeKind, run: &RunConfig) -> MixResult {
    let cfg = SystemConfig::default();
    let mut scheme = scheme_kind.build(&cfg);
    let mut dram = DramModel::new(&cfg.dram);
    let mut llc = RandomizedCache::with_geometry(
        cfg.llc.cache.capacity_bytes,
        cfg.llc.cache.ways,
        cfg.llc.cache.line_bytes,
        run.seed ^ 0x11C,
    );
    let threads = mix.class.threads_per_process();
    let proc_range = cfg.total_pages() / 4;
    let mut gens: Vec<TraceGenerator> = Vec::new();
    let mut cores: Vec<Core> = Vec::new();
    for (pi, profile) in mix.profiles().into_iter().enumerate() {
        let domain = DomainId::new_unchecked(pi as u16 + 1);
        gens.push(TraceGenerator::with_footprint(
            profile,
            domain,
            pi as u64 * proc_range,
            run.seed.wrapping_mul(31).wrapping_add(pi as u64),
            profile.footprint_pages(),
            proc_range.next_power_of_two() / 2,
        ));
        for _ in 0..threads {
            cores.push(Core {
                gen: pi,
                domain,
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
    let (mut llc_miss_reads, mut read_latency_sum, mut core_accesses) = (0u64, 0u64, 0u64);
    let mut epoch_stats = IvStats::default();
    let mut llc_writebacks: Vec<u64> = Vec::new();
    while let Some(idx) = cores
        .iter()
        .enumerate()
        .filter(|(_, c)| c.accesses < measure_total)
        .min_by_key(|(_, c)| c.now)
        .map(|(i, _)| i)
    {
        if !measuring
            && cores.iter().all(|c| c.accesses >= warmup_total)
            && gens.iter().all(TraceGenerator::warmed_up)
        {
            measuring = true;
            epoch_stats = *scheme.stats();
            for c in &mut cores {
                c.measure_start = c.now;
                c.measure_instrs_start = c.instrs;
            }
        }

        let core = &mut cores[idx];
        match gens[core.gen].next_event() {
            MemEvent::Access {
                block,
                is_write,
                gap_instrs,
            } => {
                core.accesses += 1;
                if measuring {
                    core_accesses += 1;
                }
                core.instrs += gap_instrs;
                core.now += (gap_instrs as f64 * core.inv_ipc) as Cycle;
                core.now += cfg.core.l2.hit_latency;
                let l2 = core.l2.access(block.index(), is_write);
                if l2.hit {
                    continue;
                }
                llc_writebacks.clear();
                if let Some(e) = l2.evicted.filter(|e| e.dirty) {
                    llc_writebacks.push(e.key);
                }
                core.now += cfg.llc.cache.hit_latency - cfg.core.l2.hit_latency;
                let llc_out = llc.access(block.index(), is_write);
                let (now, domain) = (core.now, core.domain);
                let mut write_back = |key: u64| {
                    scheme.as_subsystem().data_access(
                        now,
                        &mut dram,
                        BlockAddr::new(key),
                        domain,
                        true,
                    );
                };
                if let Some(e) = llc_out.evicted.filter(|e| e.dirty) {
                    write_back(e.key);
                }
                for wb in llc_writebacks.drain(..) {
                    if let Some(e) = llc.access(wb, true).evicted.filter(|e| e.dirty) {
                        write_back(e.key);
                    }
                }
                if llc_out.hit {
                    continue;
                }
                let done = scheme
                    .as_subsystem()
                    .data_access(now, &mut dram, block, domain, is_write);
                let latency = done.saturating_sub(now);
                if measuring && !is_write {
                    llc_miss_reads += 1;
                    read_latency_sum += latency;
                }
                let service = latency.min(400);
                core.now += (latency - service) + (service as f64 / core.mlp) as Cycle;
            }
            MemEvent::Alloc { page } => {
                let done = scheme
                    .as_subsystem()
                    .page_alloc(core.now, &mut dram, page, core.domain);
                core.now = done + 200;
                core.instrs += 50;
            }
            MemEvent::Dealloc { page } => {
                for b in page.blocks() {
                    core.l2.invalidate(b.index());
                    llc.invalidate(b.index());
                }
                let done =
                    scheme
                        .as_subsystem()
                        .page_dealloc(core.now, &mut dram, page, core.domain);
                core.now = done + 100;
                core.instrs += 30;
            }
        }
    }

    let stats = scheme.stats().delta(&epoch_stats);
    let iv = match &scheme {
        SchemeInstance::Iv(iv) => Some(iv),
        _ => None,
    };
    let forest = iv.and_then(|iv| iv.forest());
    let bv = iv.and_then(|iv| iv.bv());
    MixResult {
        mix: mix.name,
        scheme: scheme_kind,
        cores: cores
            .iter()
            .map(|c| CoreResult {
                benchmark: c.benchmark,
                instrs: c.instrs - c.measure_instrs_start,
                cycles: c.now - c.measure_start,
                base_ipc: c.base_ipc,
            })
            .collect(),
        avg_path_length: stats.avg_path_length(),
        failed: stats.alloc_failures > 0,
        stats,
        utilization: forest.map(|f| f.stats().mean_utilization()),
        untracked_slots: forest.map(|f| f.stats().untracked_slots),
        bv_leaked_slots: bv.map(|b| b.leaked_slots()),
        bv_blocks_scanned: bv.map(|b| b.total_blocks_scanned()),
        llc_miss_reads,
        read_latency_sum,
        core_accesses,
    }
}

/// The production loop must match the reference runner **bit-for-bit**
/// across the full 16-mix × 4-scheme matrix. `run_mix` tracks warm-up
/// progress incrementally (a count of cores below the warm-up budget and a
/// bitmask of generators not yet warmed up), each core or generator
/// counted off once right after the event that carries it across; the
/// reference runner rescans every core and generator on every event
/// instead. Any divergence means the production loop flipped to the
/// measurement window at a different event (or the core picker changed),
/// which would silently change every figure.
#[test]
fn run_mix_matches_reference_runner() {
    let run = RunConfig::smoke_test();
    for mix in &MIXES {
        for scheme in MAIN_SCHEMES {
            let reference = run_mix_linear_scan(mix, scheme, &run);
            let production = run_mix(mix, scheme, &run);
            // `Debug` prints every stat field and every f64 with
            // shortest-round-trip precision, so equal strings ⇔ bit-equal
            // results (modulo NaN, which no field may be anyway).
            assert_eq!(
                format!("{reference:?}"),
                format!("{production:?}"),
                "run_mix and the reference runner diverged for {}/{scheme:?}",
                mix.name
            );
        }
    }
}

#[test]
fn parallel_campaign_is_bit_identical_to_serial() {
    let run = RunConfig::smoke_test();
    let serial = run_matrix_on_with_workers(&MIXES, &MAIN_SCHEMES, &run, 1);
    let parallel = run_matrix_on_with_workers(&MIXES, &MAIN_SCHEMES, &run, 4);
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), MIXES.len() * MAIN_SCHEMES.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // `Debug` prints every stat field and every f64 with
        // shortest-round-trip precision, so equal strings ⇔ bit-equal
        // results (modulo NaN, which no field may be anyway).
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "serial and parallel runs diverged for {}/{:?}",
            s.mix,
            s.scheme
        );
    }
}
