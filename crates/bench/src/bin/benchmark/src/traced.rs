//! The traced driver: steps the same public objects `run_mix` builds
//! (`SchemeKind::build`, `DramModel::new`, the two cache models and
//! `TraceGenerator::with_footprint`) in the same order, and wraps every
//! call into a layer in a host-time span. It must reproduce `run_mix`
//! bit-for-bit; the benchmark checks that on every traced point.
//!
//! Cores are picked by a linear scan (least-advanced core, ties to the
//! lowest index), which the simulator's determinism suite pins
//! order-equivalent to its event calendar. Spans cost tens of
//! nanoseconds, so the three cheapest and most frequent layers are
//! sampled 1-in-`every` with a fixed-seed xorshift and scaled by
//! calls/sampled; the `memctl.*` and `cache.inval` layers are timed on
//! every call. The timer's own in-span cost is calibrated at start-up and
//! subtracted per timed call. `sim.runner` is what is left of the point's
//! wall time, so the split reconciles exactly.

use std::time::Instant;

use ivl_cache::randomized::RandomizedCache;
use ivl_cache::set_assoc::SetAssocCache;
use ivl_cache::CacheModel;
use ivl_dram::DramModel;
use ivl_secure_mem::subsystem::IvStats;
use ivl_sim_core::addr::BlockAddr;
use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::stats::HitMiss;
use ivl_sim_core::Cycle;
use ivl_simulator::{CoreResult, MixResult, RunConfig, SchemeKind};
use ivl_workloads::mixes::Mix;
use ivl_workloads::trace::{MemEvent, TraceGenerator};

use crate::json::Json;
use crate::workload::canonical_line;

/// Layers a span wraps, in report order.
pub const LAYERS: [&str; 7] = [
    "workloads.gen",
    "cache.l2",
    "cache.llc",
    "cache.inval",
    "memctl.data",
    "memctl.alloc",
    "memctl.dealloc",
];
const GEN: usize = 0;
const L2: usize = 1;
const LLC: usize = 2;
const INVAL: usize = 3;
const DATA: usize = 4;
const ALLOC: usize = 5;
const DEALLOC: usize = 6;
/// Layers timed only on sampled calls.
const SAMPLED: [bool; 7] = [true, true, true, false, false, false, false];

/// Default sampling period of the sampled layers.
pub const SAMPLE_EVERY: u64 = 16;

const HIST_BUCKETS: usize = 32;

/// The span clock: the time-stamp counter on x86_64, where a read is one
/// instruction instead of a trip through the vDSO (19 vs 43 ns on a
/// 2-CPU VM), and `Instant` elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads a register, touches no memory, and every
    // x86_64 CPU implements it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static ANCHOR: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tick length and the clock's own in-span cost, both in ns.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub ns_per_tick: f64,
    /// Mean duration of an empty span (interquartile mean over many),
    /// subtracted once per timed call.
    pub bias_ns: f64,
}

impl Clock {
    /// Calibrates ticks against `Instant` over 20 ms, then measures the
    /// empty-span cost.
    pub fn calibrate() -> Clock {
        let (t0, k0) = (Instant::now(), ticks());
        while t0.elapsed().as_millis() < 20 {}
        let (ns, k1) = (t0.elapsed().as_nanos() as f64, ticks());
        let ns_per_tick = ns / k1.saturating_sub(k0).max(1) as f64;
        let mut empty: Vec<u64> = (0..20_000)
            .map(|_| {
                let k = ticks();
                ticks().saturating_sub(k)
            })
            .collect();
        empty.sort_unstable();
        let mid = &empty[empty.len() / 4..empty.len() * 3 / 4];
        let mean = mid.iter().sum::<u64>() as f64 / mid.len() as f64;
        Clock {
            ns_per_tick,
            bias_ns: mean * ns_per_tick,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct LayerTally {
    pub calls: u64,
    pub sampled: u64,
    /// Sum of sampled span durations in ticks, bias not yet removed.
    pub span_ticks: u64,
    /// log2 buckets of sampled span durations in ns.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for LayerTally {
    fn default() -> Self {
        LayerTally {
            calls: 0,
            sampled: 0,
            span_ticks: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl LayerTally {
    /// Estimated self time in ns: the bias-corrected sampled time scaled
    /// by calls/sampled.
    pub fn self_ns(&self, clock: &Clock) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        let span_ns = self.span_ticks as f64 * clock.ns_per_tick;
        let corrected = (span_ns - self.sampled as f64 * clock.bias_ns).max(0.0);
        (corrected * self.calls as f64 / self.sampled as f64).round() as u64
    }
}

/// Span recorder with a fixed-seed sampler.
struct Spans {
    tally: [LayerTally; 7],
    rng: u64,
    every: u64,
    ns_per_tick: f64,
}

impl Spans {
    fn new(every: u64, clock: &Clock) -> Self {
        Spans {
            tally: [LayerTally::default(); 7],
            rng: 0x9E37_79B9_7F4A_7C15,
            every: every.max(1),
            ns_per_tick: clock.ns_per_tick,
        }
    }

    #[inline(always)]
    fn sample(&mut self, layer: usize) -> bool {
        if !SAMPLED[layer] || self.every == 1 {
            return true;
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.is_multiple_of(self.every)
    }

    #[inline(always)]
    fn run<T>(&mut self, layer: usize, f: impl FnOnce() -> T) -> T {
        self.tally[layer].calls += 1;
        if !self.sample(layer) {
            return f();
        }
        let k0 = ticks();
        let out = f();
        let dt = ticks().saturating_sub(k0);
        let ns = (dt as f64 * self.ns_per_tick) as u64;
        let t = &mut self.tally[layer];
        t.sampled += 1;
        t.span_ticks += dt;
        t.hist[(64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)] += 1;
        out
    }
}

/// Everything one traced point measured.
#[derive(Debug, Clone)]
pub struct PointTrace {
    /// The simulated result, built the way `run_mix` builds it (fields the
    /// driver does not reproduce are `None`).
    pub result: MixResult,
    pub wall_ns: u64,
    /// Building the models plus tearing them down.
    pub setup_ns: u64,
    pub layers: [LayerTally; 7],
    /// Outcomes of every L2 / LLC access (not only sampled ones).
    pub l2: HitMiss,
    pub llc: HitMiss,
    /// DRAM transactions issued inside `data_access` calls.
    pub data_dram_txns: u64,
    /// Whole-run (warmup included) scheme and DRAM statistics: host time
    /// covers the whole run, so these are its denominators.
    pub iv_total: IvStats,
    pub dram_txns: u64,
    pub dram_row_hits: u64,
}

impl PointTrace {
    pub fn self_ns(&self, clock: &Clock) -> [u64; 7] {
        self.layers.map(|t| t.self_ns(clock))
    }

    /// Wall time no layer span and no set-up covers. Layers plus set-up
    /// plus this equal `wall_ns` exactly.
    pub fn runner_ns(&self, clock: &Clock) -> i64 {
        self.wall_ns as i64 - self.setup_ns as i64 - self.self_ns(clock).iter().sum::<u64>() as i64
    }
}

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

fn dram_txns(dram: &DramModel) -> u64 {
    let s = dram.stats();
    s.reads.get() + s.writes.get()
}

/// Runs one (mix, scheme) point under spans. `every` is the sampling
/// period of the sampled layers (1 times every call).
pub fn run_traced(
    mix: &Mix,
    scheme_kind: SchemeKind,
    run: &RunConfig,
    every: u64,
    clock: &Clock,
) -> PointTrace {
    let t_start = Instant::now();
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
    let build_ns = t_start.elapsed().as_nanos() as u64;

    let mut spans = Spans::new(every, clock);
    let mut l2_hm = HitMiss::new();
    let mut llc_hm = HitMiss::new();
    let mut data_dram_txns = 0u64;
    let warmup_total = run.warmup_accesses;
    let measure_total = warmup_total + run.measure_accesses;
    let mut measuring = false;
    let mut llc_miss_reads = 0u64;
    let mut read_latency_sum = 0u64;
    let mut core_accesses = 0u64;
    let mut epoch_stats = IvStats::default();
    let mut llc_writebacks: Vec<u64> = Vec::new();
    let l2_latency = cfg.core.l2.hit_latency;
    let llc_extra = cfg.llc.cache.hit_latency - cfg.core.l2.hit_latency;

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
        let gen = &mut gens[core.gen];
        let event = spans.run(GEN, || gen.next_event());
        match event {
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
                let key = block.index();
                core.now += l2_latency;
                let l2 = spans.run(L2, || core.l2.access(key, is_write));
                l2_hm.record(l2.hit);
                if l2.hit {
                    continue;
                }
                llc_writebacks.clear();
                if let Some(e) = l2.evicted.filter(|e| e.dirty) {
                    llc_writebacks.push(e.key);
                }
                core.now += llc_extra;
                let llc_out = spans.run(LLC, || llc.access(key, is_write));
                llc_hm.record(llc_out.hit);
                let (now, domain) = (core.now, core.domain);
                let mut data = |spans: &mut Spans, block: BlockAddr, is_write: bool| {
                    let before = dram_txns(&dram);
                    let done = spans.run(DATA, || {
                        scheme
                            .as_subsystem()
                            .data_access(now, &mut dram, block, domain, is_write)
                    });
                    data_dram_txns += dram_txns(&dram) - before;
                    done
                };
                // Dirty LLC victims are written back through the integrity
                // layer before the demand access, as in `run_mix`.
                if let Some(e) = llc_out.evicted.filter(|e| e.dirty) {
                    data(&mut spans, BlockAddr::new(e.key), true);
                }
                for wb in llc_writebacks.drain(..) {
                    let out = spans.run(LLC, || llc.access(wb, true));
                    llc_hm.record(out.hit);
                    if let Some(e) = out.evicted.filter(|e| e.dirty) {
                        data(&mut spans, BlockAddr::new(e.key), true);
                    }
                }
                if llc_out.hit {
                    continue;
                }
                let done = data(&mut spans, block, is_write);
                let latency = done.saturating_sub(now);
                if measuring && !is_write {
                    llc_miss_reads += 1;
                    read_latency_sum += latency;
                }
                let service = latency.min(400);
                let queueing = latency - service;
                core.now += queueing + (service as f64 / core.mlp) as Cycle;
            }
            MemEvent::Alloc { page } => {
                let done = spans.run(ALLOC, || {
                    scheme
                        .as_subsystem()
                        .page_alloc(core.now, &mut dram, page, core.domain)
                });
                core.now = done + 200;
                core.instrs += 50;
            }
            MemEvent::Dealloc { page } => {
                spans.run(INVAL, || {
                    for b in page.blocks() {
                        core.l2.invalidate(b.index());
                        llc.invalidate(b.index());
                    }
                });
                let done = spans.run(DEALLOC, || {
                    scheme
                        .as_subsystem()
                        .page_dealloc(core.now, &mut dram, page, core.domain)
                });
                core.now = done + 100;
                core.instrs += 30;
            }
        }
    }

    let iv_total = *scheme.stats();
    let stats = iv_total.delta(&epoch_stats);
    let dram_stats = dram.stats();
    let result = MixResult {
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
        utilization: None,
        untracked_slots: None,
        bv_leaked_slots: None,
        bv_blocks_scanned: None,
        llc_miss_reads,
        read_latency_sum,
        core_accesses,
    };
    let t_teardown = Instant::now();
    drop((scheme, dram, llc, gens, cores));
    let teardown_ns = t_teardown.elapsed().as_nanos() as u64;
    PointTrace {
        result,
        wall_ns: t_start.elapsed().as_nanos() as u64,
        setup_ns: build_ns + teardown_ns,
        layers: spans.tally,
        l2: l2_hm,
        llc: llc_hm,
        data_dram_txns,
        iv_total,
        dram_txns: dram_stats.reads.get() + dram_stats.writes.get(),
        dram_row_hits: dram_stats.row_hits.get(),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A workload's traced points summed into per-layer metric values by name
/// (`metrics`), one record per point (`points`), and folded stacks
/// `<workload>;<mix>.<scheme>;<layer> <self_us>` (`folded`).
pub fn summarize(workload: &str, traces: &[PointTrace], clock: &Clock, every: u64) -> Json {
    let mut self_ns = [0u64; 7];
    let mut calls = [0u64; 7];
    let (mut wall, mut setup, mut runner) = (0u64, 0u64, 0i64);
    let (mut l2, mut llc) = (HitMiss::new(), HitMiss::new());
    let (mut data_txns, mut txns, mut row_hits) = (0u64, 0u64, 0u64);
    let mut iv = IvStats::default();
    let add =
        |a: HitMiss, b: HitMiss| HitMiss::from_parts(a.hits() + b.hits(), a.misses() + b.misses());
    let mut points = Vec::new();
    let mut folded = String::new();
    for t in traces {
        let name = format!("{}.{}", t.result.mix, t.result.scheme.label());
        let s = t.self_ns(clock);
        let r = t.runner_ns(clock);
        let mut layers = Vec::new();
        folded.push_str(&format!(
            "{workload};{name};sim.setup {:.3}\n",
            t.setup_ns as f64 / 1e3
        ));
        folded.push_str(&format!(
            "{workload};{name};sim.runner {:.3}\n",
            r as f64 / 1e3
        ));
        for (i, layer) in LAYERS.iter().enumerate() {
            self_ns[i] += s[i];
            calls[i] += t.layers[i].calls;
            folded.push_str(&format!(
                "{workload};{name};{layer} {:.3}\n",
                s[i] as f64 / 1e3
            ));
            layers.push(
                Json::obj()
                    .with("layer", *layer)
                    .with("calls", t.layers[i].calls)
                    .with("sampled", t.layers[i].sampled)
                    .with("self_ns", s[i])
                    .with("hist_log2_ns", t.layers[i].hist.to_vec()),
            );
        }
        points.push(
            Json::obj()
                .with("point", name)
                .with("line", canonical_line(&t.result))
                .with("wall_ns", t.wall_ns)
                .with("setup_ns", t.setup_ns)
                .with("runner_ns", r as f64)
                .with("layers", Json::Arr(layers)),
        );
        wall += t.wall_ns;
        setup += t.setup_ns;
        runner += r;
        l2 = add(l2, t.l2);
        llc = add(llc, t.llc);
        data_txns += t.data_dram_txns;
        txns += t.dram_txns;
        row_hits += t.dram_row_hits;
        let v = &t.iv_total;
        iv.verifications += v.verifications;
        iv.path_len_sum += v.path_len_sum;
        iv.meta_reads += v.meta_reads;
        iv.meta_writes += v.meta_writes;
        iv.hot_migrations += v.hot_migrations;
        iv.counter_cache = add(iv.counter_cache, v.counter_cache);
        iv.tree_cache = add(iv.tree_cache, v.tree_cache);
        iv.lmm_cache = add(iv.lmm_cache, v.lmm_cache);
        iv.nflb = add(iv.nflb, v.nflb);
    }
    let wall = wall as f64;
    let mut m = Json::obj();
    for (i, layer) in LAYERS.iter().enumerate() {
        let s = self_ns[i] as f64;
        m.push(&format!("{layer}.calls"), calls[i]);
        m.push(&format!("{layer}.self_ms"), s / 1e6);
        m.push(&format!("{layer}.share"), ratio(s, wall));
        m.push(&format!("{layer}.ns_per_call"), ratio(s, calls[i] as f64));
    }
    let m = m
        .with("cache.l2.hit_rate", l2.hit_rate())
        .with("cache.llc.hit_rate", llc.hit_rate())
        .with(
            "memctl.data.ns_per_dram_txn",
            ratio(self_ns[DATA] as f64, data_txns as f64),
        )
        .with("memctl.verifications", iv.verifications)
        .with("memctl.path_len", iv.avg_path_length())
        .with("memctl.meta_reads", iv.meta_reads)
        .with("memctl.meta_writes", iv.meta_writes)
        .with("memctl.ctr_hit_rate", iv.counter_cache.hit_rate())
        .with("memctl.tree_hit_rate", iv.tree_cache.hit_rate())
        .with("memctl.lmm_hit_rate", iv.lmm_cache.hit_rate())
        .with("memctl.nflb_hit_rate", iv.nflb.hit_rate())
        .with("memctl.hot_migrations", iv.hot_migrations)
        .with("dram.txns", txns)
        .with("dram.row_hit_rate", ratio(row_hits as f64, txns as f64))
        .with("sim.runner.self_ms", runner as f64 / 1e6)
        .with("sim.runner.share", ratio(runner as f64, wall))
        .with("sim.setup.self_ms", setup as f64 / 1e6)
        .with("sim.setup.share", ratio(setup as f64, wall))
        .with("trace.timer_bias_ns", clock.bias_ns)
        .with("trace.sample_every", every);
    Json::obj()
        .with("metrics", m)
        .with("points", Json::Arr(points))
        .with("folded", folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;
    use ivl_simulator::run_mix;
    use ivl_workloads::mixes::mix_by_name;

    /// The driver is only a valid per-layer split if it simulates exactly
    /// what `run_mix` simulates, whatever the sampling.
    #[test]
    fn traced_driver_is_bit_identical_to_run_mix() {
        let run = RunConfig::smoke_test();
        let clock = Clock::calibrate();
        for name in ["S-3", "M-1", "L-1"] {
            let mix = mix_by_name(name).unwrap();
            for scheme in SchemeKind::ALL {
                let want = canonical_line(&run_mix(mix, scheme, &run));
                for every in [1, SAMPLE_EVERY] {
                    let got = canonical_line(&run_traced(mix, scheme, &run, every, &clock).result);
                    assert_eq!(got, want, "{name}/{scheme:?} sampled 1-in-{every}");
                }
            }
        }
    }

    #[test]
    fn layers_setup_and_runner_sum_to_the_traced_wall() {
        let run = RunConfig::smoke_test();
        let clock = Clock::calibrate();
        assert!(clock.ns_per_tick > 0.0 && clock.bias_ns > 0.0, "{clock:?}");
        for scheme in [SchemeKind::Baseline, SchemeKind::IvPro] {
            let t = run_traced(
                mix_by_name("S-1").unwrap(),
                scheme,
                &run,
                SAMPLE_EVERY,
                &clock,
            );
            let layers: u64 = t.self_ns(&clock).iter().sum();
            let runner = t.runner_ns(&clock);
            assert_eq!(t.setup_ns as i64 + layers as i64 + runner, t.wall_ns as i64);
            assert!(runner >= 0, "{scheme:?}: runner residual {runner} ns");
            let gen = &t.layers[GEN];
            assert!(gen.calls > 0 && gen.sampled > 0 && gen.sampled < gen.calls);
            assert_eq!(t.layers[DATA].sampled, t.layers[DATA].calls);
        }
    }

    #[test]
    fn alloc_ramp_points_never_reach_the_measured_window() {
        let w = by_name("alloc-ramp").unwrap();
        let run = w.run_config(2024, false);
        for (mix, scheme) in w.points() {
            let r = run_mix(mix, scheme, &run);
            assert_eq!(r.core_accesses, 0, "{} left the footprint ramp", mix.name);
        }
    }
}
