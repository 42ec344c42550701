//! Micro-benchmarks for the hot mechanisms of the reproduction, on the
//! in-tree `ivl-testkit` harness (no criterion; DESIGN.md §5).
//!
//! One group per subsystem that sits on the simulated critical path:
//! cryptographic primitives, cache models, the DRAM timing model, the NFL
//! state machine, forest page mapping, the integrity-scheme data-access
//! paths, and the workload generator. Run with `cargo bench -p ivl-bench`;
//! `IVL_BENCH_QUICK=1` shortens samples for smoke runs, and
//! `IVL_BENCH_JSON=<path>` writes the results there as a `BENCH_*.json`
//! snapshot through `ivl_bench::snapshot` (the checked-in
//! `BENCH_baseline.json` seeds the perf trajectory).

use ivl_bench::snapshot;
use ivl_cache::set_assoc::SetAssocCache;
use ivl_cache::CacheModel;
use ivl_crypto::aes::Aes128;
use ivl_crypto::ctr::CtrEngine;
use ivl_crypto::siphash::{siphash24, SipKey};
use ivl_dram::DramModel;
use ivl_secure_mem::baseline::GlobalBmtSubsystem;
use ivl_secure_mem::functional::SecureMemory;
use ivl_secure_mem::subsystem::IntegritySubsystem;
use ivl_sim_core::addr::{BlockAddr, PageNum};
use ivl_sim_core::config::{IvVariant, SystemConfig};
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::rng::Xoshiro256;
use ivl_testkit::bench::{black_box, Harness};
use ivl_workloads::profiles::by_name;
use ivl_workloads::trace::TraceGenerator;
use ivleague::forest::{Forest, ForestConfig};
use ivleague::nfl::Nfl;
use ivleague::scheme::{AllocatorKind, IvLeagueSubsystem};

fn bench_crypto(h: &mut Harness) {
    h.group("crypto");
    let aes = Aes128::new([7u8; 16]);
    h.bench("aes128_encrypt_block", || {
        aes.encrypt_block(black_box([0x5Au8; 16]))
    });
    let key = SipKey::from_bytes([3u8; 16]);
    let msg = [0u8; 72];
    h.bench("siphash24_72B", || siphash24(key, black_box(&msg)));
    let ctr = CtrEngine::new([9u8; 16]);
    h.bench("ctr_encrypt_64B_block", || {
        let mut block = [0xA5u8; 64];
        ctr.encrypt_block(black_box(0x1000), black_box(42), &mut block);
        block
    });
}

fn bench_functional_secure_memory(h: &mut Harness) {
    h.group("functional_secure_memory");
    let mut mem = SecureMemory::new(1024, [1u8; 16], [2u8; 16], [3u8; 16]);
    mem.write_block(BlockAddr::new(0), &[7u8; 64]).unwrap();
    h.bench("verified_read_64B", || {
        mem.read_block(black_box(BlockAddr::new(0))).unwrap()
    });
    let mut mem = SecureMemory::new(1024, [1u8; 16], [2u8; 16], [3u8; 16]);
    let mut i = 0u64;
    h.bench("verified_write_64B", || {
        i += 1;
        mem.write_block(BlockAddr::new(i % 1024), &[i as u8; 64])
            .unwrap()
    });
}

fn bench_caches_and_dram(h: &mut Harness) {
    h.group("cache_dram");
    let mut cache = SetAssocCache::with_geometry(256 * 1024, 8, 64);
    let mut rng = Xoshiro256::seed_from(1);
    h.bench("set_assoc_access", || {
        cache.access(black_box(rng.next_below(1 << 20)), false)
    });
    // Worst case for the cache: a cyclic sweep over twice the cache's
    // block capacity, so once warm every access misses and evicts.
    let mut cache = SetAssocCache::with_geometry(256 * 1024, 8, 64);
    let cache_blocks = 2 * (256 * 1024 / 64) as u64;
    let mut i = 0u64;
    for _ in 0..cache_blocks {
        i += 1;
        cache.access(i % cache_blocks, false);
    }
    h.bench("llc_miss_evict", || {
        i += 1;
        cache.access(black_box(i % cache_blocks), false)
    });

    let cfg = SystemConfig::default();
    let mut dram = DramModel::new(&cfg.dram);
    let mut rng = Xoshiro256::seed_from(1);
    let mut now = 0u64;
    h.bench("dram_access", || {
        now += 10;
        dram.access(now, BlockAddr::new(rng.next_below(1 << 24)), false)
    });

    // Worst case for the DRAM model: ping-pong between two rows of the
    // same bank (same channel/bank bits, row bit toggling), so every
    // access after the first is a precharge+activate conflict.
    let mut dram = DramModel::new(&cfg.dram);
    let blocks_per_row = (cfg.dram.row_bytes / 64) as u64;
    let banks_per_channel = (cfg.dram.ranks_per_channel * cfg.dram.banks_per_rank) as u64;
    let row_stride = cfg.dram.channels as u64 * blocks_per_row * banks_per_channel;
    let mut now = 0u64;
    h.bench("dram_row_conflict", || {
        now += 10;
        dram.access(now, BlockAddr::new((now / 10 % 2) * row_stride), false)
    });

    // Long idle windows between touches of a small bank set: every access
    // finds its bank idle and accounts the cycles since `busy_until`.
    let mut dram = DramModel::new(&cfg.dram);
    let mut rng = Xoshiro256::seed_from(9);
    let mut now = 0u64;
    h.bench("dram_idle_skip", || {
        now += 50_000;
        dram.access(now, BlockAddr::new(rng.next_below(64)), false)
    });

    // The sibling legs of one integrity walk, issued at the same cycle: a
    // typical four (write-back, MAC read, data read, counter read).
    let mut dram = DramModel::new(&cfg.dram);
    let mut rng = Xoshiro256::seed_from(11);
    let mut now = 0u64;
    h.bench("walk_leg_batch", || {
        now += 200;
        dram.access(now, BlockAddr::new(rng.next_below(1 << 24)), true);
        dram.access(now, BlockAddr::new(rng.next_below(1 << 24)), false);
        dram.access(now, BlockAddr::new(rng.next_below(1 << 24)), false);
        dram.access(now, BlockAddr::new(rng.next_below(1 << 24)), false)
    });
}

fn bench_nfl_and_forest(h: &mut Harness) {
    h.group("ivleague_mechanisms");
    let mut nfl = Nfl::new(0..512, 8, 8);
    let mut touched = Vec::new();
    h.bench("nfl_alloc_free_pair", || {
        touched.clear();
        let a = nfl.alloc(&mut touched).expect("capacity");
        nfl.free(a.tag, a.slot, &mut touched)
    });
    for variant in IvVariant::ALL {
        let mut forest = Forest::new(ForestConfig::small_for_tests(variant));
        let d = DomainId::new_unchecked(0);
        let mut page = 0u64;
        h.bench(&format!("forest_map_unmap_{variant:?}"), || {
            page += 1;
            let p = PageNum::new(page);
            forest.map_page(d, p).expect("capacity");
            forest.unmap_page(d, p).expect("mapped")
        });
    }
    // Footprint ramps at Table I geometry: every iteration maps a fresh
    // page, so assigning and initializing TreeLings is amortised into the
    // per-page cost the way an `alloc-ramp` point pays it. Each ramp
    // restarts on a fresh forest after `RAMP_PAGES` pages (about one
    // large-mix process footprint), which keeps memory bounded.
    const RAMP_PAGES: u64 = 1 << 18;
    let table1 = SystemConfig::default();
    for variant in IvVariant::ALL {
        let cfg =
            ForestConfig::from_ivleague(&table1.ivleague, table1.secure.tree_arity as u32, variant);
        let mut forest = Forest::new(cfg);
        let d = DomainId::new_unchecked(0);
        let mut page = 0u64;
        h.bench(&format!("forest_ramp_{variant:?}"), || {
            if page == RAMP_PAGES {
                forest = Forest::new(cfg);
                page = 0;
            }
            let out = forest.map_page(d, PageNum::new(page)).expect("capacity");
            page += 1;
            forest.recycle_ops(out.nfl_ops);
            out.slot
        });
    }
}

fn bench_scheme_access_paths(h: &mut Harness) {
    h.group("scheme_data_access");
    let cfg = SystemConfig::default();
    let d = DomainId::new_unchecked(1);
    // Steady-state fixtures: the first touches of a fresh subsystem map
    // pages and allocate TreeLings — one-time work that poisons the
    // harness's doubling calibration (a multi-ms first batch clamps the
    // batch size to 1 iter/sample). Pre-warm past the working set so the
    // timed closure measures the per-access fast path.
    const WARM_ACCESSES: u64 = 200_000;

    let mut dram = DramModel::new(&cfg.dram);
    let mut baseline = GlobalBmtSubsystem::new(&cfg.secure, cfg.total_pages());
    let mut now = 0u64;
    let mut rng = Xoshiro256::seed_from(2);
    let mut access = move |baseline: &mut GlobalBmtSubsystem, dram: &mut DramModel| {
        now += 100;
        let blk = PageNum::new(rng.next_below(1 << 16)).block(0);
        baseline.data_access(now, dram, blk, d, false)
    };
    for _ in 0..WARM_ACCESSES {
        access(&mut baseline, &mut dram);
    }
    h.bench("baseline_read", || access(&mut baseline, &mut dram));

    let mut dram2 = DramModel::new(&cfg.dram);
    let mut iv = IvLeagueSubsystem::new(&cfg, IvVariant::Pro, AllocatorKind::Nfl);
    let mut now2 = 0u64;
    let mut rng = Xoshiro256::seed_from(2);
    let mut access = move |iv: &mut IvLeagueSubsystem, dram: &mut DramModel| {
        now2 += 100;
        let blk = PageNum::new(rng.next_below(1 << 16)).block(0);
        iv.data_access(now2, dram, blk, d, false)
    };
    for _ in 0..WARM_ACCESSES {
        access(&mut iv, &mut dram2);
    }
    h.bench("ivleague_pro_read", || access(&mut iv, &mut dram2));

    let mut dram3 = DramModel::new(&cfg.dram);
    let mut ivw = IvLeagueSubsystem::new(&cfg, IvVariant::Pro, AllocatorKind::Nfl);
    let mut now3 = 0u64;
    let mut rng = Xoshiro256::seed_from(2);
    let mut access = move |ivw: &mut IvLeagueSubsystem, dram: &mut DramModel| {
        now3 += 100;
        let blk = PageNum::new(rng.next_below(1 << 16)).block(0);
        ivw.data_access(now3, dram, blk, d, true)
    };
    for _ in 0..WARM_ACCESSES {
        access(&mut ivw, &mut dram3);
    }
    h.bench("ivleague_pro_write", || access(&mut ivw, &mut dram3));
}

fn bench_workload_generator(h: &mut Harness) {
    h.group("workloads");
    let profile = by_name("gcc").expect("profile");
    let mut gen = TraceGenerator::new(profile, DomainId::new_unchecked(0), 0, 3);
    h.bench("trace_next_event", || gen.next_event());
}

fn main() {
    let mut h = Harness::from_env("micro");
    bench_crypto(&mut h);
    bench_functional_secure_memory(&mut h);
    bench_caches_and_dram(&mut h);
    bench_nfl_and_forest(&mut h);
    bench_scheme_access_paths(&mut h);
    bench_workload_generator(&mut h);
    let results = h.finish();
    if let Some(path) = std::env::var_os("IVL_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        std::fs::write(&path, snapshot::to_json("micro", &results))
            .unwrap_or_else(|e| panic!("write bench JSON to {}: {e}", path.display()));
        eprintln!("[saved {}]", path.display());
    }
}
