//! Property tests on the observability layer: registry JSON round-trips
//! exactly, epoch deltas obey counter arithmetic, the trace ring stays
//! bounded with `(cycle, seq)`-sorted, monotonic output, and the windowed
//! timeline recorder is cap-bounded and JSONL-exact.

use ivl_sim_core::obs::timeline::TimelineData;
use ivl_sim_core::obs::trace::{parse_jsonl, records_to_jsonl};
use ivl_sim_core::obs::{
    CacheKind, EventKind, RowResult, StatValue, StatsRegistry, TraceFilter, Tracer,
};
use ivl_sim_core::rng::Xoshiro256;
use ivl_sim_core::stats::HitMiss;
use ivl_sim_core::Cycle;
use ivl_testkit::prelude::*;

/// Deterministically fills a registry with a random mix of node kinds.
fn random_registry(seed: u64, entries: usize) -> StatsRegistry {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut reg = StatsRegistry::new();
    for i in 0..entries {
        let path = format!("c{}.unit{}.metric{i}", rng.index(4), rng.index(8));
        match rng.index(4) {
            0 => reg.set_counter(&path, rng.next_u64() >> rng.index(40)),
            1 => reg.set_gauge(&path, (rng.next_u64() % 1_000_000) as f64 / 997.0),
            2 => reg.set_ratio(
                &path,
                HitMiss::from_parts(rng.next_u64() >> 40, rng.next_u64() >> 40),
            ),
            _ => {
                let bins: Vec<u64> = (0..1 + rng.index(8))
                    .map(|_| rng.next_u64() >> 48)
                    .collect();
                reg.set_histogram(&path, &bins);
            }
        }
    }
    reg
}

/// Deterministically builds one of every event kind family.
fn random_event(rng: &mut Xoshiro256) -> EventKind {
    let caches = [
        CacheKind::L2,
        CacheKind::Llc,
        CacheKind::Counter,
        CacheKind::Tree,
        CacheKind::Mac,
        CacheKind::Lmm,
    ];
    let rows = [RowResult::Hit, RowResult::Empty, RowResult::Conflict];
    match rng.index(9) {
        0 => EventKind::DramAccess {
            channel: rng.index(4) as u8,
            bank: rng.index(16) as u8,
            row: rows[rng.index(3)],
            is_write: rng.chance(0.5),
            latency: rng.next_u64() % 500,
        },
        1 => EventKind::CacheAccess {
            cache: caches[rng.index(6)],
            hit: rng.chance(0.5),
            evicted: rng.chance(0.3),
        },
        2 => EventKind::TreeWalkLevel {
            level: rng.index(8) as u8,
            hit: rng.chance(0.5),
        },
        3 => EventKind::NflbAccess {
            hit: rng.chance(0.5),
        },
        4 => EventKind::NflbEvict,
        5 => EventKind::Probe {
            bit: rng.next_u64() as u32,
            latency: rng.next_u64() % 1_000,
        },
        6 => EventKind::PageAlloc {
            failed: rng.chance(0.1),
        },
        7 => EventKind::PageDealloc,
        _ => EventKind::Epoch { label: "measure" },
    }
}

const COMPONENTS: [&str; 4] = ["dram", "scheme", "cache", "attacker"];

fn fill_tracer(tracer: &Tracer, seed: u64, events: usize) {
    let mut rng = Xoshiro256::seed_from(seed);
    for _ in 0..events {
        let kind = random_event(&mut rng);
        let domain = if rng.chance(0.5) {
            ivl_sim_core::domain::DomainId::new(rng.index(5) as u16)
        } else {
            None
        };
        let core = rng.chance(0.5).then(|| rng.index(8) as u8);
        tracer.emit(
            rng.next_u64() % 10_000 as Cycle,
            COMPONENTS[rng.index(4)],
            domain,
            core,
            kind,
        );
    }
}

/// One recorded timeline operation; generated up front so the same stream
/// can be replayed into a recorder.
#[derive(Debug, Clone)]
enum TlOp {
    Count(String, u64, u64),
    Observe(String, u64, u64),
}

/// Random operation stream. Series names are prefixed by kind so a name
/// never changes cell type mid-stream (the recorder fixes the kind at the
/// first record).
fn random_tl_ops(seed: u64, ops: usize, max_cycle: u64) -> Vec<TlOp> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..ops)
        .map(|_| {
            let name = format!("s{}", rng.index(5));
            let cycle = rng.next_u64() % max_cycle.max(1);
            match rng.index(2) {
                0 => TlOp::Count(format!("c.{name}"), cycle, 1 + rng.next_u64() % 100),
                _ => TlOp::Observe(format!("h.{name}"), cycle, rng.next_u64() >> rng.index(60)),
            }
        })
        .collect()
}

fn apply_tl_op(tl: &mut TimelineData, op: &TlOp) {
    match op {
        TlOp::Count(name, cycle, n) => tl.count(name, *cycle, *n),
        TlOp::Observe(name, cycle, v) => tl.observe(name, *cycle, *v),
    }
}

fn replay_tl(ops: &[TlOp], window: u64, cap: usize) -> TimelineData {
    let mut tl = TimelineData::new(window, cap);
    for op in ops {
        apply_tl_op(&mut tl, op);
    }
    tl
}

props! {
    #[test]
    fn timeline_windows_stay_bounded_and_sorted(
        seed in any::<u64>(),
        window in 1u64..500,
        cap in 1usize..32,
        ops in 0usize..300,
    ) {
        let tl = replay_tl(&random_tl_ops(seed, ops, 20_000), window, cap);
        for (name, s) in &tl.series {
            prop_assert!(
                s.windows.len() <= cap,
                "series {} holds {} windows over cap {}", name, s.windows.len(), cap
            );
            let indices: Vec<u64> = s.windows.iter().map(|(w, _)| *w).collect();
            for w in indices.windows(2) {
                prop_assert!(w[0] < w[1], "window indices must be strictly increasing");
            }
        }
    }

    #[test]
    fn timeline_jsonl_round_trips(seed in any::<u64>(), ops in 0usize..200) {
        let tl = replay_tl(&random_tl_ops(seed, ops, 30_000), 256, 24);
        let parsed = TimelineData::parse_jsonl(&tl.to_jsonl()).expect("own JSONL parses");
        prop_assert_eq!(parsed, tl);
    }

    #[test]
    fn registry_json_round_trips(seed in any::<u64>(), entries in 0usize..40) {
        let reg = random_registry(seed, entries);
        let parsed = StatsRegistry::parse_json(&reg.to_json()).expect("own JSON parses");
        prop_assert_eq!(parsed, reg);
    }

    #[test]
    fn registry_delta_obeys_counter_arithmetic(
        seed in any::<u64>(),
        entries in 1usize..24,
        bump in any::<u32>(),
    ) {
        let earlier = random_registry(seed, entries);
        // Build "later" by bumping every counter/ratio; delta must recover
        // exactly the bump, and gauges must keep the later value.
        let mut later = earlier.clone();
        let paths: Vec<String> = earlier.iter().map(|(p, _)| p.to_string()).collect();
        for p in &paths {
            match earlier.get(p).unwrap() {
                StatValue::Counter(v) => later.set_counter(p, v.saturating_add(bump as u64)),
                StatValue::Gauge(_) => later.set_gauge(p, bump as f64),
                StatValue::Ratio { hits, misses } => later.set_ratio(
                    p,
                    HitMiss::from_parts(hits.saturating_add(bump as u64), *misses),
                ),
                StatValue::Histogram(bins) => {
                    let bumped: Vec<u64> =
                        bins.iter().map(|b| b.saturating_add(bump as u64)).collect();
                    later.set_histogram(p, &bumped);
                }
            }
        }
        let delta = later.delta(&earlier);
        for p in &paths {
            match delta.get(p).expect("path survives delta") {
                StatValue::Counter(v) => prop_assert_eq!(*v, bump as u64),
                StatValue::Gauge(g) => prop_assert_eq!(*g, bump as f64),
                StatValue::Ratio { hits, misses } => {
                    prop_assert_eq!(*hits, bump as u64);
                    prop_assert_eq!(*misses, 0);
                }
                StatValue::Histogram(bins) => {
                    prop_assert!(bins.iter().all(|b| *b == bump as u64));
                }
            }
        }
        // Self-delta zeroes every counter-like node.
        let zero = earlier.delta(&earlier);
        for p in &paths {
            match zero.get(p).expect("path survives self-delta") {
                StatValue::Counter(v) => prop_assert_eq!(*v, 0),
                StatValue::Ratio { hits, misses } => prop_assert_eq!(*hits + *misses, 0),
                StatValue::Histogram(bins) => prop_assert!(bins.iter().all(|b| *b == 0)),
                StatValue::Gauge(_) => {}
            }
        }
    }

    #[test]
    fn trace_ring_is_bounded_and_sorted(
        seed in any::<u64>(),
        cap in 1usize..64,
        events in 0usize..200,
    ) {
        let tracer = Tracer::bounded(cap, TraceFilter::default());
        fill_tracer(&tracer, seed, events);
        prop_assert_eq!(tracer.len(), events.min(cap));
        prop_assert_eq!(tracer.dropped(), events.saturating_sub(cap) as u64);
        let sorted = tracer.sorted_records();
        for w in sorted.windows(2) {
            prop_assert!(w[0].cycle <= w[1].cycle, "cycles must be monotonic");
            if w[0].cycle == w[1].cycle {
                prop_assert!(w[0].seq < w[1].seq, "sort must be stable by seq");
            }
        }
    }

    #[test]
    fn trace_jsonl_round_trips_random_streams(seed in any::<u64>(), events in 0usize..120) {
        let tracer = Tracer::bounded(1 << 12, TraceFilter::default());
        fill_tracer(&tracer, seed, events);
        let records = tracer.sorted_records();
        let parsed = parse_jsonl(&records_to_jsonl(&records)).expect("JSONL parses");
        prop_assert_eq!(parsed, records);
    }
}
