//! Micro-benchmark harness (in-tree `criterion` stand-in).
//!
//! Each benchmark is calibrated (doubling batch sizes until a batch is
//! long enough to time reliably), warmed up, then timed over a fixed
//! number of samples. The harness reports per-iteration median, p95 and
//! throughput lines and returns the statistics to its caller (the
//! `ivl-bench` micro suite writes them out as a `BENCH_*.json` snapshot).
//!
//! `IVL_BENCH_QUICK=1` selects short samples for smoke runs (CI uses this).
//!
//! The clock is pluggable ([`Clock`]): real runs use [`WallClock`]
//! (`std::time::Instant`), while the harness's own tests inject the
//! deterministic [`FakeClock`] so timing statistics are reproducible
//! under a fixed seed.

pub use std::hint::black_box;

use std::time::Instant;

use crate::rng::TestRng;

/// Monotonic nanosecond clock.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin; never decreases.
    fn now_ns(&mut self) -> u64;
}

/// Real wall clock backed by [`Instant`].
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Creates a clock with its origin at construction time.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic monotonic clock: advances by a seeded pseudo-random
/// positive step on every reading. Lets tests assert the harness's
/// statistics pipeline bit-for-bit.
#[derive(Debug)]
pub struct FakeClock {
    rng: TestRng,
    now: u64,
}

impl FakeClock {
    /// Creates a fake clock whose step sequence derives from `seed`.
    pub fn seed_from(seed: u64) -> Self {
        FakeClock {
            rng: TestRng::seed_from(seed),
            now: 0,
        }
    }
}

impl Clock for FakeClock {
    fn now_ns(&mut self) -> u64 {
        self.now += 1 + self.rng.below(1_000_000);
        self.now
    }
}

/// Harness tuning knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Target duration of one timed sample, nanoseconds.
    pub target_sample_ns: u64,
    /// Timed samples per benchmark.
    pub samples: usize,
    /// Warmup batches (of `iters_per_sample` iterations) before sampling.
    pub warmup_batches: usize,
}

impl BenchConfig {
    /// Full-fidelity defaults: 5 ms samples × 30.
    pub fn full() -> Self {
        BenchConfig {
            target_sample_ns: 5_000_000,
            samples: 30,
            warmup_batches: 3,
        }
    }

    /// Smoke-run defaults: 500 µs samples × 10.
    pub fn quick() -> Self {
        BenchConfig {
            target_sample_ns: 500_000,
            samples: 10,
            warmup_batches: 1,
        }
    }

    /// Reads `IVL_BENCH_QUICK` from the environment.
    pub fn from_env() -> Self {
        let quick = std::env::var("IVL_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
        if quick {
            BenchConfig::quick()
        } else {
            BenchConfig::full()
        }
    }
}

/// Statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Group the benchmark belongs to (criterion's `benchmark_group`).
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Iterations per timed sample (from calibration).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Mean ns/iter over samples.
    pub mean_ns: f64,
    /// Median ns/iter over samples.
    pub median_ns: f64,
    /// 95th-percentile ns/iter over samples.
    pub p95_ns: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
}

impl BenchStats {
    /// `group/name` as printed and serialized.
    pub fn full_name(&self) -> String {
        format!("{}/{}", self.group, self.name)
    }

    /// Median-based throughput, iterations per second.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.median_ns > 0.0 {
            1e9 / self.median_ns
        } else {
            0.0
        }
    }
}

/// `q`-quantile (0..=1) of an ascending-sorted slice, by nearest-rank.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

/// The benchmark harness: groups, runs and reports benchmarks.
pub struct Harness {
    config: BenchConfig,
    clock: Box<dyn Clock>,
    suite: String,
    group: String,
    results: Vec<BenchStats>,
}

impl Harness {
    /// Harness with an explicit clock (tests inject [`FakeClock`]).
    pub fn with_clock(suite: &str, config: BenchConfig, clock: Box<dyn Clock>) -> Self {
        Harness {
            config,
            clock,
            suite: suite.to_string(),
            group: String::new(),
            results: Vec::new(),
        }
    }

    /// Wall-clock harness configured from the environment.
    pub fn from_env(suite: &str) -> Self {
        Harness::with_clock(suite, BenchConfig::from_env(), Box::new(WallClock::new()))
    }

    /// Starts a named benchmark group.
    pub fn group(&mut self, name: &str) {
        self.group = name.to_string();
        println!("-- {name} --");
    }

    /// Runs one benchmark: calibrate, warm up, time `samples` batches.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &BenchStats {
        // Calibrate: double the batch size until one batch spans at least
        // 1/10 of the sample target, then scale to the target.
        let mut batch = 1u64;
        let iters_per_sample = loop {
            let t0 = self.clock.now_ns();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = (self.clock.now_ns() - t0).max(1);
            if dt * 10 >= self.config.target_sample_ns || batch >= 1 << 24 {
                break (batch * self.config.target_sample_ns / dt).clamp(1, 1 << 28);
            }
            batch *= 2;
        };

        for _ in 0..self.config.warmup_batches {
            for _ in 0..iters_per_sample {
                black_box(f());
            }
        }

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples {
            let t0 = self.clock.now_ns();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let dt = self.clock.now_ns() - t0;
            samples_ns.push(dt as f64 / iters_per_sample as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));

        let stats = BenchStats {
            group: self.group.clone(),
            name: name.to_string(),
            iters_per_sample,
            samples: samples_ns.len(),
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            median_ns: percentile(&samples_ns, 0.50),
            p95_ns: percentile(&samples_ns, 0.95),
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().expect("non-empty samples"),
        };
        println!(
            "{:<44} median {:>12.1} ns/iter   p95 {:>12.1} ns/iter   thrpt {:>12.0} /s   ({} samples x {} iters)",
            stats.full_name(),
            stats.median_ns,
            stats.p95_ns,
            stats.throughput_per_sec(),
            stats.samples,
            stats.iters_per_sample,
        );
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// Finishes the suite: prints a footer and returns all collected
    /// statistics.
    pub fn finish(self) -> Vec<BenchStats> {
        println!(
            "suite `{}`: {} benchmark(s) complete",
            self.suite,
            self.results.len()
        );
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let mut c = WallClock::new();
        let mut prev = c.now_ns();
        for _ in 0..10_000 {
            let now = c.now_ns();
            assert!(now >= prev, "wall clock went backwards");
            prev = now;
        }
    }

    #[test]
    fn fake_clock_is_monotonic_and_deterministic() {
        let mut a = FakeClock::seed_from(99);
        let mut b = FakeClock::seed_from(99);
        let mut prev = 0;
        for _ in 0..10_000 {
            let (ta, tb) = (a.now_ns(), b.now_ns());
            assert_eq!(ta, tb, "same seed must give the same timeline");
            assert!(ta > prev, "fake clock must strictly advance");
            prev = ta;
        }
    }

    fn run_fixture(seed: u64) -> Vec<BenchStats> {
        let cfg = BenchConfig {
            target_sample_ns: 100_000,
            samples: 12,
            warmup_batches: 1,
        };
        let mut h = Harness::with_clock("fixture", cfg, Box::new(FakeClock::seed_from(seed)));
        h.group("g");
        let mut x = 0u64;
        h.bench("work", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        h.finish()
    }

    #[test]
    fn harness_is_deterministic_under_fixed_seed() {
        let a = run_fixture(7);
        let b = run_fixture(7);
        assert_eq!(a, b, "same clock seed must reproduce identical stats");
        assert_eq!(a.len(), 1);
        assert!(a[0].median_ns > 0.0);
        assert!(a[0].p95_ns >= a[0].median_ns);
        assert!(a[0].min_ns <= a[0].median_ns && a[0].median_ns <= a[0].max_ns);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 6.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
    }

    #[test]
    fn quick_config_is_cheaper_than_full() {
        let q = BenchConfig::quick();
        let f = BenchConfig::full();
        assert!(q.target_sample_ns < f.target_sample_ns);
        assert!(q.samples < f.samples);
    }
}
