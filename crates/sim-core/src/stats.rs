//! Lightweight statistics primitives used by all models.
//!
//! Each component owns its own counters and exposes them through accessor
//! methods, which keeps the models testable in isolation; the
//! [`obs`](crate::obs) layer collects them into a dotted-path
//! [`StatsRegistry`](crate::obs::registry::StatsRegistry) snapshot when a
//! run wants a unified view.
//!
//! All accumulation is **saturating**: pathological long runs clamp at the
//! numeric ceiling instead of overflow-panicking in debug builds.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use ivl_sim_core::stats::Counter;
/// let mut c = Counter::new();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one (saturating).
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` events (saturating).
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }

    /// Events accumulated since an earlier snapshot of this counter
    /// (saturating: a nonsensical "earlier" snapshot ahead of `self`
    /// yields zero rather than wrapping).
    pub const fn since(self, earlier: Counter) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Hit/miss ratio tracker (caches, predictors, buffers).
///
/// # Examples
///
/// ```
/// use ivl_sim_core::stats::HitMiss;
/// let mut h = HitMiss::new();
/// h.hit();
/// h.hit();
/// h.miss();
/// assert!((h.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMiss {
    hits: u64,
    misses: u64,
}

impl HitMiss {
    /// Creates a zeroed tracker.
    pub const fn new() -> Self {
        HitMiss { hits: 0, misses: 0 }
    }

    /// Reconstructs a tracker from raw hit/miss counts (used when
    /// deserializing registry snapshots).
    pub const fn from_parts(hits: u64, misses: u64) -> Self {
        HitMiss { hits, misses }
    }

    /// Records a hit (saturating).
    pub fn hit(&mut self) {
        self.hits = self.hits.saturating_add(1);
    }

    /// Records a miss (saturating).
    pub fn miss(&mut self) {
        self.misses = self.misses.saturating_add(1);
    }

    /// Records either, from a boolean outcome.
    pub fn record(&mut self, was_hit: bool) {
        if was_hit {
            self.hit();
        } else {
            self.miss();
        }
    }

    /// Total hits.
    pub const fn hits(self) -> u64 {
        self.hits
    }

    /// Total misses.
    pub const fn misses(self) -> u64 {
        self.misses
    }

    /// Total accesses.
    pub const fn total(self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// The hits/misses accumulated since an earlier snapshot of this
    /// tracker (saturating fieldwise — the warmup-epoch delta the
    /// simulator's measurement window uses).
    pub const fn since(self, earlier: HitMiss) -> HitMiss {
        HitMiss {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }

    /// Hit rate in `[0, 1]`; `0` when no accesses were recorded.
    pub fn hit_rate(self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Geometric mean of a slice of positive values; `0` for an empty slice.
///
/// # Examples
///
/// ```
/// use ivl_sim_core::stats::gmean;
/// assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn hitmiss_rates() {
        let mut h = HitMiss::new();
        assert_eq!(h.hit_rate(), 0.0);
        h.record(true);
        h.record(false);
        h.record(false);
        assert_eq!(h.hits(), 1);
        assert_eq!(h.misses(), 2);
        assert!((h.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn counter_and_hitmiss_saturate_instead_of_overflowing() {
        // Regression: these used to be raw `+=`, which overflow-panics in
        // debug builds on pathological long runs.
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.inc();
        c.add(17);
        assert_eq!(c.get(), u64::MAX);
        assert_eq!(c.since(Counter::new()), u64::MAX);

        let mut h = HitMiss {
            hits: u64::MAX,
            misses: u64::MAX,
        };
        h.hit();
        h.miss();
        assert_eq!(h.hits(), u64::MAX);
        assert_eq!(h.misses(), u64::MAX);
        assert_eq!(h.total(), u64::MAX, "total saturates too");
    }

    #[test]
    fn since_is_saturating_and_matches_subtraction() {
        let mut early = HitMiss::new();
        early.hit();
        let mut late = early;
        late.hit();
        late.miss();
        let d = late.since(early);
        assert_eq!((d.hits(), d.misses()), (1, 1));
        // Nonsense ordering clamps at zero instead of wrapping.
        let z = early.since(late);
        assert_eq!((z.hits(), z.misses()), (0, 0));
    }

    #[test]
    fn gmean_matches_hand_computation() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
        let single = gmean(&[3.5]);
        assert!((single - 3.5).abs() < 1e-12);
    }
}
