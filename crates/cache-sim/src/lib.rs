//! Cache models for the IvLeague reproduction.
//!
//! Three structures cover every on-chip buffer in the paper:
//!
//! * [`set_assoc::SetAssocCache`] — classical set-associative cache with LRU
//!   replacement, dirty bits, and per-line **locking** (used to pin TreeLing
//!   roots into the IV metadata cache, Section VI-B);
//! * [`randomized::RandomizedCache`] — a MIRAGE-style randomized skewed
//!   cache used by the baseline's side-channel-hardened LLC and metadata
//!   caches (Section IX);
//! * [`cam::CamBuffer`] — a small fully-associative LRU buffer used for the
//!   on-chip NFL buffer (NFLB) and similar CAM structures.
//!
//! All models speak `u64` keys (block addresses or metadata identifiers) and
//! implement the common [`CacheModel`] trait so the memory-controller models
//! can switch between classical and randomized organizations.
//!
//! # Examples
//!
//! ```
//! use ivl_cache::{CacheModel, set_assoc::SetAssocCache};
//!
//! let mut c = SetAssocCache::new(4, 2); // 4 sets, 2 ways
//! assert!(!c.access(0x10, false).hit);
//! assert!(c.access(0x10, false).hit);
//! ```

use std::ops::Range;

pub mod cam;
pub mod randomized;
pub mod set_assoc;

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Key of the victim line.
    pub key: u64,
    /// Whether the victim was dirty (requires a write-back).
    pub dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Victim evicted to make room for the fill (misses only).
    pub evicted: Option<Evicted>,
    /// The access bypassed the cache (no fill happened — e.g. every way of
    /// the target set is locked).
    pub bypassed: bool,
}

/// Internal access tallies kept by every cache organization, so the
/// observability layer can export per-cache statistics without each
/// wrapper shadow-counting outcomes.
///
/// All fields accumulate saturating (matching the `ivl-sim-core` stats
/// policy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (including bypasses).
    pub misses: u64,
    /// Fills that evicted a victim.
    pub evictions: u64,
    /// Evicted victims that were dirty (require a write-back).
    pub dirty_evictions: u64,
    /// Misses that could not fill (fully locked set).
    pub bypasses: u64,
}

impl CacheTally {
    /// Folds one access outcome into the tally.
    pub fn record(&mut self, outcome: &AccessOutcome) {
        if outcome.hit {
            self.hits = self.hits.saturating_add(1);
        } else {
            self.misses = self.misses.saturating_add(1);
        }
        if let Some(e) = outcome.evicted {
            self.evictions = self.evictions.saturating_add(1);
            if e.dirty {
                self.dirty_evictions = self.dirty_evictions.saturating_add(1);
            }
        }
        if outcome.bypassed {
            self.bypasses = self.bypasses.saturating_add(1);
        }
    }

    /// Total accesses recorded.
    pub const fn total(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// Tallies accumulated since an earlier snapshot (saturating
    /// fieldwise).
    pub const fn since(&self, earlier: &CacheTally) -> CacheTally {
        CacheTally {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            dirty_evictions: self.dirty_evictions.saturating_sub(earlier.dirty_evictions),
            bypasses: self.bypasses.saturating_sub(earlier.bypasses),
        }
    }
}

/// Emits one access outcome into per-window timeline series: a miss bumps
/// the `misses` counter, an eviction the `evictions` counter, both in
/// `cycle`'s window. Callers pass static series names (`"llc.misses"`, …)
/// so the hot path stays allocation-free; gate on
/// [`Timeline::enabled`](ivl_sim_core::obs::Timeline::enabled) (or a cached
/// bool) before calling.
pub fn timeline_outcome(
    tl: &ivl_sim_core::obs::Timeline,
    cycle: u64,
    outcome: &AccessOutcome,
    misses: &str,
    evictions: &str,
) {
    if !outcome.hit {
        tl.count(misses, cycle, 1);
    }
    if outcome.evicted.is_some() {
        tl.count(evictions, cycle, 1);
    }
}

/// Common interface of all cache organizations in this crate.
pub trait CacheModel {
    /// Performs an access: on a hit, updates recency (and dirtiness for a
    /// write); on a miss, fills the line, possibly evicting a victim.
    fn access(&mut self, key: u64, is_write: bool) -> AccessOutcome;

    /// Checks residency without updating any replacement state.
    fn probe(&self, key: u64) -> bool;

    /// Removes a line if present, returning whether it was dirty.
    fn invalidate(&mut self, key: u64) -> Option<bool>;

    /// Removes every line whose key falls in `keys`, as one
    /// [`invalidate`](Self::invalidate) per key does, and drops their dirty
    /// data: the caller discards the whole run (a freed page, say).
    fn invalidate_range(&mut self, keys: Range<u64>) {
        for key in keys {
            self.invalidate(key);
        }
    }

    /// Number of currently valid lines.
    fn occupancy(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_sim_core::obs::Timeline;

    #[test]
    fn timeline_outcome_counts_misses_and_evictions() {
        let tl = Timeline::bounded(10, 8);
        let hit = AccessOutcome {
            hit: true,
            evicted: None,
            bypassed: false,
        };
        let miss = AccessOutcome {
            hit: false,
            evicted: Some(Evicted {
                key: 1,
                dirty: true,
            }),
            bypassed: false,
        };
        timeline_outcome(&tl, 5, &hit, "c.misses", "c.evictions");
        timeline_outcome(&tl, 15, &miss, "c.misses", "c.evictions");
        let snap = tl.snapshot();
        assert_eq!(snap.counter_sum("c.misses"), Some(1));
        assert_eq!(snap.counter_sum("c.evictions"), Some(1));
    }
}
