//! MIRAGE-style randomized skewed cache.
//!
//! The paper's baseline hardens the shared LLC and the metadata caches with
//! MIRAGE, a randomized fully-associative-eviction design. This model keeps
//! MIRAGE's two security-relevant properties while staying cheap to
//! simulate:
//!
//! 1. **Keyed randomized indexing** — the set index of a key is derived from
//!    a keyed mix, not from address bits, in each of two skews;
//! 2. **Random global eviction** — victims are chosen (pseudo-)randomly, so
//!    eviction sets are not predictable from addresses.
//!
//! The timing behavior (hit/miss rates under a working set) is what the
//! performance evaluation needs; the security property matters for the
//! attack models, which treat a randomized cache as un-primable.

use ivl_sim_core::rng::{splitmix64, Xoshiro256};

use crate::{AccessOutcome, CacheModel, CacheTally, Evicted};

#[derive(Debug, Clone, Copy)]
struct Line {
    key: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

const EMPTY: Line = Line {
    key: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// `n` [`EMPTY`] lines from one zeroed allocation. The allocator's zeroed
/// pages stand in for a line-by-line fill, so building a system writes
/// none of its LLC up front.
fn empty_lines(n: usize) -> Box<[Line]> {
    // SAFETY: all-zero bytes are a valid `Line` (`u64` 0, `bool` false),
    // and that line is `EMPTY`.
    unsafe { Box::new_zeroed_slice(n).assume_init() }
}

/// A two-skew randomized cache with keyed indexing and random eviction.
///
/// # Examples
///
/// ```
/// use ivl_cache::{CacheModel, randomized::RandomizedCache};
/// let mut c = RandomizedCache::new(64, 8, 0xDEAD);
/// assert!(!c.access(42, false).hit);
/// assert!(c.access(42, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct RandomizedCache {
    /// Sets per skew.
    sets_per_skew: usize,
    /// Ways per skew (total associativity is `2 * ways_per_skew`).
    ways_per_skew: usize,
    /// Both skews in one slab: skew `s` owns sets `s * sets_per_skew ..
    /// (s + 1) * sets_per_skew`, each `ways_per_skew` lines wide. One
    /// allocation rather than one per skew keeps the largest block a system
    /// frees at the whole LLC; glibc derives its heap-trim threshold from
    /// that block, so back-to-back system builds reuse heap pages instead of
    /// faulting them in again.
    lines: Box<[Line]>,
    index_keys: [u64; 2],
    rng: Xoshiro256,
    clock: u64,
    tally: CacheTally,
}

impl RandomizedCache {
    /// Creates a randomized cache with `sets` total sets and `ways` total
    /// associativity, split across two skews.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is an even power of two and `ways` is even.
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        assert!(
            sets >= 2 && sets.is_power_of_two(),
            "sets must be a power of two >= 2"
        );
        assert!(
            ways >= 2 && ways.is_multiple_of(2),
            "ways must be even and >= 2"
        );
        // Each skew keeps every set but half the ways, so total capacity is
        // exactly `sets * ways` lines.
        let sets_per_skew = sets;
        let ways_per_skew = ways / 2;
        let (k0, s1) = splitmix64(seed);
        let (k1, _) = splitmix64(s1);
        RandomizedCache {
            sets_per_skew,
            ways_per_skew,
            lines: empty_lines(2 * sets_per_skew * ways_per_skew),
            index_keys: [k0, k1],
            rng: Xoshiro256::seed_from(seed ^ 0xC0FF_EE00),
            clock: 0,
            tally: CacheTally::default(),
        }
    }

    /// Lifetime access tallies (hits, misses, evictions).
    pub fn tally(&self) -> CacheTally {
        self.tally
    }

    /// Creates a cache from a capacity/associativity/line-size geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent.
    pub fn with_geometry(capacity_bytes: usize, ways: usize, line_bytes: usize, seed: u64) -> Self {
        let lines = capacity_bytes / line_bytes;
        assert!(lines.is_multiple_of(ways), "capacity must divide into ways");
        Self::new(lines / ways, ways, seed)
    }

    fn skew_set(&self, skew: usize, key: u64) -> usize {
        let (mixed, _) = splitmix64(key ^ self.index_keys[skew]);
        (mixed as usize) & (self.sets_per_skew - 1)
    }

    fn set_range(&self, skew: usize, key: u64) -> std::ops::Range<usize> {
        let set = skew * self.sets_per_skew + self.skew_set(skew, key);
        set * self.ways_per_skew..(set + 1) * self.ways_per_skew
    }
}

impl RandomizedCache {
    fn access_inner(&mut self, key: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let clock = self.clock;

        // Hit check in both skews.
        for skew in 0..2 {
            let range = self.set_range(skew, key);
            if let Some(line) = self.lines[range]
                .iter_mut()
                .find(|l| l.valid && l.key == key)
            {
                line.lru = clock;
                line.dirty |= is_write;
                return AccessOutcome {
                    hit: true,
                    evicted: None,
                    bypassed: false,
                };
            }
        }

        // Miss: fill into the skew whose candidate set has an invalid way
        // (load-aware skew selection, as in power-of-two-choices); otherwise
        // pick a random skew and a random victim within the set — the random
        // global-eviction approximation.
        let mut chosen: Option<usize> = None; // line index
        for skew in 0..2 {
            let range = self.set_range(skew, key);
            if let Some(off) = self.lines[range.clone()].iter().position(|l| !l.valid) {
                chosen = Some(range.start + off);
                break;
            }
        }
        let (idx, evicted) = match chosen {
            Some(idx) => (idx, None),
            None => {
                let skew = (self.rng.next_u64() & 1) as usize;
                let range = self.set_range(skew, key);
                let off = self.rng.index(self.ways_per_skew);
                let idx = range.start + off;
                let old = self.lines[idx];
                (
                    idx,
                    Some(Evicted {
                        key: old.key,
                        dirty: old.dirty,
                    }),
                )
            }
        };
        self.lines[idx] = Line {
            key,
            valid: true,
            dirty: is_write,
            lru: clock,
        };
        AccessOutcome {
            hit: false,
            evicted,
            bypassed: false,
        }
    }
}

impl CacheModel for RandomizedCache {
    fn access(&mut self, key: u64, is_write: bool) -> AccessOutcome {
        let outcome = self.access_inner(key, is_write);
        self.tally.record(&outcome);
        outcome
    }

    fn probe(&self, key: u64) -> bool {
        (0..2).any(|skew| {
            let range = self.set_range(skew, key);
            self.lines[range].iter().any(|l| l.valid && l.key == key)
        })
    }

    fn invalidate(&mut self, key: u64) -> Option<bool> {
        for skew in 0..2 {
            let range = self.set_range(skew, key);
            for line in self.lines[range].iter_mut() {
                if line.valid && line.key == key {
                    let dirty = line.dirty;
                    *line = EMPTY;
                    return Some(dirty);
                }
            }
        }
        None
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut c = RandomizedCache::new(16, 4, 1);
        assert!(!c.access(99, false).hit);
        assert!(c.access(99, false).hit);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = RandomizedCache::new(16, 4, 2);
        for k in 0..1000u64 {
            c.access(k, false);
        }
        assert!(c.occupancy() <= 16 * 4);
        assert!(c.occupancy() > 16 * 4 / 2, "cache should fill up");
    }

    #[test]
    fn different_seeds_different_mappings() {
        let a = RandomizedCache::new(64, 4, 10);
        let b = RandomizedCache::new(64, 4, 11);
        // At least one of a handful of keys should map differently in skew 0.
        let differs = (0..32u64).any(|k| a.skew_set(0, k) != b.skew_set(0, k));
        assert!(differs);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = RandomizedCache::new(8, 2, 3);
        c.access(7, true);
        assert_eq!(c.invalidate(7), Some(true));
        assert!(!c.probe(7));
    }

    #[test]
    fn dirty_writeback_reported_under_pressure() {
        let mut c = RandomizedCache::new(2, 2, 4);
        let mut saw_dirty_victim = false;
        for k in 0..64u64 {
            let out = c.access(k, true);
            if out.evicted.map(|e| e.dirty).unwrap_or(false) {
                saw_dirty_victim = true;
            }
        }
        assert!(saw_dirty_victim);
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = RandomizedCache::new(8, 2, 9);
        assert!(!c.probe(5));
        assert!(!c.access(5, false).hit, "probe must not have filled");
    }

    #[test]
    fn write_marks_dirty_for_later_eviction_reporting() {
        let mut c = RandomizedCache::new(2, 2, 10);
        c.access(1, false);
        c.access(1, true); // upgrade to dirty
        assert_eq!(c.invalidate(1), Some(true));
    }

    #[test]
    fn zeroed_slab_holds_empty_lines() {
        let c = RandomizedCache::new(64, 8, 12);
        assert_eq!(c.lines.len(), 64 * 8);
        assert!(c.lines.iter().all(|l| {
            (l.key, l.valid, l.dirty, l.lru) == (EMPTY.key, EMPTY.valid, EMPTY.dirty, EMPTY.lru)
        }));
    }

    #[test]
    fn occupancy_counts_valid_lines_only() {
        let mut c = RandomizedCache::new(8, 2, 11);
        assert_eq!(c.occupancy(), 0);
        c.access(1, false);
        c.access(2, false);
        c.invalidate(1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn tally_matches_observed_outcomes() {
        let mut c = RandomizedCache::new(8, 2, 7);
        let mut hits = 0u64;
        let mut evictions = 0u64;
        for k in 0..40u64 {
            let out = c.access(k % 10, false);
            hits += out.hit as u64;
            evictions += out.evicted.is_some() as u64;
        }
        let t = c.tally();
        assert_eq!(t.hits, hits);
        assert_eq!(t.misses, 40 - hits);
        assert_eq!(t.evictions, evictions);
    }

    #[test]
    fn working_set_within_capacity_mostly_hits() {
        let mut c = RandomizedCache::new(64, 8, 5);
        let ws: Vec<u64> = (0..128).collect(); // 128 blocks in a 512-line cache
        for &k in &ws {
            c.access(k, false);
        }
        let hits = ws.iter().filter(|&&k| c.access(k, false).hit).count();
        assert!(hits as f64 >= 0.95 * ws.len() as f64, "hits {hits}");
    }
}
