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

use std::ops::Range;

use ivl_sim_core::rng::{splitmix64, Xoshiro256};

use crate::{AccessOutcome, CacheModel, CacheTally, Evicted};

/// One line as one word: `key << 2 | dirty << 1 | valid`; 0 is the empty
/// line.
const VALID: u64 = 1;
const DIRTY: u64 = 2;

/// Keys at or above this bound would lose bits in a packed line.
const KEY_BOUND: u64 = 1 << 62;

/// Keys per batch of `invalidate_range`.
const CHUNK: usize = 64;

/// A two-skew randomized cache with keyed indexing and random eviction.
///
/// Keys must be below `2^62`: a line packs its key with two flag bits into
/// one `u64`.
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
    /// Both skews in one slab of packed lines: skew `s` owns sets
    /// `s * sets_per_skew .. (s + 1) * sets_per_skew`, each `ways_per_skew`
    /// lines wide; an 8-way set is 64 bytes.
    lines: Box<[u64]>,
    index_keys: [u64; 2],
    rng: Xoshiro256,
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
            // A zeroed allocation: building a system writes none of its LLC
            // up front.
            lines: vec![0; 2 * sets_per_skew * ways_per_skew].into_boxed_slice(),
            index_keys: [k0, k1],
            rng: Xoshiro256::seed_from(seed ^ 0xC0FF_EE00),
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

    /// First line of `key`'s set in each skew.
    fn set_starts(&self, key: u64) -> [usize; 2] {
        [0, 1]
            .map(|skew| (skew * self.sets_per_skew + self.skew_set(skew, key)) * self.ways_per_skew)
    }

    /// The packed line holding `key`, clean; a dirty copy differs in
    /// [`DIRTY`] only.
    fn clean_line(key: u64) -> u64 {
        debug_assert!(key < KEY_BOUND, "key {key:#x} does not fit a packed line");
        key << 2 | VALID
    }

    /// Index of the line holding `key` in the sets at `starts`.
    fn find(&self, key: u64, starts: [usize; 2]) -> Option<usize> {
        let want = Self::clean_line(key) | DIRTY;
        starts.into_iter().find_map(|start| {
            let set = &self.lines[start..start + self.ways_per_skew];
            set.iter()
                .position(|&l| l | DIRTY == want)
                .map(|off| start + off)
        })
    }

    /// Empties the line holding `key` in the sets at `starts`, returning
    /// whether it was dirty.
    fn clear(&mut self, key: u64, starts: [usize; 2]) -> Option<bool> {
        let idx = self.find(key, starts)?;
        let dirty = self.lines[idx] & DIRTY != 0;
        self.lines[idx] = 0;
        Some(dirty)
    }

    fn access_inner(&mut self, key: u64, is_write: bool) -> AccessOutcome {
        let starts = self.set_starts(key);
        let dirty = if is_write { DIRTY } else { 0 };

        // Hit check in both skews.
        if let Some(idx) = self.find(key, starts) {
            self.lines[idx] |= dirty;
            return AccessOutcome {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }

        // Miss: fill into the skew whose candidate set has an invalid way
        // (load-aware skew selection, as in power-of-two-choices); otherwise
        // pick a random skew and a random victim within the set — the random
        // global-eviction approximation.
        let ways = self.ways_per_skew;
        let empty = starts.into_iter().find_map(|start| {
            let set = &self.lines[start..start + ways];
            set.iter().position(|&l| l == 0).map(|off| start + off)
        });
        let (idx, evicted) = match empty {
            Some(idx) => (idx, None),
            None => {
                let skew = (self.rng.next_u64() & 1) as usize;
                let idx = starts[skew] + self.rng.index(ways);
                let old = self.lines[idx];
                (
                    idx,
                    Some(Evicted {
                        key: old >> 2,
                        dirty: old & DIRTY != 0,
                    }),
                )
            }
        };
        self.lines[idx] = Self::clean_line(key) | dirty;
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
        self.find(key, self.set_starts(key)).is_some()
    }

    fn invalidate(&mut self, key: u64) -> Option<bool> {
        self.clear(key, self.set_starts(key))
    }

    /// Computes the sets of up to [`CHUNK`] keys before probing any of
    /// them: a run's sets are scattered, and the loads can then overlap.
    /// Invalidations of distinct keys commute and draw no random numbers,
    /// so the order is unobservable.
    fn invalidate_range(&mut self, keys: Range<u64>) {
        let mut starts = [[0; 2]; CHUNK];
        let mut first = keys.start;
        while first < keys.end {
            let n = (keys.end - first).min(CHUNK as u64) as usize;
            for (key, s) in (first..).zip(&mut starts[..n]) {
                *s = self.set_starts(key);
            }
            for (key, s) in (first..).zip(&starts[..n]) {
                self.clear(key, *s);
            }
            first += n as u64;
        }
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&l| l != 0).count()
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
        assert!(c.lines.iter().all(|&l| l == 0));
        assert_eq!(c.occupancy(), 0);
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

    /// The struct-of-lines implementation the packed slab replaced, kept as
    /// the behavioral oracle for the differential test below. Its `lru`
    /// stamp, written but never read, is left out; a run invalidation is the
    /// trait's per-key loop.
    mod reference {
        use ivl_sim_core::rng::{splitmix64, Xoshiro256};

        use crate::{AccessOutcome, CacheModel, CacheTally, Evicted};

        #[derive(Debug, Clone, Copy)]
        struct Line {
            key: u64,
            valid: bool,
            dirty: bool,
        }

        const EMPTY: Line = Line {
            key: 0,
            valid: false,
            dirty: false,
        };

        pub struct RefCache {
            sets_per_skew: usize,
            ways_per_skew: usize,
            lines: Vec<Line>,
            index_keys: [u64; 2],
            rng: Xoshiro256,
            pub tally: CacheTally,
        }

        impl RefCache {
            pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
                let (k0, s1) = splitmix64(seed);
                let (k1, _) = splitmix64(s1);
                RefCache {
                    sets_per_skew: sets,
                    ways_per_skew: ways / 2,
                    lines: vec![EMPTY; sets * ways],
                    index_keys: [k0, k1],
                    rng: Xoshiro256::seed_from(seed ^ 0xC0FF_EE00),
                    tally: CacheTally::default(),
                }
            }

            fn set_range(&self, skew: usize, key: u64) -> std::ops::Range<usize> {
                let (mixed, _) = splitmix64(key ^ self.index_keys[skew]);
                let set = skew * self.sets_per_skew + ((mixed as usize) & (self.sets_per_skew - 1));
                set * self.ways_per_skew..(set + 1) * self.ways_per_skew
            }

            fn access_inner(&mut self, key: u64, is_write: bool) -> AccessOutcome {
                for skew in 0..2 {
                    let range = self.set_range(skew, key);
                    if let Some(line) = self.lines[range]
                        .iter_mut()
                        .find(|l| l.valid && l.key == key)
                    {
                        line.dirty |= is_write;
                        return AccessOutcome {
                            hit: true,
                            evicted: None,
                            bypassed: false,
                        };
                    }
                }
                let mut chosen: Option<usize> = None;
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
                        let idx = range.start + self.rng.index(self.ways_per_skew);
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
                };
                AccessOutcome {
                    hit: false,
                    evicted,
                    bypassed: false,
                }
            }
        }

        impl CacheModel for RefCache {
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
    }

    /// Packed lines vs. the struct-of-lines implementation under a random
    /// mix of accesses, probes, invalidations and run invalidations over
    /// several geometries and seeds: every outcome, the tally and the
    /// occupancy must agree.
    #[test]
    fn differential_against_reference_implementation() {
        let mut rng = Xoshiro256::seed_from(0x5EED);
        for (sets, ways) in [(2, 2), (4, 4), (16, 8), (64, 16), (256, 8)] {
            for seed in [1, 0xDEAD, 0x1234_5678_9ABC] {
                let mut packed = RandomizedCache::new(sets, ways, seed);
                let mut reference = reference::RefCache::new(sets, ways, seed);
                // Keys around three times the capacity keep sets full and
                // colliding; a few sit near the key bound.
                let key_space = (sets * ways * 3) as u64;
                for step in 0..10_000 {
                    let key = match rng.index(50) {
                        0 => KEY_BOUND - 1 - rng.next_below(8),
                        _ => rng.next_below(key_space),
                    };
                    match rng.index(10) {
                        0 => assert_eq!(
                            packed.invalidate(key),
                            reference.invalidate(key),
                            "invalidate @{step}"
                        ),
                        1 => {
                            // Up to 149 keys: runs span several chunks.
                            let end = key.saturating_add(rng.next_below(150)).min(KEY_BOUND);
                            packed.invalidate_range(key..end);
                            reference.invalidate_range(key..end);
                        }
                        _ => {
                            let is_write = rng.chance(0.5);
                            assert_eq!(
                                packed.access(key, is_write),
                                reference.access(key, is_write),
                                "access @{step} (sets={sets} ways={ways} seed={seed})"
                            );
                        }
                    }
                    assert_eq!(packed.probe(key), reference.probe(key), "probe @{step}");
                    assert_eq!(packed.occupancy(), reference.occupancy(), "occ @{step}");
                }
                assert_eq!(packed.tally(), reference.tally);
            }
        }
    }
}
