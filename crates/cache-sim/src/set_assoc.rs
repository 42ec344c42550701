//! Set-associative cache with LRU replacement and line locking.
//!
//! Line locking models IvLeague's way-partition reservation that pins all
//! TreeLing roots in the IV metadata cache (paper Sections VI-B and X-D):
//! locked lines always hit and are never chosen as victims. If every way of
//! a set is locked, fills for other keys bypass the cache.
//!
//! # Layout
//!
//! The cache stores per-set metadata in packed, structure-of-arrays form
//! instead of an array of line structs (DESIGN.md §6): a dense tag array
//! (the `ways` tags of a set share one cache line for `ways ≤ 8`), per-set
//! `valid`/`dirty`/`locked` bitmasks (one bit per way), and the recency
//! order as a move-to-front list of way indices packed four bits per slot
//! into a single `u64` (slot 0 = most recently used). A hit touches one
//! `u64` instead of restamping a 32-byte line struct, and victim selection
//! walks the list from the LRU end instead of a `min_by_key` scan — while
//! producing exactly the victim order of the classical recency-stamp
//! implementation (pinned by a differential test below).
//!
//! The packed recency list caps associativity at 16 ways; every
//! configuration in the workspace uses 16 or fewer.

use crate::{AccessOutcome, CacheModel, CacheTally, Evicted};

/// Maximum associativity the packed recency list supports (4-bit way ids).
pub const MAX_WAYS: usize = 16;

/// A set-associative LRU cache over `u64` keys.
///
/// # Examples
///
/// ```
/// use ivl_cache::{CacheModel, set_assoc::SetAssocCache};
/// let mut c = SetAssocCache::new(2, 2);
/// c.access(0, true); // fill dirty
/// c.access(2, false);
/// c.access(4, false); // evicts key 0 (same set, LRU) → dirty victim
/// assert!(!c.probe(0));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    set_mask: usize,
    /// All-ways-present bitmask (`ways` low bits set).
    way_mask: u16,
    /// `tags[set * ways + way]`; only meaningful where the valid bit is set.
    tags: Box<[u64]>,
    /// Per-set valid bitmask (bit `w` = way `w` holds a line).
    valid: Box<[u16]>,
    /// Per-set dirty bitmask.
    dirty: Box<[u16]>,
    /// Per-set locked bitmask (subset of `valid`).
    locked: Box<[u16]>,
    /// Per-set recency list: nibble `s` holds the way id at recency slot
    /// `s`; slot 0 is the MRU end, slot `ways - 1` the LRU end. Always a
    /// permutation of `0..ways` (invalid ways ride along in the list but
    /// are never selected through it).
    lru: Box<[u64]>,
    tally: CacheTally,
}

/// The identity permutation `0,1,…,15` packed four bits per slot.
const LRU_IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

impl SetAssocCache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, either parameter is zero, or
    /// `ways` exceeds [`MAX_WAYS`].
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be positive");
        assert!(ways <= MAX_WAYS, "at most {MAX_WAYS} ways supported");
        SetAssocCache {
            sets,
            ways,
            set_mask: sets - 1,
            way_mask: if ways == 16 {
                u16::MAX
            } else {
                (1u16 << ways) - 1
            },
            tags: vec![0; sets * ways].into_boxed_slice(),
            valid: vec![0; sets].into_boxed_slice(),
            dirty: vec![0; sets].into_boxed_slice(),
            locked: vec![0; sets].into_boxed_slice(),
            lru: vec![LRU_IDENTITY; sets].into_boxed_slice(),
            tally: CacheTally::default(),
        }
    }

    /// Lifetime access tallies (hits, misses, evictions, bypasses).
    pub fn tally(&self) -> CacheTally {
        self.tally
    }

    /// Creates a cache from a capacity/associativity/line-size geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`new`](Self::new)).
    pub fn with_geometry(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        let lines = capacity_bytes / line_bytes;
        assert!(lines.is_multiple_of(ways), "capacity must divide into ways");
        Self::new(lines / ways, ways)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_index(&self, key: u64) -> usize {
        (key as usize) & self.set_mask
    }

    /// Way holding `key` in `set`, if resident. Compares every way
    /// unconditionally into a match mask — no early-exit branch per way —
    /// then masks with the valid bits; valid tags are unique per set, so
    /// the lowest set bit (if any) is the way in scan order.
    #[inline]
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        let base = set * self.ways;
        let mut hits = 0u16;
        for w in 0..self.ways {
            hits |= u16::from(self.tags[base + w] == key) << w;
        }
        let m = hits & self.valid[set];
        if m != 0 {
            Some(m.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Moves `way` to the MRU end of the set's recency list.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let l = self.lru[set];
        // Locate the slot holding `way` with a SWAR zero-nibble find: the
        // list is a permutation, so XOR-ing `way` into every nibble zeroes
        // exactly one, and the borrow trick lights bit 3 of that nibble.
        let x = l ^ (way as u64 * 0x1111_1111_1111_1111);
        let z = x.wrapping_sub(0x1111_1111_1111_1111) & !x & 0x8888_8888_8888_8888;
        let s = (z.trailing_zeros() >> 2) as usize;
        // Slots below keep their order one step older; slots above stay.
        let low = l & ((1u64 << (4 * s)) - 1);
        let above = if 4 * s + 4 >= 64 {
            0
        } else {
            l & !((1u64 << (4 * s + 4)) - 1)
        };
        self.lru[set] = above | (low << 4) | way as u64;
    }

    /// Least-recently-used way of `set` among the ways in `mask`, walking
    /// the packed list from its LRU end.
    #[inline]
    fn lru_way(&self, set: usize, mask: u16) -> Option<usize> {
        if mask == 0 {
            return None;
        }
        let l = self.lru[set];
        for slot in (0..self.ways).rev() {
            let w = ((l >> (4 * slot)) & 0xF) as usize;
            if mask & (1 << w) != 0 {
                return Some(w);
            }
        }
        None
    }

    /// Inserts `key` and pins it: it will never be evicted (and `access` to
    /// it always hits). Returns `false` if every way of the set is already
    /// locked by other keys, in which case nothing changes.
    pub fn lock(&mut self, key: u64) -> bool {
        let set = self.set_index(key);
        // Already resident: pin in place.
        if let Some(w) = self.find(set, key) {
            self.locked[set] |= 1 << w;
            self.touch(set, w);
            return true;
        }
        // Prefer an invalid way, then an unlocked victim (LRU).
        let invalid = !self.valid[set] & self.way_mask;
        let slot = if invalid != 0 {
            Some(invalid.trailing_zeros() as usize)
        } else {
            self.lru_way(set, self.valid[set] & !self.locked[set])
        };
        match slot {
            Some(w) => {
                let bit = 1u16 << w;
                self.tags[set * self.ways + w] = key;
                self.valid[set] |= bit;
                self.dirty[set] &= !bit;
                self.locked[set] |= bit;
                self.touch(set, w);
                true
            }
            None => false,
        }
    }

    /// Number of locked lines.
    pub fn locked_count(&self) -> usize {
        self.valid
            .iter()
            .zip(self.locked.iter())
            .map(|(v, l)| (v & l).count_ones() as usize)
            .sum()
    }
}

impl SetAssocCache {
    fn access_inner(&mut self, key: u64, is_write: bool) -> AccessOutcome {
        let set = self.set_index(key);

        if let Some(w) = self.find(set, key) {
            self.dirty[set] |= (is_write as u16) << w;
            self.touch(set, w);
            return AccessOutcome {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }

        // Miss: fill. Prefer an invalid way; otherwise evict LRU unlocked.
        let invalid = !self.valid[set] & self.way_mask;
        if invalid != 0 {
            let w = invalid.trailing_zeros() as usize;
            let bit = 1u16 << w;
            self.tags[set * self.ways + w] = key;
            self.valid[set] |= bit;
            self.dirty[set] = (self.dirty[set] & !bit) | ((is_write as u16) << w);
            self.touch(set, w);
            return AccessOutcome {
                hit: false,
                evicted: None,
                bypassed: false,
            };
        }
        match self.lru_way(set, self.valid[set] & !self.locked[set]) {
            Some(w) => {
                let bit = 1u16 << w;
                let old = Evicted {
                    key: self.tags[set * self.ways + w],
                    dirty: self.dirty[set] & bit != 0,
                };
                self.tags[set * self.ways + w] = key;
                self.dirty[set] = (self.dirty[set] & !bit) | ((is_write as u16) << w);
                self.touch(set, w);
                AccessOutcome {
                    hit: false,
                    evicted: Some(old),
                    bypassed: false,
                }
            }
            None => AccessOutcome {
                hit: false,
                evicted: None,
                bypassed: true,
            },
        }
    }
}

impl CacheModel for SetAssocCache {
    fn access(&mut self, key: u64, is_write: bool) -> AccessOutcome {
        let outcome = self.access_inner(key, is_write);
        self.tally.record(&outcome);
        outcome
    }

    fn probe(&self, key: u64) -> bool {
        self.find(self.set_index(key), key).is_some()
    }

    fn invalidate(&mut self, key: u64) -> Option<bool> {
        let set = self.set_index(key);
        let w = self.find(set, key)?;
        let bit = 1u16 << w;
        let was_dirty = self.dirty[set] & bit != 0;
        self.valid[set] &= !bit;
        self.dirty[set] &= !bit;
        self.locked[set] &= !bit;
        Some(was_dirty)
    }

    fn occupancy(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.access(5, false).hit);
        assert!(c.access(5, false).hit);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new(1, 2);
        c.access(1, false);
        c.access(2, false);
        c.access(1, false); // 2 is now LRU
        let out = c.access(3, false);
        assert_eq!(out.evicted.map(|e| e.key), Some(2));
        assert!(c.probe(1) && c.probe(3) && !c.probe(2));
    }

    #[test]
    fn dirty_victims_reported() {
        let mut c = SetAssocCache::new(1, 1);
        c.access(1, true);
        let out = c.access(2, false);
        assert_eq!(
            out.evicted,
            Some(Evicted {
                key: 1,
                dirty: true
            })
        );
    }

    #[test]
    fn locked_lines_survive_pressure() {
        let mut c = SetAssocCache::new(1, 2);
        assert!(c.lock(100));
        for k in 0..50u64 {
            c.access(k, false);
        }
        assert!(c.probe(100));
        assert!(c.access(100, false).hit);
    }

    #[test]
    fn fully_locked_set_bypasses() {
        let mut c = SetAssocCache::new(1, 2);
        assert!(c.lock(1));
        assert!(c.lock(2));
        assert!(!c.lock(3), "no unlocked way left");
        let out = c.access(7, false);
        assert!(out.bypassed);
        assert!(!c.probe(7));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = SetAssocCache::new(2, 2);
        c.access(4, true);
        assert_eq!(c.invalidate(4), Some(true));
        assert_eq!(c.invalidate(4), None);
    }

    #[test]
    fn geometry_constructor() {
        let c = SetAssocCache::with_geometry(256 * 1024, 8, 64);
        assert_eq!(c.sets(), 512);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    fn tally_tracks_outcomes() {
        let mut c = SetAssocCache::new(1, 1);
        c.access(1, true); // miss, fill
        c.access(1, false); // hit
        c.access(2, false); // miss, dirty eviction
        c.lock(2);
        c.access(3, false); // bypass (set fully locked)
        let t = c.tally();
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 3);
        assert_eq!(t.evictions, 1);
        assert_eq!(t.dirty_evictions, 1);
        assert_eq!(t.bypasses, 1);
        assert_eq!(t.total(), 4);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.access(1, false);
        c.access(2, false);
        assert!(c.probe(1)); // must not refresh key 1
        let out = c.access(3, false);
        assert_eq!(out.evicted.map(|e| e.key), Some(1));
    }

    #[test]
    fn sixteen_ways_supported_seventeen_rejected() {
        let mut c = SetAssocCache::new(1, 16);
        for k in 0..16u64 {
            c.access(k, false);
        }
        assert_eq!(c.occupancy(), 16);
        let out = c.access(16, false);
        assert_eq!(out.evicted.map(|e| e.key), Some(0));
        assert!(std::panic::catch_unwind(|| SetAssocCache::new(1, 17)).is_err());
    }

    /// The pre-packing implementation (array of line structs with monotonic
    /// recency stamps), kept verbatim as the behavioral oracle for the
    /// differential test below.
    mod reference {
        use crate::{AccessOutcome, Evicted};

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Line {
            key: u64,
            valid: bool,
            dirty: bool,
            locked: bool,
            lru: u64,
        }

        const EMPTY: Line = Line {
            key: 0,
            valid: false,
            dirty: false,
            locked: false,
            lru: 0,
        };

        pub struct RefCache {
            sets: usize,
            ways: usize,
            lines: Vec<Line>,
            clock: u64,
        }

        impl RefCache {
            pub fn new(sets: usize, ways: usize) -> Self {
                RefCache {
                    sets,
                    ways,
                    lines: vec![EMPTY; sets * ways],
                    clock: 0,
                }
            }

            fn set_index(&self, key: u64) -> usize {
                (key as usize) & (self.sets - 1)
            }

            fn set_lines(&mut self, set: usize) -> &mut [Line] {
                &mut self.lines[set * self.ways..(set + 1) * self.ways]
            }

            pub fn lock(&mut self, key: u64) -> bool {
                let set = self.set_index(key);
                self.clock += 1;
                let clock = self.clock;
                let ways = self.set_lines(set);
                if let Some(line) = ways.iter_mut().find(|l| l.valid && l.key == key) {
                    line.locked = true;
                    line.lru = clock;
                    return true;
                }
                let slot = match ways.iter().position(|l| !l.valid) {
                    Some(i) => Some(i),
                    None => ways
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| !l.locked)
                        .min_by_key(|(_, l)| l.lru)
                        .map(|(i, _)| i),
                };
                match slot {
                    Some(i) => {
                        ways[i] = Line {
                            key,
                            valid: true,
                            dirty: false,
                            locked: true,
                            lru: clock,
                        };
                        true
                    }
                    None => false,
                }
            }

            pub fn locked_count(&self) -> usize {
                self.lines.iter().filter(|l| l.valid && l.locked).count()
            }

            pub fn access(&mut self, key: u64, is_write: bool) -> AccessOutcome {
                let set = self.set_index(key);
                self.clock += 1;
                let clock = self.clock;
                let ways = self.set_lines(set);

                if let Some(line) = ways.iter_mut().find(|l| l.valid && l.key == key) {
                    line.lru = clock;
                    line.dirty |= is_write;
                    return AccessOutcome {
                        hit: true,
                        evicted: None,
                        bypassed: false,
                    };
                }

                if let Some(i) = ways.iter().position(|l| !l.valid) {
                    ways[i] = Line {
                        key,
                        valid: true,
                        dirty: is_write,
                        locked: false,
                        lru: clock,
                    };
                    return AccessOutcome {
                        hit: false,
                        evicted: None,
                        bypassed: false,
                    };
                }
                let victim = ways
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.locked)
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i);
                match victim {
                    Some(i) => {
                        let old = ways[i];
                        ways[i] = Line {
                            key,
                            valid: true,
                            dirty: is_write,
                            locked: false,
                            lru: clock,
                        };
                        AccessOutcome {
                            hit: false,
                            evicted: Some(Evicted {
                                key: old.key,
                                dirty: old.dirty,
                            }),
                            bypassed: false,
                        }
                    }
                    None => AccessOutcome {
                        hit: false,
                        evicted: None,
                        bypassed: true,
                    },
                }
            }

            pub fn probe(&self, key: u64) -> bool {
                let set = self.set_index(key);
                self.lines[set * self.ways..(set + 1) * self.ways]
                    .iter()
                    .any(|l| l.valid && l.key == key)
            }

            pub fn invalidate(&mut self, key: u64) -> Option<bool> {
                let set = self.set_index(key);
                let ways = self.set_lines(set);
                for line in ways.iter_mut() {
                    if line.valid && line.key == key {
                        let dirty = line.dirty;
                        *line = EMPTY;
                        return Some(dirty);
                    }
                }
                None
            }

            pub fn occupancy(&self) -> usize {
                self.lines.iter().filter(|l| l.valid).count()
            }
        }
    }

    /// Packed implementation vs. the old struct-of-lines implementation
    /// under a randomized op mix (accesses, locks, invalidations) across
    /// several geometries — every outcome and every observable aggregate
    /// must agree, including locked-way cases.
    #[test]
    fn differential_against_reference_implementation() {
        // Deterministic splitmix64 stream; no external RNG dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for (sets, ways) in [(1, 1), (1, 2), (2, 3), (4, 8), (2, 16)] {
            let mut packed = SetAssocCache::new(sets, ways);
            let mut reference = reference::RefCache::new(sets, ways);
            // Small key space so sets fill, evict, and collide constantly.
            let key_space = (sets * ways * 3) as u64;
            for step in 0..20_000 {
                let key = next() % key_space;
                match next() % 10 {
                    0 => {
                        assert_eq!(packed.lock(key), reference.lock(key), "lock @{step}");
                    }
                    2 => {
                        assert_eq!(
                            packed.invalidate(key),
                            reference.invalidate(key),
                            "invalidate @{step}"
                        );
                    }
                    _ => {
                        let is_write = next() % 2 == 0;
                        assert_eq!(
                            packed.access(key, is_write),
                            reference.access(key, is_write),
                            "access @{step} (sets={sets} ways={ways})"
                        );
                    }
                }
                assert_eq!(packed.probe(key), reference.probe(key), "probe @{step}");
                assert_eq!(packed.occupancy(), reference.occupancy(), "occ @{step}");
                assert_eq!(
                    packed.locked_count(),
                    reference.locked_count(),
                    "locked @{step}"
                );
            }
        }
    }
}
