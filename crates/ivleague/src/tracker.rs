//! IvLeague-Pro's hotpage access-frequency tracker (paper §VII-B,
//! Figure 14a).
//!
//! A small per-domain table in the memory controller counts page accesses:
//!
//! * a tracked page's counter saturates at the configured bit width;
//! * an untracked page replaces the entry with the **smallest counter**;
//! * crossing the frequency threshold **promotes** the page to the hot
//!   region of its TreeLing;
//! * counters clear on a fixed interval, so stale hotpages decay and are
//!   eventually evicted, which **demotes** them back to the regular region.

use ivl_sim_core::addr::PageNum;

/// Promotion/demotion event emitted by the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotEvent {
    /// The page crossed the hot threshold: migrate it into the hot region.
    Promote(PageNum),
    /// The page left the tracker while hot: migrate it back.
    Demote(PageNum),
}

/// Events from one recorded access, stored inline. A single access produces
/// at most a promotion (of the accessed page) plus a demotion (of an evicted
/// entry), so the per-access hot path never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotEvents {
    buf: [Option<HotEvent>; 2],
}

impl HotEvents {
    fn push(&mut self, e: HotEvent) {
        if self.buf[0].is_none() {
            self.buf[0] = Some(e);
        } else {
            debug_assert!(self.buf[1].is_none(), "at most two events per access");
            self.buf[1] = Some(e);
        }
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.buf.iter().filter(|e| e.is_some()).count()
    }

    /// Whether the access produced no events.
    pub fn is_empty(&self) -> bool {
        self.buf[0].is_none()
    }

    /// Whether `event` is among the recorded events.
    pub fn contains(&self, event: &HotEvent) -> bool {
        self.buf.iter().flatten().any(|e| e == event)
    }

    /// Iterates over the recorded events.
    pub fn iter(&self) -> impl Iterator<Item = &HotEvent> {
        self.buf.iter().flatten()
    }
}

impl IntoIterator for HotEvents {
    type Item = HotEvent;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<HotEvent>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().flatten()
    }
}

/// A tracked page. Its replacement key lives only in the tournament leaf.
#[derive(Debug, Clone, Copy)]
struct Entry {
    page: PageNum,
    promoted: bool,
}

/// Bit offset of the counter in a packed replacement key.
const COUNTER_SHIFT: u32 = 96;
/// Bit offset of the insertion sequence in a packed replacement key.
const SEQ_SHIFT: u32 = 32;
/// Low 96 bits of a key: its `seq` and slot, with the counter zeroed.
const SEQ_IDX_MASK: u128 = (1 << COUNTER_SHIFT) - 1;

/// Packs a replacement key, `counter << 96 | seq << 32 | idx`. The fields
/// sit most-significant first and never overlap, so integer order is the
/// lexicographic order of `(counter, seq, idx)`. The insertion sequence
/// `seq` breaks counter ties toward the oldest entry, so striding working
/// sets churn fairly.
#[inline]
fn pack_key(counter: u32, seq: u64, idx: u32) -> u128 {
    (counter as u128) << COUNTER_SHIFT | (seq as u128) << SEQ_SHIFT | idx as u128
}

/// The counter field of a packed key.
#[inline]
fn key_counter(key: u128) -> u32 {
    (key >> COUNTER_SHIFT) as u32
}

/// Minimal open-addressed page→entry index: linear probing with
/// backward-shift deletion, slots holding `entry_index + 1` (0 = empty).
/// Keys are not duplicated here — a probe compares against
/// `entries[idx].page` — so the whole table for a 128-entry tracker is one
/// KiB and stays L1-resident. Sized to ≤50% load, which keeps probe chains
/// short and makes backward-shift deletion cheap.
#[derive(Debug, Clone)]
struct PageIndex {
    slots: Box<[u32]>,
    mask: usize,
}

impl PageIndex {
    fn new(capacity: usize) -> Self {
        let len = (capacity * 2).next_power_of_two().max(4);
        PageIndex {
            slots: vec![0u32; len].into_boxed_slice(),
            mask: len - 1,
        }
    }

    /// Fibonacci-hash home bucket; multiplicative mixing is enough for the
    /// short ≤50%-load probe chains this table keeps.
    #[inline]
    fn bucket(&self, page: PageNum) -> usize {
        let h = page.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    #[inline]
    fn get(&self, page: PageNum, entries: &[Entry]) -> Option<u32> {
        let mut i = self.bucket(page);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return None;
            }
            if entries[(s - 1) as usize].page == page {
                return Some(s - 1);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts a not-present page; the caller guarantees no duplicate.
    fn insert(&mut self, page: PageNum, idx: u32) {
        let mut i = self.bucket(page);
        while self.slots[i] != 0 {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = idx + 1;
    }

    /// Removes a present page by backward-shifting the probe chain, so no
    /// tombstones accumulate and `get` can stop at the first empty slot.
    fn remove(&mut self, page: PageNum, entries: &[Entry]) {
        let mut i = self.bucket(page);
        while {
            let s = self.slots[i];
            debug_assert_ne!(s, 0, "removing an absent page");
            entries[(s - 1) as usize].page != page
        } {
            i = (i + 1) & self.mask;
        }
        let mut j = i;
        'shift: loop {
            self.slots[i] = 0;
            loop {
                j = (j + 1) & self.mask;
                let s = self.slots[j];
                if s == 0 {
                    break 'shift;
                }
                let home = self.bucket(entries[(s - 1) as usize].page);
                // An element whose home lies cyclically in (i, j] is
                // already as close to home as it can get; otherwise it
                // slides back into the vacated slot.
                let stays = if i <= j {
                    i < home && home <= j
                } else {
                    home <= j || home > i
                };
                if !stays {
                    self.slots[i] = s;
                    i = j;
                    break;
                }
            }
        }
    }
}

/// The access-frequency tracking table.
///
/// # Examples
///
/// ```
/// use ivleague::tracker::{HotEvent, HotpageTracker};
/// use ivl_sim_core::addr::PageNum;
///
/// let mut t = HotpageTracker::new(4, 8, 3, 1_000);
/// let p = PageNum::new(42);
/// assert!(t.record(p).is_empty());
/// assert!(t.record(p).is_empty());
/// assert!(t.record(p).contains(&HotEvent::Promote(p))); // third access
/// ```
#[derive(Debug, Clone)]
pub struct HotpageTracker {
    entries: Vec<Entry>,
    /// O(1) hit lookup: page → index into `entries`. The table used to be
    /// scanned linearly on every access, which put an O(capacity) walk on
    /// the Pro data-access critical path; the index keeps hits
    /// constant-time and lets misses skip straight to victim selection.
    index: PageIndex,
    /// Tournament (segment) tree of packed replacement keys over the entry
    /// slots: `tree[leaf_base + i]` is entry `i`'s key (see [`pack_key`]),
    /// its only copy of `counter` and `seq`, and every internal node holds
    /// the minimum of its children. The root's low 32 bits name the entry
    /// the old first-minimum scan selected (`seq` values are unique, making
    /// the minimum unambiguous). A counter bump, slot reuse, or interval
    /// clear refreshes one leaf-to-root path of integer `min`s, which
    /// compile to compare and conditional move.
    tree: Vec<u128>,
    /// First leaf index in `tree` (`capacity` rounded up to a power of two).
    leaf_base: usize,
    capacity: usize,
    counter_max: u32,
    threshold: u32,
    clear_interval: u64,
    accesses_since_clear: u64,
    next_seq: u64,
}

impl HotpageTracker {
    /// Creates a tracker with `capacity` entries, `counter_bits`-wide
    /// counters, promotion `threshold`, and a decay `clear_interval`
    /// measured in recorded accesses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or above `u32::MAX`, `threshold == 0` or
    /// `counter_bits` is not in `1..=31`.
    pub fn new(capacity: usize, counter_bits: u32, threshold: u32, clear_interval: u64) -> Self {
        assert!(capacity > 0 && u32::try_from(capacity).is_ok());
        assert!((1..=31).contains(&counter_bits));
        assert!(threshold > 0);
        let leaf_base = capacity.next_power_of_two();
        HotpageTracker {
            entries: Vec::with_capacity(capacity),
            index: PageIndex::new(capacity),
            // Empty leaves hold the maximal key, whose counter field exceeds
            // any 31-bit counter; victim selection only runs on a full
            // table, so a sentinel never wins the tournament.
            tree: vec![u128::MAX; 2 * leaf_base],
            leaf_base,
            capacity,
            counter_max: (1 << counter_bits) - 1,
            threshold,
            clear_interval: clear_interval.max(1),
            accesses_since_clear: 0,
            next_seq: 0,
        }
    }

    /// Writes entry `idx`'s key into its leaf and refreshes the tournament
    /// minima on its leaf-to-root path.
    #[inline]
    fn set_key(&mut self, idx: u32, key: u128) {
        let mut i = self.leaf_base + idx as usize;
        self.tree[i] = key;
        while i > 1 {
            i >>= 1;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// Records an access to `page`, returning any promotion/demotion events.
    pub fn record(&mut self, page: PageNum) -> HotEvents {
        let mut events = HotEvents::default();
        self.accesses_since_clear += 1;
        if self.accesses_since_clear >= self.clear_interval {
            self.accesses_since_clear = 0;
            // Zero every live leaf's counter, keeping its `seq` and slot,
            // then rebuild the tournament bottom-up in one pass rather than
            // replaying per-leaf updates.
            let live = self.leaf_base..self.leaf_base + self.entries.len();
            for key in &mut self.tree[live] {
                *key &= SEQ_IDX_MASK;
            }
            for i in (1..self.leaf_base).rev() {
                self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
            }
        }

        if let Some(i) = self.index.get(page, &self.entries) {
            let key = self.tree[self.leaf_base + i as usize];
            let counter = key_counter(key);
            let bumped = (counter + 1).min(self.counter_max);
            if bumped != counter {
                self.set_key(i, key + (1 << COUNTER_SHIFT));
            }
            let e = &mut self.entries[i as usize];
            if !e.promoted && bumped >= self.threshold {
                e.promoted = true;
                events.push(HotEvent::Promote(page));
            }
            return events;
        }

        self.next_seq += 1;
        // A new entry starts at counter 1.
        let promoted = 1 >= self.threshold;
        if promoted {
            events.push(HotEvent::Promote(page));
        }
        let new_entry = Entry { page, promoted };
        let idx = if self.entries.len() < self.capacity {
            let idx = self.entries.len() as u32;
            self.entries.push(new_entry);
            idx
        } else {
            // Replace the smallest `(counter, seq)` — the root of the
            // tournament, which is exactly the entry the pre-index
            // first-minimum scan picked, since `seq` values are unique.
            let idx = self.tree[1] as u32;
            let victim = self.entries[idx as usize];
            if victim.promoted {
                events.push(HotEvent::Demote(victim.page));
            }
            self.index.remove(victim.page, &self.entries);
            self.entries[idx as usize] = new_entry;
            idx
        };
        self.set_key(idx, pack_key(1, self.next_seq, idx));
        self.index.insert(page, idx);
        events
    }

    /// Whether `page` is currently marked hot.
    pub fn is_hot(&self, page: PageNum) -> bool {
        self.index
            .get(page, &self.entries)
            .is_some_and(|i| self.entries[i as usize].promoted)
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tracker is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageNum {
        PageNum::new(i)
    }

    /// The pre-index implementation, kept verbatim as a differential
    /// oracle: one linear scan serves both the hit lookup and the
    /// replacement-victim search (smallest counter, ties toward the oldest
    /// entry; strict `<` keeps the first minimum).
    mod reference {
        use super::super::{HotEvent, HotEvents};
        use ivl_sim_core::addr::PageNum;

        /// One tracker line, holding its counter and insertion sequence
        /// beside the page.
        #[derive(Clone, Copy)]
        struct Line {
            page: PageNum,
            counter: u32,
            promoted: bool,
            seq: u64,
        }

        pub struct RefTracker {
            entries: Vec<Line>,
            capacity: usize,
            counter_max: u32,
            threshold: u32,
            clear_interval: u64,
            accesses_since_clear: u64,
            next_seq: u64,
        }

        impl RefTracker {
            pub fn new(
                capacity: usize,
                counter_bits: u32,
                threshold: u32,
                clear_interval: u64,
            ) -> Self {
                RefTracker {
                    entries: Vec::with_capacity(capacity),
                    capacity,
                    counter_max: (1 << counter_bits) - 1,
                    threshold,
                    clear_interval: clear_interval.max(1),
                    accesses_since_clear: 0,
                    next_seq: 0,
                }
            }

            pub fn record(&mut self, page: PageNum) -> HotEvents {
                let mut events = HotEvents::default();
                self.accesses_since_clear += 1;
                if self.accesses_since_clear >= self.clear_interval {
                    self.accesses_since_clear = 0;
                    for e in &mut self.entries {
                        e.counter = 0;
                    }
                }
                let mut hit_idx = None;
                let mut victim_idx = 0usize;
                let mut victim_key = (u32::MAX, u64::MAX);
                for (i, e) in self.entries.iter().enumerate() {
                    if e.page == page {
                        hit_idx = Some(i);
                        break;
                    }
                    let key = (e.counter, e.seq);
                    if key < victim_key {
                        victim_key = key;
                        victim_idx = i;
                    }
                }
                if let Some(i) = hit_idx {
                    let e = &mut self.entries[i];
                    e.counter = (e.counter + 1).min(self.counter_max);
                    if !e.promoted && e.counter >= self.threshold {
                        e.promoted = true;
                        events.push(HotEvent::Promote(page));
                    }
                    return events;
                }
                self.next_seq += 1;
                let mut new_entry = Line {
                    page,
                    counter: 1,
                    promoted: false,
                    seq: self.next_seq,
                };
                if new_entry.counter >= self.threshold {
                    new_entry.promoted = true;
                    events.push(HotEvent::Promote(page));
                }
                if self.entries.len() < self.capacity {
                    self.entries.push(new_entry);
                } else {
                    let idx = victim_idx;
                    let victim = self.entries[idx];
                    if victim.promoted {
                        events.push(HotEvent::Demote(victim.page));
                    }
                    self.entries[idx] = new_entry;
                }
                events
            }

            pub fn is_hot(&self, page: PageNum) -> bool {
                self.entries.iter().any(|e| e.page == page && e.promoted)
            }

            pub fn len(&self) -> usize {
                self.entries.len()
            }
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The indexed tracker must emit the exact event stream of the
    /// linear-scan oracle — same promotions, same demotions (so same
    /// victims), same hot set — across hit-heavy, miss-heavy, saturating,
    /// and interval-clearing regimes.
    #[test]
    fn differential_against_reference_implementation() {
        // (capacity, counter_bits, threshold, clear_interval, universe)
        let configs = [
            (8usize, 3u32, 3u32, 64u64, 32u64), // hit-heavy + saturation
            (16, 8, 4, 97, 10_000),             // miss-heavy (bench regime)
            (4, 2, 1, 1, 16),                   // clears every access
            (128, 8, 16, 1_000, 512),           // default-shaped geometry
            (1, 4, 2, 50, 8),                   // single-entry churn
            (32, 31, 2_000, 40_000, 256),       // counters climb past 8 bits
        ];
        for (ci, &(cap, bits, thr, clear, universe)) in configs.iter().enumerate() {
            let mut new = HotpageTracker::new(cap, bits, thr, clear);
            let mut oracle = reference::RefTracker::new(cap, bits, thr, clear);
            let mut rng = 0xD1F0_0000u64 + ci as u64;
            let (mut peak_counter, mut promotions, mut demotions) = (0, 0, 0);
            for op in 0..50_000u64 {
                let r = splitmix64(&mut rng);
                // Skew toward a small hot set half the time so promotions
                // actually fire alongside the churn.
                let page = if r & 1 == 0 {
                    p(r % 4)
                } else {
                    p((r >> 1) % universe)
                };
                let got = new.record(page);
                let want = oracle.record(page);
                for e in want {
                    match e {
                        HotEvent::Promote(_) => promotions += 1,
                        HotEvent::Demote(_) => demotions += 1,
                    }
                }
                assert_eq!(
                    got, want,
                    "config {ci}: events diverged at op {op} on page {page:?}"
                );
                assert_eq!(
                    new.len(),
                    oracle.len(),
                    "config {ci}: len diverged at op {op}"
                );
                if op % 997 == 0 {
                    let leaves = &new.tree[new.leaf_base..][..new.len()];
                    let peak = leaves.iter().map(|&k| key_counter(k)).max();
                    peak_counter = peak_counter.max(peak.unwrap_or(0));
                    for q in 0..universe.min(64) {
                        assert_eq!(
                            new.is_hot(p(q)),
                            oracle.is_hot(p(q)),
                            "config {ci}: hot set diverged at op {op} for page {q}"
                        );
                    }
                }
            }
            assert!(promotions > 0, "config {ci}: no promotion fired");
            if bits > 8 {
                assert!(
                    peak_counter > 255 && demotions > 0,
                    "config {ci}: wide counters peaked at {peak_counter} \
                     with {demotions} demotions"
                );
            }
        }
    }

    /// Integer order of packed keys must be the tuple order of
    /// `(counter, seq, idx)`, including at each field's limits, where a
    /// field spilling into its neighbour would show.
    #[test]
    fn packed_key_orders_like_the_tuple() {
        let counters = [0, 1, 2, (1 << 31) - 2, (1 << 31) - 1];
        let seqs = [0, 1, u64::MAX - 1, u64::MAX];
        let idxs = [0, 1, u32::MAX - 1, u32::MAX];
        let mut keys = Vec::new();
        for &c in &counters {
            for &s in &seqs {
                for &i in &idxs {
                    keys.push((c, s, i));
                }
            }
        }
        for &a in &keys {
            let ka = pack_key(a.0, a.1, a.2);
            assert_eq!(key_counter(ka), a.0);
            assert_eq!(ka & SEQ_IDX_MASK, pack_key(0, a.1, a.2));
            assert_eq!(ka as u32, a.2);
            assert!(ka < u128::MAX, "a live key must sort below the sentinel");
            for &b in &keys {
                assert_eq!(
                    ka.cmp(&pack_key(b.0, b.1, b.2)),
                    a.cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn promotion_fires_once() {
        let mut t = HotpageTracker::new(4, 8, 2, 1000);
        assert!(t.record(p(1)).is_empty());
        let ev = t.record(p(1));
        assert_eq!(ev.len(), 1);
        assert!(ev.contains(&HotEvent::Promote(p(1))));
        assert!(t.record(p(1)).is_empty(), "no duplicate promotions");
        assert!(t.is_hot(p(1)));
    }

    #[test]
    fn replacement_evicts_smallest_counter() {
        let mut t = HotpageTracker::new(2, 8, 100, 1000);
        t.record(p(1));
        t.record(p(1));
        t.record(p(2)); // counter 1 — smallest
        t.record(p(3)); // evicts p(2)
        assert_eq!(t.len(), 2);
        t.record(p(1));
        assert!(!t.is_hot(p(2)));
    }

    #[test]
    fn demotion_on_eviction_of_promoted_page() {
        let mut t = HotpageTracker::new(1, 8, 1, 1000);
        let ev = t.record(p(1));
        assert_eq!(ev.len(), 1);
        assert!(ev.contains(&HotEvent::Promote(p(1))));
        let ev = t.record(p(2));
        assert!(ev.contains(&HotEvent::Demote(p(1))));
    }

    #[test]
    fn counters_saturate() {
        let mut t = HotpageTracker::new(1, 2, 100, 1_000_000);
        for _ in 0..10 {
            t.record(p(1));
        }
        // counter_max for 2 bits is 3; no panic and still tracked.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn interval_clear_resets_counters() {
        let mut t = HotpageTracker::new(2, 8, 4, 5);
        for _ in 0..3 {
            t.record(p(1)); // counter 3, below threshold 4
        }
        t.record(p(2)); // 4th access
        t.record(p(2)); // 5th access triggers clear first, then counts
                        // p(1)'s counter was cleared; three more accesses stay below the
                        // threshold again (clear interval keeps resetting long streaks of
                        // slow pages).
        let ev = t.record(p(1));
        assert!(ev.is_empty());
    }

    #[test]
    fn striding_working_set_larger_than_table_promotes_nothing() {
        // Paper §VII-B: efficacy requires hotpage striping < n.
        let mut t = HotpageTracker::new(8, 8, 4, 1_000_000);
        for round in 0..20 {
            for i in 0..16 {
                let ev = t.record(p(i));
                for e in ev {
                    assert!(
                        !matches!(e, HotEvent::Promote(_)),
                        "unexpected promotion in round {round}"
                    );
                }
            }
        }
    }
}
