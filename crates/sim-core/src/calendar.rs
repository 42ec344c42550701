//! Event calendar: the deterministic discrete-event scheduler the system
//! runner pops cores from.
//!
//! A binary min-heap keyed on `(cycle, tie, seq)`: popping the
//! least-advanced entry is O(log n), and the explicit `tie` key reproduces
//! a linear `min_by_key` scan's deterministic tie-breaking (lowest core
//! index among cores at the same cycle) bit-for-bit. Entries with equal
//! `(cycle, tie)` fall back to FIFO insertion order via the internal
//! sequence number.
//!
//! # Examples
//!
//! ```
//! use ivl_sim_core::calendar::EventCalendar;
//!
//! let mut cal = EventCalendar::new();
//! cal.schedule(100, 1, "core1");
//! cal.schedule(100, 0, "core0"); // same cycle, lower tie → pops first
//! cal.schedule(50, 7, "core7");
//! assert_eq!(cal.pop(), Some((50, "core7")));
//! assert_eq!(cal.pop(), Some((100, "core0")));
//! assert_eq!(cal.pop(), Some((100, "core1")));
//! assert_eq!(cal.pop(), None);
//! ```

use std::collections::BinaryHeap;

use crate::Cycle;

/// One scheduled entry; ordered for a *min*-heap on `(at, tie, seq)`.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: Cycle,
    tie: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, the calendar pops earliest.
        (other.at, other.tie, other.seq).cmp(&(self.at, self.tie, self.seq))
    }
}

/// A deterministic min-heap of timestamped events.
///
/// Pop order is `(cycle, tie, insertion order)`. Use a stable identity as
/// `tie` (a core index) to get scan-equivalent deterministic ordering
/// among simultaneous events.
#[derive(Debug, Clone)]
pub struct EventCalendar<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventCalendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventCalendar<T> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        EventCalendar {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty calendar with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        EventCalendar {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
        }
    }

    /// Schedules `payload` at cycle `at`. Among entries with equal `at`,
    /// the lower `tie` pops first; full ties pop in insertion order.
    #[inline]
    pub fn schedule(&mut self, at: Cycle, tie: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            at,
            tie,
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// `(cycle, tie)` of the earliest entry without removing it — the key
    /// the runner's fast path compares against the running core to decide
    /// whether anything can preempt it.
    #[inline]
    pub fn peek_key(&self) -> Option<(Cycle, u64)> {
        self.heap.peek().map(|e| (e.at, e.tie))
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(30, 0, "c");
        cal.schedule(10, 0, "a");
        cal.schedule(20, 0, "b");
        assert_eq!(cal.pop(), Some((10, "a")));
        assert_eq!(cal.pop(), Some((20, "b")));
        assert_eq!(cal.pop(), Some((30, "c")));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn equal_cycles_break_ties_by_key_then_fifo() {
        let mut cal = EventCalendar::new();
        cal.schedule(5, 2, "tie2-first");
        cal.schedule(5, 1, "tie1");
        cal.schedule(5, 2, "tie2-second");
        assert_eq!(cal.pop(), Some((5, "tie1")));
        assert_eq!(cal.pop(), Some((5, "tie2-first")));
        assert_eq!(cal.pop(), Some((5, "tie2-second")));
    }

    #[test]
    fn matches_linear_scan_selection_order() {
        // The property the system runner relies on: popping the calendar
        // reproduces `min_by_key(now)` with lowest-index tie-breaking.
        let mut nows = [40u64, 10, 10, 25];
        let mut cal = EventCalendar::new();
        for (i, &n) in nows.iter().enumerate() {
            cal.schedule(n, i as u64, i);
        }
        let mut scan_order = Vec::new();
        let mut remaining: Vec<usize> = (0..nows.len()).collect();
        while !remaining.is_empty() {
            let &idx = remaining.iter().min_by_key(|&&i| nows[i]).unwrap();
            scan_order.push(idx);
            // Simulate the core advancing, then retiring on its third pick.
            nows[idx] += 30;
            if scan_order.iter().filter(|&&x| x == idx).count() == 3 {
                remaining.retain(|&i| i != idx);
            }
        }
        let mut nows2 = [40u64, 10, 10, 25];
        let mut heap_order = Vec::new();
        let mut picks = [0usize; 4];
        while let Some((_, idx)) = cal.pop() {
            heap_order.push(idx);
            nows2[idx] += 30;
            picks[idx] += 1;
            if picks[idx] < 3 {
                cal.schedule(nows2[idx], idx as u64, idx);
            }
        }
        assert_eq!(scan_order, heap_order);
    }

    #[test]
    fn peek_key_and_len() {
        let mut cal = EventCalendar::with_capacity(4);
        assert!(cal.is_empty());
        assert_eq!(cal.peek_key(), None);
        cal.schedule(7, 1, ());
        cal.schedule(3, 2, ());
        assert_eq!(cal.peek_key(), Some((3, 2)));
        assert_eq!(cal.len(), 2);
        cal.pop();
        cal.pop();
        assert!(cal.is_empty());
    }
}
