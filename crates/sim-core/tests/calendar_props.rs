//! Property tests for the event calendar: entries pop in exact
//! `(cycle, tie, insertion)` order against a sort oracle, and interleaved
//! scheduling never rewinds the popped cycle stream.

use ivl_sim_core::calendar::EventCalendar;
use ivl_sim_core::rng::Xoshiro256;
use ivl_sim_core::Cycle;
use ivl_testkit::prelude::*;

props! {
    #![cases(64)]

    #[test]
    fn entries_pop_in_sort_oracle_order(seed in any::<u64>(), n in 1usize..120) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut cal = EventCalendar::new();
        // Oracle: stable sort on (cycle, tie) — stability supplies the
        // FIFO tie-break the calendar's sequence number implements.
        let mut oracle: Vec<(Cycle, u64, usize)> = Vec::new();
        for i in 0..n {
            let at = rng.next_u64() % 50; // dense: plenty of full ties
            let tie = rng.index(8) as u64;
            cal.schedule(at, tie, i);
            oracle.push((at, tie, i));
        }
        oracle.sort_by_key(|&(at, tie, _)| (at, tie));
        for (at, _, i) in oracle {
            prop_assert_eq!(cal.pop(), Some((at, i)));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    #[test]
    fn interleaved_pops_never_rewind_simulated_time(seed in any::<u64>(), n in 2usize..80) {
        // Scheduling interleaved with pops (the runner's real pattern):
        // as long as entries are never scheduled before the last popped
        // cycle, the pop stream's cycles are monotone. (Ties at the same
        // cycle may still reorder by key — that is the point of `tie`.)
        let mut rng = Xoshiro256::seed_from(seed);
        let mut cal = EventCalendar::new();
        let mut last: Option<Cycle> = None;
        let mut floor: Cycle = 0;
        for i in 0..n {
            let at = floor + rng.next_u64() % 100;
            cal.schedule(at, rng.index(8) as u64, i);
            if rng.chance(0.5) {
                if let Some((at, _)) = cal.pop() {
                    if let Some(prev) = last {
                        prop_assert!(prev <= at, "pop stream rewound time");
                    }
                    last = Some(at);
                    floor = at; // future schedules stay >= the popped cycle
                }
            }
        }
        while let Some((at, _)) = cal.pop() {
            if let Some(prev) = last {
                prop_assert!(prev <= at);
            }
            last = Some(at);
        }
    }
}
