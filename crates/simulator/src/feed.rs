//! The trace feed: where the run loop takes each generator's events from.
//!
//! A [`TraceGenerator`] is a pure function of its seed, and nothing the
//! simulation does feeds back into it. So its events can be made on
//! another core ahead of time and still match stepping it inline, bit for
//! bit. [`with_feed`] does one of two things, chosen once per run:
//!
//! - **Helper.** A scoped helper thread owns the generators and fills
//!   fixed-size batches of `(event, warmed_up() after it)`. Each generator
//!   has two batches in flight: the one the run loop drains and the one
//!   the helper fills (or has filled). The run loop hands each drained
//!   batch back as its refill request, so the steady state allocates
//!   nothing. A panic inside a generator is caught on the helper and
//!   travels with the batch it cut short; the run loop resumes it once it
//!   has taken every event made before it, where stepping the generator
//!   inline would have panicked.
//! - **Inline.** The run loop calls `next_event()` and `warmed_up()`
//!   itself, as it always did.
//!
//! [`Claim`] makes the choice: a run gets a helper only while that keeps
//! the process's busy simulation threads within the CPUs it may use.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use ivl_workloads::trace::{MemEvent, TraceGenerator};

/// Events per batch. At 32 bytes per entry a batch is 32 KiB, and a
/// four-generator run keeps 256 KiB of batches in flight.
const BATCH: usize = 1024;

/// A run of events, each with its generator's `warmed_up()` right after it.
type Batch = Vec<(MemEvent, bool)>;

/// What a generator's panic carries.
type Payload = Box<dyn Any + Send>;

/// What the feed steps: a trace generator, or a test's stand-in for one.
pub(crate) trait EventSource: Send {
    /// The next event of the stream.
    fn next_event(&mut self) -> MemEvent;
    /// Whether the stream's footprint is resident (see
    /// [`TraceGenerator::warmed_up`]).
    fn warmed_up(&self) -> bool;
}

impl EventSource for TraceGenerator {
    fn next_event(&mut self) -> MemEvent {
        TraceGenerator::next_event(self)
    }

    fn warmed_up(&self) -> bool {
        TraceGenerator::warmed_up(self)
    }
}

/// The run loop's view of its generators, indexed like them.
pub(crate) enum Feed<S> {
    /// The generators themselves, stepped on the simulation thread.
    Inline(Vec<S>),
    /// Batches filled by the helper thread.
    Helper(Lanes),
}

impl<S: EventSource> Feed<S> {
    /// Generator `g`'s next event.
    #[inline]
    pub(crate) fn next_event(&mut self, g: usize) -> MemEvent {
        match self {
            Feed::Inline(gens) => gens[g].next_event(),
            Feed::Helper(lanes) => lanes.next_event(g),
        }
    }

    /// Generator `g`'s `warmed_up()` right after the last event taken
    /// from it.
    #[inline]
    pub(crate) fn warmed_up(&self, g: usize) -> bool {
        match self {
            Feed::Inline(gens) => gens[g].warmed_up(),
            Feed::Helper(lanes) => lanes.lanes[g].warm,
        }
    }
}

/// A filled batch, and the panic that stopped the generator right after
/// the batch's last event, if one did.
struct Filled {
    events: Batch,
    panic: Option<Payload>,
}

/// The simulation thread's end of one generator's stream.
struct Lane {
    events: Batch,
    /// Next entry of `events` to hand out.
    pos: usize,
    /// `warmed_up()` after the last event handed out.
    warm: bool,
    /// The panic that ends this stream once `events` is drained.
    panic: Option<Payload>,
    filled: Receiver<Filled>,
}

/// The simulation thread's end of the helper feed.
pub(crate) struct Lanes {
    lanes: Vec<Lane>,
    /// Drained batches going back to be refilled, tagged with their
    /// generator.
    refill: SyncSender<(usize, Batch)>,
}

impl Lanes {
    #[inline]
    fn next_event(&mut self, g: usize) -> MemEvent {
        let lane = &mut self.lanes[g];
        // A batch cut short by a panic may be empty.
        while lane.pos == lane.events.len() {
            lane.swap(g, &self.refill);
        }
        let (event, warm) = lane.events[lane.pos];
        lane.pos += 1;
        lane.warm = warm;
        event
    }
}

impl Lane {
    /// Returns the drained batch for refilling and takes the next one.
    #[cold]
    fn swap(&mut self, g: usize, refill: &SyncSender<(usize, Batch)>) {
        if let Some(payload) = self.panic.take() {
            panic::resume_unwind(payload);
        }
        let drained = std::mem::take(&mut self.events);
        refill
            .send((g, drained))
            .expect("the trace helper lives as long as the feed");
        let next = self
            .filled
            .recv()
            .expect("the trace helper answers every refill of a live generator");
        self.events = next.events;
        self.pos = 0;
        self.panic = next.panic;
    }
}

/// Runs `run` on a feed over `sources`, with a helper thread filling
/// batches when `helper` is set and the sources stepped inline otherwise.
/// The helper is joined before this returns, also when `run` panics.
pub(crate) fn with_feed<S: EventSource, R>(
    sources: Vec<S>,
    helper: bool,
    run: impl FnOnce(&mut Feed<S>) -> R,
) -> R {
    if !helper {
        return run(&mut Feed::Inline(sources));
    }
    #[cfg(test)]
    tests::HELPERS_STARTED.with(|n| n.set(n.get() + 1));
    let n = sources.len();
    std::thread::scope(|scope| {
        // At most two batches per generator are in flight, so these
        // bounds are never reached: no send blocks, and no send allocates.
        let (refill, requests) = sync_channel(2 * n);
        let mut outs = Vec::with_capacity(n);
        let mut lanes = Vec::with_capacity(n);
        for (g, source) in sources.iter().enumerate() {
            let (out, filled) = sync_channel(2);
            outs.push(out);
            lanes.push(Lane {
                events: Vec::new(),
                pos: 0,
                warm: source.warmed_up(),
                panic: None,
                filled,
            });
            // The first batch; the lane's first swap requests the second.
            refill
                .send((g, Vec::new()))
                .expect("the request channel holds two batches per generator");
        }
        scope.spawn(move || fill(sources, requests, outs));
        // The feed lives inside the scope: when `run` returns or unwinds,
        // dropping it closes the channels and the helper stops.
        run(&mut Feed::Helper(Lanes { lanes, refill }))
    })
}

/// The helper thread: fills each requested batch from its generator until
/// the run loop drops its end of the channels.
fn fill<S: EventSource>(
    sources: Vec<S>,
    requests: Receiver<(usize, Batch)>,
    outs: Vec<SyncSender<Filled>>,
) {
    let mut sources: Vec<Option<S>> = sources.into_iter().map(Some).collect();
    for (g, mut events) in requests {
        // A generator that panicked makes nothing more; the run loop
        // resumes its panic before it waits for another batch from it.
        let Some(source) = sources[g].as_mut() else {
            continue;
        };
        events.clear();
        events.reserve(BATCH);
        let panic = panic::catch_unwind(AssertUnwindSafe(|| {
            while events.len() < BATCH {
                let event = source.next_event();
                events.push((event, source.warmed_up()));
            }
        }))
        .err();
        if panic.is_some() {
            sources[g] = None;
        }
        if outs[g].send(Filled { events, panic }).is_err() {
            return;
        }
    }
}

/// Threads busy with simulations in this process: each running
/// simulation's own thread, plus its trace helper if it has one.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// A run's share of [`BUSY`], given back when the run ends or unwinds.
pub(crate) struct Claim(usize);

impl Claim {
    /// Claims the run's own thread, plus a helper when the busy count
    /// stays within the CPUs this process may use. A run that issues no
    /// event claims nothing and gets no helper.
    pub(crate) fn take(issues_events: bool) -> Claim {
        if !issues_events {
            return Claim(0);
        }
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Relaxed: the count publishes no other data, and the choice it
        // steers cannot change any result.
        let before = BUSY
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                Some(busy + threads_for(busy, cpus))
            })
            .expect("the update closure always returns Some");
        Claim(threads_for(before, cpus))
    }

    /// Whether the run feeds its trace from a helper thread.
    pub(crate) fn helper(&self) -> bool {
        self.0 == 2
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Threads a new run claims when `busy` are already busy on `cpus` CPUs:
/// its own, plus a helper if both fit.
fn threads_for(busy: usize, cpus: usize) -> usize {
    if busy + 2 <= cpus {
        2
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_sim_core::addr::PageNum;
    use ivl_sim_core::domain::DomainId;
    use ivl_sim_core::rng::Xoshiro256;
    use ivl_workloads::profiles::BENCHMARKS;
    use ivl_workloads::trace::CLUSTER_PAGES;
    use std::cell::Cell;

    thread_local! {
        /// Helper threads started by feeds on this thread.
        pub(super) static HELPERS_STARTED: Cell<usize> = const { Cell::new(0) };
    }

    /// Two generators per profile: one at the profile's footprint, one
    /// small enough to warm up, churn and flip `warmed_up()` within the
    /// first batches.
    fn generators() -> Vec<TraceGenerator> {
        BENCHMARKS
            .iter()
            .enumerate()
            .flat_map(|(i, p)| {
                let domain = DomainId::new_unchecked(i as u16 + 1);
                let base = i as u64 * 4 * CLUSTER_PAGES;
                [
                    TraceGenerator::new(p, domain, base, 40 + i as u64),
                    TraceGenerator::with_footprint(
                        p,
                        domain,
                        base,
                        80 + i as u64,
                        96,
                        CLUSTER_PAGES,
                    ),
                ]
            })
            .collect()
    }

    /// Takes `per_lane` `(event, warmed_up)` pairs from every lane through
    /// `next`, in a seeded random lane order.
    fn drain(
        lanes: usize,
        per_lane: usize,
        mut next: impl FnMut(usize) -> (MemEvent, bool),
    ) -> Vec<(usize, MemEvent, bool)> {
        let mut rng = Xoshiro256::seed_from(11);
        let mut taken = vec![0; lanes];
        let mut out = Vec::with_capacity(lanes * per_lane);
        while out.len() < lanes * per_lane {
            let g = rng.index(lanes);
            if taken[g] < per_lane {
                taken[g] += 1;
                let (event, warm) = next(g);
                out.push((g, event, warm));
            }
        }
        out
    }

    #[test]
    fn helper_and_inline_feeds_match_the_generators() {
        let lanes = 2 * BENCHMARKS.len();
        // Three full batches and half of the fourth: three batch boundaries.
        let per_lane = 3 * BATCH + BATCH / 2;
        let mut gens = generators();
        let reference = drain(lanes, per_lane, |g| {
            let event = gens[g].next_event();
            (event, gens[g].warmed_up())
        });
        assert!(
            reference.iter().any(|&(_, _, warm)| warm),
            "some stream must flip warmed_up() inside the window"
        );
        for helper in [false, true] {
            let fed = with_feed(generators(), helper, |feed| {
                drain(lanes, per_lane, |g| (feed.next_event(g), feed.warmed_up(g)))
            });
            assert!(
                fed == reference,
                "helper={helper}: the feed diverged from the generators"
            );
        }
    }

    /// Counts its events and panics in place of event `fail_at`.
    struct Failing {
        made: usize,
        fail_at: usize,
    }

    impl EventSource for Failing {
        fn next_event(&mut self) -> MemEvent {
            assert!(self.made != self.fail_at, "frame range exhausted (test)");
            self.made += 1;
            MemEvent::Alloc {
                page: PageNum::new(self.made as u64),
            }
        }

        fn warmed_up(&self) -> bool {
            self.made.is_multiple_of(3)
        }
    }

    #[test]
    fn a_generator_panic_on_the_helper_surfaces_where_inline_would_panic() {
        let fail_at = 2 * BATCH + 5;
        for helper in [false, true] {
            let mut taken: usize = 0;
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                let sources = vec![
                    Failing { made: 0, fail_at },
                    Failing {
                        made: 0,
                        fail_at: usize::MAX,
                    },
                ];
                with_feed(sources, helper, |feed| loop {
                    feed.next_event(1);
                    let MemEvent::Alloc { page } = feed.next_event(0) else {
                        unreachable!("the source makes only allocations");
                    };
                    taken += 1;
                    assert_eq!(page.index(), taken as u64);
                    assert_eq!(feed.warmed_up(0), taken.is_multiple_of(3));
                })
            }));
            let payload = caught.expect_err("the run must panic, not hang or finish");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(
                msg.contains("frame range exhausted"),
                "helper={helper}: {msg}"
            );
            assert_eq!(taken, fail_at, "helper={helper}");
        }
    }

    #[test]
    fn a_panic_the_run_never_reaches_stays_hidden() {
        // The helper fills ahead of the run loop and meets the panic, but
        // the run stops first, as an inline run would.
        let total = with_feed(
            vec![Failing {
                made: 0,
                fail_at: BATCH + 5,
            }],
            true,
            |feed| (0..10).map(|_| feed.next_event(0)).count(),
        );
        assert_eq!(total, 10);
    }

    #[test]
    fn a_panicking_run_stops_its_helper() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            with_feed(generators(), true, |feed| {
                feed.next_event(0);
                panic!("the run loop failed");
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn zero_length_runs_start_no_helper() {
        let mix = ivl_workloads::mixes::mix_by_name("L-1").expect("L-1 exists");
        let run = crate::RunConfig {
            warmup_accesses: 0,
            measure_accesses: 0,
            seed: 2024,
        };
        let before = HELPERS_STARTED.with(Cell::get);
        for scheme in crate::SchemeKind::MAIN {
            crate::run_mix(mix, scheme, &run);
        }
        assert_eq!(HELPERS_STARTED.with(Cell::get), before);
        assert!(!Claim::take(false).helper());
    }

    #[test]
    fn helpers_fill_idle_cpus_only() {
        // (busy threads, CPUs) -> threads a new run claims.
        for (busy, cpus, claimed) in [
            (0, 1, 1),
            (0, 2, 2),
            (1, 2, 1),
            (2, 2, 1),
            (3, 2, 1),
            (1, 3, 2),
            (2, 4, 2),
            (3, 4, 1),
        ] {
            assert_eq!(threads_for(busy, cpus), claimed, "busy={busy} cpus={cpus}");
        }
    }
}
