//! The synthetic address-stream generator.
//!
//! A [`TraceGenerator`] turns a [`BenchmarkProfile`] into an infinite
//! stream of [`MemEvent`]s: memory accesses (with the instruction gap to
//! the previous access), page allocations (ramping to the steady-state
//! footprint, then churn) and page deallocations. Streams are deterministic
//! per seed.

use std::collections::VecDeque;

use ivl_sim_core::addr::{BlockAddr, PageNum, BLOCKS_PER_PAGE};
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::rng::Xoshiro256;

use crate::profiles::BenchmarkProfile;
use crate::zipf::Zipf;

/// OS frame-allocation cluster size (16 MiB chunks: buddy allocation plus
/// transparent huge pages keep large-footprint workloads this contiguous).
pub const CLUSTER_PAGES: u64 = 4096;

/// One event of a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// A load or store.
    Access {
        /// Accessed cache block.
        block: BlockAddr,
        /// Store (`true`) or load.
        is_write: bool,
        /// Instructions executed since the previous memory operation.
        gap_instrs: u64,
    },
    /// OS page allocation (first touch).
    Alloc {
        /// Allocated page frame.
        page: PageNum,
    },
    /// OS page deallocation.
    Dealloc {
        /// Freed page frame.
        page: PageNum,
    },
}

/// Deterministic per-benchmark address-stream generator.
///
/// # Examples
///
/// ```
/// use ivl_workloads::{profiles::by_name, trace::TraceGenerator};
/// use ivl_sim_core::domain::DomainId;
///
/// let profile = by_name("gcc").unwrap();
/// let mut gen = TraceGenerator::new(profile, DomainId::new_unchecked(0), 0, 7);
/// let mut events = 0;
/// for _ in 0..100 {
///     let _ = gen.next_event();
///     events += 1;
/// }
/// assert_eq!(events, 100);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    profile: &'static BenchmarkProfile,
    domain: DomainId,
    base_page: u64,
    range_pages: u64,
    footprint_pages: u64,
    rng: Xoshiro256,
    zipf: Zipf,
    /// Instruction gaps are drawn from `1..=gap_span`, twice the mean gap.
    gap_span: u64,
    /// Zipf rank → page (rank 0 = hottest).
    allocated: Vec<PageNum>,
    free_frames: Vec<u64>,
    next_frame: u64,
    pending: VecDeque<MemEvent>,
    run_page: PageNum,
    run_block: usize,
    run_left: u32,
    accesses_since_alloc: u64,
    /// Peak (init-spike) footprint in pages.
    peak_pages: u64,
    /// Transient init-phase pages, freed once the spike peaks.
    transients: Vec<PageNum>,
    /// The spike has peaked and transients are draining.
    releasing: bool,
    spike_done: bool,
}

impl TraceGenerator {
    /// Creates a generator for `profile`, drawing physical frames from a
    /// private range starting at `base_page`, seeded with `seed`.
    pub fn new(
        profile: &'static BenchmarkProfile,
        domain: DomainId,
        base_page: u64,
        seed: u64,
    ) -> Self {
        let footprint = profile.footprint_pages();
        let range = (footprint * 4).next_power_of_two().max(CLUSTER_PAGES * 4);
        Self::with_footprint(profile, domain, base_page, seed, footprint, range)
    }

    /// Like [`new`](Self::new) but with an explicit footprint and frame
    /// range in pages — threads of one process split the process footprint,
    /// and the range should span the process's whole physical region so the
    /// frame scatter has OS-like entropy.
    ///
    /// # Panics
    ///
    /// Panics unless `range_pages` is a power of two covering the spiked
    /// footprint.
    pub fn with_footprint(
        profile: &'static BenchmarkProfile,
        domain: DomainId,
        base_page: u64,
        seed: u64,
        footprint_pages: u64,
        range_pages: u64,
    ) -> Self {
        let footprint = footprint_pages.max(1);
        let peak_pages = (footprint as f64 * profile.init_spike) as u64;
        // Frames are handed out in buddy-allocator style: contiguous within
        // a cluster, clusters scattered bijectively across the process
        // range — real OS allocations are neither fully contiguous nor
        // fully random, and the scatter spreads metadata blocks across the
        // metadata caches' sets the way a fragmented physical memory does.
        assert!(
            range_pages.is_power_of_two(),
            "range must be a power of two"
        );
        assert!(
            range_pages >= peak_pages.next_power_of_two(),
            "range must cover the spiked footprint"
        );
        TraceGenerator {
            profile,
            domain,
            base_page,
            range_pages,
            footprint_pages: footprint,
            rng: Xoshiro256::seed_from(seed),
            zipf: Zipf::new(footprint as usize, profile.zipf_s),
            gap_span: 2 * (1.0 / profile.mem_ops_per_instr).max(1.0) as u64,
            allocated: Vec::new(),
            free_frames: Vec::new(),
            next_frame: 0,
            pending: VecDeque::new(),
            run_page: PageNum::new(base_page),
            run_block: 0,
            run_left: 0,
            accesses_since_alloc: 0,
            peak_pages,
            transients: Vec::new(),
            releasing: false,
            spike_done: false,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &'static BenchmarkProfile {
        self.profile
    }

    /// The IV domain this stream belongs to.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// Whether the init spike has completed and the steady-state footprint
    /// is resident.
    pub fn warmed_up(&self) -> bool {
        self.spike_done && self.allocated.len() as u64 >= self.footprint_pages
    }

    /// Currently allocated pages.
    pub fn live_pages(&self) -> u64 {
        self.allocated.len() as u64
    }

    fn take_frame(&mut self) -> PageNum {
        if let Some(f) = self.free_frames.pop() {
            return PageNum::new(self.base_page + f);
        }
        let i = self.next_frame;
        assert!(
            i < self.range_pages,
            "frame range exhausted (churn outpaced recycling)"
        );
        self.next_frame += 1;
        // Scatter at cluster granularity: multiplication by an odd constant
        // is a bijection modulo the power-of-two cluster count.
        let clusters = self.range_pages / CLUSTER_PAGES;
        let cluster = (i / CLUSTER_PAGES).wrapping_mul(0x9E37_79B1) & (clusters - 1);
        let f = cluster * CLUSTER_PAGES + (i % CLUSTER_PAGES);
        PageNum::new(self.base_page + f)
    }

    fn release_frame(&mut self, page: PageNum) {
        self.free_frames.push(page.index() - self.base_page);
    }

    fn pick_page(&mut self) -> PageNum {
        let rank = self
            .zipf
            .sample(&mut self.rng)
            .min(self.allocated.len() - 1);
        self.allocated[rank]
    }

    fn emit_access(&mut self) -> MemEvent {
        if self.run_left == 0 || self.allocated.is_empty() {
            // New sequential run at a Zipf-selected page.
            self.run_page = self.pick_page();
            self.run_block = self.rng.index(BLOCKS_PER_PAGE);
            // Geometric run length from the locality knob.
            let mut len = 1u32;
            while len < 256 && self.rng.chance(self.profile.locality) {
                len += 1;
            }
            self.run_left = len;
        }
        let block = self.run_page.block(self.run_block);
        self.run_block = (self.run_block + 1) % BLOCKS_PER_PAGE;
        self.run_left -= 1;
        let is_write = !self.rng.chance(self.profile.read_ratio);
        let gap_instrs = 1 + self.rng.next_below(self.gap_span);
        MemEvent::Access {
            block,
            is_write,
            gap_instrs,
        }
    }

    /// Produces the next trace event.
    pub fn next_event(&mut self) -> MemEvent {
        if let Some(ev) = self.pending.pop_front() {
            return ev;
        }

        let footprint = self.footprint_pages;

        // Init ramp: allocate up to the spike peak. Pages beyond the
        // steady-state footprint are transient buffers.
        if !self.spike_done {
            let resident = self.allocated.len() as u64 + self.transients.len() as u64;
            if resident >= self.peak_pages {
                self.releasing = true;
            }
            if !self.releasing {
                self.accesses_since_alloc += 1;
                if resident == 0 || self.accesses_since_alloc >= 2 {
                    self.accesses_since_alloc = 0;
                    let page = self.take_frame();
                    if (self.allocated.len() as u64) < footprint {
                        self.allocated.push(page);
                    } else {
                        self.transients.push(page);
                    }
                    // Touch the fresh page next (allocation is first touch).
                    self.run_page = page;
                    self.run_block = 0;
                    self.run_left = 4;
                    return MemEvent::Alloc { page };
                }
                return self.emit_access();
            }
            // Spike peaked: release the transients (last-allocated first,
            // like freeing init-phase buffers).
            if let Some(page) = self.transients.pop() {
                self.release_frame(page);
                if self.run_page == page {
                    self.run_left = 0;
                }
                if self.transients.is_empty() {
                    self.spike_done = true;
                }
                return MemEvent::Dealloc { page };
            }
            self.spike_done = true;
        }

        // Steady state: churn with the profile's probability.
        if self.rng.chance(self.profile.churn) && self.allocated.len() > 8 {
            // Deallocate a cold page (upper half of the rank order) and
            // replace it with a fresh frame at the same rank.
            let rank = self.allocated.len() / 2 + self.rng.index(self.allocated.len() / 2);
            let victim = self.allocated[rank];
            let fresh = self.take_frame();
            self.allocated[rank] = fresh;
            self.release_frame(victim);
            if self.run_page == victim {
                self.run_left = 0;
            }
            self.pending.push_back(MemEvent::Alloc { page: fresh });
            return MemEvent::Dealloc { page: victim };
        }

        self.emit_access()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::by_name;

    fn generator(name: &str, seed: u64) -> TraceGenerator {
        TraceGenerator::new(
            by_name(name).unwrap(),
            DomainId::new_unchecked(0),
            1000,
            seed,
        )
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = generator("gcc", 1);
        let mut b = generator("gcc", 1);
        for _ in 0..1000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn ramps_through_spike_to_footprint() {
        let mut g = generator("x264", 2); // 40 MiB = 10240 pages
        let footprint = g.profile().footprint_pages();
        let spike = g.profile().init_spike;
        let mut allocs = 0u64;
        let mut deallocs = 0u64;
        for _ in 0..(footprint * 8) {
            match g.next_event() {
                MemEvent::Alloc { .. } => allocs += 1,
                MemEvent::Dealloc { .. } => deallocs += 1,
                MemEvent::Access { .. } => {}
            }
            if g.warmed_up() {
                break;
            }
        }
        assert!(g.warmed_up());
        // The init spike over-allocates and then frees the transients.
        let peak = (footprint as f64 * spike) as u64;
        assert_eq!(allocs, peak);
        assert_eq!(deallocs, peak - footprint);
        assert_eq!(g.live_pages(), footprint);
    }

    #[test]
    fn accesses_stay_in_allocated_pages() {
        let mut g = generator("gcc", 3);
        let mut live = std::collections::HashSet::new();
        for _ in 0..200_000 {
            match g.next_event() {
                MemEvent::Alloc { page } => {
                    assert!(live.insert(page), "double alloc of {page}");
                }
                MemEvent::Dealloc { page } => {
                    assert!(live.remove(&page), "dealloc of unallocated {page}");
                }
                MemEvent::Access { block, .. } => {
                    assert!(live.contains(&block.page()), "access outside footprint");
                }
            }
        }
    }

    #[test]
    fn churny_benchmarks_emit_deallocs() {
        let mut g = generator("dedup", 4);
        let mut deallocs = 0;
        for _ in 0..500_000 {
            if let MemEvent::Dealloc { .. } = g.next_event() {
                deallocs += 1;
            }
        }
        assert!(deallocs > 10, "dedup should churn: {deallocs}");
    }

    #[test]
    fn hot_pages_dominate_for_skewed_profiles() {
        let mut g = generator("x264", 5); // zipf 1.1
                                          // Warm up fully.
        while !g.warmed_up() {
            g.next_event();
        }
        let mut counts: std::collections::HashMap<PageNum, u64> = std::collections::HashMap::new();
        let n = 200_000;
        let mut total = 0;
        while total < n {
            if let MemEvent::Access { block, .. } = g.next_event() {
                *counts.entry(block.page()).or_insert(0) += 1;
                total += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top16: u64 = freqs.iter().take(16).sum();
        assert!(
            top16 as f64 / n as f64 > 0.15,
            "hot pages should take a large share: {}",
            top16 as f64 / n as f64
        );
    }

    #[test]
    fn writes_respect_read_ratio_roughly() {
        let mut g = generator("lbm", 6); // read_ratio 0.55
        let mut reads = 0u64;
        let mut writes = 0u64;
        for _ in 0..300_000 {
            if let MemEvent::Access { is_write, .. } = g.next_event() {
                if is_write {
                    writes += 1;
                } else {
                    reads += 1;
                }
            }
        }
        let ratio = reads as f64 / (reads + writes) as f64;
        assert!((ratio - 0.55).abs() < 0.05, "read ratio {ratio}");
    }
}
