//! The IvLeague timing model: an [`IntegritySubsystem`] implementation for
//! IvLeague-Basic, -Invert and -Pro (and the naive BV-v1/BV-v2 allocator
//! baselines of Figure 17a).
//!
//! Differences from the global-tree Baseline, exactly as the paper costs
//! them (§X-A1):
//!
//! * verification consults the **LMM cache** to find the page's TreeLing
//!   slot (a miss costs one page-table memory read);
//! * the walk runs from the mapped node up to the TreeLing root and
//!   terminates at the **locked upper structure** (always on-chip);
//! * page allocation/deallocation drives the **NFL** through the on-chip
//!   NFLB, with misses and dirty evictions costing NFL memory traffic;
//! * locking the upper structure **reserves part of the tree cache**,
//!   shrinking the capacity available to intra-TreeLing nodes;
//! * Pro's tracker promotes hotpages; migrations cost a hash copy plus an
//!   LMM update off the critical path.

use ivl_cache::cam::CamBuffer;
use ivl_cache::set_assoc::SetAssocCache;
use ivl_cache::CacheModel;
use ivl_dram::DramModel;
use ivl_secure_mem::layout::MetadataLayout;
use ivl_secure_mem::subsystem::{IntegritySubsystem, IvStats};
use ivl_sim_core::addr::{BlockAddr, PageNum};
use ivl_sim_core::config::{IvLeagueConfig, IvVariant, SecureMemConfig, SystemConfig};
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::obs::registry::StatsRegistry;
use ivl_sim_core::obs::trace::{CacheKind, EventKind};
use ivl_sim_core::obs::Obs;
use ivl_sim_core::Cycle;

use crate::bitvector::{BvAllocator, BvVariant};
use crate::forest::{Forest, ForestConfig, TaggedNflOp};
use crate::geometry::{LeafSlot, TreeLingId, TreeLingLayout};
use crate::lmm::{pte_block, LmmCache};
use crate::tracker::{HotEvent, HotpageTracker};

/// Which page→slot allocator the subsystem runs (Figure 17a compares them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorKind {
    /// The paper's Node Free-List (the IvLeague design point).
    Nfl,
    /// Naive per-TreeLing bit vector, current-TreeLing tracking only.
    BvV1,
    /// Naive bit vector with cross-TreeLing tracking (and scans).
    BvV2,
}

#[derive(Debug)]
enum Mapper {
    Nfl(Forest),
    Bv(BvAllocator),
}

/// Precomputed terminal latencies for the verification walk, keyed by
/// (tree level, metadata-cache hit class). The walk's variable cost is the
/// stateful DRAM/cache traffic; what *is* constant — the on-chip tail of
/// cache-hit latency plus hash check, or hash check alone after a memory
/// fetch — is folded into this table once at construction instead of being
/// re-summed from config fields on every access. The domain dimension
/// collapses because every domain shares one TreeLing geometry and the
/// locked upper structure; with today's uniform per-level costs the rows
/// are identical, but the walk reads through the (level, hit) key so
/// variant-specific level costs slot in without touching the loop.
#[derive(Debug, Clone)]
struct WalkLatencyTable {
    /// `terminal[level][hit as usize]`: cycles to finish verification once
    /// the walk terminates at `level` (hit = ended on-chip).
    terminal: Vec<[Cycle; 2]>,
}

impl WalkLatencyTable {
    fn new(levels: usize, secure: &SecureMemConfig) -> Self {
        let mem_tail = secure.hash_latency;
        let chip_tail = secure.tree_cache.hit_latency + secure.hash_latency;
        WalkLatencyTable {
            // +2: level 0 (unused) and the virtual above-root terminal.
            terminal: vec![[mem_tail, chip_tail]; levels + 2],
        }
    }

    #[inline]
    fn terminal(&self, level: u32, on_chip: bool) -> Cycle {
        self.terminal[(level as usize).min(self.terminal.len() - 1)][on_chip as usize]
    }

    /// The above-root terminal (locked upper structure, always on-chip).
    #[inline]
    fn root(&self) -> Cycle {
        self.terminal[self.terminal.len() - 1][1]
    }
}

/// The IvLeague integrity subsystem.
///
/// # Examples
///
/// ```
/// use ivleague::scheme::{AllocatorKind, IvLeagueSubsystem};
/// use ivl_secure_mem::subsystem::IntegritySubsystem;
/// use ivl_dram::DramModel;
/// use ivl_sim_core::{addr::PageNum, config::{IvVariant, SystemConfig}, domain::DomainId};
///
/// let cfg = SystemConfig::default();
/// let mut dram = DramModel::new(&cfg.dram);
/// let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Basic, AllocatorKind::Nfl);
/// let d = DomainId::new_unchecked(1);
/// let page = PageNum::new(42);
/// s.page_alloc(0, &mut dram, page, d);
/// let done = s.data_access(100, &mut dram, page.block(0), d, false);
/// assert!(done > 100);
/// ```
#[derive(Debug)]
pub struct IvLeagueSubsystem {
    variant: IvVariant,
    allocator: AllocatorKind,
    lock_upper: bool,
    /// The two config slices the hot path reads (both `Copy`); the scheme
    /// never needs the rest of `SystemConfig` after construction, so it no
    /// longer clones the full struct.
    ivcfg: IvLeagueConfig,
    secure: SecureMemConfig,
    /// Memoized constant walk-terminal latencies.
    lat: WalkLatencyTable,
    mapper: Mapper,
    /// Static counter/MAC layout (counters stay statically addressed).
    data_layout: MetadataLayout,
    tl_layout: TreeLingLayout,
    ctr_cache: SetAssocCache,
    tree_cache: SetAssocCache,
    mac_cache: SetAssocCache,
    lmm_cache: LmmCache,
    /// Per-domain on-chip NFL buffers indexed densely by
    /// [`DomainId::index`]; payload = dirty flag. `None` = domain has no
    /// buffer yet (or was destroyed — reused IDs start fresh).
    nflb: Vec<Option<CamBuffer<bool>>>,
    /// Per-domain hotpage trackers (Pro), same dense indexing.
    trackers: Vec<Option<HotpageTracker>>,
    /// First block of the in-memory NFL region.
    nfl_base: u64,
    /// NFL blocks reserved per TreeLing (regular + hot).
    nfl_stride: u64,
    /// NFL depth-region block offset within a TreeLing's NFL slice.
    nfl_depth_offset: u64,
    /// NFL hot-region block offset within a TreeLing's NFL slice.
    nfl_hot_offset: u64,
    /// First block of the page-table region.
    pt_base: u64,
    stats: IvStats,
    obs: Obs,
    /// Cached `obs.tracer.enabled()` / `obs.timeline.enabled()` so the
    /// per-access path branches on a bool instead of chasing the handles.
    trace_on: bool,
    tl_on: bool,
}

impl IvLeagueSubsystem {
    /// Builds the subsystem from the Table I configuration.
    pub fn new(cfg: &SystemConfig, variant: IvVariant, allocator: AllocatorKind) -> Self {
        Self::with_options(cfg, variant, allocator, true)
    }

    /// Like [`new`](Self::new) with an explicit root-locking choice.
    /// `lock_upper = false` is the **insecure ablation**: the structure
    /// above TreeLing roots competes for cache space like ordinary
    /// metadata, which re-opens cross-domain sharing of those blocks (the
    /// side channel §VIII's locking exists to close) and lengthens walks.
    pub fn with_options(
        cfg: &SystemConfig,
        variant: IvVariant,
        allocator: AllocatorKind,
        lock_upper: bool,
    ) -> Self {
        let data_pages = cfg.total_pages();
        // Checked once here so the forest's 32-bit slot words can never
        // truncate a page the system can address.
        assert!(
            data_pages <= crate::forest::MAX_PAGES,
            "dram.capacity_bytes: {data_pages} pages exceed the {} a TreeLing slot word can name",
            crate::forest::MAX_PAGES
        );
        // Pro builds each domain's tracker on that domain's first access,
        // so its settings are checked here rather than mid-run.
        if variant == IvVariant::Pro {
            let iv = &cfg.ivleague;
            assert!(
                iv.tracker_entries > 0 && u32::try_from(iv.tracker_entries).is_ok(),
                "ivleague.tracker_entries: {} is not in 1..={} (a tracker slot is a 32-bit index)",
                iv.tracker_entries,
                u32::MAX
            );
            assert!(
                (1..=31).contains(&iv.tracker_counter_bits),
                "ivleague.tracker_counter_bits: {} is not in 1..=31",
                iv.tracker_counter_bits
            );
            assert!(
                iv.hot_threshold > 0,
                "ivleague.hot_threshold: must be at least 1"
            );
        }
        let data_layout = MetadataLayout::new(data_pages, cfg.secure.tree_arity);
        let forest_cfg =
            ForestConfig::from_ivleague(&cfg.ivleague, cfg.secure.tree_arity as u32, variant);
        let geometry = forest_cfg.geometry;
        let tl_layout = TreeLingLayout::new(
            geometry,
            forest_cfg.treeling_count,
            data_layout.total_blocks(),
        );

        let mut tree_cache = SetAssocCache::with_geometry(
            cfg.secure.tree_cache.capacity_bytes,
            cfg.secure.tree_cache.ways,
            cfg.secure.tree_cache.line_bytes,
        );
        // Pin the upper structure: TreeLing roots verify against these
        // locked blocks, so no walk ever leaves its TreeLing.
        if lock_upper {
            for b in tl_layout.upper_structure_blocks() {
                tree_cache.lock(b.index());
            }
        }

        let epb = cfg.ivleague.nfl_entries_per_block as u64;
        // Region budgets: top (intermediate levels), depth (leaves), hot.
        let top_blocks = (geometry.nodes_per_treeling() as u64).div_ceil(epb);
        let depth_blocks = (geometry.nodes_at_level(1) as u64).div_ceil(epb).max(1);
        let hot_blocks = (geometry.nodes_per_treeling() as u64 / 4)
            .div_ceil(epb)
            .max(1);
        let nfl_base = tl_layout
            .node_block(
                TreeLingId(0),
                crate::geometry::TlNode { level: 1, index: 0 },
            )
            .index()
            + tl_layout.total_blocks();
        let nfl_stride = top_blocks + depth_blocks + hot_blocks;
        let pt_base = nfl_base + forest_cfg.treeling_count as u64 * nfl_stride;

        let mapper = match allocator {
            AllocatorKind::Nfl => Mapper::Nfl(Forest::new(forest_cfg)),
            AllocatorKind::BvV1 => Mapper::Bv(BvAllocator::new(
                geometry,
                forest_cfg.treeling_count,
                BvVariant::V1,
            )),
            AllocatorKind::BvV2 => Mapper::Bv(BvAllocator::new(
                geometry,
                forest_cfg.treeling_count,
                BvVariant::V2,
            )),
        };

        IvLeagueSubsystem {
            variant,
            allocator,
            lock_upper,
            ivcfg: cfg.ivleague,
            secure: cfg.secure,
            lat: WalkLatencyTable::new(cfg.ivleague.treeling_levels, &cfg.secure),
            mapper,
            data_layout,
            tl_layout,
            ctr_cache: SetAssocCache::with_geometry(
                cfg.secure.counter_cache.capacity_bytes,
                cfg.secure.counter_cache.ways,
                cfg.secure.counter_cache.line_bytes,
            ),
            tree_cache,
            mac_cache: SetAssocCache::with_geometry(32 * 1024, 8, 64),
            lmm_cache: LmmCache::new(cfg.ivleague.lmm_cache_entries, cfg.ivleague.lmm_cache_ways),
            nflb: Vec::new(),
            trackers: Vec::new(),
            nfl_base,
            nfl_stride,
            nfl_depth_offset: top_blocks,
            nfl_hot_offset: top_blocks + depth_blocks,
            pt_base,
            stats: IvStats::default(),
            obs: Obs::disabled(),
            trace_on: false,
            tl_on: false,
        }
    }

    /// Emits a metadata-cache access event when tracing is on.
    fn trace_cache(
        &self,
        now: Cycle,
        domain: DomainId,
        cache: CacheKind,
        hit: bool,
        evicted: bool,
    ) {
        if self.trace_on {
            self.obs.tracer.emit(
                now,
                "scheme",
                Some(domain),
                None,
                EventKind::CacheAccess {
                    cache,
                    hit,
                    evicted,
                },
            );
        }
    }

    /// Ensures the dense table slot for `domain` exists, growing the table
    /// as higher domain IDs appear.
    fn ensure_nflb(&mut self, domain: DomainId) -> usize {
        let di = domain.index();
        if di >= self.nflb.len() {
            self.nflb.resize_with(di + 1, || None);
        }
        if self.nflb[di].is_none() {
            self.nflb[di] = Some(CamBuffer::new(self.ivcfg.nflb_entries_per_domain));
        }
        di
    }

    /// The functional forest (NFL allocator runs only).
    pub fn forest(&self) -> Option<&Forest> {
        match &self.mapper {
            Mapper::Nfl(f) => Some(f),
            Mapper::Bv(_) => None,
        }
    }

    /// The bit-vector allocator (BV runs only).
    pub fn bv(&self) -> Option<&BvAllocator> {
        match &self.mapper {
            Mapper::Bv(b) => Some(b),
            Mapper::Nfl(_) => None,
        }
    }

    /// The TreeLing layout (for tests and the attack model).
    pub fn tl_layout(&self) -> &TreeLingLayout {
        &self.tl_layout
    }

    /// Models a successful attacker eviction of one tree-node block
    /// (locked upper-structure blocks cannot be evicted — `invalidate`
    /// removes the line regardless, so callers must not target them; the
    /// attack model only targets unlocked intra-TreeLing nodes).
    pub fn evict_tree_block(&mut self, node_block: ivl_sim_core::addr::BlockAddr) {
        self.tree_cache.invalidate(node_block.index());
    }

    /// Models an eviction of a page's counter block.
    pub fn evict_counter_block(&mut self, page: PageNum) {
        let b = self.data_layout.counter_block(page);
        self.ctr_cache.invalidate(b.index());
    }

    /// Whether a tree-node block is currently cached.
    pub fn tree_node_cached(&self, node_block: ivl_sim_core::addr::BlockAddr) -> bool {
        self.tree_cache.probe(node_block.index())
    }

    /// The verification path (node block addresses, mapped node → root) of
    /// a page, as the attack/security analyses need it.
    pub fn path_blocks(&self, page: PageNum) -> Vec<ivl_sim_core::addr::BlockAddr> {
        let Some(slot) = self.slot_of(page) else {
            return Vec::new();
        };
        let g = self.tl_layout.geometry();
        let mut out = Vec::new();
        let mut node = Some(slot.node);
        while let Some(n) = node {
            out.push(self.tl_layout.node_block(slot.treeling, n));
            node = g.parent(n);
        }
        out
    }

    fn slot_of(&self, page: PageNum) -> Option<LeafSlot> {
        match &self.mapper {
            Mapper::Nfl(f) => f.slot_of(page),
            Mapper::Bv(b) => b.slot_of(page),
        }
    }

    fn nfl_block_addr(&self, op: &TaggedNflOp) -> BlockAddr {
        let base = self.nfl_base + op.treeling.0 as u64 * self.nfl_stride;
        let off = match op.region {
            crate::forest::NflRegion::Top => op.op.block as u64,
            crate::forest::NflRegion::Depth => self.nfl_depth_offset + op.op.block as u64,
            crate::forest::NflRegion::Hot => self.nfl_hot_offset + op.op.block as u64,
        };
        BlockAddr::new(base + off.min(self.nfl_stride - 1))
    }

    fn meta_writeback(&mut self, now: Cycle, dram: &mut DramModel, key: u64) {
        dram.access(now, BlockAddr::new(key), true);
        self.stats.meta_writes += 1;
    }

    /// Runs NFL traffic through the domain's NFLB; returns added latency.
    fn charge_nfl_ops(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        domain: DomainId,
        ops: &[TaggedNflOp],
    ) -> Cycle {
        if ops.is_empty() {
            return now;
        }
        let di = self.ensure_nflb(domain);
        let mut t = now;
        for op in ops {
            let addr = self.nfl_block_addr(op);
            let buf = self.nflb[di].as_mut().expect("slot ensured above");
            match buf.get(addr.index()) {
                Some(dirty) => {
                    self.stats.nflb.hit();
                    *dirty |= op.op.write;
                    if self.trace_on {
                        self.obs.tracer.emit(
                            t,
                            "scheme",
                            Some(domain),
                            None,
                            EventKind::NflbAccess { hit: true },
                        );
                    }
                }
                None => {
                    self.stats.nflb.miss();
                    if self.tl_on {
                        self.obs.timeline.count("scheme.nflb_misses", t, 1);
                    }
                    t = dram.access(t, addr, false);
                    self.stats.nfl_mem_reads += 1;
                    self.stats.meta_reads += 1;
                    if self.trace_on {
                        self.obs.tracer.emit(
                            t,
                            "scheme",
                            Some(domain),
                            None,
                            EventKind::NflbAccess { hit: false },
                        );
                    }
                    let buf = self.nflb[di].as_mut().expect("slot ensured above");
                    if let Some((victim, dirty)) = buf.insert(addr.index(), op.op.write) {
                        if self.trace_on {
                            self.obs.tracer.emit(
                                t,
                                "scheme",
                                Some(domain),
                                None,
                                EventKind::NflbEvict,
                            );
                        }
                        if dirty {
                            dram.access(t, BlockAddr::new(victim), true);
                            self.stats.nfl_mem_writes += 1;
                            self.stats.meta_writes += 1;
                        }
                    }
                }
            }
        }
        t
    }

    /// LMM lookup: returns the completion time. Charges a page-table read
    /// on an LMM-cache miss. The caller already holds the page's slot (one
    /// mapper probe per access, not one per lookup).
    fn lmm_lookup(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        page: PageNum,
        domain: DomainId,
    ) -> Cycle {
        let hit = self.lmm_cache.access(page);
        self.stats.lmm_cache.record(hit);
        self.trace_cache(now, domain, CacheKind::Lmm, hit, false);
        if hit {
            now + self.ivcfg.lmm_hit_latency
        } else {
            let done = dram.access(now, pte_block(self.pt_base, page), false);
            self.stats.meta_reads += 1;
            done
        }
    }

    /// Verification walk from the mapped slot to the TreeLing root; stops
    /// at the first cached node or at the locked upper structure.
    fn walk(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        slot: LeafSlot,
        domain: DomainId,
        is_write: bool,
    ) -> Cycle {
        let g = self.tl_layout.geometry();
        let mut t = now;
        let mut path_len = 0u64;
        // Constant tail once the walk terminates: read from the memo table
        // instead of re-summing config latencies per access.
        let mut tail = self.lat.root();
        let mut node = Some(slot.node);
        while let Some(n) = node {
            let nb = self.tl_layout.node_block(slot.treeling, n);
            // `access` reports the pre-access hit state (locked lines count
            // as hits via `bypassed`), so the old separate `probe` was a
            // second full set scan for the same answer.
            let out = self.tree_cache.access(nb.index(), is_write);
            let hit = out.hit;
            self.stats.tree_cache.record(hit);
            if self.trace_on {
                self.obs.tracer.emit(
                    t,
                    "scheme",
                    Some(domain),
                    None,
                    EventKind::TreeWalkLevel {
                        level: n.level.min(u8::MAX as u32) as u8,
                        hit,
                    },
                );
            }
            if let Some(e) = out.evicted.filter(|e| e.dirty) {
                self.meta_writeback(t, dram, e.key);
            }
            if hit || out.bypassed {
                tail = self.lat.terminal(n.level, true);
                break;
            }
            t = dram.access(t, nb, false);
            self.stats.meta_reads += 1;
            if !is_write {
                path_len += 1;
                self.stats.fetches_by_level[(n.level as usize - 1).min(7)] += 1;
                if self.tl_on {
                    self.obs.timeline.count("scheme.walk_legs", t, 1);
                }
            }
            node = g.parent(n);
        }
        // Fell past the root: the root's hash lives in the upper structure.
        // With locking it is on-chip by construction (`lat.root()`, set
        // above); the ablation re-opens the shared evictable block.
        if node.is_none() && !self.lock_upper {
            let upper = self.tl_layout.upper_structure_blocks()[(slot.treeling.0 as usize
                / g.arity() as usize)
                .min(self.tl_layout.upper_structure_blocks().len() - 1)];
            let out = self.tree_cache.access(upper.index(), is_write);
            let hit = out.hit;
            self.stats.tree_cache.record(hit);
            if let Some(e) = out.evicted.filter(|e| e.dirty) {
                self.meta_writeback(t, dram, e.key);
            }
            if hit {
                tail = self.lat.terminal(0, true);
            } else {
                t = dram.access(t, upper, false);
                self.stats.meta_reads += 1;
                if !is_write {
                    path_len += 1;
                    if self.tl_on {
                        self.obs.timeline.count("scheme.walk_legs", t, 1);
                    }
                }
                tail = self.lat.terminal(0, false);
            }
        }
        if !is_write {
            self.stats.path_len_sum += path_len;
        }
        t + tail
    }

    /// Maps a page that has no mapping yet, charging the allocator's
    /// traffic. Returns the completion time and the page's new slot
    /// (`None` when the allocation failed).
    fn map_new_page(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        page: PageNum,
        domain: DomainId,
    ) -> (Cycle, Option<LeafSlot>) {
        let (done, slot) = match &mut self.mapper {
            Mapper::Nfl(f) => match f.map_page(domain, page) {
                Ok(out) => {
                    self.stats.nfl_claims += 1;
                    if self.tl_on {
                        self.obs.timeline.count("scheme.nfl_claims", now, 1);
                    }
                    let mut t = self.charge_nfl_ops(now, dram, domain, &out.nfl_ops);
                    // PTE/LMM write for the new mapping.
                    dram.access(t, pte_block(self.pt_base, page), true);
                    self.stats.meta_writes += 1;
                    // Invert conversions: one hash copy each.
                    for _ in 0..out.conversions {
                        self.stats.meta_reads += 1;
                        self.stats.meta_writes += 1;
                        t += self.secure.hash_latency;
                    }
                    for p in &out.remapped {
                        self.lmm_cache.invalidate(*p);
                        dram.access(t, pte_block(self.pt_base, *p), true);
                        self.stats.meta_writes += 1;
                    }
                    if let Mapper::Nfl(f) = &mut self.mapper {
                        f.recycle_ops(out.nfl_ops);
                    }
                    (t, Some(out.slot))
                }
                Err(_) => {
                    self.stats.alloc_failures += 1;
                    (now, None)
                }
            },
            Mapper::Bv(b) => match b.map_page(domain, page) {
                Ok(out) => {
                    // The O(N) scan reads bit-vector blocks serially on the
                    // allocation's critical path.
                    let mut t = now;
                    for i in 0..out.blocks_scanned {
                        let addr = BlockAddr::new(
                            self.nfl_base
                                + out.slot.treeling.0 as u64 * self.nfl_stride
                                + (i % self.nfl_stride),
                        );
                        t = dram.access(t, addr, false);
                        self.stats.nfl_mem_reads += 1;
                        self.stats.meta_reads += 1;
                    }
                    dram.access(t, pte_block(self.pt_base, page), true);
                    self.stats.meta_writes += 1;
                    (t, Some(out.slot))
                }
                Err(_) => {
                    self.stats.alloc_failures += 1;
                    (now, None)
                }
            },
        };
        if self.trace_on {
            self.obs.tracer.emit(
                now,
                "scheme",
                Some(domain),
                None,
                EventKind::PageAlloc {
                    failed: slot.is_none(),
                },
            );
        }
        (done, slot)
    }

    /// Handles Pro hotpage tracking on a data access; migrations happen off
    /// the critical path but their memory traffic is charged. Returns
    /// whether the **accessed page itself** migrated (its slot moved, so a
    /// caller holding it must re-fetch).
    fn track_hotpage(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        page: PageNum,
        domain: DomainId,
    ) -> bool {
        if self.variant != IvVariant::Pro {
            return false;
        }
        let di = domain.index();
        if di >= self.trackers.len() {
            self.trackers.resize_with(di + 1, || None);
        }
        let ivcfg = self.ivcfg;
        let tracker = self.trackers[di].get_or_insert_with(|| {
            HotpageTracker::new(
                ivcfg.tracker_entries,
                ivcfg.tracker_counter_bits,
                ivcfg.hot_threshold,
                ivcfg.tracker_clear_interval,
            )
        });
        let events = tracker.record(page);
        let mut accessed_page_moved = false;
        for event in events {
            let outcome = match (&mut self.mapper, event) {
                (Mapper::Nfl(f), HotEvent::Promote(p)) => f.promote_page(domain, p),
                (Mapper::Nfl(f), HotEvent::Demote(p)) => f.demote_page(domain, p),
                (Mapper::Bv(_), _) => None,
            };
            if let Some(m) = outcome {
                match event {
                    HotEvent::Promote(_) => self.stats.hot_migrations += 1,
                    HotEvent::Demote(_) => self.stats.hot_demotions += 1,
                }
                if self.tl_on {
                    self.obs.timeline.count("scheme.hot_churn", now, 1);
                }
                // Hash copy between node blocks + LMM/PTE refresh.
                let from = self.tl_layout.node_block(m.from.treeling, m.from.node);
                let to = self.tl_layout.node_block(m.to.treeling, m.to.node);
                dram.access(now, from, false);
                dram.access(now, to, true);
                self.stats.meta_reads += 1;
                self.stats.meta_writes += 1;
                let migrated = match event {
                    HotEvent::Promote(p) | HotEvent::Demote(p) => p,
                };
                if migrated == page || m.remapped.contains(&page) {
                    accessed_page_moved = true;
                }
                for &p in std::iter::once(&migrated).chain(&m.remapped) {
                    self.lmm_cache.invalidate(p);
                    dram.access(now, pte_block(self.pt_base, p), true);
                    self.stats.meta_writes += 1;
                }
                self.charge_nfl_ops(now, dram, domain, &m.nfl_ops);
                if let Mapper::Nfl(f) = &mut self.mapper {
                    f.recycle_ops(m.nfl_ops);
                }
            }
        }
        accessed_page_moved
    }
}

impl IntegritySubsystem for IvLeagueSubsystem {
    fn data_access(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        block: BlockAddr,
        domain: DomainId,
        is_write: bool,
    ) -> Cycle {
        let page = block.page();
        // Defensive: first touch without an explicit alloc maps the page.
        // One mapper probe serves the whole access (a first touch takes the
        // slot from the mapping result); the slot is re-fetched only when
        // the tracker actually migrated this page.
        let mut slot = self
            .slot_of(page)
            .or_else(|| self.map_new_page(now, dram, page, domain).1);
        // The hotpage tracker observes every access reaching the memory
        // controller (Figure 14a).
        if self.track_hotpage(now, dram, page, domain) {
            slot = self.slot_of(page);
        }

        // MAC leg (parallel).
        let mac_block = self.data_layout.mac_block(block);
        let mac = self.mac_cache.access(mac_block.index(), is_write);
        self.stats.mac_cache.record(mac.hit);
        self.trace_cache(now, domain, CacheKind::Mac, mac.hit, mac.evicted.is_some());

        // Counter leg.
        let ctr_block = self.data_layout.counter_block(page);
        let ctr = self.ctr_cache.access(ctr_block.index(), is_write);
        self.stats.counter_cache.record(ctr.hit);
        self.trace_cache(
            now,
            domain,
            CacheKind::Counter,
            ctr.hit,
            ctr.evicted.is_some(),
        );

        // Read-path LMM probe, hoisted ahead of the DRAM legs so its PTE
        // read issues at `now` with its siblings. The write path's lookup
        // starts only once the counter arrives, so it stays serial below.
        let lmm_hit = if !is_write && !ctr.hit {
            let hit = self.lmm_cache.access(page);
            self.stats.lmm_cache.record(hit);
            self.trace_cache(now, domain, CacheKind::Lmm, hit, false);
            Some(hit)
        } else {
            None
        };

        // Sibling DRAM legs of this walk: independent, all issued at `now`
        // in a fixed order — MAC writeback, MAC read, counter writeback,
        // data, counter read, PTE read.
        if let Some(e) = mac.evicted.filter(|e| e.dirty) {
            dram.access(now, BlockAddr::new(e.key), true);
            self.stats.meta_writes += 1;
        }
        let mac_done = if mac.hit {
            now + self.secure.counter_cache.hit_latency
        } else {
            self.stats.meta_reads += 1;
            dram.access(now, mac_block, false)
        };
        if let Some(e) = ctr.evicted.filter(|e| e.dirty) {
            dram.access(now, BlockAddr::new(e.key), true);
            self.stats.meta_writes += 1;
        }
        let data_done = dram.access(now, block, is_write);
        let ctr_done = if ctr.hit {
            now
        } else {
            self.stats.meta_reads += 1;
            dram.access(now, ctr_block, false)
        };
        let pte_done = if lmm_hit == Some(false) {
            self.stats.meta_reads += 1;
            dram.access(now, pte_block(self.pt_base, page), false)
        } else {
            now
        };

        if is_write {
            self.stats.data_writes += 1;
            // Tree update: LMM lookup then update walk up to a cached node.
            let mut t = self.lmm_lookup(ctr_done, dram, page, domain);
            if let Some(slot) = slot {
                t = self.walk(t, dram, slot, domain, true);
            }
            t.max(mac_done).min(now + 200)
        } else {
            self.stats.data_reads += 1;
            let verify_done = if ctr.hit {
                now + self.secure.counter_cache.hit_latency
            } else {
                self.stats.verifications += 1;
                // Locating the TreeLing leaf needs the LMM: a hit is free,
                // a miss adds the memory indirection the paper charges
                // IvLeague-Basic for (one page-table read before the walk
                // can start).
                let lmm_done = if lmm_hit == Some(true) {
                    now + self.ivcfg.lmm_hit_latency
                } else {
                    pte_done
                };
                let mut t = ctr_done.max(lmm_done);
                if let Some(slot) = slot {
                    t = self.walk(t, dram, slot, domain, false);
                }
                t
            };
            let pad_done = verify_done + self.secure.aes_latency;
            data_done.max(pad_done).max(mac_done)
        }
    }

    fn page_alloc(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        page: PageNum,
        domain: DomainId,
    ) -> Cycle {
        if self.slot_of(page).is_some() {
            return now;
        }
        self.map_new_page(now, dram, page, domain).0
    }

    fn page_dealloc(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        page: PageNum,
        domain: DomainId,
    ) -> Cycle {
        let t = match &mut self.mapper {
            Mapper::Nfl(f) => match f.unmap_page(domain, page) {
                Ok(out) => {
                    self.stats.nfl_recycles += 1;
                    if self.tl_on {
                        self.obs.timeline.count("scheme.nfl_recycles", now, 1);
                    }
                    let t = self.charge_nfl_ops(now, dram, domain, &out.nfl_ops);
                    if let Mapper::Nfl(f) = &mut self.mapper {
                        f.recycle_ops(out.nfl_ops);
                    }
                    t
                }
                Err(_) => now,
            },
            Mapper::Bv(b) => match b.unmap_page(domain, page) {
                Ok(out) => {
                    let mut t = now;
                    for _ in 0..out.blocks_scanned {
                        let addr = BlockAddr::new(
                            self.nfl_base + out.slot.treeling.0 as u64 * self.nfl_stride,
                        );
                        t = dram.access(t, addr, true);
                        self.stats.nfl_mem_writes += 1;
                        self.stats.meta_writes += 1;
                    }
                    t
                }
                Err(_) => now,
            },
        };
        self.lmm_cache.invalidate(page);
        dram.access(t, pte_block(self.pt_base, page), true);
        self.stats.meta_writes += 1;
        if self.trace_on {
            self.obs
                .tracer
                .emit(now, "scheme", Some(domain), None, EventKind::PageDealloc);
        }
        t
    }

    fn domain_destroyed(&mut self, domain: DomainId) {
        match &mut self.mapper {
            Mapper::Nfl(f) => f.destroy_domain(domain),
            Mapper::Bv(b) => b.destroy_domain(domain),
        }
        // Clear (not shrink) the dense slots: a recycled DomainId must see
        // a fresh NFLB and tracker, never the departed domain's state.
        let di = domain.index();
        if let Some(slot) = self.nflb.get_mut(di) {
            *slot = None;
        }
        if let Some(slot) = self.trackers.get_mut(di) {
            *slot = None;
        }
    }

    fn stats(&self) -> &IvStats {
        &self.stats
    }

    fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.trace_on = self.obs.tracer.enabled();
        self.tl_on = self.obs.timeline.enabled();
    }

    fn export_stats(&self, prefix: &str, reg: &mut StatsRegistry) {
        self.stats.export(prefix, reg);
        reg.set_gauge(
            &format!("{prefix}.tree_cache_occupancy"),
            self.tree_cache.occupancy() as f64,
        );
        reg.set_gauge(
            &format!("{prefix}.tree_cache_locked"),
            self.tree_cache.locked_count() as f64,
        );
        if let Mapper::Nfl(f) = &self.mapper {
            let fs = f.stats();
            reg.set_gauge(
                &format!("{prefix}.forest.mean_utilization"),
                fs.mean_utilization(),
            );
            reg.set_counter(
                &format!("{prefix}.forest.untracked_slots"),
                fs.untracked_slots,
            );
            reg.set_counter(&format!("{prefix}.forest.conversions"), fs.conversions);
            reg.set_counter(
                &format!("{prefix}.forest.treelings_assigned"),
                fs.treelings_assigned,
            );
            reg.set_counter(
                &format!("{prefix}.forest.starvation_events"),
                f.starvation_events(),
            );
        }
        for (di, buf) in self.nflb.iter().enumerate() {
            if let Some(buf) = buf {
                reg.set_gauge(&format!("{prefix}.d{di}.nflb_occupancy"), buf.len() as f64);
            }
        }
    }

    fn name(&self) -> &'static str {
        match (self.variant, self.allocator) {
            (IvVariant::Basic, AllocatorKind::Nfl) => "IvLeague-Basic",
            (IvVariant::Invert, AllocatorKind::Nfl) => "IvLeague-Invert",
            (IvVariant::Pro, AllocatorKind::Nfl) => "IvLeague-Pro",
            (_, AllocatorKind::BvV1) => "BV-v1",
            (_, AllocatorKind::BvV2) => "BV-v2",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::default();
        cfg.dram.capacity_bytes = 256 * 1024 * 1024; // keep layouts small
        cfg.ivleague.treeling_count = 64;
        cfg
    }

    fn d(i: u16) -> DomainId {
        DomainId::new_unchecked(i)
    }

    #[test]
    fn alloc_then_read_walks_treeling() {
        let cfg = small_cfg();
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Basic, AllocatorKind::Nfl);
        let page = PageNum::new(7);
        s.page_alloc(0, &mut dram, page, d(0));
        let done = s.data_access(100, &mut dram, page.block(0), d(0), false);
        assert!(done > 100);
        assert_eq!(s.stats().verifications, 1);
        // Basic maps at leaves: cold path reads up to `levels` nodes.
        let levels = cfg.ivleague.treeling_levels as u64;
        assert!(s.stats().path_len_sum >= 1 && s.stats().path_len_sum <= levels);
    }

    #[test]
    fn invert_shortens_cold_paths() {
        let cfg = small_cfg();
        let mut path = HashMap::new();
        for variant in [IvVariant::Basic, IvVariant::Invert] {
            let mut dram = DramModel::new(&cfg.dram);
            let mut s = IvLeagueSubsystem::new(&cfg, variant, AllocatorKind::Nfl);
            let mut t = 0;
            for i in 0..16u64 {
                let page = PageNum::new(i);
                s.page_alloc(t, &mut dram, page, d(0));
                t += 10_000;
                t = s.data_access(t, &mut dram, page.block(0), d(0), false);
                // Thrash the tree cache between accesses so walks are cold.
                for j in 0..20_000u64 {
                    let filler = PageNum::new(1000 + (i * 20_000 + j) % 30_000);
                    s.page_alloc(t, &mut dram, filler, d(0));
                    t = s.data_access(t, &mut dram, filler.block(0), d(0), false);
                }
            }
            path.insert(variant, s.stats().avg_path_length());
        }
        assert!(
            path[&IvVariant::Invert] < path[&IvVariant::Basic],
            "invert {:.2} vs basic {:.2}",
            path[&IvVariant::Invert],
            path[&IvVariant::Basic]
        );
    }

    #[test]
    fn nflb_hits_on_consecutive_allocs() {
        let cfg = small_cfg();
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Basic, AllocatorKind::Nfl);
        for i in 0..64 {
            s.page_alloc(i * 100, &mut dram, PageNum::new(i), d(0));
        }
        let st = s.stats();
        assert!(
            st.nflb.hit_rate() > 0.8,
            "sequential allocs should hit the NFLB: {:.2}",
            st.nflb.hit_rate()
        );
    }

    #[test]
    fn lmm_misses_cost_memory_reads() {
        let mut cfg = small_cfg();
        cfg.ivleague.lmm_cache_entries = 16;
        cfg.ivleague.lmm_cache_ways = 16;
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Basic, AllocatorKind::Nfl);
        // Touch many pages so LMM thrashes, then re-read them.
        for i in 0..256u64 {
            let p = PageNum::new(i);
            s.page_alloc(i * 1000, &mut dram, p, d(0));
            s.data_access(i * 1000 + 500, &mut dram, p.block(0), d(0), false);
        }
        assert!(s.stats().lmm_cache.misses() > 0);
    }

    #[test]
    fn bv_v1_reports_alloc_failures() {
        let mut cfg = small_cfg();
        cfg.ivleague.treeling_count = 2;
        cfg.ivleague.treeling_levels = 3; // 512-page TreeLings for the test
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Basic, AllocatorKind::BvV1);
        let mut live = std::collections::VecDeque::new();
        let mut t = 0;
        // Working set (700 pages) larger than one TreeLing (512 leaf
        // slots) so frees land in older TreeLings and leak under BV-v1.
        for i in 0..4_000u64 {
            let p = PageNum::new(i);
            t = s.page_alloc(t, &mut dram, p, d(0)) + 10;
            live.push_back(p);
            if live.len() > 700 {
                let victim = live.pop_front().expect("nonempty");
                t = s.page_dealloc(t, &mut dram, victim, d(0)) + 10;
            }
        }
        assert!(
            s.stats().alloc_failures > 0,
            "BV-v1 must exhaust under churn"
        );
    }

    #[test]
    fn isolation_of_two_domains() {
        let cfg = small_cfg();
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Pro, AllocatorKind::Nfl);
        let mut t = 0;
        for i in 0..200u64 {
            let dom = d((i % 2) as u16);
            let p = PageNum::new(i);
            t = s.page_alloc(t, &mut dram, p, dom) + 10;
            t = s.data_access(t, &mut dram, p.block(0), dom, i % 3 == 0) + 10;
        }
        assert!(s.forest().unwrap().verify_isolation());
    }

    /// Grows `dom` page by page until one maps at level 2 (a frontier-2
    /// TreeLing with a hot region exists), returning that page.
    fn grow_until_level2(
        s: &mut IvLeagueSubsystem,
        dram: &mut DramModel,
        dom: DomainId,
        t: &mut Cycle,
    ) -> PageNum {
        for i in 0..4096u64 {
            let p = PageNum::new(i);
            *t = s.page_alloc(*t, dram, p, dom) + 10;
            if s.forest().expect("NFL run").mapped_level(p) == Some(2) {
                return p;
            }
        }
        panic!("domain never reached a frontier-2 TreeLing");
    }

    #[test]
    fn domain_destroy_resets_dense_tables_for_recycled_ids() {
        // A recycled DomainId must never see the departed domain's tracker
        // state. Promote a page (tracker marks it `promoted`), destroy the
        // domain, rebuild the same layout under the same ID: a stale
        // tracker would keep the promoted flag and silently *suppress* the
        // second promotion; a fresh one fires it after exactly
        // `hot_threshold` accesses again.
        let mut cfg = small_cfg();
        cfg.ivleague.hot_threshold = 3;
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Pro, AllocatorKind::Nfl);
        let dom = d(5);
        let mut t = 0;

        let hot = grow_until_level2(&mut s, &mut dram, dom, &mut t);
        for _ in 0..2 {
            t = s.data_access(t, &mut dram, hot.block(0), dom, false) + 10;
        }
        assert_eq!(s.stats().hot_migrations, 0);
        t = s.data_access(t, &mut dram, hot.block(0), dom, false) + 10;
        assert_eq!(s.stats().hot_migrations, 1);

        s.domain_destroyed(dom);

        // Identical deterministic growth ⇒ the same page lands at level 2.
        let hot2 = grow_until_level2(&mut s, &mut dram, dom, &mut t);
        assert_eq!(hot, hot2);
        for _ in 0..2 {
            t = s.data_access(t, &mut dram, hot2.block(0), dom, false) + 10;
        }
        assert_eq!(
            s.stats().hot_migrations,
            1,
            "stale tracker counts leaked across domain destroy/recreate"
        );
        s.data_access(t, &mut dram, hot2.block(0), dom, false);
        assert_eq!(
            s.stats().hot_migrations,
            2,
            "recycled domain's fresh tracker must promote again"
        );
    }

    /// A Pro system with one tracker setting replaced.
    fn pro_with(set: impl FnOnce(&mut IvLeagueConfig)) -> IvLeagueSubsystem {
        let mut cfg = small_cfg();
        set(&mut cfg.ivleague);
        IvLeagueSubsystem::new(&cfg, IvVariant::Pro, AllocatorKind::Nfl)
    }

    #[test]
    #[should_panic(expected = "ivleague.tracker_entries")]
    fn pro_rejects_an_empty_tracker() {
        pro_with(|iv| iv.tracker_entries = 0);
    }

    #[test]
    #[should_panic(expected = "ivleague.tracker_entries")]
    fn pro_rejects_a_tracker_past_32_bit_slots() {
        pro_with(|iv| iv.tracker_entries = u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "ivleague.tracker_counter_bits")]
    fn pro_rejects_32_bit_counters() {
        pro_with(|iv| iv.tracker_counter_bits = 32);
    }

    #[test]
    #[should_panic(expected = "ivleague.hot_threshold")]
    fn pro_rejects_a_zero_hot_threshold() {
        pro_with(|iv| iv.hot_threshold = 0);
    }

    #[test]
    fn domain_destroy_drops_nflb_occupancy_export() {
        let cfg = small_cfg();
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Basic, AllocatorKind::Nfl);
        let dom = d(3);
        s.page_alloc(0, &mut dram, PageNum::new(1), dom);

        let mut reg = StatsRegistry::new();
        s.export_stats("iv", &mut reg);
        assert!(reg.gauge("iv.d3.nflb_occupancy").is_some());

        s.domain_destroyed(dom);
        let mut reg = StatsRegistry::new();
        s.export_stats("iv", &mut reg);
        assert!(
            reg.gauge("iv.d3.nflb_occupancy").is_none(),
            "destroyed domain still exports an NFLB"
        );
    }

    #[test]
    fn sparse_high_domain_ids_grow_dense_tables() {
        // Dense tables index by DomainId; a high, isolated ID must work
        // without touching the untouched low slots.
        let cfg = small_cfg();
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Pro, AllocatorKind::Nfl);
        let dom = d(900);
        let p = PageNum::new(4);
        s.page_alloc(0, &mut dram, p, dom);
        s.data_access(100, &mut dram, p.block(0), dom, false);
        let mut reg = StatsRegistry::new();
        s.export_stats("iv", &mut reg);
        assert!(reg.gauge("iv.d900.nflb_occupancy").is_some());
        for di in 0..900 {
            assert!(reg.gauge(&format!("iv.d{di}.nflb_occupancy")).is_none());
        }
    }

    #[test]
    fn scheme_names_match_figures() {
        let cfg = small_cfg();
        let s = IvLeagueSubsystem::new(&cfg, IvVariant::Pro, AllocatorKind::Nfl);
        assert_eq!(s.name(), "IvLeague-Pro");
        let s = IvLeagueSubsystem::new(&cfg, IvVariant::Pro, AllocatorKind::BvV2);
        assert_eq!(s.name(), "BV-v2");
    }

    #[test]
    fn trace_and_export_reconcile_with_stats() {
        use ivl_sim_core::obs::{TraceFilter, Tracer, DEFAULT_TRACE_CAP};

        let cfg = small_cfg();
        let mut dram = DramModel::new(&cfg.dram);
        let mut s = IvLeagueSubsystem::new(&cfg, IvVariant::Basic, AllocatorKind::Nfl);
        let obs = Obs {
            tracer: Tracer::bounded(DEFAULT_TRACE_CAP, TraceFilter::default()),
            timeline: ivl_sim_core::obs::Timeline::bounded(1_000, 1 << 12),
        };
        s.attach_obs(&obs);

        let mut t = 0;
        for i in 0..32u64 {
            let p = PageNum::new(i);
            t = s.page_alloc(t, &mut dram, p, d(0)) + 10;
            t = s.data_access(t, &mut dram, p.block(0), d(0), i % 4 == 0) + 10;
        }
        s.page_dealloc(t, &mut dram, PageNum::new(0), d(0));

        let records = obs.tracer.sorted_records();
        let st = s.stats();

        let count = |pred: &dyn Fn(&EventKind) -> bool| {
            records.iter().filter(|r| pred(&r.kind)).count() as u64
        };
        // Every NFLB lookup, tree-walk node visit, and counter/MAC cache
        // access must have left exactly one trace event.
        assert_eq!(
            count(&|k| matches!(k, EventKind::NflbAccess { .. })),
            st.nflb.total()
        );
        assert_eq!(
            count(&|k| matches!(k, EventKind::TreeWalkLevel { .. })),
            st.tree_cache.total()
        );
        assert_eq!(
            count(&|k| matches!(
                k,
                EventKind::CacheAccess {
                    cache: CacheKind::Counter,
                    ..
                }
            )),
            st.counter_cache.total()
        );
        assert_eq!(count(&|k| matches!(k, EventKind::PageAlloc { .. })), 32);
        assert_eq!(count(&|k| matches!(k, EventKind::PageDealloc)), 1);
        assert!(records.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(records.iter().all(|r| r.domain == Some(d(0))));

        // The registry export must reconcile with the raw accessors.
        let mut reg = StatsRegistry::new();
        s.export_stats("iv", &mut reg);
        assert_eq!(reg.counter("iv.data_reads"), Some(st.data_reads));
        assert_eq!(reg.counter("iv.meta_reads"), Some(st.meta_reads));
        assert_eq!(
            reg.ratio("iv.nflb").map(|hm| hm.total()),
            Some(st.nflb.total())
        );
        assert!(reg.gauge("iv.forest.mean_utilization").is_some());
        assert!(reg.gauge("iv.d0.nflb_occupancy").is_some());
    }
}
