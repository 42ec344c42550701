//! The paper's Baseline scheme: a globally shared 8-ary Bonsai Merkle Tree
//! with counter and tree metadata caches (Rogers et al., reference 67; Table I).
//!
//! On a data read that misses the counter cache, the verification walk
//! fetches tree-node blocks leaf → root until the first node that hits the
//! tree cache (the processor is trusted, so cached nodes are verified). On
//! a write, the counter is bumped and the walk *updates* nodes up to the
//! first cached level (write-back metadata caching). The root always stays
//! on-chip.

use ivl_cache::set_assoc::SetAssocCache;
use ivl_cache::CacheModel;
use ivl_dram::DramModel;
use ivl_sim_core::addr::{BlockAddr, PageNum};
use ivl_sim_core::config::SecureMemConfig;
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::obs::trace::{CacheKind, EventKind};
use ivl_sim_core::obs::Obs;
use ivl_sim_core::Cycle;

use crate::layout::MetadataLayout;
use crate::subsystem::{IntegritySubsystem, IvStats};

/// Timing model of the global-BMT secure-memory baseline.
///
/// # Examples
///
/// ```
/// use ivl_secure_mem::baseline::GlobalBmtSubsystem;
/// use ivl_secure_mem::subsystem::IntegritySubsystem;
/// use ivl_dram::DramModel;
/// use ivl_sim_core::{addr::BlockAddr, config::SystemConfig, domain::DomainId};
///
/// let cfg = SystemConfig::default();
/// let mut dram = DramModel::new(&cfg.dram);
/// let mut scheme = GlobalBmtSubsystem::new(&cfg.secure, 1 << 20);
/// let done = scheme.data_access(0, &mut dram, BlockAddr::new(0), DomainId::new_unchecked(0), false);
/// assert!(done > 0);
/// ```
#[derive(Debug)]
pub struct GlobalBmtSubsystem {
    layout: MetadataLayout,
    cfg: SecureMemConfig,
    ctr_cache: SetAssocCache,
    tree_cache: SetAssocCache,
    mac_cache: SetAssocCache,
    stats: IvStats,
    obs: Obs,
}

impl GlobalBmtSubsystem {
    /// Builds the baseline protecting `data_pages` pages.
    pub fn new(cfg: &SecureMemConfig, data_pages: u64) -> Self {
        let layout = MetadataLayout::new(data_pages, cfg.tree_arity);
        let mut tree_cache = SetAssocCache::with_geometry(
            cfg.tree_cache.capacity_bytes,
            cfg.tree_cache.ways,
            cfg.tree_cache.line_bytes,
        );
        // Classical secure processors keep the top tree levels resident
        // (they are tiny and extremely hot); pin every level whose
        // cumulative node count stays within a 512-block budget, mirroring
        // the ~32 KiB IvLeague reserves for its upper structure. The walk
        // then terminates at this pinned frontier.
        let mut pinned_top_level = layout.levels();
        let mut budget = 512u64;
        while pinned_top_level > 1 {
            let below = layout.level_size(pinned_top_level - 1);
            if below > budget {
                break;
            }
            budget -= below;
            pinned_top_level -= 1;
        }
        for level in pinned_top_level..=layout.levels() {
            for index in 0..layout.level_size(level) {
                tree_cache.lock(
                    layout
                        .node_block(crate::layout::NodeId { level, index })
                        .index(),
                );
            }
        }
        GlobalBmtSubsystem {
            layout,
            cfg: *cfg,
            ctr_cache: SetAssocCache::with_geometry(
                cfg.counter_cache.capacity_bytes,
                cfg.counter_cache.ways,
                cfg.counter_cache.line_bytes,
            ),
            tree_cache,
            // The MAC store has no dedicated cache in Table I; a small
            // buffer models MAC locality identically across all schemes.
            mac_cache: SetAssocCache::with_geometry(32 * 1024, 8, 64),
            stats: IvStats::default(),
            obs: Obs::disabled(),
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
        if self.obs.tracer.enabled() {
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

    /// The metadata layout (e.g. for tests / the attack model).
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// Mutable access to the tree metadata cache (the attack model performs
    /// targeted evictions on it).
    pub fn tree_cache_mut(&mut self) -> &mut SetAssocCache {
        &mut self.tree_cache
    }

    /// Whether a given tree node block currently resides in the tree cache.
    pub fn tree_node_cached(&self, node_block: BlockAddr) -> bool {
        self.tree_cache.probe(node_block.index())
    }

    /// Models a successful attacker eviction campaign against one tree-node
    /// block (MetaLeak performs this with conflict evictions; the model
    /// applies the end effect directly).
    pub fn evict_tree_block(&mut self, node_block: BlockAddr) {
        self.tree_cache.invalidate(node_block.index());
    }

    /// Models an eviction of a page's counter block from the counter cache.
    pub fn evict_counter_block(&mut self, page: PageNum) {
        let b = self.layout.counter_block(page);
        self.ctr_cache.invalidate(b.index());
    }

    /// Handles a dirty eviction from a metadata cache: one DRAM write,
    /// off the critical path.
    fn meta_writeback(&mut self, now: Cycle, dram: &mut DramModel, key: u64) {
        dram.access(now, BlockAddr::new(key), true);
        self.stats.meta_writes += 1;
    }

    /// Read-side verification walk; returns added critical-path latency.
    fn verify_read(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        page: PageNum,
        domain: DomainId,
    ) -> Cycle {
        let mut t = now;

        // Counter fetch.
        let ctr_block = self.layout.counter_block(page);
        let ctr = self.ctr_cache.access(ctr_block.index(), false);
        self.stats.counter_cache.record(ctr.hit);
        self.trace_cache(
            t,
            domain,
            CacheKind::Counter,
            ctr.hit,
            ctr.evicted.is_some(),
        );
        if let Some(e) = ctr.evicted.filter(|e| e.dirty) {
            self.meta_writeback(t, dram, e.key);
        }
        if ctr.hit {
            // Counter verified earlier; no tree walk needed.
            return t + self.cfg.counter_cache.hit_latency;
        }
        t = dram.access(t, ctr_block, false);
        self.stats.meta_reads += 1;
        self.stats.verifications += 1;

        // Tree walk leaf → root until a cached node.
        let mut path_len = 0u64;
        let mut node = self.layout.leaf_covering(page.index());
        loop {
            if node.level >= self.layout.levels() {
                break; // root is on-chip
            }
            let nb = self.layout.node_block(node);
            let out = self.tree_cache.access(nb.index(), false);
            self.stats.tree_cache.record(out.hit);
            if self.obs.tracer.enabled() {
                self.obs.tracer.emit(
                    t,
                    "scheme",
                    Some(domain),
                    None,
                    EventKind::TreeWalkLevel {
                        level: node.level.min(u8::MAX as u32) as u8,
                        hit: out.hit,
                    },
                );
            }
            if let Some(e) = out.evicted.filter(|e| e.dirty) {
                self.meta_writeback(t, dram, e.key);
            }
            if out.hit {
                t += self.cfg.tree_cache.hit_latency;
                break;
            }
            t = dram.access(t, nb, false);
            self.stats.meta_reads += 1;
            path_len += 1;
            self.stats.fetches_by_level[(node.level as usize - 1).min(7)] += 1;
            node = self.layout.parent(node).expect("below root");
        }
        self.stats.path_len_sum += path_len;
        // Hash verification is pipelined with the fetches; charge one
        // engine latency at the end.
        t + self.cfg.hash_latency
    }

    /// Write-side metadata update; returns added latency (small: updates are
    /// absorbed by the write-back metadata caches).
    fn update_write(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        page: PageNum,
        domain: DomainId,
    ) -> Cycle {
        let mut t = now;

        // Counter increment (read-modify-write in the counter cache).
        let ctr_block = self.layout.counter_block(page);
        let ctr = self.ctr_cache.access(ctr_block.index(), true);
        self.stats.counter_cache.record(ctr.hit);
        self.trace_cache(
            t,
            domain,
            CacheKind::Counter,
            ctr.hit,
            ctr.evicted.is_some(),
        );
        if let Some(e) = ctr.evicted.filter(|e| e.dirty) {
            self.meta_writeback(t, dram, e.key);
        }
        if !ctr.hit {
            t = dram.access(t, ctr_block, false);
            self.stats.meta_reads += 1;
        }

        // Tree update up to the first cached level.
        let mut node = self.layout.leaf_covering(page.index());
        loop {
            if node.level >= self.layout.levels() {
                break;
            }
            let nb = self.layout.node_block(node);
            // `access` reports the pre-access hit state, so no separate
            // `probe` scan of the set is needed.
            let out = self.tree_cache.access(nb.index(), true);
            let hit = out.hit;
            self.stats.tree_cache.record(hit);
            if self.obs.tracer.enabled() {
                self.obs.tracer.emit(
                    t,
                    "scheme",
                    Some(domain),
                    None,
                    EventKind::TreeWalkLevel {
                        level: node.level.min(u8::MAX as u32) as u8,
                        hit,
                    },
                );
            }
            if let Some(e) = out.evicted.filter(|e| e.dirty) {
                self.meta_writeback(t, dram, e.key);
            }
            if hit {
                break; // cached node absorbs the update
            }
            t = dram.access(t, nb, false);
            self.stats.meta_reads += 1;
            node = self.layout.parent(node).expect("below root");
        }
        t + self.cfg.hash_latency
    }
}

impl IntegritySubsystem for GlobalBmtSubsystem {
    fn data_access(
        &mut self,
        now: Cycle,
        dram: &mut DramModel,
        block: BlockAddr,
        domain: DomainId,
        is_write: bool,
    ) -> Cycle {
        let page = block.page();

        // MAC access happens in parallel with the data access in both
        // directions; model it first so its DRAM traffic is counted, then
        // take the max of the parallel legs.
        let mac_block = self.layout.mac_block(block);
        let mac = self.mac_cache.access(mac_block.index(), is_write);
        self.stats.mac_cache.record(mac.hit);
        self.trace_cache(now, domain, CacheKind::Mac, mac.hit, mac.evicted.is_some());
        if let Some(e) = mac.evicted.filter(|e| e.dirty) {
            self.meta_writeback(now, dram, e.key);
        }
        let mac_done = if mac.hit {
            now + self.cfg.counter_cache.hit_latency
        } else {
            let t = dram.access(now, mac_block, false);
            self.stats.meta_reads += 1;
            t
        };

        if is_write {
            self.stats.data_writes += 1;
            dram.access(now, block, true);
            let meta_done = self.update_write(now, dram, page, domain);
            // Write-backs are buffered; the core is charged only the
            // metadata read-for-update portion.
            meta_done.max(mac_done).min(now + 200)
        } else {
            self.stats.data_reads += 1;
            let data_done = dram.access(now, block, false);
            let verify_done = self.verify_read(now, dram, page, domain);
            // Decryption pad generation (AES) starts once the counter is
            // available and overlaps the tail of the data fetch.
            let pad_done = verify_done + self.cfg.aes_latency;
            data_done.max(pad_done).max(mac_done)
        }
    }

    fn page_alloc(
        &mut self,
        now: Cycle,
        _dram: &mut DramModel,
        _page: PageNum,
        _domain: DomainId,
    ) -> Cycle {
        // Static mapping: counters and tree nodes pre-exist; nothing to do.
        now
    }

    fn page_dealloc(
        &mut self,
        now: Cycle,
        _dram: &mut DramModel,
        _page: PageNum,
        _domain: DomainId,
    ) -> Cycle {
        now
    }

    fn stats(&self) -> &IvStats {
        &self.stats
    }

    fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }

    fn name(&self) -> &'static str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_sim_core::config::SystemConfig;

    fn setup() -> (GlobalBmtSubsystem, DramModel) {
        let cfg = SystemConfig::default();
        (
            GlobalBmtSubsystem::new(&cfg.secure, 1 << 20),
            DramModel::new(&cfg.dram),
        )
    }

    fn d0() -> DomainId {
        DomainId::new_unchecked(0)
    }

    #[test]
    fn cold_read_walks_the_tree() {
        let (mut s, mut dram) = setup();
        let done = s.data_access(0, &mut dram, BlockAddr::new(0), d0(), false);
        assert!(done > 0);
        assert_eq!(s.stats().verifications, 1);
        assert!(s.stats().path_len_sum >= 1, "cold walk reads nodes");
        // counter + MAC + nodes all missed.
        assert!(s.stats().meta_reads >= 3);
    }

    #[test]
    fn warm_read_hits_counter_cache() {
        let (mut s, mut dram) = setup();
        s.data_access(0, &mut dram, BlockAddr::new(0), d0(), false);
        let before = s.stats().verifications;
        s.data_access(10_000, &mut dram, BlockAddr::new(1), d0(), false);
        // Same page → same counter block → counter-cache hit, no new walk.
        assert_eq!(s.stats().verifications, before);
        assert_eq!(s.stats().counter_cache.hits(), 1);
    }

    #[test]
    fn second_walk_stops_at_shared_cached_node() {
        let (mut s, mut dram) = setup();
        // Page 0 and page 8 share the level-2 node (arity 8).
        s.data_access(0, &mut dram, PageNum::new(0).block(0), d0(), false);
        let first_path = s.stats().path_len_sum;
        s.data_access(50_000, &mut dram, PageNum::new(8).block(0), d0(), false);
        let second_path = s.stats().path_len_sum - first_path;
        assert!(
            second_path < first_path,
            "shared upper nodes were cached: {second_path} vs {first_path}"
        );
        assert_eq!(second_path, 1, "only the distinct leaf is fetched");
    }

    #[test]
    fn writes_do_not_stall_like_reads() {
        let (mut s, mut dram) = setup();
        let r = s.data_access(0, &mut dram, BlockAddr::new(0), d0(), false);
        let w_start = 1_000_000;
        let w = s.data_access(w_start, &mut dram, BlockAddr::new(64 * 100), d0(), true) - w_start;
        assert!(w <= r, "write acceptance {w} should not exceed read {r}");
        assert_eq!(s.stats().data_writes, 1);
    }

    #[test]
    fn warm_reads_are_much_faster() {
        let (mut s, mut dram) = setup();
        let cold = s.data_access(0, &mut dram, BlockAddr::new(0), d0(), false);
        let t0 = 1_000_000;
        let warm = s.data_access(t0, &mut dram, BlockAddr::new(0), d0(), false) - t0;
        assert!(warm < cold, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn alloc_dealloc_are_free() {
        let (mut s, mut dram) = setup();
        assert_eq!(s.page_alloc(5, &mut dram, PageNum::new(0), d0()), 5);
        assert_eq!(s.page_dealloc(9, &mut dram, PageNum::new(0), d0()), 9);
    }

    #[test]
    fn name_matches_paper() {
        let (s, _) = setup();
        assert_eq!(s.name(), "Baseline");
    }

    #[test]
    fn trace_reconciles_with_stats() {
        use ivl_sim_core::obs::trace::TraceFilter;
        use ivl_sim_core::obs::Tracer;

        let (mut s, mut dram) = setup();
        let mut obs = Obs::disabled();
        obs.tracer = Tracer::bounded(1 << 12, TraceFilter::all());
        s.attach_obs(&obs);

        s.data_access(0, &mut dram, BlockAddr::new(0), d0(), false);
        s.data_access(100_000, &mut dram, BlockAddr::new(0), d0(), false);

        let records = obs.tracer.sorted_records();
        let walk_levels = records
            .iter()
            .filter(|r| matches!(r.kind, EventKind::TreeWalkLevel { hit: false, .. }))
            .count() as u64;
        assert_eq!(
            walk_levels,
            s.stats().path_len_sum,
            "traced missed walk levels match the fetch accounting"
        );
        let ctr_lookups = records
            .iter()
            .filter(|r| {
                matches!(
                    r.kind,
                    EventKind::CacheAccess {
                        cache: CacheKind::Counter,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(ctr_lookups, s.stats().counter_cache.total());
        assert!(records.iter().all(|r| r.domain == Some(d0())));
    }
}
