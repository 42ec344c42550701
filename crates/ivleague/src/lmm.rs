//! Leaf Mapping Metadata (LMM): the page-table-embedded page→slot mapping
//! and its on-chip cache (paper §VI-C2, Figure 9).
//!
//! IvLeague extends each page-table entry with a 64-bit leaf ID naming the
//! TreeLing slot that verifies the page. The extension halves PTE density
//! (256 instead of 512 entries per 4 KiB page-table page). The memory
//! controller keeps an **LMM cache** (Table I: 8 Ki entries, 16-way) so the
//! common case needs no page-table access; a miss costs one memory read of
//! the PTE block.
//!
//! The authoritative page→slot map itself lives in
//! [`crate::forest::Forest`]; this module provides the cache and the PTE
//! address arithmetic for the timing model.

use ivl_cache::set_assoc::SetAssocCache;
use ivl_cache::CacheModel;
use ivl_sim_core::addr::{BlockAddr, PageNum};

/// Extended-PTE entries per 64 B memory block: a 16-byte PTE (8 B PTE +
/// 8 B leaf ID) packs four to a block.
pub const EXT_PTES_PER_BLOCK: u64 = 4;

/// Extended-PTE entries per 4 KiB page-table page (Figure 9b).
pub const EXT_PTES_PER_PT_PAGE: u64 = 256;

/// Computes the memory block holding the extended PTE (and hence the LMM
/// field) of `page`, given the page-table region base block.
///
/// # Examples
///
/// ```
/// use ivleague::lmm::{pte_block, EXT_PTES_PER_BLOCK};
/// use ivl_sim_core::addr::PageNum;
/// let base = 1_000_000;
/// assert_eq!(pte_block(base, PageNum::new(0)).index(), base);
/// assert_eq!(pte_block(base, PageNum::new(4)).index(), base + 1);
/// ```
pub fn pte_block(pt_base_block: u64, page: PageNum) -> BlockAddr {
    BlockAddr::new(pt_base_block + page.index() / EXT_PTES_PER_BLOCK)
}

/// The on-chip LMM cache: caches leaf IDs by page frame number.
///
/// # Examples
///
/// ```
/// use ivleague::lmm::LmmCache;
/// use ivl_sim_core::addr::PageNum;
/// let mut c = LmmCache::new(8192, 16);
/// assert!(!c.access(PageNum::new(7)));
/// assert!(c.access(PageNum::new(7)));
/// ```
#[derive(Debug)]
pub struct LmmCache {
    cache: SetAssocCache,
}

impl LmmCache {
    /// Creates a cache with `entries` total entries and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not form a power-of-two set count.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            entries.is_multiple_of(ways),
            "entries must divide into ways"
        );
        LmmCache {
            cache: SetAssocCache::new(entries / ways, ways),
        }
    }

    /// Looks up `page`, filling on a miss. Returns whether it hit.
    pub fn access(&mut self, page: PageNum) -> bool {
        self.cache.access(page.index(), false).hit
    }

    /// Invalidates `page`'s entry (TLB shootdown / page remap / migration:
    /// the paper evicts LMM entries together with TLB entries to keep them
    /// consistent).
    pub fn invalidate(&mut self, page: PageNum) {
        self.cache.invalidate(page.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pte_blocks_pack_four_ptes() {
        let base = 500;
        assert_eq!(
            pte_block(base, PageNum::new(0)),
            pte_block(base, PageNum::new(3))
        );
        assert_ne!(
            pte_block(base, PageNum::new(3)),
            pte_block(base, PageNum::new(4))
        );
    }

    #[test]
    fn cache_hits_after_fill() {
        let mut c = LmmCache::new(64, 16);
        assert!(!c.access(PageNum::new(1)));
        assert!(c.access(PageNum::new(1)));
    }

    #[test]
    fn invalidation_forces_miss() {
        let mut c = LmmCache::new(64, 16);
        c.access(PageNum::new(9));
        c.invalidate(PageNum::new(9));
        assert!(!c.access(PageNum::new(9)));
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut c = LmmCache::new(32, 16);
        for p in 0..1000 {
            c.access(PageNum::new(p));
        }
        let hits: usize = (0..1000).filter(|&p| c.access(PageNum::new(p))).count();
        assert!(hits <= 32 + 1, "more hits ({hits}) than capacity");
    }
}
