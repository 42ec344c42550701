//! Naive bit-vector TreeLing allocators — the BV-v1 / BV-v2 baselines the
//! paper measures NFL against (Figure 17a).
//!
//! Each TreeLing carries one bit per leaf slot ("1" = occupied). A head
//! register marks the last active position. Allocation scans forward from
//! the head for a free bit — an O(N) search whose cost (bit-vector blocks
//! touched) delays normal memory traffic. The two variants differ in how
//! they see deallocations:
//!
//! * **BV-v1** reacts only to deallocations inside the *current* TreeLing
//!   (head never crosses TreeLings). Slots freed in older TreeLings leak,
//!   so churny workloads exhaust the TreeLing supply and the run fails —
//!   the "✗" bars of Figure 17a.
//! * **BV-v2** tracks reclamation across TreeLings and performs the
//!   corresponding cross-TreeLing scans, which is correct but slow.

use ivl_sim_core::addr::PageNum;
use ivl_sim_core::domain::DomainId;

use crate::domains::{DomainController, StarvationError};
use crate::forest::ForestError;
use crate::geometry::{LeafSlot, TlNode, TreeLingGeometry, TreeLingId};
use crate::pagemap::{PageEntry, PageTable};

/// Which naive variant to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvVariant {
    /// Current-TreeLing-only deallocation tracking.
    V1,
    /// Cross-TreeLing deallocation tracking (and scans).
    V2,
}

impl BvVariant {
    /// Figure 17a label.
    pub fn label(self) -> &'static str {
        match self {
            BvVariant::V1 => "BV-v1",
            BvVariant::V2 => "BV-v2",
        }
    }
}

/// Leaf-slot bits per 64 B bit-vector block.
pub const BITS_PER_BLOCK: u64 = 512;

#[derive(Debug)]
struct BvTreeLing {
    /// One bit per leaf slot (`1` = occupied), packed 64 per word; the
    /// padding bits past `len` in the last word are permanently set so a
    /// word-wise first-zero scan can never step outside the TreeLing.
    words: Vec<u64>,
    /// Leaf-slot count (bit length of the vector).
    len: usize,
    /// Free-slot count; lets a scan of a full TreeLing charge its modeled
    /// block cost in O(1) instead of walking every word.
    free: usize,
    /// Scan start position (slot index).
    head: usize,
}

impl BvTreeLing {
    fn new(len: usize) -> Self {
        let mut words = vec![0u64; len.div_ceil(64).max(1)];
        for b in len..words.len() * 64 {
            words[b / 64] |= 1 << (b % 64);
        }
        BvTreeLing {
            words,
            len,
            free: len,
            head: 0,
        }
    }

    fn occupy(&mut self, idx: usize) {
        debug_assert!(!self.is_occupied(idx));
        self.words[idx / 64] |= 1 << (idx % 64);
        self.free -= 1;
    }

    fn release(&mut self, idx: usize) {
        debug_assert!(self.is_occupied(idx));
        self.words[idx / 64] &= !(1 << (idx % 64));
        self.free += 1;
    }

    fn is_occupied(&self, idx: usize) -> bool {
        self.words[idx / 64] >> (idx % 64) & 1 == 1
    }
}

/// Outcome of a bit-vector page mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BvMapOutcome {
    /// Where the page landed (always a leaf-level slot).
    pub slot: LeafSlot,
    /// Bit-vector blocks examined by the scan (memory traffic + delay).
    pub blocks_scanned: u64,
    /// Whether a fresh TreeLing was assigned.
    pub new_treeling: bool,
}

/// Outcome of a bit-vector page unmapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BvUnmapOutcome {
    /// The freed slot.
    pub slot: LeafSlot,
    /// Bit-vector blocks touched.
    pub blocks_scanned: u64,
    /// The freed slot leaked (BV-v1 cross-TreeLing deallocation).
    pub leaked: bool,
}

/// The naive allocator state for one run.
///
/// # Examples
///
/// ```
/// use ivleague::bitvector::{BvAllocator, BvVariant};
/// use ivleague::geometry::TreeLingGeometry;
/// use ivl_sim_core::{addr::PageNum, domain::DomainId};
///
/// let mut bv = BvAllocator::new(TreeLingGeometry::new(4, 3), 8, BvVariant::V2);
/// let d = DomainId::new_unchecked(0);
/// let out = bv.map_page(d, PageNum::new(1)).unwrap();
/// assert_eq!(out.slot.node.level, 1);
/// ```
#[derive(Debug)]
pub struct BvAllocator {
    geometry: TreeLingGeometry,
    variant: BvVariant,
    controller: DomainController,
    /// Bit vectors of active TreeLings, indexed by `TreeLingId.0`.
    treelings: Vec<Option<BvTreeLing>>,
    /// The same page table as the forest's: `slot_of` runs on every LLC
    /// miss, and ownership rides in the same record.
    pages: PageTable<PageEntry>,
    /// Slots leaked by BV-v1 (freed but never reallocatable).
    leaked_slots: u64,
    /// Total bit-vector blocks scanned (cost accounting).
    total_blocks_scanned: u64,
}

impl BvAllocator {
    /// Creates an allocator over `treeling_count` TreeLings.
    pub fn new(geometry: TreeLingGeometry, treeling_count: u32, variant: BvVariant) -> Self {
        BvAllocator {
            geometry,
            variant,
            controller: DomainController::new(treeling_count),
            treelings: (0..treeling_count).map(|_| None).collect(),
            pages: PageTable::new(),
            leaked_slots: 0,
            total_blocks_scanned: 0,
        }
    }

    /// The modeled variant.
    pub fn variant(&self) -> BvVariant {
        self.variant
    }

    /// Slots leaked so far (BV-v1 only).
    pub fn leaked_slots(&self) -> u64 {
        self.leaked_slots
    }

    /// Total bit-vector blocks scanned.
    pub fn total_blocks_scanned(&self) -> u64 {
        self.total_blocks_scanned
    }

    /// The slot mapping `page`, if any.
    pub fn slot_of(&self, page: PageNum) -> Option<LeafSlot> {
        self.pages.get(page).map(|e| e.slot())
    }

    fn slot_from_index(&self, treeling: TreeLingId, slot_index: usize) -> LeafSlot {
        let arity = self.geometry.arity() as usize;
        LeafSlot {
            treeling,
            node: TlNode {
                level: 1,
                index: (slot_index / arity) as u32,
            },
            slot: (slot_index % arity) as u8,
        }
    }

    fn slot_to_index(&self, slot: LeafSlot) -> usize {
        slot.node.index as usize * self.geometry.arity() as usize + slot.slot as usize
    }

    /// Scans one TreeLing from `start`; returns (slot index, blocks
    /// scanned). The modeled cost — bits examined up to and including the
    /// first free slot, or the whole remainder on a fruitless scan — is
    /// what the paper charges the naive allocator with; the host-side
    /// search itself runs word-wise (64 slots per step) with an O(1)
    /// shortcut for full TreeLings.
    fn scan_from(tl: &BvTreeLing, start: usize) -> (Option<usize>, u64) {
        let start = start.min(tl.len);
        let exhausted = |examined: u64| (None, examined.div_ceil(BITS_PER_BLOCK).max(1));
        if start == tl.len {
            return exhausted(1);
        }
        if tl.free == 0 {
            return exhausted((tl.len - start) as u64);
        }
        let mut w = start / 64;
        // Mask off bits below `start`; padding past `len` is pre-set.
        let mut zeros = !tl.words[w] & (!0u64 << (start % 64));
        loop {
            if zeros != 0 {
                let idx = w * 64 + zeros.trailing_zeros() as usize;
                let examined = (idx - start + 1) as u64;
                return (Some(idx), examined.div_ceil(BITS_PER_BLOCK).max(1));
            }
            w += 1;
            if w == tl.words.len() {
                // Free slots exist only below `start`.
                return exhausted((tl.len - start) as u64);
            }
            zeros = !tl.words[w];
        }
    }

    /// Maps a page, scanning for a free leaf slot.
    ///
    /// # Errors
    ///
    /// Returns [`StarvationError`] when no TreeLing can serve the request —
    /// for BV-v1 this includes the leak-induced exhaustion the paper marks
    /// with "✗".
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped.
    pub fn map_page(
        &mut self,
        domain: DomainId,
        page: PageNum,
    ) -> Result<BvMapOutcome, StarvationError> {
        assert!(self.pages.get(page).is_none(), "page double-mapped");
        let mut blocks = 0u64;

        // BV-v1 only ever looks at the current (last) TreeLing. BV-v2's
        // head "moves back across TreeLings" on deallocation (paper §X-A3),
        // so its allocation search walks the TreeLings oldest-first — the
        // current TreeLing keeps an accurate head, older ones are scanned
        // from scratch. This is the O(N) cost the paper charges it with.
        let n = self.controller.treelings_of(domain).len();
        let first = match self.variant {
            BvVariant::V1 => n.saturating_sub(1),
            BvVariant::V2 => 0,
        };
        for i in first..n {
            let tid = self.controller.treelings_of(domain)[i];
            let tl = self.treelings[tid.0 as usize]
                .as_mut()
                .expect("owned treeling");
            // The head register is only meaningful for the current
            // TreeLing; a naive cross-TreeLing search (BV-v2) must scan
            // older TreeLings from the beginning — the O(N) cost the paper
            // charges it with.
            let start = if i == n - 1 { tl.head } else { 0 };
            let (found, scanned) = Self::scan_from(tl, start);
            blocks += scanned;
            if let Some(idx) = found {
                tl.occupy(idx);
                tl.head = idx + 1;
                self.total_blocks_scanned += blocks;
                let slot = self.slot_from_index(tid, idx);
                self.pages.insert(page, PageEntry::new(slot, domain));
                return Ok(BvMapOutcome {
                    slot,
                    blocks_scanned: blocks,
                    new_treeling: false,
                });
            }
        }

        // Grow.
        let tid = self.controller.assign(domain)?;
        let tl = self.treelings[tid.0 as usize]
            .insert(BvTreeLing::new(self.geometry.leaf_capacity() as usize));
        tl.occupy(0);
        tl.head = 1;
        blocks += 1;
        self.total_blocks_scanned += blocks;
        let slot = self.slot_from_index(tid, 0);
        self.pages.insert(page, PageEntry::new(slot, domain));
        Ok(BvMapOutcome {
            slot,
            blocks_scanned: blocks,
            new_treeling: true,
        })
    }

    /// Unmaps a page.
    ///
    /// # Errors
    ///
    /// [`ForestError::NotMapped`] / [`ForestError::WrongDomain`].
    pub fn unmap_page(
        &mut self,
        domain: DomainId,
        page: PageNum,
    ) -> Result<BvUnmapOutcome, ForestError> {
        let e = *self.pages.get(page).ok_or(ForestError::NotMapped(page))?;
        if e.domain() != domain {
            return Err(ForestError::WrongDomain(page));
        }
        self.pages.remove(page);
        let slot = e.slot();

        let idx = self.slot_to_index(slot);
        let current = self.controller.treelings_of(domain).last().copied();
        let in_current = current == Some(slot.treeling);
        let tl = self.treelings[slot.treeling.0 as usize]
            .as_mut()
            .expect("treeling");
        tl.release(idx);

        let leaked = match self.variant {
            BvVariant::V1 => {
                if in_current {
                    tl.head = tl.head.min(idx);
                    false
                } else {
                    // Freed in an older TreeLing: BV-v1 never rescans it.
                    self.leaked_slots += 1;
                    true
                }
            }
            BvVariant::V2 => {
                tl.head = tl.head.min(idx);
                false
            }
        };
        self.total_blocks_scanned += 1;
        Ok(BvUnmapOutcome {
            slot,
            blocks_scanned: 1,
            leaked,
        })
    }

    /// Destroys a domain, recycling its TreeLings.
    pub fn destroy_domain(&mut self, domain: DomainId) {
        self.pages.retain(|_, e| e.domain() != domain);
        for &tid in self.controller.treelings_of(domain) {
            self.treelings[tid.0 as usize] = None;
        }
        self.controller.destroy(domain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u16) -> DomainId {
        DomainId::new_unchecked(i)
    }

    fn p(i: u64) -> PageNum {
        PageNum::new(i)
    }

    fn alloc(variant: BvVariant, treelings: u32) -> BvAllocator {
        BvAllocator::new(TreeLingGeometry::new(4, 3), treelings, variant)
    }

    #[test]
    fn sequential_fill_then_grow() {
        let mut bv = alloc(BvVariant::V2, 4);
        let cap = 64; // 4^3
        for i in 0..cap {
            assert!(!bv.map_page(d(0), p(i)).unwrap().new_treeling || i == 0);
        }
        assert!(bv.map_page(d(0), p(cap)).unwrap().new_treeling);
    }

    #[test]
    fn v2_reuses_cross_treeling_frees() {
        let mut bv = alloc(BvVariant::V2, 4);
        for i in 0..70 {
            bv.map_page(d(0), p(i)).unwrap();
        }
        // Free a slot in the *first* TreeLing (current is the second).
        let out = bv.unmap_page(d(0), p(3)).unwrap();
        assert!(!out.leaked);
        // V2 finds it again by scanning across TreeLings oldest-first.
        let re = bv.map_page(d(0), p(1000)).unwrap();
        assert_eq!(
            re.slot, out.slot,
            "cross-TreeLing scan finds the freed slot"
        );
        assert!(re.blocks_scanned >= 1);
    }

    #[test]
    fn v1_leaks_cross_treeling_frees() {
        let mut bv = alloc(BvVariant::V1, 4);
        for i in 0..70 {
            bv.map_page(d(0), p(i)).unwrap();
        }
        let out = bv.unmap_page(d(0), p(3)).unwrap();
        assert!(out.leaked);
        assert_eq!(bv.leaked_slots(), 1);
        // The freed slot is never found again.
        let re = bv.map_page(d(0), p(1000)).unwrap();
        assert_ne!(re.slot, out.slot);
    }

    #[test]
    fn v1_exhausts_under_churn() {
        // A working set larger than one TreeLing (64 slots) keeps frees
        // landing in *older* TreeLings, which BV-v1 never rescans →
        // starvation even though plenty of slots are logically free.
        let mut bv = alloc(BvVariant::V1, 3);
        let mut failed = false;
        let mut live = Vec::new();
        for next in 0u64..600 {
            match bv.map_page(d(0), p(next)) {
                Ok(_) => live.push(p(next)),
                Err(_) => {
                    failed = true;
                    break;
                }
            }
            if live.len() > 100 {
                let victim = live.remove(0);
                bv.unmap_page(d(0), victim).unwrap();
            }
        }
        assert!(failed, "BV-v1 must exhaust under cross-TreeLing churn");
        assert!(bv.leaked_slots() > 0);
    }

    #[test]
    fn v2_survives_the_same_churn() {
        let mut bv = alloc(BvVariant::V2, 3);
        let mut live = Vec::new();
        for next in 0u64..600 {
            bv.map_page(d(0), p(next)).expect("BV-v2 must not exhaust");
            live.push(p(next));
            if live.len() > 100 {
                let victim = live.remove(0);
                bv.unmap_page(d(0), victim).unwrap();
            }
        }
        assert!(bv.total_blocks_scanned() > 600, "V2 pays scan costs");
    }

    #[test]
    fn scan_cost_grows_with_occupancy() {
        let mut bv = alloc(BvVariant::V2, 4);
        // Fill most of the first TreeLing, free an early slot, then map:
        // the scan must walk past the occupied prefix.
        for i in 0..60 {
            bv.map_page(d(0), p(i)).unwrap();
        }
        bv.unmap_page(d(0), p(0)).unwrap();
        let out = bv.map_page(d(0), p(100)).unwrap();
        assert_eq!(out.slot.node.index, 0);
        assert_eq!(out.slot.slot, 0);
    }
}
