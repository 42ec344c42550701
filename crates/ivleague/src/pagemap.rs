//! The page table behind the LMM (paper §VI-C2, Figure 9): page number →
//! mapping record, stored the way an extended PTE is.
//!
//! A lazily allocated two-level radix table. The top level is indexed by
//! `page / LEAF_PAGES` and grows on demand; each leaf covers
//! [`LEAF_PAGES`] consecutive pages and is allocated on the first insert
//! into its range. The workload generator hands out frames in clusters of
//! the same size, so a mix's footprint fills few, dense leaves, and a probe
//! is two dependent loads with no hashing. Iteration runs in page order.

use ivl_sim_core::addr::PageNum;
use ivl_sim_core::domain::DomainId;

use std::num::NonZeroU16;

use crate::geometry::{LeafSlot, TlNode, TreeLingId};

/// Pages covered by one leaf (16 MiB of data, one frame cluster).
pub const LEAF_PAGES: usize = 4096;

type Leaf<T> = Box<[Option<T>]>;

/// A page-number-keyed table with dense leaves.
///
/// # Examples
///
/// ```
/// use ivleague::pagemap::PageTable;
/// use ivl_sim_core::addr::PageNum;
///
/// let mut t = PageTable::new();
/// assert_eq!(t.insert(PageNum::new(4097), 'a'), None);
/// assert_eq!(t.get(PageNum::new(4097)), Some(&'a'));
/// assert_eq!(t.remove(PageNum::new(4097)), Some('a'));
/// assert!(t.is_empty());
/// ```
#[derive(Clone)]
pub struct PageTable<T> {
    leaves: Vec<Option<Leaf<T>>>,
    len: usize,
}

impl<T> Default for PageTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for PageTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageTable")
            .field("len", &self.len)
            .field("leaves", &self.leaves.iter().flatten().count())
            .finish()
    }
}

fn split(page: PageNum) -> (usize, usize) {
    let i = page.index() as usize;
    (i / LEAF_PAGES, i % LEAF_PAGES)
}

impl<T> PageTable<T> {
    /// An empty table; no leaf is allocated until the first insert.
    pub fn new() -> Self {
        PageTable {
            leaves: Vec::new(),
            len: 0,
        }
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no page is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record of `page`, if mapped.
    #[inline]
    pub fn get(&self, page: PageNum) -> Option<&T> {
        let (hi, lo) = split(page);
        self.leaves.get(hi)?.as_ref()?[lo].as_ref()
    }

    /// Mutable access to the record of `page`, if mapped.
    #[inline]
    pub fn get_mut(&mut self, page: PageNum) -> Option<&mut T> {
        let (hi, lo) = split(page);
        self.leaves.get_mut(hi)?.as_mut()?[lo].as_mut()
    }

    /// Maps `page` to `value`, returning the record it replaced.
    pub fn insert(&mut self, page: PageNum, value: T) -> Option<T> {
        let (hi, lo) = split(page);
        if hi >= self.leaves.len() {
            self.leaves.resize_with(hi + 1, || None);
        }
        let leaf = self.leaves[hi]
            .get_or_insert_with(|| std::iter::repeat_with(|| None).take(LEAF_PAGES).collect());
        let old = leaf[lo].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Unmaps `page`, returning its record.
    pub fn remove(&mut self, page: PageNum) -> Option<T> {
        let (hi, lo) = split(page);
        let old = self.leaves.get_mut(hi)?.as_mut()?[lo].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Keeps only the pages for which `keep` returns `true`, visiting them
    /// in page order.
    pub fn retain(&mut self, mut keep: impl FnMut(PageNum, &mut T) -> bool) {
        for (hi, leaf) in self.leaves.iter_mut().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (lo, entry) in leaf.iter_mut().enumerate() {
                if let Some(v) = entry {
                    if !keep(PageNum::new((hi * LEAF_PAGES + lo) as u64), v) {
                        *entry = None;
                        self.len -= 1;
                    }
                }
            }
        }
    }

    /// Mapped pages and their records, in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, &T)> + '_ {
        self.leaves
            .iter()
            .enumerate()
            .filter_map(|(hi, leaf)| leaf.as_ref().map(|l| (hi, l)))
            .flat_map(|(hi, leaf)| {
                leaf.iter().enumerate().filter_map(move |(lo, e)| {
                    e.as_ref()
                        .map(|v| (PageNum::new((hi * LEAF_PAGES + lo) as u64), v))
                })
            })
    }
}

/// One page's mapping record: the slot verifying it and its owner, packed
/// into 12 bytes. The owner is stored off by one in a non-zero field, so an
/// `Option<PageEntry>` costs no tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    treeling: TreeLingId,
    index: u32,
    level: u8,
    slot: u8,
    owner: NonZeroU16,
}

impl PageEntry {
    /// A record mapping to `slot`, owned by `domain`.
    ///
    /// # Panics
    ///
    /// Panics if the slot's level exceeds 255.
    pub fn new(slot: LeafSlot, domain: DomainId) -> Self {
        PageEntry {
            treeling: slot.treeling,
            index: slot.node.index,
            level: u8::try_from(slot.node.level).expect("TreeLing levels fit a byte"),
            slot: slot.slot,
            owner: NonZeroU16::new(u16::from(domain) + 1).expect("domain ids stay below u16::MAX"),
        }
    }

    /// The slot holding the page's counter-block hash.
    #[inline]
    pub fn slot(&self) -> LeafSlot {
        LeafSlot {
            treeling: self.treeling,
            node: TlNode {
                level: self.level as u32,
                index: self.index,
            },
            slot: self.slot,
        }
    }

    /// Moves the record to `slot`, keeping its owner.
    pub fn set_slot(&mut self, slot: LeafSlot) {
        *self = PageEntry::new(slot, self.domain());
    }

    /// The owning domain.
    pub fn domain(&self) -> DomainId {
        DomainId::new_unchecked(self.owner.get() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_entry_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Option<PageEntry>>(), 12);
    }

    #[test]
    fn retain_and_iter_walk_pages_in_order() {
        let mut t = PageTable::new();
        for p in [9000u64, 3, 4095, 4096, 12] {
            t.insert(PageNum::new(p), p);
        }
        let order: Vec<u64> = t.iter().map(|(p, _)| p.index()).collect();
        assert_eq!(order, [3, 12, 4095, 4096, 9000]);
        t.retain(|p, _| p.index() % 2 == 0);
        let kept: Vec<u64> = t.iter().map(|(_, &v)| v).collect();
        assert_eq!(kept, [12, 4096, 9000]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn entry_round_trips_its_owner() {
        let slot = LeafSlot {
            treeling: TreeLingId(7),
            node: TlNode { level: 1, index: 3 },
            slot: 2,
        };
        let mut e = PageEntry::new(slot, DomainId::new_unchecked(4095));
        assert_eq!(e.domain(), DomainId::new_unchecked(4095));
        assert_eq!(e.slot(), slot);
        let moved = LeafSlot {
            node: TlNode { level: 3, index: 0 },
            ..slot
        };
        e.set_slot(moved);
        assert_eq!(
            (e.slot(), e.domain()),
            (moved, DomainId::new_unchecked(4095))
        );
    }
}
