//! The functional TreeLing forest: authoritative slot state for every
//! active TreeLing, page mapping/unmapping through the NFL, IvLeague-Invert
//! top-down extension with slot conversion (§VII-A, Figure 12), and
//! IvLeague-Pro's reserved hot region (§VII-B, Figures 13–14).
//!
//! The forest is the "what" of IvLeague — which page is verified by which
//! TreeLing slot — while [`crate::scheme`] adds the "how long" (caches,
//! DRAM traffic). Keeping the functional state separate lets property tests
//! drive millions of allocate/free/migrate operations and check invariants
//! (no slot double-mapped, no node shared across domains, NFL head
//! invariant) without timing noise.

use std::collections::HashMap;

use ivl_sim_core::addr::PageNum;
use ivl_sim_core::config::{IvLeagueConfig, IvVariant};
use ivl_sim_core::domain::DomainId;

use crate::domains::{DomainController, StarvationError};
use crate::geometry::{LeafSlot, TlNode, TreeLingGeometry, TreeLingId};
use crate::nfl::{FreeOutcome, Nfl, NflOp};
use crate::pagemap::{PageEntry, PageTable};

/// Page numbers a TreeLing slot word can hold: a page is stored as
/// `page + 2` in 32 bits, so pages must lie below this bound.
pub const MAX_PAGES: u64 = u32::MAX as u64 - 1;

/// Forest configuration (derived from [`IvLeagueConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestConfig {
    /// TreeLing shape.
    pub geometry: TreeLingGeometry,
    /// Number of TreeLings provisioned.
    pub treeling_count: u32,
    /// Scheme variant.
    pub variant: IvVariant,
    /// NFL entries per in-memory NFL block.
    pub nfl_entries_per_block: usize,
    /// Level-(root−1) subtrees reserved for the hot region (Pro only).
    pub hot_top_nodes: u32,
}

impl ForestConfig {
    /// Builds a forest configuration from the system-level IvLeague config.
    pub fn from_ivleague(cfg: &IvLeagueConfig, arity: u32, variant: IvVariant) -> Self {
        let geometry = TreeLingGeometry::new(arity, cfg.treeling_levels as u32);
        let top = geometry.nodes_at_level(geometry.levels().saturating_sub(1).max(1));
        let hot_top_nodes = ((top as f64 * cfg.hot_region_fraction).ceil() as u32).clamp(1, top);
        ForestConfig {
            geometry,
            treeling_count: cfg.treeling_count as u32,
            variant,
            nfl_entries_per_block: cfg.nfl_entries_per_block,
            hot_top_nodes,
        }
    }

    /// A tiny configuration for unit tests and doctests.
    pub fn small_for_tests(variant: IvVariant) -> Self {
        ForestConfig {
            geometry: TreeLingGeometry::new(4, 4),
            treeling_count: 8,
            variant,
            nfl_entries_per_block: 4,
            hot_top_nodes: 1,
        }
    }

    /// NFL tag of a node: its forest-wide dense index.
    fn node_key(&self, treeling: TreeLingId, node: TlNode) -> u64 {
        treeling.0 as u64 * self.geometry.nodes_per_treeling() as u64
            + self.geometry.node_offset(node) as u64
    }

    fn decode_key(&self, key: u64) -> (TreeLingId, TlNode) {
        let npt = self.geometry.nodes_per_treeling() as u64;
        let treeling = TreeLingId((key / npt) as u32);
        let node = self.geometry.node_from_offset((key % npt) as u32);
        (treeling, node)
    }

    /// Whether a TreeLing mapping at `frontier` carries a hot region (Pro
    /// frontier-2 TreeLings with a level 3 below the root).
    fn has_hot_region(&self, frontier: u32) -> bool {
        self.variant == IvVariant::Pro && frontier == 2 && self.geometry.levels() >= 4
    }

    /// Reserved hot-region nodes at `level` (the hot level-3 nodes and
    /// their subtrees), a prefix of that level's index range.
    fn hot_nodes_at(&self, level: u32) -> u32 {
        let g = self.geometry;
        self.hot_top_nodes * g.arity().pow(g.levels() - 1 - level)
    }

    /// The depth-extension NFL of `treeling` in its pristine state: level-1
    /// leaves in forward order — the level-2 frontier fills in reverse, so
    /// forward extension converts its coldest (lowest-index, last-filled)
    /// slots first. Under Pro the leaves below the reserved hot subtrees
    /// are skipped: the hot region drops its last levels (§VII-B), and
    /// opening one of those leaves would convert a hot slot into a parent.
    ///
    /// The result depends only on the TreeLing id and this configuration,
    /// so the forest builds it on first use instead of at assignment.
    fn depth_nfl(&self, treeling: TreeLingId) -> Nfl {
        let g = self.geometry;
        let reserved = if self.has_hot_region(2) {
            self.hot_nodes_at(1)
        } else {
            0
        };
        Nfl::new(
            (reserved..g.nodes_at_level(1))
                .map(|index| self.node_key(treeling, TlNode { level: 1, index })),
            g.arity() as u8,
            self.nfl_entries_per_block,
        )
    }
}

/// Slot word of a free (attachable) slot.
const FREE: u32 = 0;
/// Slot word of a slot holding its child node's hash (`is_parent` set).
const PARENT: u32 = 1;

/// Decoded content of one TreeLing node slot. A slot is stored as one
/// 32-bit word: [`FREE`], [`PARENT`], or `page + 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotContent {
    /// Attachable.
    Free,
    /// Holds the counter-block hash of a page.
    Page(PageNum),
    /// Holds the hash of the child node below it (`is_parent` flag set).
    Parent,
}

impl SlotContent {
    fn from_word(w: u32) -> Self {
        match w {
            FREE => SlotContent::Free,
            PARENT => SlotContent::Parent,
            w => SlotContent::Page(PageNum::new(w as u64 - 2)),
        }
    }

    fn word(self) -> u32 {
        match self {
            SlotContent::Free => FREE,
            SlotContent::Parent => PARENT,
            SlotContent::Page(p) => {
                assert!(
                    p.index() < MAX_PAGES,
                    "{p} does not fit a TreeLing slot word"
                );
                p.index() as u32 + 2
            }
        }
    }
}

#[derive(Debug)]
struct TreeLingState {
    owner: DomainId,
    /// Slot words, `slots[node_offset * arity + slot]`, read and written
    /// through [`word`](Self::word) and [`set_word`](Self::set_word).
    /// Levels are laid out root-first, so the level-1 region comes last.
    /// A TreeLing mapping above level 1 holds only the prefix before it
    /// (an eighth of the words at arity 8); the first write into level 1,
    /// which only depth extension makes, grows the words to full length.
    slots: Vec<u32>,
    /// Primary NFL (leaves for Basic; the frontier level for Invert/Pro).
    nfl: Nfl,
    /// Pages currently mapped into this TreeLing.
    mapped: u64,
    /// Page-mapping frontier level (1 for Basic; 2..levels-1 for
    /// Invert/Pro, escalating down as the domain grows).
    frontier: u32,
    /// Initial primary-NFL slot capacity (utilization accounting).
    top_capacity: u64,
    /// Whether the TreeLing may extend into level 1 (Invert/Pro
    /// frontier-2 only).
    deep: bool,
    /// Depth-extension NFL over level-1 nodes; built on first use, and
    /// only for `deep` TreeLings.
    nfl_depth: Option<Nfl>,
    /// Hot-region NFL (Pro frontier-2 only).
    nfl_hot: Option<Nfl>,
}

impl TreeLingState {
    /// Slot word `idx`. A word past the allocated prefix is [`FREE`], as
    /// it would be in a full-length array.
    #[inline]
    fn word(&self, idx: usize) -> u32 {
        self.slots.get(idx).copied().unwrap_or(FREE)
    }

    /// Sets slot word `idx`, first growing the words to `full_len` when
    /// `idx` lies past the allocated prefix.
    #[inline]
    fn set_word(&mut self, idx: usize, word: u32, full_len: usize) {
        if idx >= self.slots.len() {
            self.slots.resize(full_len, FREE);
        }
        self.slots[idx] = word;
    }

    /// The NFL serving `region`, building the depth NFL on first use.
    /// `None` when this TreeLing has no such region.
    fn region_nfl(
        &mut self,
        cfg: &ForestConfig,
        treeling: TreeLingId,
        region: NflRegion,
    ) -> Option<&mut Nfl> {
        match region {
            NflRegion::Top => Some(&mut self.nfl),
            NflRegion::Depth if self.deep => Some(
                self.nfl_depth
                    .get_or_insert_with(|| cfg.depth_nfl(treeling)),
            ),
            NflRegion::Depth => None,
            NflRegion::Hot => self.nfl_hot.as_mut(),
        }
    }
}

/// Which of a TreeLing's NFL structures an operation touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NflRegion {
    /// The primary region: leaves under Basic; the intermediate (top)
    /// levels under Invert/Pro, filled breadth-first across TreeLings.
    Top,
    /// The depth-extension region (level-1 leaves) used by Invert/Pro only
    /// under TreeLing scarcity ("limited TreeLing expansion").
    Depth,
    /// The reserved hotpage region (Pro).
    Hot,
}

/// NFL traffic emitted by a forest operation, tagged with the TreeLing whose
/// NFL was touched (NFL blocks are per-TreeLing in-memory structures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedNflOp {
    /// TreeLing whose NFL was accessed.
    pub treeling: TreeLingId,
    /// The touched NFL block.
    pub op: NflOp,
    /// Which NFL structure was touched.
    pub region: NflRegion,
}

/// Result of mapping a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOutcome {
    /// Where the page landed.
    pub slot: LeafSlot,
    /// NFL blocks touched.
    pub nfl_ops: Vec<TaggedNflOp>,
    /// Whether a new TreeLing had to be assigned.
    pub new_treeling: bool,
    /// Invert slot conversions performed (each costs one hash copy).
    pub conversions: u32,
    /// Pages whose mapping moved as a side effect (conversion displacement);
    /// their LMM cache entries must be invalidated.
    pub remapped: Vec<PageNum>,
}

/// Result of unmapping a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnmapOutcome {
    /// The freed slot.
    pub slot: LeafSlot,
    /// NFL blocks touched.
    pub nfl_ops: Vec<TaggedNflOp>,
    /// The slot could not be re-tracked by any NFL and is lost until the
    /// TreeLing is recycled.
    pub untracked: bool,
}

/// Result of a hotpage migration (promotion or demotion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrateOutcome {
    /// Slot before the move.
    pub from: LeafSlot,
    /// Slot after the move.
    pub to: LeafSlot,
    /// NFL blocks touched.
    pub nfl_ops: Vec<TaggedNflOp>,
    /// Pages displaced by a conversion on the way (a demotion into the
    /// depth-extension region); their LMM entries must be invalidated.
    pub remapped: Vec<PageNum>,
}

/// Errors from unmap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestError {
    /// The page has no mapping.
    NotMapped(PageNum),
    /// The page is not owned by the given domain.
    WrongDomain(PageNum),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::NotMapped(p) => write!(f, "{p} is not mapped"),
            ForestError::WrongDomain(p) => write!(f, "{p} belongs to another domain"),
        }
    }
}

impl std::error::Error for ForestError {}

/// Aggregate forest statistics (Figure 17b's utilization and untracked-slot
/// counts come from here).
#[derive(Debug, Clone, Copy, Default)]
pub struct ForestStats {
    /// Freed slots no NFL could absorb.
    pub untracked_slots: u64,
    /// Invert conversions performed.
    pub conversions: u64,
    /// TreeLings assigned over the run.
    pub treelings_assigned: u64,
    /// TreeLings detached (drained and recycled) over the run.
    pub treelings_detached: u64,
    /// Hot promotions (Pro).
    pub promotions: u64,
    /// Hot demotions (Pro).
    pub demotions: u64,
    /// Sum and count of utilization samples (taken whenever a domain
    /// requests an additional TreeLing).
    pub util_sum: f64,
    /// Number of utilization samples.
    pub util_samples: u64,
    /// Minimum utilization sample.
    pub util_min: f64,
}

impl ForestStats {
    /// Mean TreeLing utilization at expansion points; `1.0` when a run
    /// never needed a second TreeLing.
    pub fn mean_utilization(&self) -> f64 {
        if self.util_samples == 0 {
            1.0
        } else {
            self.util_sum / self.util_samples as f64
        }
    }
}

/// The TreeLing forest.
#[derive(Debug)]
pub struct Forest {
    cfg: ForestConfig,
    controller: DomainController,
    // Dense state table indexed by `TreeLingId.0`: TreeLing ids are small
    // integers bounded by the configured TreeLing count, so an
    // option-per-slot vector replaces the old hash map — every access the
    // allocation loops perform becomes one bounds-checked index. Nothing
    // iterates this table (ownership iteration goes through the
    // controller's ordered lists), so the layout swap cannot perturb
    // simulation results.
    treelings: TreeLingTable,
    /// Authoritative page → (slot, owner) table (the LMM contents), laid
    /// out like the extended PTE: a page alloc, free or lookup is one
    /// probe into a dense leaf, with no hashing.
    pages: PageTable<PageEntry>,
    /// Mapped pages per domain, indexed by [`DomainId::index`].
    mapped_per_domain: Vec<u64>,
    stats: ForestStats,
    /// Recycled NFL-op buffers: outcome `Vec`s handed back through
    /// [`recycle_ops`](Forest::recycle_ops) are reused by later operations,
    /// so the steady-state map/unmap/migrate path stops allocating.
    spare_ops: Vec<Vec<TaggedNflOp>>,
    /// Buffer the NFLs push their touched blocks into before the forest
    /// tags them with TreeLing and region.
    nfl_scratch: Vec<NflOp>,
}

/// Dense TreeLing-state storage, keyed by [`TreeLingId`]. Mimics the map
/// API (`get`/`get_mut`/`insert`/`remove`/index) the forest code uses so
/// the call sites read identically to the hash-map era.
#[derive(Debug, Default)]
struct TreeLingTable {
    /// Boxed so the table costs one pointer per provisioned TreeLing:
    /// building a system writes 32 KiB here for 4096 TreeLings, not a full
    /// state record per TreeLing.
    slots: Vec<Option<Box<TreeLingState>>>,
}

impl TreeLingTable {
    fn with_capacity(n: u32) -> Self {
        TreeLingTable {
            slots: (0..n).map(|_| None).collect(),
        }
    }

    fn get(&self, t: &TreeLingId) -> Option<&TreeLingState> {
        self.slots.get(t.0 as usize).and_then(Option::as_deref)
    }

    fn get_mut(&mut self, t: &TreeLingId) -> Option<&mut TreeLingState> {
        self.slots
            .get_mut(t.0 as usize)
            .and_then(Option::as_deref_mut)
    }

    fn insert(&mut self, t: TreeLingId, state: TreeLingState) {
        let i = t.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(Box::new(state));
    }

    fn remove(&mut self, t: &TreeLingId) -> Option<Box<TreeLingState>> {
        self.slots.get_mut(t.0 as usize).and_then(Option::take)
    }
}

impl std::ops::Index<&TreeLingId> for TreeLingTable {
    type Output = TreeLingState;
    fn index(&self, t: &TreeLingId) -> &TreeLingState {
        self.get(t).expect("TreeLing active")
    }
}

impl Forest {
    /// Creates an empty forest.
    pub fn new(cfg: ForestConfig) -> Self {
        Forest {
            controller: DomainController::new(cfg.treeling_count),
            treelings: TreeLingTable::with_capacity(cfg.treeling_count),
            cfg,
            pages: PageTable::new(),
            mapped_per_domain: Vec::new(),
            stats: ForestStats {
                util_min: 1.0,
                ..ForestStats::default()
            },
            spare_ops: Vec::new(),
            nfl_scratch: Vec::new(),
        }
    }

    /// Takes a recycled (empty) NFL-op buffer, or a fresh one.
    fn take_ops(&mut self) -> Vec<TaggedNflOp> {
        self.spare_ops.pop().unwrap_or_default()
    }

    /// Returns an outcome's `nfl_ops` buffer to the recycle pool. Callers
    /// that consume a [`MapOutcome`]/[`UnmapOutcome`]/[`MigrateOutcome`]
    /// may hand the vector back so the next operation reuses its capacity;
    /// dropping it instead is always correct, just slower.
    pub fn recycle_ops(&mut self, mut ops: Vec<TaggedNflOp>) {
        if self.spare_ops.len() < 8 && ops.capacity() > 0 {
            ops.clear();
            self.spare_ops.push(ops);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ForestConfig {
        &self.cfg
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ForestStats {
        self.stats
    }

    /// Starvation events recorded by the domain controller.
    pub fn starvation_events(&self) -> u64 {
        self.controller.starvation_events()
    }

    /// TreeLings currently assigned to `domain`.
    pub fn treelings_of(&self, domain: DomainId) -> &[TreeLingId] {
        self.controller.treelings_of(domain)
    }

    /// The page-mapping frontier level of an active TreeLing (1 under
    /// Basic; 2..levels-1 under Invert/Pro, by acquisition order).
    pub fn frontier_of(&self, treeling: TreeLingId) -> Option<u32> {
        self.treelings.get(&treeling).map(|t| t.frontier)
    }

    /// The slot currently verifying `page`.
    #[inline]
    pub fn slot_of(&self, page: PageNum) -> Option<LeafSlot> {
        self.pages.get(page).map(|e| e.slot())
    }

    /// The level a page is mapped at (Invert shortens paths by raising it).
    pub fn mapped_level(&self, page: PageNum) -> Option<u32> {
        self.slot_of(page).map(|s| s.node.level)
    }

    /// Whether `page` currently sits in the hot region of its TreeLing.
    pub fn is_hot_mapped(&self, page: PageNum) -> bool {
        match self.slot_of(page) {
            Some(slot) => self.in_hot_region(slot.node),
            None => false,
        }
    }

    /// Verification path of `page`: mapped node up to the TreeLing root,
    /// inclusive. The root's hash is checked against the locked on-chip
    /// upper structure, so the path never leaves the TreeLing.
    pub fn verification_path(&self, page: PageNum) -> Option<Vec<(TreeLingId, TlNode)>> {
        let slot = self.slot_of(page)?;
        let mut path = vec![(slot.treeling, slot.node)];
        let mut node = slot.node;
        while let Some(p) = self.cfg.geometry.parent(node) {
            path.push((slot.treeling, p));
            node = p;
        }
        Some(path)
    }

    // ------------------------------------------------------------------
    // Slot-state helpers
    // ------------------------------------------------------------------

    fn slot_idx(&self, node: TlNode, slot: u8) -> usize {
        self.cfg.geometry.node_offset(node) as usize * self.cfg.geometry.arity() as usize
            + slot as usize
    }

    fn slot_state(&self, s: LeafSlot) -> SlotContent {
        // A detached (recycled) TreeLing may still be referenced by stale
        // cross-TreeLing NFL availability; report such slots as structural
        // (non-Free) so allocation skips them.
        match self.treelings.get(&s.treeling) {
            Some(state) => SlotContent::from_word(state.word(self.slot_idx(s.node, s.slot))),
            None => SlotContent::Parent,
        }
    }

    fn bump_mapped(&mut self, treeling: TreeLingId, delta: i64) {
        if let Some(state) = self.treelings.get_mut(&treeling) {
            state.mapped = state.mapped.saturating_add_signed(delta);
        }
    }

    /// The mapped-page counter of `domain`, grown on first use.
    fn domain_mapped(&mut self, domain: DomainId) -> &mut u64 {
        let di = domain.index();
        if di >= self.mapped_per_domain.len() {
            self.mapped_per_domain.resize(di + 1, 0);
        }
        &mut self.mapped_per_domain[di]
    }

    /// Detaches `treeling` back to the unassigned FIFO if it no longer maps
    /// any page (the paper's runtime TreeLing detachment). The recycled
    /// TreeLing is re-initialized on its next assignment; stale cross-
    /// TreeLing NFL availability pointing into it is skipped by the
    /// allocation loop's Free-state check.
    fn maybe_detach(&mut self, treeling: TreeLingId) {
        let Some(state) = self.treelings.get(&treeling) else {
            return;
        };
        if state.mapped > 0 {
            return;
        }
        let owner = state.owner;
        // Keep at least one TreeLing attached so the domain's allocation
        // cursor stays meaningful.
        if self.controller.treelings_of(owner).len() <= 1 {
            return;
        }
        if self.controller.detach(owner, treeling) {
            self.treelings.remove(&treeling);
            self.stats.treelings_detached += 1;
        }
    }

    fn set_slot_state(&mut self, s: LeafSlot, content: SlotContent) {
        self.set_slot_word(s, content.word());
    }

    fn set_slot_word(&mut self, s: LeafSlot, word: u32) {
        let idx = self.slot_idx(s.node, s.slot);
        let full_len = self.slot_words();
        self.treelings
            .get_mut(&s.treeling)
            .expect("treeling active")
            .set_word(idx, word, full_len);
    }

    /// Slot words of a full TreeLing, every level included.
    fn slot_words(&self) -> usize {
        let g = self.cfg.geometry;
        g.nodes_per_treeling() as usize * g.arity() as usize
    }

    fn in_hot_region(&self, node: TlNode) -> bool {
        if self.cfg.variant != IvVariant::Pro {
            return false;
        }
        let g = self.cfg.geometry;
        if g.levels() < 4 || node.level != 3 {
            return false;
        }
        node.index < self.cfg.hot_nodes_at(3)
    }

    // ------------------------------------------------------------------
    // TreeLing initialization
    // ------------------------------------------------------------------

    /// Page-mapping frontier for the `nth` TreeLing a domain acquires:
    /// Invert/Pro "gradually introduce nodes from lower levels" (§VII-A) —
    /// the first TreeLings map pages just below the root, later ones at
    /// level 2, and level 1 only under scarcity (depth extension).
    fn frontier_for(&self, nth: usize) -> u32 {
        let g = self.cfg.geometry;
        match self.cfg.variant {
            IvVariant::Basic => 1,
            IvVariant::Invert | IvVariant::Pro => {
                let top = g.levels().saturating_sub(1).max(1);
                top.saturating_sub(nth as u32).max(2.min(top))
            }
        }
    }

    /// TreeLings kept in reserve before depth extension starts: Invert/Pro
    /// prefer breadth (new TreeLings, short paths) while supply lasts and
    /// extend into the leaf level only under scarcity — the paper's
    /// "limited TreeLing expansion".
    fn depth_reserve(&self) -> usize {
        (self.cfg.treeling_count as usize) / 8
    }

    fn init_treeling(&mut self, treeling: TreeLingId, owner: DomainId) {
        let cfg = self.cfg;
        let g = cfg.geometry;
        let arity = g.arity() as usize;
        // `assign` ran before `init_treeling`, so the ordinal of this
        // TreeLing within the domain is len - 1.
        let nth = self.controller.treelings_of(owner).len().saturating_sub(1);
        let frontier = self.frontier_for(nth);
        let hot = cfg.has_hot_region(frontier);
        // Zeroed words are Free. Root-first layout puts every level above
        // the frontier in one prefix: the static parent structure (the
        // frontier → frontier-1 boundary uses dynamic conversion, i.e.
        // depth extension). A TreeLing mapping above level 1 gets the
        // words before level 1 only; `set_word` adds the rest on the
        // first depth-extension write.
        let level_start = |level| g.node_offset(TlNode { level, index: 0 }) as usize * arity;
        let len = if frontier == 1 {
            self.slot_words()
        } else {
            level_start(1)
        };
        let mut slots = vec![FREE; len];
        slots[..level_start(frontier)].fill(PARENT);

        // Regular region: the frontier level (the leaves under Basic),
        // under static parents. Pro skips the reserved hot-region prefix on
        // frontier-2 TreeLings (§VII-B). Invert/Pro fill in reverse so
        // depth extension converts the coldest (last-filled) slots first.
        let level = frontier;
        let first = if cfg.variant == IvVariant::Pro && frontier == 2 && 2 < g.levels() {
            cfg.hot_nodes_at(2)
        } else {
            0
        };
        let count = g.nodes_at_level(level) - first;
        let reversed = cfg.variant != IvVariant::Basic;
        let nfl = Nfl::new(
            (0..count).map(|k| {
                let index = if reversed {
                    first + count - 1 - k
                } else {
                    first + k
                };
                cfg.node_key(treeling, TlNode { level, index })
            }),
            g.arity() as u8,
            cfg.nfl_entries_per_block,
        );

        // Hot region (Pro): the reserved level-3 nodes — one level above
        // the regular frontier, under static parents, so a hotpage's
        // verification path is one hop shorter and its node blocks are few
        // enough to stay cached. They hold hotpage hashes, not child
        // pointers, so their slots start Free (their own hashes chain into
        // the static level-4 parents above). The level below the reserved
        // subtree is discarded (§VII-B: the hot region drops its last
        // level).
        let nfl_hot = hot.then(|| {
            let reserved = cfg.hot_nodes_at(3).min(g.nodes_at_level(3));
            let start = g.node_offset(TlNode { level: 3, index: 0 }) as usize;
            slots[start * arity..(start + reserved as usize) * arity].fill(FREE);
            Nfl::new(
                (0..reserved).map(|index| cfg.node_key(treeling, TlNode { level: 3, index })),
                g.arity() as u8,
                cfg.nfl_entries_per_block,
            )
        });
        self.treelings.insert(
            treeling,
            TreeLingState {
                owner,
                slots,
                nfl,
                mapped: 0,
                frontier,
                top_capacity: count as u64 * g.arity() as u64,
                deep: cfg.variant != IvVariant::Basic && frontier == 2 && g.levels() >= 2,
                nfl_depth: None,
                nfl_hot,
            },
        );
        self.stats.treelings_assigned += 1;
    }

    fn sample_utilization(&mut self, domain: DomainId) {
        let owned = self.controller.treelings_of(domain);
        if owned.is_empty() {
            return;
        }
        let mut free = 0u64;
        let mut capacity = 0u64;
        for t in owned {
            let state = &self.treelings[t];
            free += state.nfl.free_tracked();
            // Capacity: the slots the allocation policy consumes before
            // requesting a new TreeLing — the primary (top) region.
            capacity += state.top_capacity;
        }
        let used = capacity.saturating_sub(free);
        let sample = used as f64 / capacity as f64;
        self.stats.util_sum += sample;
        self.stats.util_samples += 1;
        if sample < self.stats.util_min {
            self.stats.util_min = sample;
        }
    }

    // ------------------------------------------------------------------
    // Mapping
    // ------------------------------------------------------------------

    /// Allocates a Free slot from one NFL region of `domain`'s TreeLings,
    /// newest TreeLing first, skipping stale availability (slots consumed
    /// structurally by conversions, or inside a recycled TreeLing).
    fn alloc_in(
        &mut self,
        domain: DomainId,
        region: NflRegion,
        ops: &mut Vec<TaggedNflOp>,
    ) -> Option<LeafSlot> {
        // Indexed, not iterated: the owned list cannot change inside this
        // loop, and indexing leaves `self` free for the NFL borrows.
        for i in (0..self.controller.treelings_of(domain).len()).rev() {
            let tid = self.controller.treelings_of(domain)[i];
            while let Some(alloc) = self
                .treelings
                .get_mut(&tid)
                .and_then(|t| t.region_nfl(&self.cfg, tid, region))
                .and_then(|nfl| nfl.alloc(&mut self.nfl_scratch))
            {
                ops.extend(self.nfl_scratch.drain(..).map(|op| TaggedNflOp {
                    treeling: tid,
                    op,
                    region,
                }));
                let (owner_tl, node) = self.cfg.decode_key(alloc.tag);
                let slot = LeafSlot {
                    treeling: owner_tl,
                    node,
                    slot: alloc.slot,
                };
                if self.slot_state(slot) == SlotContent::Free {
                    return Some(slot);
                }
                // Stale availability (converted to Parent meanwhile): retry.
            }
        }
        None
    }

    /// The variant's allocation policy: Basic uses its (leaf) top NFL and
    /// grows on exhaustion; Invert/Pro fill intermediate levels
    /// breadth-first across TreeLings, extending into the leaves only when
    /// the unassigned-TreeLing FIFO runs low.
    fn alloc_regular(&mut self, domain: DomainId, ops: &mut Vec<TaggedNflOp>) -> Option<LeafSlot> {
        if let Some(slot) = self.alloc_in(domain, NflRegion::Top, ops) {
            return Some(slot);
        }
        if self.cfg.variant != IvVariant::Basic
            && self.controller.unassigned() <= self.depth_reserve()
        {
            if let Some(slot) = self.alloc_in(domain, NflRegion::Depth, ops) {
                return Some(slot);
            }
        }
        None
    }

    /// Last-resort depth allocation when no new TreeLing is available.
    fn alloc_regular_scarce(
        &mut self,
        domain: DomainId,
        ops: &mut Vec<TaggedNflOp>,
    ) -> Option<LeafSlot> {
        if self.cfg.variant == IvVariant::Basic {
            return None;
        }
        self.alloc_in(domain, NflRegion::Depth, ops)
    }

    /// Establishes the parent chain for `slot`'s node (Invert/Pro). May
    /// displace pages occupying ancestor slots; displaced pages are
    /// re-mapped by the caller. Returns displaced pages with their owners.
    fn ensure_parent_chain(&mut self, slot: LeafSlot) -> Vec<(PageNum, DomainId)> {
        let mut displaced = Vec::new();
        let mut node = slot.node;
        while let Some(parent) = self.cfg.geometry.parent(node) {
            let pslot = LeafSlot {
                treeling: slot.treeling,
                node: parent,
                slot: self.cfg.geometry.slot_in_parent(node),
            };
            match self.slot_state(pslot) {
                SlotContent::Parent => break,
                SlotContent::Free => {
                    self.set_slot_state(pslot, SlotContent::Parent);
                    self.stats.conversions += 1;
                }
                SlotContent::Page(q) => {
                    // Figure 12: the occupying page's hash moves down into
                    // the newly opened child; the slot becomes a parent.
                    self.set_slot_state(pslot, SlotContent::Parent);
                    let e = self.pages.remove(q).expect("displaced page is mapped");
                    self.bump_mapped(pslot.treeling, -1);
                    displaced.push((q, e.domain()));
                    self.stats.conversions += 1;
                }
            }
            node = parent;
        }
        displaced
    }

    /// Opens `slot`'s parent chain (Invert/Pro) and re-maps the pages the
    /// conversion displaced. Each displaced page takes the next free slot —
    /// in Figure 12 that is precisely the first slot of the newly opened
    /// child node.
    fn open_parent_chain(
        &mut self,
        domain: DomainId,
        slot: LeafSlot,
        ops: &mut Vec<TaggedNflOp>,
        remapped: &mut Vec<PageNum>,
    ) {
        for (q, qdomain) in self.ensure_parent_chain(slot) {
            let qslot = self
                .alloc_regular(domain, ops)
                .expect("opened child provides slots for displaced pages");
            let more = self.ensure_parent_chain(qslot);
            debug_assert!(more.is_empty(), "displacement must not cascade");
            self.set_slot_state(qslot, SlotContent::Page(q));
            self.pages.insert(q, PageEntry::new(qslot, qdomain));
            self.bump_mapped(qslot.treeling, 1);
            remapped.push(q);
        }
    }

    /// Maps `page` into `domain`'s TreeLings.
    ///
    /// # Errors
    ///
    /// Returns [`StarvationError`] when a new TreeLing is needed but none is
    /// unassigned.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped (callers track allocation), or
    /// if it lies at or above [`MAX_PAGES`].
    pub fn map_page(
        &mut self,
        domain: DomainId,
        page: PageNum,
    ) -> Result<MapOutcome, StarvationError> {
        // Checked before any state changes; the double-map check rides on
        // the single table probe that inserts the mapping below.
        let word = SlotContent::Page(page).word();
        let mut ops = self.take_ops();
        let mut new_treeling = false;

        let mut slot = self.alloc_regular(domain, &mut ops);
        if slot.is_none() {
            // The policy wants a fresh TreeLing: sample utilization, grow.
            self.sample_utilization(domain);
            match self.controller.assign(domain) {
                Ok(tid) => {
                    self.init_treeling(tid, domain);
                    new_treeling = true;
                    slot = self.alloc_regular(domain, &mut ops);
                }
                Err(e) => {
                    // No TreeLing left: limited expansion into the leaves.
                    slot = self.alloc_regular_scarce(domain, &mut ops);
                    if slot.is_none() {
                        self.recycle_ops(ops);
                        return Err(e);
                    }
                }
            }
        }
        let slot = slot.expect("fresh treeling must serve an allocation");

        let conversions_before = self.stats.conversions;
        let mut remapped = Vec::new();
        if self.cfg.variant != IvVariant::Basic {
            self.open_parent_chain(domain, slot, &mut ops, &mut remapped);
        }

        self.set_slot_word(slot, word);
        let prev = self.pages.insert(page, PageEntry::new(slot, domain));
        assert!(prev.is_none(), "page {page} double-mapped");
        self.bump_mapped(slot.treeling, 1);
        *self.domain_mapped(domain) += 1;

        Ok(MapOutcome {
            slot,
            nfl_ops: ops,
            new_treeling,
            conversions: (self.stats.conversions - conversions_before) as u32,
            remapped,
        })
    }

    /// Frees `page`'s slot back to the domain's NFLs.
    ///
    /// # Errors
    ///
    /// [`ForestError::NotMapped`] / [`ForestError::WrongDomain`].
    pub fn unmap_page(
        &mut self,
        domain: DomainId,
        page: PageNum,
    ) -> Result<UnmapOutcome, ForestError> {
        let e = *self.pages.get(page).ok_or(ForestError::NotMapped(page))?;
        if e.domain() != domain {
            return Err(ForestError::WrongDomain(page));
        }
        self.pages.remove(page);
        let slot = e.slot();
        *self.domain_mapped(domain) -= 1;
        self.set_slot_state(slot, SlotContent::Free);
        self.bump_mapped(slot.treeling, -1);

        let mut ops = self.take_ops();
        let untracked = if self.in_hot_region(slot.node) {
            self.free_hot_slot(slot, &mut ops)
        } else {
            self.free_regular_slot(domain, slot, &mut ops)
        };
        if untracked {
            self.stats.untracked_slots += 1;
        }
        self.maybe_detach(slot.treeling);
        Ok(UnmapOutcome {
            slot,
            nfl_ops: ops,
            untracked,
        })
    }

    /// Frees a regular slot: the domain's current TreeLing's NFL first,
    /// falling back to the previous TreeLing (cross-TreeLing maintenance).
    /// Returns whether the slot ended up untracked.
    fn free_regular_slot(
        &mut self,
        domain: DomainId,
        slot: LeafSlot,
        ops: &mut Vec<TaggedNflOp>,
    ) -> bool {
        let key = self.cfg.node_key(slot.treeling, slot.node);
        let depth_slot = slot.node.level == 1 && self.cfg.variant != IvVariant::Basic;
        // Frontier slots freed on high-frontier TreeLings route to their
        // own primary NFLs via the cross-TreeLing tag machinery below.
        // Current TreeLing first, then exactly one step back (the paper's
        // cross-TreeLing maintenance). At most two candidates, so a fixed
        // array replaces the old per-free Vec pair.
        let owned = self.controller.treelings_of(domain);
        let n = owned.len();
        let candidates = [
            n.checked_sub(1).map(|i| owned[i]),
            n.checked_sub(2).map(|i| owned[i]),
        ];
        for tid in candidates.into_iter().flatten() {
            let state = self.treelings.get_mut(&tid).expect("owned treeling active");
            // A depth slot goes back to a deep TreeLing's depth NFL (built
            // here if no allocation has needed it yet).
            let region = if depth_slot && state.deep {
                NflRegion::Depth
            } else {
                NflRegion::Top
            };
            let nfl = state
                .region_nfl(&self.cfg, tid, region)
                .expect("deep TreeLings have a depth NFL");
            let out = nfl.free(key, slot.slot, &mut self.nfl_scratch);
            ops.extend(self.nfl_scratch.drain(..).map(|op| TaggedNflOp {
                treeling: tid,
                op,
                region,
            }));
            if out == FreeOutcome::Tracked {
                return false;
            }
        }
        true
    }

    fn free_hot_slot(&mut self, slot: LeafSlot, ops: &mut Vec<TaggedNflOp>) -> bool {
        let key = self.cfg.node_key(slot.treeling, slot.node);
        let st = self
            .treelings
            .get_mut(&slot.treeling)
            .expect("treeling active");
        match st.nfl_hot.as_mut() {
            Some(nfl) => {
                // A hot free never counts as untracked, even on fallback.
                nfl.free(key, slot.slot, &mut self.nfl_scratch);
                ops.extend(self.nfl_scratch.drain(..).map(|op| TaggedNflOp {
                    treeling: slot.treeling,
                    op,
                    region: NflRegion::Hot,
                }));
                false
            }
            None => true,
        }
    }

    // ------------------------------------------------------------------
    // Hot region (Pro)
    // ------------------------------------------------------------------

    /// Migrates `page` into the hot region (promotion). Returns `None` when
    /// the page is already hot, unmapped, or the hot region is full.
    pub fn promote_page(&mut self, domain: DomainId, page: PageNum) -> Option<MigrateOutcome> {
        if self.cfg.variant != IvVariant::Pro {
            return None;
        }
        let e = *self.pages.get(page)?;
        let from = e.slot();
        if e.domain() != domain || self.in_hot_region(from.node) {
            return None;
        }
        let mut ops = self.take_ops();
        let Some(to) = self.alloc_in(domain, NflRegion::Hot, &mut ops) else {
            self.recycle_ops(ops);
            return None;
        };
        let displaced = self.ensure_parent_chain(to);
        debug_assert!(
            displaced.is_empty(),
            "hot-region parents are roots or hot slots consumed in order"
        );
        // Move the hash: free the old slot, occupy the new one.
        self.set_slot_state(from, SlotContent::Free);
        self.bump_mapped(from.treeling, -1);
        let untracked = self.free_regular_slot(domain, from, &mut ops);
        if untracked {
            self.stats.untracked_slots += 1;
        }
        self.set_slot_state(to, SlotContent::Page(page));
        self.pages
            .get_mut(page)
            .expect("page stays mapped")
            .set_slot(to);
        self.bump_mapped(to.treeling, 1);
        self.stats.promotions += 1;
        Some(MigrateOutcome {
            from,
            to,
            nfl_ops: ops,
            remapped: Vec::new(),
        })
    }

    /// Migrates `page` back to the regular region (demotion).
    pub fn demote_page(&mut self, domain: DomainId, page: PageNum) -> Option<MigrateOutcome> {
        let e = *self.pages.get(page)?;
        let from = e.slot();
        if e.domain() != domain || !self.in_hot_region(from.node) {
            return None;
        }
        let mut ops = self.take_ops();
        let Some(to) = self.alloc_regular(domain, &mut ops) else {
            self.recycle_ops(ops);
            return None;
        };
        // Under TreeLing scarcity the regular region extends into the
        // leaves, so a demotion can convert an occupied frontier slot like
        // any allocation; the displaced pages move down with it.
        let mut remapped = Vec::new();
        if self.cfg.variant != IvVariant::Basic {
            self.open_parent_chain(domain, to, &mut ops, &mut remapped);
        }
        self.set_slot_state(from, SlotContent::Free);
        self.bump_mapped(from.treeling, -1);
        let untracked = self.free_hot_slot(from, &mut ops);
        if untracked {
            self.stats.untracked_slots += 1;
        }
        self.set_slot_state(to, SlotContent::Page(page));
        self.pages
            .get_mut(page)
            .expect("page stays mapped")
            .set_slot(to);
        self.bump_mapped(to.treeling, 1);
        self.stats.demotions += 1;
        Some(MigrateOutcome {
            from,
            to,
            nfl_ops: ops,
            remapped,
        })
    }

    // ------------------------------------------------------------------
    // Domain lifecycle
    // ------------------------------------------------------------------

    /// Destroys a domain: unmaps its pages and recycles its TreeLings.
    pub fn destroy_domain(&mut self, domain: DomainId) {
        self.pages.retain(|_, e| e.domain() != domain);
        for i in 0..self.controller.treelings_of(domain).len() {
            let tid = self.controller.treelings_of(domain)[i];
            self.treelings.remove(&tid);
        }
        if let Some(n) = self.mapped_per_domain.get_mut(domain.index()) {
            *n = 0;
        }
        self.controller.destroy(domain);
    }

    /// Pages currently mapped for `domain`.
    pub fn mapped_pages(&self, domain: DomainId) -> u64 {
        self.mapped_per_domain
            .get(domain.index())
            .copied()
            .unwrap_or(0)
    }

    /// Mapping-state consistency check: every mapped page's slot holds
    /// exactly that page, every page-holding slot is mapped back to it, and
    /// each TreeLing's and domain's mapped count matches. Tests call it
    /// after stress runs; it walks every active slot.
    pub fn mapping_consistent(&self) -> bool {
        let mut per_treeling = vec![0u64; self.cfg.treeling_count as usize];
        let mut per_domain = vec![0u64; self.mapped_per_domain.len()];
        for (page, e) in self.pages.iter() {
            if self.slot_state(e.slot()) != SlotContent::Page(page) {
                return false;
            }
            per_treeling[e.slot().treeling.0 as usize] += 1;
            match per_domain.get_mut(e.domain().index()) {
                Some(n) => *n += 1,
                None => return false,
            }
        }
        let arity = self.cfg.geometry.arity() as usize;
        for (t, state) in self.treelings.slots.iter().enumerate() {
            let Some(state) = state else { continue };
            if state.mapped != per_treeling[t] {
                return false;
            }
            for (i, &w) in state.slots.iter().enumerate() {
                if let SlotContent::Page(q) = SlotContent::from_word(w) {
                    let slot = LeafSlot {
                        treeling: TreeLingId(t as u32),
                        node: self.cfg.geometry.node_from_offset((i / arity) as u32),
                        slot: (i % arity) as u8,
                    };
                    if self.slot_of(q) != Some(slot) {
                        return false;
                    }
                }
            }
        }
        per_domain == self.mapped_per_domain
    }

    /// Cross-domain isolation check: no in-memory tree node appears in the
    /// verification paths of pages owned by different domains. This is the
    /// security property §VIII rests on; tests call it after stress runs.
    pub fn verify_isolation(&self) -> bool {
        let mut node_owner: HashMap<(TreeLingId, TlNode), DomainId> = HashMap::new();
        for (page, e) in self.pages.iter() {
            let domain = e.domain();
            if let Some(path) = self.verification_path(page) {
                for node in path {
                    match node_owner.get(&node) {
                        Some(d) if *d != domain => return false,
                        _ => {
                            node_owner.insert(node, domain);
                        }
                    }
                }
            }
        }
        true
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

    #[test]
    fn basic_maps_leaves_only() {
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Basic));
        for i in 0..10 {
            let out = f.map_page(d(0), p(i)).unwrap();
            assert_eq!(out.slot.node.level, 1, "Basic maps at leaves");
            assert_eq!(out.conversions, 0);
        }
    }

    #[test]
    fn invert_starts_at_top_level() {
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Invert));
        let out = f.map_page(d(0), p(0)).unwrap();
        // Geometry 4-ary, 4 levels: the first TreeLing's frontier is the
        // level right below the root.
        assert_eq!(out.slot.node.level, 3);
        assert_eq!(f.frontier_of(out.slot.treeling), Some(3));
        assert_eq!(f.frontier_of(TreeLingId(999)), None);
    }

    #[test]
    fn invert_prefers_breadth_then_extends_downward() {
        let cfg = ForestConfig::small_for_tests(IvVariant::Invert);
        let mut f = Forest::new(cfg);
        // Map pages until TreeLing supply hits the depth reserve; mapped
        // levels never go below 2 while breadth remains, and the frontier
        // escalates downward as the domain grows.
        let mut levels_seen = Vec::new();
        let mut next = 0u64;
        loop {
            let reserve = f.controller.unassigned();
            if reserve <= cfg.treeling_count as usize / 8 {
                break;
            }
            let out = f.map_page(d(0), p(next)).unwrap();
            next += 1;
            assert!(out.slot.node.level >= 2, "breadth phase stays above leaves");
            levels_seen.push(out.slot.node.level);
        }
        assert_eq!(levels_seen[0], 3, "first TreeLing maps just below the root");
        assert!(levels_seen.contains(&2), "later TreeLings map at level 2");
        // Supply exhausted to the reserve: the next mappings extend into
        // the leaves, converting frontier slots (limited expansion).
        let before = f.stats().conversions;
        let mut saw_leaf = false;
        for i in 0..64 {
            let out = f.map_page(d(0), p(next + i)).unwrap();
            if out.slot.node.level == 1 {
                saw_leaf = true;
            }
        }
        assert!(saw_leaf, "depth extension must reach level 1");
        assert!(f.stats().conversions > before, "extension converts slots");
        assert!(f.verify_isolation());
    }

    /// Slot words `f` holds for `t`.
    fn words_held(f: &Forest, t: TreeLingId) -> usize {
        f.treelings[&t].slots.len()
    }

    #[test]
    fn level1_words_are_allocated_on_the_first_leaf_mapping() {
        for variant in [IvVariant::Invert, IvVariant::Pro] {
            let cfg = ForestConfig::small_for_tests(variant);
            let g = cfg.geometry;
            let arity = g.arity() as usize;
            let full = g.nodes_per_treeling() as usize * arity;
            let above_leaves = g.node_offset(TlNode { level: 1, index: 0 }) as usize * arity;
            let mut f = Forest::new(cfg);
            let mut with_leaves = std::collections::HashSet::new();
            // Map until the forest starves: breadth first, then depth
            // extension into the leaves of the frontier-2 TreeLings.
            for i in 0.. {
                let Ok(out) = f.map_page(d(0), p(i)) else {
                    break;
                };
                // A conversion may move displaced pages into level 1 too.
                for q in out.remapped.iter().copied().chain([p(i)]) {
                    let slot = f.slot_of(q).unwrap();
                    if slot.node.level == 1 {
                        with_leaves.insert(slot.treeling);
                    }
                }
                for &t in f.treelings_of(d(0)) {
                    assert!(f.frontier_of(t).unwrap() >= 2);
                    let want = if with_leaves.contains(&t) {
                        full
                    } else {
                        above_leaves
                    };
                    assert_eq!(words_held(&f, t), want, "{variant:?} {t} after {i}");
                }
            }
            assert!(!with_leaves.is_empty(), "{variant:?} reached level 1");
            assert!(f.mapping_consistent());
        }
        // Basic maps at the leaves, so it holds every word from init.
        let cfg = ForestConfig::small_for_tests(IvVariant::Basic);
        let full = cfg.geometry.nodes_per_treeling() as usize * cfg.geometry.arity() as usize;
        let mut f = Forest::new(cfg);
        let t = f.map_page(d(0), p(0)).unwrap().slot.treeling;
        assert_eq!(words_held(&f, t), full);
    }

    #[test]
    fn unmap_returns_slot_for_reuse() {
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Basic));
        let a = f.map_page(d(0), p(1)).unwrap().slot;
        f.unmap_page(d(0), p(1)).unwrap();
        assert_eq!(f.slot_of(p(1)), None);
        let b = f.map_page(d(0), p(2)).unwrap().slot;
        assert_eq!(a, b, "freed slot is reused first");
    }

    #[test]
    fn unmap_errors() {
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Basic));
        assert_eq!(f.unmap_page(d(0), p(9)), Err(ForestError::NotMapped(p(9))));
        f.map_page(d(0), p(9)).unwrap();
        assert_eq!(
            f.unmap_page(d(1), p(9)),
            Err(ForestError::WrongDomain(p(9)))
        );
    }

    #[test]
    fn growth_assigns_new_treelings() {
        let cfg = ForestConfig::small_for_tests(IvVariant::Basic);
        let capacity = cfg.geometry.leaf_capacity(); // 64 pages
        let mut f = Forest::new(cfg);
        for i in 0..capacity {
            assert!(!f.map_page(d(0), p(i)).unwrap().new_treeling || i == 0);
        }
        let out = f.map_page(d(0), p(capacity)).unwrap();
        assert!(out.new_treeling, "capacity exceeded → second TreeLing");
        assert_eq!(f.treelings_of(d(0)).len(), 2);
        // Utilization at the expansion point was 100%.
        assert!(f.stats().mean_utilization() > 0.999);
    }

    #[test]
    fn starvation_when_fifo_empty() {
        let mut cfg = ForestConfig::small_for_tests(IvVariant::Basic);
        cfg.treeling_count = 1;
        let capacity = cfg.geometry.leaf_capacity();
        let mut f = Forest::new(cfg);
        for i in 0..capacity {
            f.map_page(d(0), p(i)).unwrap();
        }
        assert!(f.map_page(d(0), p(capacity)).is_err());
        assert_eq!(f.starvation_events(), 1);
    }

    #[test]
    fn domains_are_isolated() {
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Invert));
        for i in 0..30 {
            f.map_page(d((i % 3) as u16), p(i + 100 * (i % 3))).unwrap();
        }
        assert!(f.verify_isolation());
    }

    #[test]
    fn destroy_recycles_and_isolation_survives_reuse() {
        let cfg = ForestConfig::small_for_tests(IvVariant::Basic);
        let mut f = Forest::new(cfg);
        for i in 0..10 {
            f.map_page(d(0), p(i)).unwrap();
        }
        f.destroy_domain(d(0));
        assert_eq!(f.mapped_pages(d(0)), 0);
        for i in 0..10 {
            f.map_page(d(1), p(1000 + i)).unwrap();
        }
        assert!(f.verify_isolation());
    }

    #[test]
    fn pro_promotes_to_hot_region_with_shorter_path() {
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Pro));
        // Grow past the first (hot-region-less, high-frontier) TreeLings so
        // the domain owns a frontier-2 TreeLing with a reserved hot region.
        for i in 0..40 {
            f.map_page(d(0), p(i)).unwrap();
        }
        let victim = p(39); // a frontier-2 (level-2) mapped page
        assert_eq!(f.mapped_level(victim), Some(2));
        let before = f.verification_path(victim).unwrap().len();
        let out = f.promote_page(d(0), victim).unwrap();
        assert!(f.is_hot_mapped(victim));
        let after = f.verification_path(victim).unwrap().len();
        assert!(after < before, "hot path {after} vs regular {before}");
        assert_ne!(out.from, out.to);
        assert!(f.verify_isolation());
    }

    #[test]
    fn pro_demotes_back() {
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Pro));
        for i in 0..40 {
            f.map_page(d(0), p(i)).unwrap();
        }
        let victim = p(39);
        f.promote_page(d(0), victim).unwrap();
        let out = f.demote_page(d(0), victim).unwrap();
        assert!(!f.is_hot_mapped(victim));
        assert!(f.slot_of(victim).is_some());
        assert_ne!(out.from, out.to);
        assert_eq!(f.stats().promotions, 1);
        assert_eq!(f.stats().demotions, 1);
    }

    #[test]
    fn promote_rejects_non_pro_and_unmapped() {
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Invert));
        f.map_page(d(0), p(0)).unwrap();
        assert!(f.promote_page(d(0), p(0)).is_none());
        let mut f = Forest::new(ForestConfig::small_for_tests(IvVariant::Pro));
        assert!(f.promote_page(d(0), p(0)).is_none());
    }

    #[test]
    fn alloc_free_storm_keeps_mapping_consistent() {
        for variant in IvVariant::ALL {
            let mut f = Forest::new(ForestConfig::small_for_tests(variant));
            let mut rng = ivl_sim_core::rng::Xoshiro256::seed_from(7);
            let mut live: Vec<PageNum> = Vec::new();
            let mut next = 0u64;
            for _ in 0..3000 {
                if live.is_empty() || rng.chance(0.55) {
                    let page = p(next);
                    next += 1;
                    if f.map_page(d(0), page).is_ok() {
                        live.push(page);
                    }
                } else {
                    let idx = rng.index(live.len());
                    let page = live.swap_remove(idx);
                    f.unmap_page(d(0), page).unwrap();
                }
                if variant == IvVariant::Pro && !live.is_empty() && rng.chance(0.05) {
                    let page = live[rng.index(live.len())];
                    if f.is_hot_mapped(page) {
                        f.demote_page(d(0), page);
                    } else {
                        f.promote_page(d(0), page);
                    }
                }
            }
            // Every live page still mapped exactly once, to a distinct slot.
            let mut seen = std::collections::HashSet::new();
            for page in &live {
                let slot = f.slot_of(*page).unwrap_or_else(|| panic!("{page} lost"));
                assert!(seen.insert(slot), "slot double-mapped under {variant:?}");
            }
            assert!(f.verify_isolation());
        }
    }
}
