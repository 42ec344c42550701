//! TreeLing geometry and static node addressing (paper §VI-B).
//!
//! A TreeLing is a small `arity`-ary subtree with `levels` levels of nodes:
//! level `levels` is the TreeLing root (a single node), level 1 holds the
//! leaves. With split counters (one counter block per 4 KiB page) and leaf
//! slots holding counter-block hashes, a TreeLing covers
//! `arity^levels` pages.
//!
//! All TreeLing node blocks live in a dedicated, statically-addressed
//! metadata region, so walking from any node to the TreeLing root requires
//! **no memory indirection** — the property that keeps IvLeague's
//! verification latency competitive with a static global tree.
//!
//! The nodes *above* TreeLing roots (the upper structure of the global
//! tree) are locked on-chip; [`TreeLingLayout::upper_structure_blocks`]
//! enumerates them so the timing model can pin them in the metadata cache.

use ivl_sim_core::addr::BlockAddr;

/// Identifier of a TreeLing (`0..treeling_count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeLingId(pub u32);

impl std::fmt::Display for TreeLingId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// A node position inside a TreeLing: level 1 = leaves, `levels` = root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TlNode {
    /// Level within the TreeLing (1-based from the leaves).
    pub level: u32,
    /// Node index within the level.
    pub index: u32,
}

/// A mapped slot: TreeLing + node + slot index within the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafSlot {
    /// Owning TreeLing.
    pub treeling: TreeLingId,
    /// Node holding the page's hash.
    pub node: TlNode,
    /// Slot within the node (`0..arity`).
    pub slot: u8,
}

/// Deepest TreeLing the offset table holds (Fig 20a sweeps 4..=6 levels).
const MAX_LEVELS: u32 = 15;

/// Shape of every TreeLing in the system.
///
/// Node addressing is table-driven: [`new`](Self::new) stores where each
/// level starts in the root-first dense layout, so
/// [`node_offset`](Self::node_offset), on the integrity walk's hot path,
/// is a bounds check, a load and an add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeLingGeometry {
    arity: u32,
    levels: u32,
    /// `first[l]`: dense offset of node 0 at level `l` (`1..=levels`);
    /// `first[0]` is the node count, the end of level 1.
    first: [u32; MAX_LEVELS as usize + 1],
}

impl TreeLingGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `arity < 2`, `levels` is out of `1..=15`, or the
    /// node count does not fit a `u32`.
    pub fn new(arity: u32, levels: u32) -> Self {
        assert!(arity >= 2, "arity must be >= 2");
        assert!(
            (1..=MAX_LEVELS).contains(&levels),
            "levels must be in 1..={MAX_LEVELS}"
        );
        let mut first = [0u32; MAX_LEVELS as usize + 1];
        // `nodes` counts the nodes of level `level + 1`, the root's first.
        let mut nodes = 1u32;
        for level in (1..levels as usize).rev() {
            first[level] = first[level + 1]
                .checked_add(nodes)
                .expect("TreeLing node count overflows u32");
            nodes = nodes
                .checked_mul(arity)
                .expect("TreeLing node count overflows u32");
        }
        first[0] = first[1]
            .checked_add(nodes)
            .expect("TreeLing node count overflows u32");
        TreeLingGeometry {
            arity,
            levels,
            first,
        }
    }

    /// Tree arity (slots per node).
    #[inline]
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// Levels of nodes (root inclusive).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Nodes at `level` (`arity^(levels - level)`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of `1..=levels`.
    #[inline]
    pub fn nodes_at_level(&self, level: u32) -> u32 {
        assert!((1..=self.levels).contains(&level), "level out of range");
        self.first[level as usize - 1] - self.first[level as usize]
    }

    /// Total node blocks per TreeLing (all levels, root included).
    #[inline]
    pub fn nodes_per_treeling(&self) -> u32 {
        self.first[0]
    }

    /// Page-mapping capacity when only leaves hold pages (IvLeague-Basic):
    /// `arity^levels`.
    pub fn leaf_capacity(&self) -> u64 {
        (self.arity as u64).pow(self.levels)
    }

    /// Bytes of data covered per TreeLing (4 KiB per page).
    pub fn coverage_bytes(&self) -> u64 {
        self.leaf_capacity() * ivl_sim_core::addr::PAGE_BYTES as u64
    }

    /// Node-local offset of `node` when all levels are laid out root-first
    /// (level `levels` first, then `levels-1`, …, level 1 last).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[inline]
    pub fn node_offset(&self, node: TlNode) -> u32 {
        assert!(node.index < self.nodes_at_level(node.level), "node index");
        self.first[node.level as usize] + node.index
    }

    /// Inverse of [`node_offset`](Self::node_offset): recovers the node from
    /// its root-first dense offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= nodes_per_treeling()`.
    pub fn node_from_offset(&self, offset: u32) -> TlNode {
        assert!(
            offset < self.nodes_per_treeling(),
            "offset {offset} out of range"
        );
        // Levels start at ascending offsets from the root down, so the
        // node's level is the lowest-numbered one starting at or before it.
        let level = (1..=self.levels)
            .find(|&l| self.first[l as usize] <= offset)
            .expect("the root starts at offset 0");
        TlNode {
            level,
            index: offset - self.first[level as usize],
        }
    }

    /// Parent of `node` within the same TreeLing, `None` for the root.
    pub fn parent(&self, node: TlNode) -> Option<TlNode> {
        if node.level >= self.levels {
            None
        } else {
            Some(TlNode {
                level: node.level + 1,
                index: node.index / self.arity,
            })
        }
    }

    /// Slot within the parent node holding `node`'s hash.
    pub fn slot_in_parent(&self, node: TlNode) -> u8 {
        (node.index % self.arity) as u8
    }

    /// The `slot`-th child of `node`, `None` for leaves.
    pub fn child(&self, node: TlNode, slot: u8) -> Option<TlNode> {
        if node.level <= 1 {
            None
        } else {
            Some(TlNode {
                level: node.level - 1,
                index: node.index * self.arity + slot as u32,
            })
        }
    }

    /// Number of memory node reads needed to verify a page mapped at
    /// `level` when nothing is cached: nodes at `level..=levels` (the root's
    /// hash lives in a locked on-chip block).
    pub fn worst_case_path(&self, level: u32) -> u32 {
        self.levels - level + 1
    }
}

/// Static block addressing for all TreeLings and the locked upper structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLingLayout {
    geometry: TreeLingGeometry,
    treeling_count: u32,
    /// First block index of the TreeLing node region.
    base_block: u64,
    nodes_per_treeling: u32,
    /// Upper-structure (locked on-chip) block addresses.
    upper_blocks: Vec<BlockAddr>,
}

impl TreeLingLayout {
    /// Lays out `treeling_count` TreeLings starting at block `base_block`
    /// (normally just above the counter/MAC metadata region).
    pub fn new(geometry: TreeLingGeometry, treeling_count: u32, base_block: u64) -> Self {
        let nodes_per_treeling = geometry.nodes_per_treeling();
        // Upper structure: a tree over the `treeling_count` TreeLing roots,
        // arity-ary, excluding the global root (kept in a register).
        let mut upper = Vec::new();
        let mut next = base_block + treeling_count as u64 * nodes_per_treeling as u64;
        let mut nodes = (treeling_count as u64).div_ceil(geometry.arity as u64);
        while nodes >= 1 {
            for i in 0..nodes {
                upper.push(BlockAddr::new(next + i));
            }
            next += nodes;
            if nodes == 1 {
                break;
            }
            nodes = nodes.div_ceil(geometry.arity as u64);
        }
        TreeLingLayout {
            geometry,
            treeling_count,
            base_block,
            nodes_per_treeling,
            upper_blocks: upper,
        }
    }

    /// The TreeLing geometry.
    pub fn geometry(&self) -> TreeLingGeometry {
        self.geometry
    }

    /// Number of TreeLings.
    pub fn treeling_count(&self) -> u32 {
        self.treeling_count
    }

    /// Block address of a TreeLing node.
    ///
    /// # Panics
    ///
    /// Panics if the TreeLing id or node is out of range.
    pub fn node_block(&self, treeling: TreeLingId, node: TlNode) -> BlockAddr {
        assert!(treeling.0 < self.treeling_count, "treeling out of range");
        BlockAddr::new(
            self.base_block
                + treeling.0 as u64 * self.nodes_per_treeling as u64
                + self.geometry.node_offset(node) as u64,
        )
    }

    /// Blocks of the locked upper structure (pinned in the metadata cache).
    pub fn upper_structure_blocks(&self) -> &[BlockAddr] {
        &self.upper_blocks
    }

    /// Total in-memory metadata blocks consumed by all TreeLings.
    pub fn total_blocks(&self) -> u64 {
        self.treeling_count as u64 * self.nodes_per_treeling as u64 + self.upper_blocks.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> TreeLingGeometry {
        TreeLingGeometry::new(8, 4)
    }

    #[test]
    fn level_node_counts() {
        let g = geom();
        assert_eq!(g.nodes_at_level(4), 1);
        assert_eq!(g.nodes_at_level(3), 8);
        assert_eq!(g.nodes_at_level(2), 64);
        assert_eq!(g.nodes_at_level(1), 512);
        assert_eq!(g.nodes_per_treeling(), 585);
    }

    #[test]
    fn leaf_capacity_and_coverage() {
        let g = geom();
        assert_eq!(g.leaf_capacity(), 4096);
        assert_eq!(g.coverage_bytes(), 16 * 1024 * 1024);
    }

    #[test]
    fn parent_child_round_trip() {
        let g = geom();
        let leaf = TlNode {
            level: 1,
            index: 137,
        };
        let parent = g.parent(leaf).unwrap();
        assert_eq!(parent.level, 2);
        assert_eq!(parent.index, 17);
        let slot = g.slot_in_parent(leaf);
        assert_eq!(g.child(parent, slot), Some(leaf));
        assert_eq!(g.parent(TlNode { level: 4, index: 0 }), None);
        assert_eq!(g.child(leaf, 0), None);
    }

    #[test]
    fn node_offsets_are_root_first_and_dense() {
        let g = geom();
        assert_eq!(g.node_offset(TlNode { level: 4, index: 0 }), 0);
        assert_eq!(g.node_offset(TlNode { level: 3, index: 0 }), 1);
        assert_eq!(g.node_offset(TlNode { level: 3, index: 7 }), 8);
        assert_eq!(g.node_offset(TlNode { level: 2, index: 0 }), 9);
        assert_eq!(
            g.node_offset(TlNode {
                level: 1,
                index: 511
            }),
            584
        );
    }

    #[test]
    fn node_offsets_unique() {
        let g = TreeLingGeometry::new(4, 3);
        let mut seen = std::collections::HashSet::new();
        for level in 1..=3 {
            for idx in 0..g.nodes_at_level(level) {
                assert!(seen.insert(g.node_offset(TlNode { level, index: idx })));
            }
        }
        assert_eq!(seen.len() as u32, g.nodes_per_treeling());
    }

    /// The offset table against its definition, `node_offset` = nodes on
    /// the levels above plus the index, with `nodes_at_level` a power of
    /// the arity. Covers the figures' arity 8 at Fig 20a's 4, 5 and 6
    /// levels, and the arities and depths the tests use.
    #[test]
    fn offset_table_matches_summed_powers() {
        for arity in 2..=8u32 {
            for levels in 1..=6u32 {
                let g = TreeLingGeometry::new(arity, levels);
                let nodes = |l: u32| arity.pow(levels - l);
                assert_eq!(g.nodes_per_treeling(), (1..=levels).map(nodes).sum());
                let mut offset = 0;
                for level in (1..=levels).rev() {
                    assert_eq!(g.nodes_at_level(level), nodes(level));
                    let above: u32 = (level + 1..=levels).map(nodes).sum();
                    for index in 0..nodes(level) {
                        let node = TlNode { level, index };
                        assert_eq!(g.node_offset(node), above + index);
                        assert_eq!(g.node_offset(node), offset, "dense, root first");
                        assert_eq!(g.node_from_offset(offset), node);
                        offset += 1;
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "levels must be in")]
    fn levels_beyond_the_table_are_rejected() {
        TreeLingGeometry::new(2, MAX_LEVELS + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_past_the_last_leaf_is_rejected() {
        let g = geom();
        g.node_from_offset(g.nodes_per_treeling());
    }

    #[test]
    fn layout_addresses_disjoint_across_treelings() {
        let layout = TreeLingLayout::new(geom(), 16, 1000);
        let a = layout.node_block(
            TreeLingId(0),
            TlNode {
                level: 1,
                index: 511,
            },
        );
        let b = layout.node_block(TreeLingId(1), TlNode { level: 4, index: 0 });
        assert_eq!(a.index() + 1, b.index());
    }

    #[test]
    fn upper_structure_counts() {
        // 4096 TreeLings, arity 8 → 512 + 64 + 8 + 1 = 585 locked blocks.
        let layout = TreeLingLayout::new(geom(), 4096, 0);
        assert_eq!(layout.upper_structure_blocks().len(), 585);
    }

    #[test]
    fn worst_case_path_counts_mapped_to_root() {
        let g = geom();
        assert_eq!(g.worst_case_path(1), 4); // leaf mapping (Basic)
        assert_eq!(g.worst_case_path(3), 2); // Invert's initial top level
    }

    #[test]
    fn display_shapes() {
        assert_eq!(format!("{}", TreeLingId(3)), "τ3");
    }
}
