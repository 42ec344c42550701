//! Pins the exact allocation behaviour of the forest and of the BV
//! baselines in the TreeLing-scarcity regime.
//!
//! The benchmark goldens never leave the breadth phase (4096 TreeLings
//! outlast every quick-length mix), so they cannot see depth extension,
//! level-1 slot states or starvation. Here three domains share a forest
//! small enough to cross `depth_reserve()` and starve, under a seeded mix
//! of map, unmap, promote/demote, wrong-domain unmaps and one
//! destroy-and-recreate per domain. Every outcome (slot, NFL blocks
//! touched, conversions, remapped pages, untracked frees, errors) and the
//! final statistics fold into one `u64` digest per configuration. A change
//! to how the mapping state is stored must leave every digest unchanged.

use ivl_sim_core::addr::PageNum;
use ivl_sim_core::config::{IvLeagueConfig, IvVariant};
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::rng::Xoshiro256;
use ivleague::bitvector::{BvAllocator, BvVariant};
use ivleague::forest::{Forest, ForestConfig, ForestError, NflRegion, TaggedNflOp};
use ivleague::geometry::{LeafSlot, TreeLingGeometry};

/// Order-sensitive 64-bit fold.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn slot(&mut self, s: LeafSlot) {
        self.word(s.treeling.0 as u64);
        self.word(((s.node.level as u64) << 32) | s.node.index as u64);
        self.word(s.slot as u64);
    }

    fn ops(&mut self, ops: &[TaggedNflOp]) {
        self.word(ops.len() as u64);
        for op in ops {
            let region = match op.region {
                NflRegion::Top => 0,
                NflRegion::Depth => 1,
                NflRegion::Hot => 2,
            };
            self.word(op.treeling.0 as u64);
            self.word(((op.op.block as u64) << 8) | ((op.op.write as u64) << 2) | region);
        }
    }

    fn forest_err(&mut self, e: ForestError) {
        match e {
            ForestError::NotMapped(p) => self.word(0xE1 ^ (p.index() << 8)),
            ForestError::WrongDomain(p) => self.word(0xE2 ^ (p.index() << 8)),
        }
    }
}

const DOMAINS: [DomainId; 3] = [
    DomainId::new_unchecked(1),
    DomainId::new_unchecked(2),
    DomainId::new_unchecked(3),
];

/// What a forest run reached, besides its digest.
#[derive(Debug, Default)]
struct Coverage {
    level1_maps: u64,
    starved: u64,
    promotions: u64,
    demotion_remaps: u64,
}

/// Step at which domain `k` is destroyed (and recreated by its next map).
fn destroy_step(steps: usize, k: usize) -> usize {
    steps * (14 + 2 * k) / 20
}

fn forest_run(cfg: ForestConfig, steps: usize, seed: u64) -> (u64, Coverage) {
    let mut f = Forest::new(cfg);
    let mut rng = Xoshiro256::seed_from(seed);
    let mut h = Digest::new();
    let mut cov = Coverage::default();
    let mut live: [Vec<PageNum>; 3] = Default::default();
    let mut next = 0u64;
    for step in 0..steps {
        if let Some(k) = (0..3).find(|&k| destroy_step(steps, k) == step) {
            f.destroy_domain(DOMAINS[k]);
            live[k].clear();
            h.word(0xD0 + k as u64);
            continue;
        }
        let k = rng.index(3);
        let dom = DOMAINS[k];
        let r = rng.index(100);
        if r < 62 || live[k].is_empty() {
            // Pages are unique and mostly dense, with small gaps so the
            // run spans several page-table leaves.
            next += 1 + rng.next_below(4);
            let page = PageNum::new(next);
            match f.map_page(dom, page) {
                Ok(out) => {
                    h.word(1);
                    h.slot(out.slot);
                    h.ops(&out.nfl_ops);
                    h.word(out.new_treeling as u64);
                    h.word(out.conversions as u64);
                    h.word(out.remapped.len() as u64);
                    for q in &out.remapped {
                        h.word(q.index());
                    }
                    if out.slot.node.level == 1 {
                        cov.level1_maps += 1;
                    }
                    live[k].push(page);
                }
                Err(_) => {
                    h.word(0xEE);
                    cov.starved += 1;
                }
            }
        } else if r < 92 {
            let page = live[k].swap_remove(rng.index(live[k].len()));
            let out = f.unmap_page(dom, page).expect("live page unmaps");
            h.word(2);
            h.slot(out.slot);
            h.ops(&out.nfl_ops);
            h.word(out.untracked as u64);
        } else if r < 98 {
            let page = live[k][rng.index(live[k].len())];
            let out = if f.is_hot_mapped(page) {
                f.demote_page(dom, page)
            } else {
                f.promote_page(dom, page)
            };
            match out {
                Some(m) => {
                    h.word(3);
                    h.slot(m.from);
                    h.slot(m.to);
                    h.ops(&m.nfl_ops);
                    h.word(m.remapped.len() as u64);
                    cov.demotion_remaps += m.remapped.len() as u64;
                    for q in &m.remapped {
                        h.word(q.index());
                    }
                    if f.is_hot_mapped(page) {
                        cov.promotions += 1;
                    }
                }
                None => h.word(0x30),
            }
        } else {
            // Unmapping another domain's page, or a page never mapped,
            // must fail without touching any state.
            let other = (k + 1) % 3;
            let page = match live[other].first() {
                Some(&p) => p,
                None => PageNum::new(next + 1),
            };
            match f.unmap_page(dom, page) {
                Ok(_) => panic!("{page} unmapped by the wrong domain"),
                Err(e) => h.forest_err(e),
            }
        }
    }
    let s = f.stats();
    for x in [
        s.untracked_slots,
        s.conversions,
        s.treelings_assigned,
        s.treelings_detached,
        s.promotions,
        s.demotions,
        s.util_sum.to_bits(),
        s.util_samples,
        s.util_min.to_bits(),
        f.starvation_events(),
    ] {
        h.word(x);
    }
    for (k, &dom) in DOMAINS.iter().enumerate() {
        h.word(f.mapped_pages(dom));
        assert_eq!(f.mapped_pages(dom), live[k].len() as u64);
        for &t in f.treelings_of(dom) {
            h.word(t.0 as u64);
            h.word(f.frontier_of(t).expect("owned TreeLing is active") as u64);
        }
        for &page in &live[k] {
            h.slot(f.slot_of(page).expect("live page stays mapped"));
        }
    }
    assert!(f.verify_isolation(), "{:?}: isolation broken", cfg.variant);
    assert!(
        f.mapping_consistent(),
        "{:?}: slot states disagree with the page table",
        cfg.variant
    );
    (h.0, cov)
}

/// Two shapes: the 4-ary 4-level test geometry, and Table I's 8-ary
/// arity with four levels (so Pro has a hot region) and few TreeLings.
fn forest_configs(variant: IvVariant) -> [(ForestConfig, usize); 2] {
    let small = ForestConfig::small_for_tests(variant);
    let ivcfg = IvLeagueConfig {
        treeling_levels: 4,
        treeling_count: 6,
        ..IvLeagueConfig::default()
    };
    let wide = ForestConfig::from_ivleague(&ivcfg, 8, variant);
    [(small, 12_000), (wide, 120_000)]
}

fn check_forest(variant: IvVariant, pinned: [u64; 2]) {
    let mut demotion_remaps = 0;
    for (i, (cfg, steps)) in forest_configs(variant).into_iter().enumerate() {
        let (digest, cov) = forest_run(cfg, steps, 0x5EED + i as u64);
        assert!(cov.starved > 0, "{variant:?} config {i} never starved");
        if variant != IvVariant::Basic {
            assert!(
                cov.level1_maps > 0,
                "{variant:?} config {i} never reached depth extension"
            );
        }
        if variant == IvVariant::Pro {
            assert!(cov.promotions > 0, "Pro config {i} never promoted");
        }
        demotion_remaps += cov.demotion_remaps;
        assert_eq!(
            digest, pinned[i],
            "{variant:?} config {i} digest moved ({cov:?})"
        );
    }
    if variant == IvVariant::Pro {
        // A demotion into the depth-extension region converts an occupied
        // frontier slot; the displaced page must be re-mapped, not lost.
        assert!(demotion_remaps > 0, "no demotion displaced a page");
    }
}

#[test]
fn basic_digest_is_pinned() {
    check_forest(
        IvVariant::Basic,
        [3280200478348216165, 17866020867969812901],
    );
}

#[test]
fn invert_digest_is_pinned() {
    check_forest(
        IvVariant::Invert,
        [13938758607399038984, 7830273635008784784],
    );
}

#[test]
fn pro_digest_is_pinned() {
    check_forest(IvVariant::Pro, [9305609292918903175, 16952095360943948101]);
}

fn bv_run(variant: BvVariant, steps: usize, seed: u64) -> (u64, u64) {
    let mut bv = BvAllocator::new(TreeLingGeometry::new(4, 3), 6, variant);
    let mut rng = Xoshiro256::seed_from(seed);
    let mut h = Digest::new();
    let mut starved = 0;
    let mut live: [Vec<PageNum>; 3] = Default::default();
    let mut next = 0u64;
    for step in 0..steps {
        if let Some(k) = (0..3).find(|&k| destroy_step(steps, k) == step) {
            bv.destroy_domain(DOMAINS[k]);
            live[k].clear();
            h.word(0xD0 + k as u64);
            continue;
        }
        let k = rng.index(3);
        let dom = DOMAINS[k];
        if rng.index(100) < 60 || live[k].is_empty() {
            next += 1 + rng.next_below(4);
            let page = PageNum::new(next);
            match bv.map_page(dom, page) {
                Ok(out) => {
                    h.word(1);
                    h.slot(out.slot);
                    h.word(out.blocks_scanned);
                    h.word(out.new_treeling as u64);
                    live[k].push(page);
                }
                Err(_) => {
                    h.word(0xEE);
                    starved += 1;
                }
            }
        } else {
            let page = live[k].swap_remove(rng.index(live[k].len()));
            let out = bv.unmap_page(dom, page).expect("live page unmaps");
            h.word(2);
            h.slot(out.slot);
            h.word(out.blocks_scanned);
            h.word(out.leaked as u64);
        }
    }
    h.word(bv.leaked_slots());
    h.word(bv.total_blocks_scanned());
    for (k, page_list) in live.iter().enumerate() {
        h.word(k as u64);
        for &page in page_list {
            h.slot(bv.slot_of(page).expect("live page stays mapped"));
        }
    }
    (h.0, starved)
}

#[test]
fn bv_digests_are_pinned() {
    for (variant, pinned) in [
        (BvVariant::V1, 12793894791867862986),
        (BvVariant::V2, 14127742310046332635),
    ] {
        let (digest, starved) = bv_run(variant, 6_000, 0xB17);
        assert!(starved > 0, "{variant:?} never starved");
        assert_eq!(digest, pinned, "{variant:?} digest moved");
    }
}
