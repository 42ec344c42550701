//! Property-based tests (ivl-testkit) on the core invariants:
//!
//! * the NFL never double-allocates a slot and keeps its head invariant;
//! * the forest keeps page→slot mapping a bijection under arbitrary
//!   allocate/free/migrate sequences, for every variant;
//! * the functional secure memory returns exactly what was written under
//!   arbitrary operation sequences, and detects arbitrary single-bit
//!   ciphertext corruption.

use ivl_testkit::prelude::*;

use ivleague_repro::ivl_secure_mem::functional::{IntegrityError, SecureMemory};
use ivleague_repro::ivl_sim_core::addr::{BlockAddr, PageNum};
use ivleague_repro::ivl_sim_core::config::IvVariant;
use ivleague_repro::ivl_sim_core::domain::DomainId;
use ivleague_repro::ivleague::forest::{Forest, ForestConfig};
use ivleague_repro::ivleague::nfl::Nfl;

#[derive(Debug, Clone)]
enum NflOp {
    Alloc,
    FreeIdx(usize),
}

fn nfl_ops() -> impl Strategy<Value = Vec<NflOp>> {
    vec(
        prop_oneof![
            3 => Just(NflOp::Alloc),
            2 => any::<usize>().prop_map(NflOp::FreeIdx),
        ],
        1..400,
    )
}

props! {
    #![cases(64)]

    #[test]
    fn nfl_never_double_allocates(ops in nfl_ops()) {
        let mut nfl = Nfl::new(0..24, 8, 4);
        let mut live: Vec<(u64, u8)> = Vec::new();
        let mut touched = Vec::new();
        for op in ops {
            match op {
                NflOp::Alloc => {
                    if let Some(a) = nfl.alloc(&mut touched) {
                        prop_assert!(
                            !live.contains(&(a.tag, a.slot)),
                            "double allocation of ({}, {})", a.tag, a.slot
                        );
                        live.push((a.tag, a.slot));
                    }
                }
                NflOp::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (tag, slot) = live.remove(i % live.len());
                        // Fallback means the slot is untracked — it must
                        // never reappear, which the double-alloc check above
                        // verifies implicitly.
                        nfl.free(tag, slot, &mut touched);
                    }
                }
            }
            prop_assert!(nfl.invariant_holds());
            prop_assert!(touched.iter().all(|o| o.block < nfl.block_count()));
            touched.clear();
        }
    }

    #[test]
    fn forest_mapping_stays_bijective(
        seed in 0u64..1000,
        steps in 50usize..400,
        variant_idx in 0usize..3,
    ) {
        let variant = IvVariant::ALL[variant_idx];
        let mut forest = Forest::new(ForestConfig::small_for_tests(variant));
        let mut rng = ivleague_repro::ivl_sim_core::rng::Xoshiro256::seed_from(seed);
        let domains = [DomainId::new_unchecked(0), DomainId::new_unchecked(1)];
        let mut live: Vec<(DomainId, PageNum)> = Vec::new();
        let mut next = 0u64;
        for _ in 0..steps {
            let d = domains[rng.index(2)];
            match rng.index(10) {
                0..=5 => {
                    let p = PageNum::new(next);
                    next += 1;
                    if forest.map_page(d, p).is_ok() {
                        live.push((d, p));
                    }
                }
                6..=8 => {
                    if !live.is_empty() {
                        let idx = rng.index(live.len());
                        let (owner, page) = live.swap_remove(idx);
                        prop_assert!(forest.unmap_page(owner, page).is_ok());
                    }
                }
                _ => {
                    if variant == IvVariant::Pro && !live.is_empty() {
                        let (owner, page) = live[rng.index(live.len())];
                        if forest.is_hot_mapped(page) {
                            forest.demote_page(owner, page);
                        } else {
                            forest.promote_page(owner, page);
                        }
                    }
                }
            }
        }
        // Bijection: every live page mapped, all slots distinct.
        let mut seen = std::collections::HashSet::new();
        for (_, p) in &live {
            let slot = forest.slot_of(*p);
            prop_assert!(slot.is_some(), "{p} lost its mapping");
            prop_assert!(seen.insert(slot.unwrap()), "slot double-mapped");
        }
        prop_assert!(forest.verify_isolation());
    }

    #[test]
    fn secure_memory_round_trips_random_writes(
        writes in vec((0u64..512, any::<u8>()), 1..60)
    ) {
        let mut mem = SecureMemory::new(8, [1u8; 16], [2u8; 16], [3u8; 16]);
        let mut shadow = std::collections::HashMap::new();
        for (blk, byte) in writes {
            let addr = BlockAddr::new(blk);
            let data = [byte; 64];
            mem.write_block(addr, &data).unwrap();
            shadow.insert(addr, data);
        }
        for (addr, data) in shadow {
            prop_assert_eq!(mem.read_block(addr).unwrap(), data);
        }
    }

    #[test]
    fn any_single_bit_corruption_is_detected(
        byte_idx in 0usize..64,
        bit in 0u8..8,
    ) {
        let mut mem = SecureMemory::new(8, [4u8; 16], [5u8; 16], [6u8; 16]);
        let addr = BlockAddr::new(17);
        mem.write_block(addr, &[0x3Cu8; 64]).unwrap();
        mem.corrupt_data(addr, byte_idx, 1 << bit);
        prop_assert_eq!(mem.read_block(addr), Err(IntegrityError::MacMismatch));
    }

    #[test]
    fn replay_of_any_block_is_detected(blk in 0u64..256) {
        let mut mem = SecureMemory::new(8, [7u8; 16], [8u8; 16], [9u8; 16]);
        let addr = BlockAddr::new(blk % 512);
        mem.write_block(addr, &[1u8; 64]).unwrap();
        let snap = mem.snapshot_block(addr);
        mem.write_block(addr, &[2u8; 64]).unwrap();
        mem.replay_block(&snap);
        prop_assert!(matches!(mem.read_block(addr), Err(IntegrityError::Tree(_))));
    }
}
