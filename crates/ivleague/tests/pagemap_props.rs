//! The page table against a `HashMap` oracle: random insert, remove, get,
//! get_mut and retain over pages at the leaf boundaries and at the top of
//! the Table I address space.

use std::collections::HashMap;

use ivl_sim_core::addr::PageNum;
use ivl_sim_core::config::SystemConfig;
use ivl_testkit::prelude::*;
use ivleague::pagemap::{PageTable, LEAF_PAGES};

/// Pages a case draws from: 0, k·4096 − 1, k·4096 and k·4096 + 1 for a
/// few leaves, and the last page of Table I memory.
fn page_pool() -> Vec<u64> {
    let mut pool = vec![0];
    for k in 1..=6u64 {
        let edge = k * LEAF_PAGES as u64;
        pool.extend([edge - 1, edge, edge + 1]);
    }
    pool.push(SystemConfig::default().total_pages() - 1);
    pool
}

props! {
    #![cases(96)]

    #[test]
    fn page_table_matches_hash_map(ops in vec((0u8..5, any::<usize>(), any::<u32>()), 1..300)) {
        let pool = page_pool();
        let mut table: PageTable<u64> = PageTable::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for (kind, pick, value) in ops {
            let p = pool[pick % pool.len()];
            let page = PageNum::new(p);
            let value = value as u64;
            match kind {
                0 => prop_assert_eq!(table.insert(page, value), oracle.insert(p, value)),
                1 => prop_assert_eq!(table.remove(page), oracle.remove(&p)),
                2 => prop_assert_eq!(table.get(page), oracle.get(&p)),
                3 => {
                    let got = table.get_mut(page).map(|v| {
                        *v += 1;
                        *v
                    });
                    let want = oracle.get_mut(&p).map(|v| {
                        *v += 1;
                        *v
                    });
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let keep = |p: u64, v: u64| !(p + v).is_multiple_of(3);
                    table.retain(|page, v| keep(page.index(), *v));
                    oracle.retain(|&p, v| keep(p, *v));
                }
            }
            prop_assert_eq!(table.len(), oracle.len());
            prop_assert_eq!(table.is_empty(), oracle.is_empty());
        }
        let mut want: Vec<(u64, u64)> = oracle.into_iter().collect();
        want.sort_unstable();
        let got: Vec<(u64, u64)> = table.iter().map(|(p, &v)| (p.index(), v)).collect();
        prop_assert_eq!(got, want);
    }
}
