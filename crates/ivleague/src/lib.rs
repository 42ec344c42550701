//! **IvLeague** — side channel-resistant isolated domains of dynamic
//! integrity trees (Chowdhuryy & Yao, MICRO 2024).
//!
//! IvLeague splits the global integrity tree into many small,
//! statically-addressed subtrees called **TreeLings** and assigns them to
//! integrity-verification (IV) domains on demand. Because no tree node is
//! shared between TreeLings and the nodes above TreeLing roots are locked
//! on-chip, memory accesses in one domain can never modulate metadata-cache
//! state observable by another domain — eliminating the MetaLeak-style
//! shared-metadata side channel by construction.
//!
//! Crate layout (one module per hardware mechanism in the paper):
//!
//! * [`geometry`] — TreeLing shape and static node addressing (§VI-B);
//! * [`nfl`] — the Node Free-List that assigns/reclaims TreeLing slots in
//!   O(1) (§VI-C1, Figures 7–8), with its in-memory byte layout in
//!   [`nfl_encoding`];
//! * [`lmm`] — Leaf Mapping Metadata embedded in the page table plus its
//!   on-chip cache (§VI-C2, Figure 9), with the page table itself in
//!   [`pagemap`];
//! * [`domains`] — the IV Domain Controller: assignment table and
//!   unassigned-TreeLing FIFO (§VI-D1);
//! * [`forest`] — the functional TreeLing forest: slot states, page
//!   mapping/unmapping, Invert's top-down extension and slot conversion
//!   (§VII-A), Pro's hot region (§VII-B), utilization accounting;
//! * [`tracker`] — IvLeague-Pro's hotpage access-frequency tracker (§VII-B);
//! * [`bitvector`] — the naive BV-v1/BV-v2 allocators the paper compares
//!   NFL against (Figure 17a);
//! * [`scheme`] — the timing model: an
//!   [`ivl_secure_mem::subsystem::IntegritySubsystem`] implementation for
//!   IvLeague-Basic / -Invert / -Pro;
//! * [`verify`] — a functionally-correct IvLeague-protected memory (real
//!   ciphertext/MACs/hashes chained to per-TreeLing on-chip roots).
//!
//! # Examples
//!
//! ```
//! use ivleague::forest::{Forest, ForestConfig};
//! use ivl_sim_core::{addr::PageNum, config::IvVariant, domain::DomainId};
//!
//! let mut forest = Forest::new(ForestConfig::small_for_tests(IvVariant::Basic));
//! let d = DomainId::new_unchecked(1);
//! let slot = forest.map_page(d, PageNum::new(100)).unwrap();
//! assert_eq!(forest.slot_of(PageNum::new(100)), Some(slot.slot));
//! forest.unmap_page(d, PageNum::new(100)).unwrap();
//! assert_eq!(forest.slot_of(PageNum::new(100)), None);
//! ```

pub mod bitvector;
pub mod domains;
pub mod forest;
pub mod geometry;
pub mod lmm;
pub mod nfl;
pub mod nfl_encoding;
pub mod pagemap;
pub mod scheme;
pub mod tracker;
pub mod verify;
