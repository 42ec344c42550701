//! Secure-memory substrate: counter-mode encryption, MACs, and Bonsai Merkle
//! Tree integrity verification (paper Section II-B).
//!
//! The crate provides two cooperating layers:
//!
//! * a **functional layer** ([`functional::SecureMemory`]) that stores real
//!   ciphertext, real split counters, real MACs and a real hash tree, and
//!   therefore detects spoofing, splicing and replay attacks exactly like a
//!   secure processor would — this is what the examples, the attack models
//!   and the tamper-detection tests use;
//! * a **timing layer** ([`subsystem`], [`baseline`]) that models the
//!   metadata caches and the leaf-to-root verification walk to answer "how
//!   many cycles and how many extra memory accesses does this data access
//!   cost?" — this is what the multicore simulator plugs into.
//!
//! Both layers share the static metadata [`layout`] (where counters, MACs
//! and tree nodes live in physical memory) and the split-counter model in
//! [`counters`].
//!
//! The [`baseline::GlobalBmtSubsystem`] implements the paper's Baseline: a
//! globally shared 8-ary Bonsai Merkle Tree with counter/tree metadata
//! caches. The IvLeague schemes live in the `ivleague` crate and implement
//! the same [`subsystem::IntegritySubsystem`] trait.
//!
//! # Examples
//!
//! ```
//! use ivl_secure_mem::functional::SecureMemory;
//! use ivl_sim_core::addr::BlockAddr;
//!
//! let mut mem = SecureMemory::new(1024, [1u8; 16], [2u8; 16], [3u8; 16]);
//! let block = BlockAddr::new(5);
//! mem.write_block(block, &[0x5Au8; 64]).unwrap();
//! assert_eq!(mem.read_block(block).unwrap(), [0x5Au8; 64]);
//! ```

pub mod baseline;
pub mod counters;
pub mod functional;
pub mod layout;
pub mod subsystem;
pub mod tree;
