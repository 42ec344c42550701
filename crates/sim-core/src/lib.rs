//! Simulator substrate shared by every crate in the IvLeague reproduction.
//!
//! This crate holds the vocabulary types the rest of the workspace speaks:
//!
//! * [`addr`] — physical addresses, cache-block and page newtypes with the
//!   64-byte-block / 4-KiB-page geometry used throughout the paper;
//! * [`domain`] — integrity-verification (IV) domain identifiers, capped at
//!   `2^12` domains exactly as IvLeague provisions (Section VI-D1);
//! * [`config`] — the Table I architecture configuration as plain data;
//! * [`stats`] — counters, hit/miss pairs and the geometric mean used by
//!   the models;
//! * [`obs`] — the workspace-wide observability layer: dotted-path stats
//!   registry, cycle-stamped event tracing, per-window timeline;
//! * [`json`] — the one JSON value, writer and parser behind every file the
//!   observability layer and the micro-bench snapshots write;
//! * [`rng`] — a small deterministic PRNG (SplitMix64-seeded xoshiro256**)
//!   so every experiment in the harness is reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use ivl_sim_core::addr::{PhysAddr, BLOCK_BYTES};
//!
//! let a = PhysAddr::new(0x1234_5678);
//! assert_eq!(a.block().index() * BLOCK_BYTES as u64, a.block().base().raw());
//! assert_eq!(a.page(), a.block().page());
//! ```

pub mod addr;
pub mod config;
pub mod domain;
pub mod json;
pub mod obs;
pub mod rng;
pub mod stats;

/// A simulation timestamp / duration measured in core clock cycles.
pub type Cycle = u64;
