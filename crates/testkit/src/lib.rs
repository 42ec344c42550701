//! Hermetic in-tree test and benchmark toolkit.
//!
//! The reproduction must build and test **offline with zero external
//! crates** (DESIGN.md §5). This crate provides minimal, deterministic
//! replacements for the third-party dependencies the workspace used to
//! declare:
//!
//! * [`prop`] — a property-testing engine (generator combinators, a
//!   xoshiro-seeded deterministic case runner, greedy input shrinking) with
//!   a [`props!`]/[`prop_assert!`] macro surface close to `proptest`;
//! * [`bench`] — a micro-benchmark harness (warmup + timed samples,
//!   median/p95/throughput, optional JSON output) replacing `criterion`;
//! * [`par`] — a scoped-thread parallel runner with a mutex-guarded,
//!   order-preserving result collector replacing `crossbeam` +
//!   `parking_lot`;
//! * [`kv`] — a tiny key=value/TOML-subset serializer replacing `serde`
//!   for `ivl-sim-core::config`;
//! * [`rng`] — the xoshiro256** generator backing all of the above.
//!
//! Everything here is plain `std`; the crate has an empty `[dependencies]`
//! table by design, and CI asserts the whole workspace dependency graph
//! stays that way.

pub mod bench;
pub mod kv;
pub mod par;
pub mod prop;
pub mod rng;

/// Everything a property-test file needs, in one import.
pub mod prelude {
    pub use crate::prop::{any, vec, Config, Just, Strategy, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, props};
}
