//! Trace-driven multicore system model.
//!
//! This crate ties the substrates together into the evaluated system: eight
//! cores with private L2 caches, a shared (randomized) LLC, and a memory
//! controller whose miss path runs through a pluggable
//! [`IntegritySubsystem`](ivl_secure_mem::subsystem::IntegritySubsystem)
//! (Baseline global BMT, IvLeague-Basic/-Invert/-Pro, or the BV allocator
//! baselines).
//!
//! The engine is *trace-driven*: each core consumes the address stream of
//! its benchmark model, charging `gap_instrs / base_ipc` cycles of compute
//! between memory operations and `miss_latency / mlp` cycles of stall per
//! LLC miss (the MLP factor models the overlap an out-of-order core
//! extracts). Cores advance in loose lock-step (the least-advanced core
//! executes next), sharing the LLC, DRAM banks and metadata caches, which
//! reproduces the inter-workload interference the paper's multi-programmed
//! mixes exercise.
//!
//! See [`SchemeKind`] for the evaluated schemes and [`run_mix`] for the
//! one-call entry the figure harness uses.
//!
//! # Examples
//!
//! ```
//! use ivl_simulator::{run_mix, RunConfig, SchemeKind};
//! use ivl_workloads::mixes::mix_by_name;
//!
//! let mix = mix_by_name("S-1").unwrap();
//! let cfg = RunConfig::smoke_test();
//! let result = run_mix(mix, SchemeKind::Baseline, &cfg);
//! assert_eq!(result.cores.len(), 4);
//! assert!(result.weighted_ipc() > 0.0);
//! ```

mod feed;
pub mod system;

pub use system::{
    run_mix, run_mix_observed, run_mix_with_config, CoreResult, MixResult, ObservedRun, RunConfig,
    SchemeKind,
};
