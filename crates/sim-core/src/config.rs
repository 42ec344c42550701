//! Architecture configuration (paper Table I) as plain data.
//!
//! Defaults reproduce the evaluated configuration: an 8-core out-of-order
//! processor with a three-level cache hierarchy, dual-channel 32 GiB main
//! memory, 8-way 256 KiB counter/tree metadata caches, an 8-ary Bonsai Merkle
//! Tree with split (64-bit major / 7-bit minor) counters, and the IvLeague
//! parameters (204 KiB LMM cache, 2-entry per-domain NFLB, 4-level TreeLings,
//! 4 Ki TreeLings, 128-entry hotpage tracker).

use crate::Cycle;

/// Geometry and latency of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in core cycles.
    pub hit_latency: Cycle,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> usize {
        let lines = self.capacity_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways),
            "cache capacity must be a multiple of ways * line size"
        );
        lines / self.ways
    }
}

/// Per-core pipeline and private-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Number of out-of-order cores.
    pub cores: usize,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Private L2 cache.
    pub l2: CacheConfig,
}

/// Shared last-level cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Geometry and latency.
    pub cache: CacheConfig,
}

/// DRAM device and channel timing (DDR-style, in memory-controller cycles
/// normalized to core cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Total main-memory capacity in bytes (32 GiB).
    pub capacity_bytes: u64,
    /// Independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: usize,
    /// Activate-to-column delay (tRCD) in core cycles.
    pub t_rcd: Cycle,
    /// Column access latency (tCAS) in core cycles.
    pub t_cas: Cycle,
    /// Precharge latency (tRP) in core cycles.
    pub t_rp: Cycle,
    /// Data burst occupancy per access in core cycles.
    pub t_burst: Cycle,
}

/// Secure-memory (encryption + integrity) configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecureMemConfig {
    /// AES engine latency for one-time-pad generation, cycles.
    pub aes_latency: Cycle,
    /// Keyed-hash latency per tree-node hash, cycles.
    pub hash_latency: Cycle,
    /// Integrity-tree arity (hashes per 64 B node).
    pub tree_arity: usize,
    /// Counter metadata cache (8-way 256 KiB).
    pub counter_cache: CacheConfig,
    /// Integrity-tree metadata cache (8-way 256 KiB).
    pub tree_cache: CacheConfig,
    /// MAC bytes per data block.
    pub mac_bytes: usize,
}

/// Which IvLeague variant a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IvVariant {
    /// IvLeague-Basic: leaf-only page mapping.
    Basic,
    /// IvLeague-Invert: top-down intermediate-node mapping (Section VII-A).
    Invert,
    /// IvLeague-Pro: Invert plus hotpage region and migration (Section VII-B).
    Pro,
}

impl IvVariant {
    /// All variants in evaluation order.
    pub const ALL: [IvVariant; 3] = [IvVariant::Basic, IvVariant::Invert, IvVariant::Pro];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            IvVariant::Basic => "IvLeague-Basic",
            IvVariant::Invert => "IvLeague-Invert",
            IvVariant::Pro => "IvLeague-Pro",
        }
    }
}

/// IvLeague mechanism parameters (Table I, "IvLeague Params").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvLeagueConfig {
    /// Levels of tree nodes inside each TreeLing, below (and including) the
    /// TreeLing root's children... precisely: a TreeLing root sits `levels`
    /// levels above the counter blocks, so one TreeLing covers
    /// `arity^levels` counter blocks (= pages, with 64-counter blocks).
    pub treeling_levels: usize,
    /// Number of TreeLings provisioned in the system (4 Ki).
    pub treeling_count: usize,
    /// LMM cache entries (8 Ki entries ≈ 204 KiB with 16-way organization).
    pub lmm_cache_entries: usize,
    /// LMM cache associativity.
    pub lmm_cache_ways: usize,
    /// LMM cache hit latency, cycles.
    pub lmm_hit_latency: Cycle,
    /// On-chip NFL buffer entries per domain.
    pub nflb_entries_per_domain: usize,
    /// NFL entries per in-memory NFL block (64 B block / 8 B entry).
    pub nfl_entries_per_block: usize,
    /// Hotpage tracker entries per domain (IvLeague-Pro).
    pub tracker_entries: usize,
    /// Access-counter width of the tracker, bits.
    pub tracker_counter_bits: u32,
    /// Accesses after which a tracked page is promoted to the hot region.
    pub hot_threshold: u32,
    /// Tracker decay interval (accesses) after which counters clear.
    pub tracker_clear_interval: u64,
    /// Fraction of each TreeLing's leaf capacity reserved for the hot region.
    pub hot_region_fraction: f64,
}

/// Complete system configuration (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core + private caches.
    pub core: CoreConfig,
    /// Shared LLC.
    pub llc: LlcConfig,
    /// DRAM.
    pub dram: DramConfig,
    /// Secure-memory engine.
    pub secure: SecureMemConfig,
    /// IvLeague parameters.
    pub ivleague: IvLeagueConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            core: CoreConfig {
                cores: 8,
                l1: CacheConfig {
                    capacity_bytes: 32 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    hit_latency: 4,
                },
                l2: CacheConfig {
                    capacity_bytes: 1024 * 1024,
                    ways: 4,
                    line_bytes: 64,
                    hit_latency: 12,
                },
            },
            llc: LlcConfig {
                cache: CacheConfig {
                    capacity_bytes: 8 * 1024 * 1024,
                    ways: 16,
                    line_bytes: 64,
                    hit_latency: 40,
                },
            },
            dram: DramConfig {
                capacity_bytes: 32 * 1024 * 1024 * 1024,
                channels: 2,
                ranks_per_channel: 2,
                banks_per_rank: 8,
                row_bytes: 8 * 1024,
                t_rcd: 44,
                t_cas: 44,
                t_rp: 44,
                t_burst: 16,
            },
            secure: SecureMemConfig {
                aes_latency: 20,
                hash_latency: 20,
                tree_arity: 8,
                counter_cache: CacheConfig {
                    capacity_bytes: 256 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    hit_latency: 8,
                },
                tree_cache: CacheConfig {
                    capacity_bytes: 256 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    hit_latency: 8,
                },
                mac_bytes: 8,
            },
            ivleague: IvLeagueConfig::default(),
        }
    }
}

impl Default for IvLeagueConfig {
    fn default() -> Self {
        IvLeagueConfig {
            treeling_levels: 5,
            treeling_count: 4096,
            lmm_cache_entries: 8192,
            lmm_cache_ways: 16,
            lmm_hit_latency: 2,
            nflb_entries_per_domain: 2,
            nfl_entries_per_block: 8,
            tracker_entries: 128,
            tracker_counter_bits: 8,
            hot_threshold: 16,
            tracker_clear_interval: 1_000_000,
            hot_region_fraction: 0.125,
        }
    }
}

impl SystemConfig {
    /// Total number of 4 KiB pages covered by main memory.
    pub fn total_pages(&self) -> u64 {
        self.dram.capacity_bytes / crate::addr::PAGE_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SystemConfig::default();
        assert_eq!(c.core.cores, 8);
        assert_eq!(c.core.l1.capacity_bytes, 32 * 1024);
        assert_eq!(c.core.l1.ways, 8);
        assert_eq!(c.core.l2.capacity_bytes, 1024 * 1024);
        assert_eq!(c.llc.cache.capacity_bytes, 8 * 1024 * 1024);
        assert_eq!(c.llc.cache.hit_latency, 40);
        assert_eq!(c.secure.aes_latency, 20);
        assert_eq!(c.ivleague.hot_threshold, 16);
        assert_eq!(c.secure.tree_arity, 8);
        assert_eq!(c.secure.tree_cache.capacity_bytes, 256 * 1024);
        assert_eq!(c.ivleague.treeling_count, 4096);
        assert_eq!(c.ivleague.nflb_entries_per_domain, 2);
        assert_eq!(c.ivleague.tracker_entries, 128);
        assert_eq!(c.dram.channels, 2);
        assert_eq!(c.total_pages(), 8 * 1024 * 1024);
    }

    #[test]
    fn cache_sets_geometry() {
        let c = CacheConfig {
            capacity_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency: 4,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn cache_sets_rejects_ragged_geometry() {
        let c = CacheConfig {
            capacity_bytes: 100,
            ways: 3,
            line_bytes: 64,
            hit_latency: 1,
        };
        let _ = c.sets();
    }

    #[test]
    fn variant_labels_are_paper_names() {
        assert_eq!(IvVariant::Basic.label(), "IvLeague-Basic");
        assert_eq!(IvVariant::ALL.len(), 3);
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let c = SystemConfig::default();
        let d = c.clone();
        assert_eq!(c, d);
    }
}
