//! The metadata side-channel attack of paper §IV (MetaLeak-style
//! Evict+Reload over shared integrity-tree nodes) — and its defeat by
//! IvLeague.
//!
//! The attacker targets the square-and-multiply RSA victim: per exponent
//! bit the victim always touches its `sqr` code page and touches the `mul`
//! page only for set bits. Under a **global** integrity tree, the attacker
//! picks own pages `P¹ₐ`/`P²ₐ` that share a level-2 tree node with the
//! victim's `sqr`/`mul` pages, evicts the shared node (plus the counter
//! blocks that would short-circuit the walk), lets the victim step one bit,
//! and times its own access: a short latency means the victim's
//! verification already re-fetched the shared node — the bit leaks.
//!
//! Under **IvLeague** the victim's verification path lies entirely inside
//! the victim's own TreeLings, so no attacker page can share a node and the
//! timing observation carries no signal: recovery accuracy collapses to
//! coin-flipping.
//!
//! # Examples
//!
//! ```
//! use ivl_attack::{run_attack, AttackConfig, TargetScheme};
//!
//! let cfg = AttackConfig { bits: 64, noise: 0.0, seed: 1 };
//! let leak = run_attack(TargetScheme::GlobalTree, &cfg);
//! assert!(leak.accuracy > 0.95);
//! let safe = run_attack(TargetScheme::IvLeague, &cfg);
//! assert!(safe.accuracy < 0.75);
//! ```

pub mod driver;

use ivl_sim_core::addr::PageNum;
use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::obs::Obs;
use ivl_sim_core::rng::Xoshiro256;
use ivl_sim_core::Cycle;
use ivl_simulator::system::SchemeKind;
use ivl_workloads::rsa::SquareMultiplyVictim;

use crate::driver::SchemeDriver;

/// Which integrity scheme the attack runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetScheme {
    /// The shared global Bonsai Merkle Tree (vulnerable).
    GlobalTree,
    /// IvLeague (isolated TreeLings; any variant behaves identically for
    /// the attack — Basic is used).
    IvLeague,
}

impl TargetScheme {
    /// The simulator scheme this target maps to.
    pub fn scheme_kind(self) -> SchemeKind {
        match self {
            TargetScheme::GlobalTree => SchemeKind::Baseline,
            TargetScheme::IvLeague => SchemeKind::IvBasic,
        }
    }
}

/// Attack parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Exponent bits to recover (the paper uses 2048).
    pub bits: usize,
    /// Probability that one observation round is spoiled by system noise
    /// (failed eviction / interfering prefetch).
    pub noise: f64,
    /// RNG seed (exponent + noise).
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            bits: 2048,
            noise: 0.17,
            seed: 0xA77AC4,
        }
    }
}

/// One per-bit observation (the Figure 3 trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    /// Bit index.
    pub bit: usize,
    /// Attacker-observed latency reloading `P¹ₐ` (sqr probe), cycles.
    pub p1_latency: Cycle,
    /// Attacker-observed latency reloading `P²ₐ` (mul probe), cycles.
    pub p2_latency: Cycle,
    /// Ground-truth bit.
    pub truth: bool,
    /// The attacker's guess.
    pub guess: bool,
}

/// Attack outcome.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Per-bit latency trace.
    pub samples: Vec<LatencySample>,
    /// Fraction of exponent bits recovered correctly.
    pub accuracy: f64,
    /// The latency threshold the attacker calibrated.
    pub threshold: Cycle,
}

/// Victim/attacker page placement: the attacker page shares the victim
/// page's level-2 tree node (same 64-page group) but not its leaf (different
/// 8-page group).
pub fn colocated_attacker_page(victim: PageNum) -> PageNum {
    let group = victim.index() / 64;
    let candidate = group * 64 + ((victim.index() % 64) + 8) % 64;
    PageNum::new(candidate)
}

/// The eviction step: flush the shared level-2 node, the leaves below it,
/// and the counter blocks of all involved pages (paper Figure 2b ❶).
fn evict(drv: &mut SchemeDriver, pages: &[PageNum]) {
    for &page in pages {
        drv.evict_page_meta(page);
    }
}

/// Runs the end-to-end attack.
pub fn run_attack(target: TargetScheme, cfg: &AttackConfig) -> AttackResult {
    run_attack_with_obs(target, cfg, &Obs::disabled())
}

/// Runs the end-to-end attack while emitting attacker [`EventKind::Probe`]
/// observations (and the target scheme's own events) through `obs`. The
/// forensics helper
/// [`probe_observations`](ivl_sim_core::obs::trace::probe_observations)
/// reconstructs exactly the attacker's timing view from the resulting
/// trace.
pub fn run_attack_with_obs(target: TargetScheme, cfg: &AttackConfig, obs: &Obs) -> AttackResult {
    let sys = SystemConfig::default();
    let mut rng = Xoshiro256::seed_from(cfg.seed);

    let victim_domain = DomainId::new_unchecked(1);
    let attacker_domain = DomainId::new_unchecked(2);

    // Victim pages sit in one level-2 sharing group region; attacker pages
    // are chosen to share the level-2 node (useful only under GlobalTree).
    let sqr_page = PageNum::new(1_000_000);
    let mul_page = PageNum::new(1_000_128); // a different level-2 group
    let p1a = colocated_attacker_page(sqr_page);
    let p2a = colocated_attacker_page(mul_page);

    let victim = SquareMultiplyVictim::random(cfg.bits, sqr_page, mul_page, cfg.seed ^ 0x5EC);

    let mut drv = SchemeDriver::with_obs(target.scheme_kind(), &sys, obs);

    // Touch all pages once so IvLeague maps them (the OS has allocated the
    // victim's enclave pages and the attacker's pages).
    for page in [sqr_page, mul_page, p1a, p2a] {
        let dom = if page == p1a || page == p2a {
            attacker_domain
        } else {
            victim_domain
        };
        drv.page_alloc(page, dom, 100);
        drv.access_block(page.block(0), dom, true, 100);
    }

    // Calibration: measure the attacker's reload latency with the shared
    // node evicted vs primed, to pick a threshold.
    let mut slow_sum = 0u64;
    let mut fast_sum = 0u64;
    const CAL_ROUNDS: u64 = 16;
    for _ in 0..CAL_ROUNDS {
        // Slow: nothing primed the shared node.
        evict(&mut drv, &[sqr_page, mul_page, p1a, p2a]);
        slow_sum += drv.probe(p1a, attacker_domain, 0, false);
        // Fast: the victim's sqr (always executed) primes it.
        evict(&mut drv, &[sqr_page, mul_page, p1a, p2a]);
        for b in victim.step(0).accesses.iter().take(4) {
            drv.access_block(*b, victim_domain, false, 50);
        }
        fast_sum += drv.probe(p1a, attacker_domain, 0, false);
    }
    let threshold = (slow_sum / CAL_ROUNDS + fast_sum / CAL_ROUNDS) / 2;

    // The attack proper: evict → victim step → reload both probes
    // (paper Figure 2b: ❶ eviction, victim access, ❷ reload).
    let mut samples = Vec::with_capacity(cfg.bits);
    let mut correct = 0usize;
    for step in victim.steps() {
        evict(&mut drv, &[sqr_page, mul_page, p1a, p2a]);
        for b in &step.accesses {
            drv.access_block(*b, victim_domain, false, 50);
        }
        let spoiled = rng.chance(cfg.noise);
        let bit = step.bit.min(u32::MAX as usize) as u32;
        let p1 = drv.probe(p1a, attacker_domain, bit, true);
        let p2 = drv.probe(p2a, attacker_domain, bit, true);
        let guess = if spoiled {
            rng.chance(0.5)
        } else {
            p2 < threshold
        };
        if guess == step.value {
            correct += 1;
        }
        samples.push(LatencySample {
            bit: step.bit,
            p1_latency: p1,
            p2_latency: p2,
            truth: step.value,
            guess,
        });
    }

    AttackResult {
        accuracy: correct as f64 / cfg.bits as f64,
        samples,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bits: usize, noise: f64) -> AttackConfig {
        AttackConfig {
            bits,
            noise,
            seed: 99,
        }
    }

    #[test]
    fn global_tree_leaks_cleanly_without_noise() {
        let r = run_attack(TargetScheme::GlobalTree, &cfg(256, 0.0));
        assert!(r.accuracy > 0.97, "accuracy {}", r.accuracy);
    }

    #[test]
    fn global_tree_with_noise_matches_paper_regime() {
        let r = run_attack(TargetScheme::GlobalTree, &cfg(2048, 0.17));
        assert!(
            (0.85..=1.0).contains(&r.accuracy),
            "accuracy {}",
            r.accuracy
        );
    }

    #[test]
    fn ivleague_reduces_attack_to_chance() {
        let r = run_attack(TargetScheme::IvLeague, &cfg(512, 0.0));
        assert!(
            (0.3..=0.72).contains(&r.accuracy),
            "accuracy {} should be near 0.5",
            r.accuracy
        );
    }

    #[test]
    fn latency_trace_is_bimodal_under_global_tree() {
        let r = run_attack(TargetScheme::GlobalTree, &cfg(128, 0.0));
        let fast: Vec<_> = r.samples.iter().filter(|s| s.truth).collect();
        let slow: Vec<_> = r.samples.iter().filter(|s| !s.truth).collect();
        assert!(!fast.is_empty() && !slow.is_empty());
        let avg =
            |v: &[&LatencySample]| v.iter().map(|s| s.p2_latency).sum::<u64>() / v.len() as u64;
        assert!(
            avg(&fast) + 20 < avg(&slow),
            "fast {} vs slow {}",
            avg(&fast),
            avg(&slow)
        );
    }

    #[test]
    fn traced_attack_reconstructs_the_timing_view() {
        use ivl_sim_core::obs::trace::probe_observations;
        use ivl_sim_core::obs::{TraceFilter, Tracer};

        let obs = Obs {
            tracer: Tracer::bounded(1 << 20, TraceFilter::default()),
            timeline: ivl_sim_core::obs::Timeline::disabled(),
        };
        let r = run_attack_with_obs(TargetScheme::GlobalTree, &cfg(64, 0.0), &obs);
        let records = obs.tracer.sorted_records();
        let probes = probe_observations(&records);

        // Two probes per recovered bit (sqr then mul), none from
        // calibration, and the latencies match the reported samples.
        assert_eq!(probes.len(), 2 * r.samples.len());
        for (s, pair) in r.samples.iter().zip(probes.chunks(2)) {
            assert_eq!(pair[0], (s.bit as u32, s.p1_latency));
            assert_eq!(pair[1], (s.bit as u32, s.p2_latency));
        }
        // The victim's metadata traffic is in the trace too — the access
        // pattern the attacker is actually measuring.
        assert!(
            records
                .iter()
                .any(|rec| rec.component == "scheme" && rec.domain.is_some()),
            "scheme-side metadata events missing"
        );
        // Untraced runs return identical results.
        let plain = run_attack(TargetScheme::GlobalTree, &cfg(64, 0.0));
        assert_eq!(plain.samples, r.samples);
    }

    #[test]
    fn attacker_page_shares_level2_not_leaf() {
        let v = PageNum::new(1_000_000);
        let a = colocated_attacker_page(v);
        assert_eq!(v.index() / 64, a.index() / 64, "same level-2 group");
        assert_ne!(v.index() / 8, a.index() / 8, "different leaf");
    }
}
