//! The fuzz loop: generate → run on every scheme → shrink what flags.
//!
//! Determinism contract: with the same master seed and case count the
//! loop visits identical programs and produces identical findings, on any
//! machine — per-case seeds come from a splitmix64 chain over the master
//! seed, so case *i* is reproducible in isolation (`case_seed` is recorded
//! in every finding and corpus entry). The wall-clock budget only decides
//! *when to stop*, never what any case does, so a budget-limited run is a
//! prefix of the unlimited run.

use std::time::{Duration, Instant};

use ivl_simulator::system::SchemeKind;
use ivl_testkit::prop::{shrink_to_minimal, Strategy};
use ivl_testkit::rng::{splitmix64, TestRng};

use crate::gen::ProgramStrategy;
use crate::harness::{run_program, HarnessConfig, ProgramReport};
use crate::program::AccessProgram;

/// Fuzz loop parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed (`IVL_FUZZ_SEED`).
    pub seed: u64,
    /// Hard cap on generated cases (`None` = unlimited).
    pub max_cases: Option<u64>,
    /// Wall-clock budget (`IVL_FUZZ_BUDGET_SECS`; `None` = unlimited).
    pub budget: Option<Duration>,
    /// Schemes every program runs against.
    pub schemes: Vec<SchemeKind>,
    /// Measurement parameters.
    pub harness: HarnessConfig,
    /// Shrink candidate-evaluation cap per finding.
    pub shrink_steps: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x1EAC_F055,
            max_cases: None,
            budget: Some(Duration::from_secs(60)),
            // Every scheme with an isolation story, plus the Baseline it
            // is measured against. Insecure is excluded: it has no
            // metadata, so there is nothing to leak or protect.
            schemes: SchemeKind::ALL
                .into_iter()
                .filter(|k| *k != SchemeKind::Insecure)
                .collect(),
            harness: HarnessConfig::default(),
            shrink_steps: 512,
        }
    }
}

/// One confirmed, shrunk leak.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Scheme the program distinguishes secrets on.
    pub scheme: SchemeKind,
    /// Zero-based fuzz case index that found it.
    pub case_index: u64,
    /// The per-case seed (reproduces the original program alone).
    pub case_seed: u64,
    /// The shrunk program (still flagging).
    pub program: AccessProgram,
    /// Report of the shrunk program on `scheme`.
    pub report: ProgramReport,
    /// Shrink candidate evaluations spent.
    pub shrink_steps: u32,
}

/// Fuzz run summary.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Cases generated and executed.
    pub cases_run: u64,
    /// Deduplicated findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Whether the wall-clock budget (not the case cap) ended the run.
    pub stopped_by_budget: bool,
}

impl FuzzOutcome {
    /// Findings on schemes whose isolation story says they must be clean.
    pub fn protected_findings(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.scheme.is_protected())
            .collect()
    }
}

/// Runs the fuzz loop. `on_finding` fires once per deduplicated finding,
/// after shrinking (the binary uses it for progress output and trace
/// dumps).
pub fn fuzz_with<F>(cfg: &FuzzConfig, mut on_finding: F) -> FuzzOutcome
where
    F: FnMut(&Finding),
{
    let strategy = ProgramStrategy::new();
    let start = Instant::now();
    let mut outcome = FuzzOutcome::default();
    let mut seen: Vec<(SchemeKind, AccessProgram)> = Vec::new();
    let mut chain = cfg.seed;

    for case_index in 0.. {
        if cfg.max_cases.is_some_and(|cap| case_index >= cap) {
            break;
        }
        if cfg.budget.is_some_and(|b| start.elapsed() >= b) {
            outcome.stopped_by_budget = true;
            break;
        }
        let (case_seed, next) = splitmix64(chain);
        chain = next;
        let mut rng = TestRng::seed_from(case_seed);
        let program = strategy.generate(&mut rng);
        outcome.cases_run = case_index + 1;

        for &scheme in &cfg.schemes {
            let report = run_program(scheme, &program, &cfg.harness);
            if !report.flagged {
                continue;
            }
            let (minimal, shrink_steps) = shrink_to_minimal(
                &strategy,
                program.clone(),
                |p| run_program(scheme, p, &cfg.harness).flagged,
                cfg.shrink_steps,
            );
            if seen.iter().any(|(s, p)| *s == scheme && *p == minimal) {
                continue;
            }
            seen.push((scheme, minimal.clone()));
            let finding = Finding {
                scheme,
                case_index,
                case_seed,
                report: run_program(scheme, &minimal, &cfg.harness),
                program: minimal,
                shrink_steps,
            };
            on_finding(&finding);
            outcome.findings.push(finding);
        }
    }
    outcome
}

/// [`fuzz_with`] without a finding callback.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    fuzz_with(cfg, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(cases: u64) -> FuzzConfig {
        FuzzConfig {
            seed: 0xF00D,
            max_cases: Some(cases),
            budget: None,
            schemes: vec![SchemeKind::Baseline, SchemeKind::IvPro],
            harness: HarnessConfig {
                rounds_per_class: 24,
                ..HarnessConfig::default()
            },
            shrink_steps: 256,
        }
    }

    #[test]
    fn fuzzer_rediscovers_the_baseline_leak_quickly() {
        let outcome = fuzz(&quick_cfg(6));
        let baseline: Vec<_> = outcome
            .findings
            .iter()
            .filter(|f| f.scheme == SchemeKind::Baseline)
            .collect();
        assert!(
            !baseline.is_empty(),
            "six link-biased cases must rediscover the Baseline channel"
        );
        // Shrunk findings still flag and are small.
        for f in baseline {
            assert!(f.report.flagged);
            assert!(
                f.program.prep.len() + f.program.victim.len() + f.program.probes.len() <= 8,
                "shrinking should leave a small program, got {:?}",
                f.program
            );
        }
        assert!(
            outcome.protected_findings().is_empty(),
            "IvLeague-Pro must stay clean: {:?}",
            outcome.protected_findings()
        );
    }

    #[test]
    fn same_seed_and_case_count_reproduce_identical_findings() {
        let a = fuzz(&quick_cfg(4));
        let b = fuzz(&quick_cfg(4));
        assert_eq!(a.cases_run, b.cases_run);
        assert_eq!(a.findings.len(), b.findings.len());
        for (x, y) in a.findings.iter().zip(b.findings.iter()) {
            assert_eq!(x.scheme, y.scheme);
            assert_eq!(x.case_index, y.case_index);
            assert_eq!(x.case_seed, y.case_seed);
            assert_eq!(x.program, y.program);
        }
    }

    #[test]
    fn different_seeds_explore_different_programs() {
        let a = fuzz(&quick_cfg(2));
        let mut cfg = quick_cfg(2);
        cfg.seed ^= 0xDEAD_BEEF;
        let b = fuzz(&cfg);
        let programs = |o: &FuzzOutcome| o.findings.iter().map(|f| f.case_seed).collect::<Vec<_>>();
        // Case seeds derive from the master seed, so the streams differ
        // even when both runs happen to find something.
        if !a.findings.is_empty() && !b.findings.is_empty() {
            assert_ne!(programs(&a), programs(&b));
        }
    }

    #[test]
    fn case_cap_bounds_the_run() {
        let outcome = fuzz(&quick_cfg(3));
        assert_eq!(outcome.cases_run, 3);
        assert!(!outcome.stopped_by_budget);
    }
}
