//! The access-program grammar the fuzzer searches over, plus its textual
//! codec (corpus files are JSON documents, one op string per array item).
//!
//! A program describes one *round template* of an attacker/victim
//! interaction over a small shared page universe:
//!
//! 1. **prep** — attacker phase: metadata evictions (modeling successful
//!    conflict-eviction campaigns in the shared metadata caches) and plain
//!    warming accesses to the attacker's own pages;
//! 2. **victim** — victim phase: data accesses, each unconditional or
//!    conditioned on the victim's secret bit (`s1` executes only when the
//!    bit is set, `s0` only when clear);
//! 3. **probes** — attacker phase: timed reloads of attacker pages; each
//!    probe position is one latency sample per round.
//!
//! The harness replays the template for many rounds, alternating the
//! secret bit, and feeds the per-probe latency samples to the statistical
//! distinguisher. The attacker-visible part (prep + probes) is identical
//! in both secret classes by construction, so any distinguishable
//! per-probe distribution difference is a secret-correlated signal.
//!
//! # Page universe
//!
//! Pages are named by [`PageRef`] = (group, slot) over [`GROUPS`] level-2
//! sharing groups of 64 pages each, based at [`PAGE_BASE`]. Victim pages
//! occupy slots `0..8` of a group and attacker pages slots `8..16`, so an
//! attacker page always shares its group's level-2 tree node with the
//! group's victim pages under the global tree (the MetaLeak precondition)
//! while never sharing a leaf node, a counter block, or the page itself —
//! the same placement the scripted attack uses
//! (`ivl_attack::colocated_attacker_page`).

use std::fmt;

use ivl_sim_core::addr::PageNum;
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::json::Json;

/// First page of the shared universe (level-2-group aligned).
pub const PAGE_BASE: u64 = 1_000_000;

/// Level-2 sharing groups in the universe.
pub const GROUPS: u8 = 2;

/// Victim (and attacker) page slots per group.
pub const SLOTS: u8 = 8;

/// The victim's domain in every generated program.
pub const VICTIM_DOMAIN: DomainId = DomainId::new_unchecked(1);

/// The attacker's domain in every generated program.
pub const ATTACKER_DOMAIN: DomainId = DomainId::new_unchecked(2);

/// A page name in the shared universe: `group` selects a 64-page level-2
/// sharing group, `slot` a page within the role's half of the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageRef {
    /// Level-2 sharing group, `0..GROUPS`.
    pub group: u8,
    /// Page slot within the role's range, `0..SLOTS`.
    pub slot: u8,
}

impl PageRef {
    /// The victim-owned page this reference names (offsets `0..8`).
    pub fn victim_page(self) -> PageNum {
        PageNum::new(PAGE_BASE + self.group as u64 * 64 + self.slot as u64)
    }

    /// The attacker-owned page this reference names (offsets `8..16`:
    /// same level-2 group as the victim slots, different leaf group).
    pub fn attacker_page(self) -> PageNum {
        PageNum::new(PAGE_BASE + self.group as u64 * 64 + 8 + self.slot as u64)
    }
}

impl fmt::Display for PageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.group, self.slot)
    }
}

/// When a victim op executes relative to the secret bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Every round.
    Always,
    /// Only in secret=1 rounds.
    SecretSet,
    /// Only in secret=0 rounds.
    SecretClear,
}

impl When {
    /// Whether an op with this condition runs in a round with `secret`.
    pub fn applies(self, secret: bool) -> bool {
        match self {
            When::Always => true,
            When::SecretSet => secret,
            When::SecretClear => !secret,
        }
    }

    fn token(self) -> &'static str {
        match self {
            When::Always => "always",
            When::SecretSet => "s1",
            When::SecretClear => "s0",
        }
    }
}

/// One attacker prep-phase operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepOp {
    /// Evict the metadata (counter block + tree path) of a victim page —
    /// a cross-domain conflict eviction in the shared metadata caches.
    EvictVictimMeta(PageRef),
    /// Evict the metadata of one of the attacker's own pages (resets the
    /// attacker's probe state so the following reload walks the tree).
    EvictAttackerMeta(PageRef),
    /// Plain attacker data access (warms attacker-side state).
    Touch {
        /// Attacker page accessed.
        page: PageRef,
        /// Write access (else read).
        write: bool,
    },
}

/// One victim-phase operation: a data access, possibly secret-conditional.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimOp {
    /// Victim page accessed.
    pub page: PageRef,
    /// Write access (else read).
    pub write: bool,
    /// Execution condition relative to the secret bit.
    pub when: When,
}

/// A full round template. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessProgram {
    /// Attacker prep phase, executed first each round.
    pub prep: Vec<PrepOp>,
    /// Victim phase.
    pub victim: Vec<VictimOp>,
    /// Attacker probe phase: each entry is a timed reload of an attacker
    /// page and contributes one latency sample per round.
    pub probes: Vec<PageRef>,
}

fn rw_token(write: bool) -> &'static str {
    if write {
        "w"
    } else {
        "r"
    }
}

impl AccessProgram {
    /// Victim pages the program references (sorted, deduplicated) — the
    /// setup phase allocates these into [`VICTIM_DOMAIN`].
    pub fn victim_pages(&self) -> Vec<PageNum> {
        let mut pages: Vec<PageNum> = self
            .prep
            .iter()
            .filter_map(|op| match op {
                PrepOp::EvictVictimMeta(r) => Some(r.victim_page()),
                _ => None,
            })
            .chain(self.victim.iter().map(|op| op.page.victim_page()))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Attacker pages the program references (sorted, deduplicated) — the
    /// setup phase allocates these into [`ATTACKER_DOMAIN`].
    pub fn attacker_pages(&self) -> Vec<PageNum> {
        let mut pages: Vec<PageNum> = self
            .prep
            .iter()
            .filter_map(|op| match op {
                PrepOp::EvictAttackerMeta(r) => Some(r.attacker_page()),
                PrepOp::Touch { page, .. } => Some(page.attacker_page()),
                PrepOp::EvictVictimMeta(_) => None,
            })
            .chain(self.probes.iter().map(|r| r.attacker_page()))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// The program as a JSON object of three op-string arrays, `{"prep":
    /// ["evict v 0 3", …], "victim": […], "probes": […]}`, each in program
    /// order.
    pub fn to_json(&self) -> Json {
        let strings = |ops: Vec<String>| Json::Array(ops.into_iter().map(Json::from).collect());
        let prep = self.prep.iter().map(|op| match op {
            PrepOp::EvictVictimMeta(r) => format!("evict v {r}"),
            PrepOp::EvictAttackerMeta(r) => format!("evict a {r}"),
            PrepOp::Touch { page, write } => format!("touch {} {page}", rw_token(*write)),
        });
        let victim = (self.victim.iter())
            .map(|op| format!("{} {} {}", op.when.token(), rw_token(op.write), op.page));
        let probes = self.probes.iter().map(|r| format!("probe {r}"));
        Json::object([
            ("prep", strings(prep.collect())),
            ("victim", strings(victim.collect())),
            ("probes", strings(probes.collect())),
        ])
    }

    /// Parses a program written by [`to_json`](Self::to_json). `path` names
    /// `v` in the enclosing document (`program`), so an error names the
    /// member it concerns, such as `program.prep[2]`.
    pub fn from_json(v: &Json, path: &str) -> Result<AccessProgram, String> {
        let mut prog = AccessProgram::default();
        for phase in ["prep", "victim", "probes"] {
            let Some(Json::Array(ops)) = v.get(phase) else {
                return Err(format!("{path}.{phase}: expected an array of op strings"));
            };
            for (i, op) in ops.iter().enumerate() {
                let at = || format!("{path}.{phase}[{i}]");
                let text = op
                    .as_str()
                    .ok_or_else(|| format!("{}: expected an op string", at()))?;
                prog.push_op(phase, text)
                    .map_err(|msg| format!("{}: {msg} in `{text}`", at()))?;
            }
        }
        Ok(prog)
    }

    /// Parses one op string of `phase` and appends it to the program.
    fn push_op(&mut self, phase: &str, text: &str) -> Result<(), &'static str> {
        let toks: Vec<&str> = text.split_whitespace().collect();
        let page_at = |idx: usize| -> Result<PageRef, &'static str> {
            let group: u8 = toks
                .get(idx)
                .and_then(|t| t.parse().ok())
                .ok_or("bad group")?;
            let slot: u8 = toks
                .get(idx + 1)
                .and_then(|t| t.parse().ok())
                .ok_or("bad slot")?;
            if group >= GROUPS || slot >= SLOTS {
                return Err("page out of universe");
            }
            Ok(PageRef { group, slot })
        };
        let write_at = |idx: usize| match toks.get(idx).copied() {
            Some("r") => Ok(false),
            Some("w") => Ok(true),
            _ => Err("expected `r` or `w`"),
        };
        match (phase, toks.first().copied()) {
            ("prep", Some("evict")) => {
                let r = page_at(2)?;
                match toks.get(1).copied() {
                    Some("v") => self.prep.push(PrepOp::EvictVictimMeta(r)),
                    Some("a") => self.prep.push(PrepOp::EvictAttackerMeta(r)),
                    _ => return Err("expected `v` or `a`"),
                }
            }
            ("prep", Some("touch")) => self.prep.push(PrepOp::Touch {
                write: write_at(1)?,
                page: page_at(2)?,
            }),
            ("victim", Some(when_tok)) => {
                let when = match when_tok {
                    "always" => When::Always,
                    "s1" => When::SecretSet,
                    "s0" => When::SecretClear,
                    _ => return Err("expected always|s1|s0"),
                };
                self.victim.push(VictimOp {
                    write: write_at(1)?,
                    page: page_at(2)?,
                    when,
                });
            }
            ("probes", Some("probe")) => self.probes.push(page_at(1)?),
            _ => return Err("unknown op"),
        }
        Ok(())
    }
}

/// The scripted MetaLeak Evict+Reload attack of `crates/attack-sim`,
/// expressed as an access program: the victim's `sqr` page (group 0) is
/// touched every round, its `mul` page (group 1) only when the secret bit
/// is set; the attacker evicts all four pages' metadata and times a reload
/// of its co-located page in each group. Under the global tree the group-1
/// probe is fast exactly when the victim touched `mul` — the paper's
/// Figure 2b channel; under IvLeague both probe distributions are
/// identical.
pub fn metaleak_program() -> AccessProgram {
    let sqr = PageRef { group: 0, slot: 0 };
    let mul = PageRef { group: 1, slot: 0 };
    AccessProgram {
        prep: vec![
            PrepOp::EvictVictimMeta(sqr),
            PrepOp::EvictVictimMeta(mul),
            PrepOp::EvictAttackerMeta(sqr),
            PrepOp::EvictAttackerMeta(mul),
        ],
        victim: vec![
            VictimOp {
                page: sqr,
                write: false,
                when: When::Always,
            },
            VictimOp {
                page: mul,
                write: false,
                when: When::SecretSet,
            },
        ],
        probes: vec![sqr, mul],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_placement_matches_the_metaleak_precondition() {
        for g in 0..GROUPS {
            for s in 0..SLOTS {
                let r = PageRef { group: g, slot: s };
                let v = r.victim_page();
                let a = r.attacker_page();
                assert_eq!(v.index() / 64, a.index() / 64, "same level-2 group");
                assert_ne!(v.index() / 8, a.index() / 8, "different leaf group");
                assert_ne!(v.index(), a.index());
            }
        }
        // Matches the scripted attack's co-location function for slot 0.
        let r = PageRef { group: 0, slot: 0 };
        assert_eq!(
            r.attacker_page(),
            ivl_attack::colocated_attacker_page(r.victim_page())
        );
    }

    #[test]
    fn json_codec_round_trips() {
        let prog = AccessProgram {
            prep: vec![
                PrepOp::EvictVictimMeta(PageRef { group: 1, slot: 3 }),
                PrepOp::EvictAttackerMeta(PageRef { group: 0, slot: 7 }),
                PrepOp::Touch {
                    page: PageRef { group: 1, slot: 0 },
                    write: true,
                },
            ],
            victim: vec![
                VictimOp {
                    page: PageRef { group: 0, slot: 2 },
                    write: false,
                    when: When::SecretSet,
                },
                VictimOp {
                    page: PageRef { group: 1, slot: 5 },
                    write: true,
                    when: When::SecretClear,
                },
                VictimOp {
                    page: PageRef { group: 0, slot: 0 },
                    write: false,
                    when: When::Always,
                },
            ],
            probes: vec![PageRef { group: 1, slot: 3 }, PageRef { group: 0, slot: 7 }],
        };
        let text = prog.to_json().to_string();
        let parsed = Json::parse(&text).expect("JSON parses");
        let back = AccessProgram::from_json(&parsed, "program").expect("program parses");
        assert_eq!(prog, back);
    }

    #[test]
    fn codec_rejects_out_of_universe_pages() {
        let err = |text: &str| {
            let v = Json::parse(text).unwrap();
            AccessProgram::from_json(&v, "p").unwrap_err()
        };
        assert_eq!(
            err(r#"{"prep": [], "victim": [], "probes": ["probe 9 0"]}"#),
            "p.probes[0]: page out of universe in `probe 9 0`"
        );
        assert_eq!(
            err(r#"{"prep": ["evict x 0 0"], "victim": [], "probes": []}"#),
            "p.prep[0]: expected `v` or `a` in `evict x 0 0`"
        );
        // A missing phase and a wrongly typed op name their member.
        assert_eq!(
            err(r#"{"prep": [], "probes": []}"#),
            "p.victim: expected an array of op strings"
        );
        assert_eq!(
            err(r#"{"prep": ["evict v 0 0", "touch r 1 1", 7], "victim": [], "probes": []}"#),
            "p.prep[2]: expected an op string"
        );
    }

    #[test]
    fn page_collection_is_sorted_and_deduped() {
        let prog = metaleak_program();
        let v = prog.victim_pages();
        let a = prog.attacker_pages();
        assert_eq!(
            v,
            vec![PageNum::new(PAGE_BASE), PageNum::new(PAGE_BASE + 64)]
        );
        assert_eq!(
            a,
            vec![PageNum::new(PAGE_BASE + 8), PageNum::new(PAGE_BASE + 72)]
        );
    }

    #[test]
    fn when_conditions_apply_correctly() {
        assert!(When::Always.applies(true) && When::Always.applies(false));
        assert!(When::SecretSet.applies(true) && !When::SecretSet.applies(false));
        assert!(!When::SecretClear.applies(true) && When::SecretClear.applies(false));
    }
}
