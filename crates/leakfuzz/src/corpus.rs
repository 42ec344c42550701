//! The counterexample corpus: shrunk leak programs checked into
//! `crates/leakfuzz/corpus/*.json` and replayed by CI.
//!
//! Each entry records a minimal [`AccessProgram`] together with the
//! schemes it is *expected* to flag on (`leaky`) and the schemes it must
//! stay silent on (`clean`). Replaying the corpus is a drift detector in
//! both directions:
//!
//! * a `leaky` scheme going quiet means the harness lost its
//!   sensitivity (or someone "fixed" the Baseline by accident);
//! * a `clean` scheme starting to flag means an isolation regression —
//!   the exact bug class IvLeague exists to prevent.
//!
//! Files are JSON documents written through [`ivl_sim_core::json`], one
//! top-level member per line, so entries are hand-auditable and diff
//! line by line. The program's ops are strings in the grammar of
//! [`crate::program`]. A malformed entry is rejected with the file and the
//! member it concerns, such as `seed` or `program.prep[2]`.

use std::fs;
use std::path::{Path, PathBuf};

use ivl_sim_core::json::Json;
use ivl_simulator::system::SchemeKind;

use crate::harness::{run_program, HarnessConfig};
use crate::program::AccessProgram;

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Entry name (also the file stem by convention).
    pub name: String,
    /// Human note: where the program came from, what it exercises.
    pub note: String,
    /// Fuzzer case seed that produced the program (0 for hand-written).
    pub seed: u64,
    /// Sampled rounds per secret class used when judging the entry.
    pub rounds_per_class: usize,
    /// The (shrunk) program.
    pub program: AccessProgram,
    /// Schemes this program must flag on.
    pub leaky: Vec<SchemeKind>,
    /// Schemes this program must stay silent on.
    pub clean: Vec<SchemeKind>,
}

fn labels(kinds: &[SchemeKind]) -> Json {
    Json::Array(kinds.iter().map(|k| k.label().into()).collect())
}

/// The member `key` of the entry document, or an error naming it.
fn member<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("{key}: missing"))
}

fn parse_u64(doc: &Json, key: &str) -> Result<u64, String> {
    (member(doc, key)?.as_u64()).ok_or_else(|| format!("{key}: expected an unsigned integer"))
}

fn parse_string(doc: &Json, key: &str) -> Result<String, String> {
    let text = member(doc, key)?.as_str();
    text.map(str::to_string)
        .ok_or_else(|| format!("{key}: expected a string"))
}

fn parse_labels(doc: &Json, key: &str) -> Result<Vec<SchemeKind>, String> {
    let Json::Array(items) = member(doc, key)? else {
        return Err(format!("{key}: expected an array of scheme labels"));
    };
    let label = |(i, item): (usize, &Json)| {
        let text = item
            .as_str()
            .ok_or_else(|| format!("{key}[{i}]: expected a scheme label"))?;
        SchemeKind::from_label(text)
            .ok_or_else(|| format!("{key}[{i}]: unknown scheme label `{text}`"))
    };
    items.iter().enumerate().map(label).collect()
}

impl CorpusEntry {
    /// Serializes the entry as its JSON document, one top-level member
    /// per line.
    pub fn to_json(&self) -> String {
        let members = [
            ("name", Json::from(self.name.clone())),
            ("note", Json::from(self.note.clone())),
            ("seed", Json::U64(self.seed)),
            ("rounds_per_class", Json::U64(self.rounds_per_class as u64)),
            ("program", self.program.to_json()),
            ("leaky", labels(&self.leaky)),
            ("clean", labels(&self.clean)),
        ];
        let mut out = String::from("{\n");
        for (i, (key, value)) in members.iter().enumerate() {
            let comma = if i + 1 < members.len() { "," } else { "" };
            out.push_str(&format!("  \"{key}\": {value}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Parses an entry from its JSON document text. An error names the
    /// offending member (`seed`, `program.prep[2]`, …), or the byte offset
    /// where a malformed document stops parsing.
    pub fn from_json(text: &str) -> Result<CorpusEntry, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if !matches!(doc, Json::Object(_)) {
            return Err("expected a JSON object".to_string());
        }
        Ok(CorpusEntry {
            name: parse_string(&doc, "name")?,
            note: parse_string(&doc, "note")?,
            seed: parse_u64(&doc, "seed")?,
            rounds_per_class: (parse_u64(&doc, "rounds_per_class")?.try_into())
                .map_err(|_| "rounds_per_class: out of range".to_string())?,
            program: AccessProgram::from_json(member(&doc, "program")?, "program")?,
            leaky: parse_labels(&doc, "leaky")?,
            clean: parse_labels(&doc, "clean")?,
        })
    }

    /// Writes the entry to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Reads an entry from `path`.
    pub fn load(path: &Path) -> Result<CorpusEntry, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CorpusEntry::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Replays the entry: every `leaky` scheme must flag, every `clean`
    /// scheme must not. Returns human-readable violations (empty = pass).
    pub fn replay(&self, base: &HarnessConfig) -> Vec<String> {
        let cfg = HarnessConfig {
            rounds_per_class: self.rounds_per_class,
            ..*base
        };
        let mut violations = Vec::new();
        for &kind in &self.leaky {
            let report = run_program(kind, &self.program, &cfg);
            if !report.flagged {
                violations.push(format!(
                    "{}: {} no longer flags (max |t| = {:.2}, max gap = {:.1} cycles) — \
                     the harness lost its known leak",
                    self.name,
                    kind.label(),
                    report.max_abs_t(),
                    report.max_mean_gap()
                ));
            }
        }
        for &kind in &self.clean {
            let report = run_program(kind, &self.program, &cfg);
            if report.flagged {
                violations.push(format!(
                    "{}: {} now flags (max |t| = {:.2}, max gap = {:.1} cycles) — \
                     isolation regression",
                    self.name,
                    kind.label(),
                    report.max_abs_t(),
                    report.max_mean_gap()
                ));
            }
        }
        violations
    }
}

/// Loads every `.json` entry under `dir`, sorted by file name for
/// deterministic replay order.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusEntry)>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| CorpusEntry::load(&p).map(|e| (p, e)))
        .collect()
}

/// The checked-in corpus directory (relative to the crate, resolved at
/// compile time so tests and the binary agree).
pub fn default_corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

/// The corpus seed entry: the scripted MetaLeak Evict+Reload attack of
/// `crates/attack-sim`, expressed as an access program
/// ([`metaleak_program`](crate::program::metaleak_program)). The
/// checked-in `metaleak-evict-reload.json` is this entry verbatim
/// (`leakfuzz seed-corpus` regenerates it), so the corpus stays
/// mechanically in sync with the code.
pub fn metaleak_entry() -> CorpusEntry {
    CorpusEntry {
        name: "metaleak-evict-reload".into(),
        note: "scripted MetaLeak Evict+Reload (paper Fig. 2b) as an access program; \
               hand-seeded, not fuzzer-found"
            .into(),
        seed: 0,
        rounds_per_class: 48,
        program: crate::program::metaleak_program(),
        leaky: vec![SchemeKind::Baseline],
        clean: vec![
            SchemeKind::IvBasic,
            SchemeKind::IvInvert,
            SchemeKind::IvPro,
            SchemeKind::BvV1,
            SchemeKind::BvV2,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::metaleak_program;

    fn entry() -> CorpusEntry {
        CorpusEntry {
            name: "metaleak-evict-reload".into(),
            note: "scripted MetaLeak attack as a program".into(),
            // Above i64::MAX: the codec reads full-range u64 seeds.
            seed: 0xDEAD_BEEF_DEAD_BEEF,
            rounds_per_class: 32,
            program: metaleak_program(),
            leaky: vec![SchemeKind::Baseline],
            clean: vec![
                SchemeKind::IvBasic,
                SchemeKind::IvInvert,
                SchemeKind::IvPro,
                SchemeKind::BvV1,
                SchemeKind::BvV2,
            ],
        }
    }

    #[test]
    fn corpus_entry_round_trips_through_json() {
        let e = entry();
        let text = e.to_json();
        let back = CorpusEntry::from_json(&text).expect("parses");
        assert_eq!(e.name, back.name);
        assert_eq!(e.note, back.note);
        assert_eq!(e.seed, back.seed);
        assert_eq!(e.rounds_per_class, back.rounds_per_class);
        assert_eq!(e.program, back.program);
        assert_eq!(e.leaky, back.leaky);
        assert_eq!(e.clean, back.clean);
        // Serialization is canonical: a second round trip is textual
        // identity (what keeps corpus diffs clean).
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn unknown_scheme_labels_are_rejected() {
        let text = entry().to_json();
        let err = CorpusEntry::from_json(&text.replace("Baseline", "Fortress")).unwrap_err();
        assert_eq!(err, "leaky[0]: unknown scheme label `Fortress`");

        // A missing or wrongly typed member is named in the error.
        let no_program: String = (text.lines())
            .filter(|l| !l.contains("\"program\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = CorpusEntry::from_json(&no_program).unwrap_err();
        assert_eq!(err, "program: missing");
        let seed = format!("\"seed\": {},", 0xDEAD_BEEF_DEAD_BEEF_u64);
        let string_seed = text.replace(&seed, "\"seed\": \"0xdeadbeefdeadbeef\",");
        let err = CorpusEntry::from_json(&string_seed).unwrap_err();
        assert_eq!(err, "seed: expected an unsigned integer");

        // A truncated file fails with its path and where parsing stopped.
        let path = std::env::temp_dir().join(format!("ivl-truncated-{}.json", std::process::id()));
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let err = CorpusEntry::load(&path).unwrap_err();
        fs::remove_file(&path).unwrap();
        assert!(err.starts_with(&format!("{}: ", path.display())), "{err}");
        assert!(err.contains(" at byte "), "{err}");
    }

    #[test]
    fn checked_in_metaleak_entry_matches_the_code() {
        let path = default_corpus_dir().join("metaleak-evict-reload.json");
        let text = fs::read_to_string(&path).expect("seed corpus entry present");
        assert_eq!(
            text,
            metaleak_entry().to_json(),
            "seed entry drifted from the code; run `leakfuzz seed-corpus` to refresh"
        );
    }

    #[test]
    fn checked_in_corpus_parses_and_names_match_files() {
        let entries = load_dir(&default_corpus_dir()).expect("corpus loads");
        assert!(!entries.is_empty(), "corpus must not be empty");
        for (path, e) in &entries {
            assert_eq!(
                Some(e.name.as_str()),
                path.file_stem().and_then(|s| s.to_str()),
                "entry name should match its file stem"
            );
            assert!(!e.leaky.is_empty() || !e.clean.is_empty());
            assert!(!e.program.probes.is_empty());
        }
    }
}
