//! Key=value document serializer over a TOML subset (in-tree `serde`
//! stand-in for the `ivl-leakfuzz` corpus files).
//!
//! A document is a flat map from dotted keys (`core.l1.capacity_bytes`)
//! to scalar values. Serialization groups keys by their dotted prefix
//! into `[section]` headers, producing a file any TOML reader would also
//! accept for this subset:
//!
//! ```toml
//! [core.l1]
//! capacity_bytes = 32768
//! hit_latency = 4
//! ```
//!
//! Supported values: integers (`i64`), floats (round-trip via shortest
//! decimal form), booleans, and double-quoted strings with `\"`, `\\`,
//! `\n` escapes. Comments (`# ...`) and blank lines are ignored when
//! parsing. Unknown keys are preserved in the document (callers decide
//! strictness).

use std::collections::BTreeMap;
use std::fmt;

/// A scalar value in a document.
#[derive(Debug, Clone, PartialEq)]
pub enum KvValue {
    /// Integer (covers every integer field in the workspace configs).
    Int(i64),
    /// IEEE-754 double.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String (serialized double-quoted).
    Str(String),
}

impl fmt::Display for KvValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvValue::Int(v) => write!(f, "{v}"),
            // `{:?}` prints the shortest decimal that round-trips and
            // always keeps a `.` or exponent, so ints and floats stay
            // distinguishable in the text form.
            KvValue::Float(v) => write!(f, "{v:?}"),
            KvValue::Bool(v) => write!(f, "{v}"),
            KvValue::Str(v) => {
                write!(f, "\"")?;
                for c in v.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
        }
    }
}

/// Errors from parsing or typed access.
#[derive(Debug, Clone, PartialEq)]
pub enum KvError {
    /// Malformed input line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A required key is absent.
    MissingKey(String),
    /// A key exists with an incompatible type.
    TypeMismatch {
        /// The dotted key.
        key: String,
        /// Expected type name.
        expected: &'static str,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            KvError::MissingKey(key) => write!(f, "missing key `{key}`"),
            KvError::TypeMismatch { key, expected } => {
                write!(f, "key `{key}` is not of type {expected}")
            }
        }
    }
}

impl std::error::Error for KvError {}

/// A flat dotted-key document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KvDoc {
    entries: BTreeMap<String, KvValue>,
}

impl KvDoc {
    /// Empty document.
    pub fn new() -> Self {
        KvDoc::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the document has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets a raw value.
    pub fn set(&mut self, key: &str, value: KvValue) {
        self.entries.insert(key.to_string(), value);
    }

    /// Sets an unsigned integer (must fit `i64`, which every config
    /// field in this workspace does).
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds `i64::MAX`.
    pub fn set_u64(&mut self, key: &str, value: u64) {
        let v = i64::try_from(value).expect("config integer exceeds i64");
        self.set(key, KvValue::Int(v));
    }

    /// Sets a `usize` value.
    pub fn set_usize(&mut self, key: &str, value: usize) {
        self.set_u64(key, value as u64);
    }

    /// Sets a float value.
    pub fn set_f64(&mut self, key: &str, value: f64) {
        self.set(key, KvValue::Float(value));
    }

    /// Sets a boolean value.
    pub fn set_bool(&mut self, key: &str, value: bool) {
        self.set(key, KvValue::Bool(value));
    }

    /// Sets a string value.
    pub fn set_str(&mut self, key: &str, value: &str) {
        self.set(key, KvValue::Str(value.to_string()));
    }

    /// Raw typed access.
    pub fn get(&self, key: &str) -> Option<&KvValue> {
        self.entries.get(key)
    }

    fn require(&self, key: &str) -> Result<&KvValue, KvError> {
        self.get(key)
            .ok_or_else(|| KvError::MissingKey(key.to_string()))
    }

    /// A required `u64` field.
    pub fn get_u64(&self, key: &str) -> Result<u64, KvError> {
        match self.require(key)? {
            KvValue::Int(v) if *v >= 0 => Ok(*v as u64),
            _ => Err(KvError::TypeMismatch {
                key: key.to_string(),
                expected: "u64",
            }),
        }
    }

    /// A required `usize` field.
    pub fn get_usize(&self, key: &str) -> Result<usize, KvError> {
        self.get_u64(key).map(|v| v as usize)
    }

    /// A required `u32` field.
    pub fn get_u32(&self, key: &str) -> Result<u32, KvError> {
        let v = self.get_u64(key)?;
        u32::try_from(v).map_err(|_| KvError::TypeMismatch {
            key: key.to_string(),
            expected: "u32",
        })
    }

    /// A required float field (integers widen losslessly).
    pub fn get_f64(&self, key: &str) -> Result<f64, KvError> {
        match self.require(key)? {
            KvValue::Float(v) => Ok(*v),
            KvValue::Int(v) => Ok(*v as f64),
            _ => Err(KvError::TypeMismatch {
                key: key.to_string(),
                expected: "f64",
            }),
        }
    }

    /// A required boolean field.
    pub fn get_bool(&self, key: &str) -> Result<bool, KvError> {
        match self.require(key)? {
            KvValue::Bool(v) => Ok(*v),
            _ => Err(KvError::TypeMismatch {
                key: key.to_string(),
                expected: "bool",
            }),
        }
    }

    /// A required string field.
    pub fn get_str(&self, key: &str) -> Result<&str, KvError> {
        match self.require(key)? {
            KvValue::Str(v) => Ok(v),
            _ => Err(KvError::TypeMismatch {
                key: key.to_string(),
                expected: "string",
            }),
        }
    }

    /// Serializes to the TOML-subset text form: bare (undotted) keys
    /// first, then one `[section]` per dotted prefix (emitted exactly
    /// once), keys sorted within each section.
    pub fn to_toml_string(&self) -> String {
        // Group by section so each header appears once even though raw
        // key order interleaves (`core.mlp` sorts after `core.l1.*`).
        let mut rows: Vec<(&str, &str, &KvValue)> = self
            .entries
            .iter()
            .map(|(key, value)| match key.rfind('.') {
                Some(dot) => (&key[..dot], &key[dot + 1..], value),
                None => ("", key.as_str(), value),
            })
            .collect();
        rows.sort_by_key(|(section, leaf, _)| (*section, *leaf));
        let mut out = String::new();
        let mut current_section = "";
        for (section, leaf, value) in rows {
            if section != current_section {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&format!("[{section}]\n"));
                current_section = section;
            }
            out.push_str(&format!("{leaf} = {value}\n"));
        }
        out
    }

    /// Parses the TOML-subset text form.
    pub fn parse(text: &str) -> Result<KvDoc, KvError> {
        let mut doc = KvDoc::new();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header.strip_suffix(']').ok_or_else(|| KvError::Syntax {
                    line: line_no,
                    message: "unterminated section header".to_string(),
                })?;
                let header = header.trim();
                if header.is_empty() {
                    return Err(KvError::Syntax {
                        line: line_no,
                        message: "empty section header".to_string(),
                    });
                }
                section = header.to_string();
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| KvError::Syntax {
                line: line_no,
                message: "expected `key = value`".to_string(),
            })?;
            let key = key.trim();
            if key.is_empty() {
                return Err(KvError::Syntax {
                    line: line_no,
                    message: "empty key".to_string(),
                });
            }
            let full_key = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            doc.set(&full_key, parse_value(value.trim(), line_no)?);
        }
        Ok(doc)
    }
}

fn parse_value(text: &str, line: usize) -> Result<KvValue, KvError> {
    if text == "true" {
        return Ok(KvValue::Bool(true));
    }
    if text == "false" {
        return Ok(KvValue::Bool(false));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let body = rest.strip_suffix('"').ok_or_else(|| KvError::Syntax {
            line,
            message: "unterminated string".to_string(),
        })?;
        let mut out = String::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                other => {
                    return Err(KvError::Syntax {
                        line,
                        message: format!(
                            "bad escape `\\{}`",
                            other.map_or_else(String::new, String::from)
                        ),
                    })
                }
            }
        }
        return Ok(KvValue::Str(out));
    }
    if let Ok(v) = text.parse::<i64>() {
        return Ok(KvValue::Int(v));
    }
    if let Ok(v) = text.parse::<f64>() {
        return Ok(KvValue::Float(v));
    }
    Err(KvError::Syntax {
        line,
        message: format!("unparseable value `{text}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KvDoc {
        let mut d = KvDoc::new();
        d.set_u64("core.l1.capacity_bytes", 32 * 1024);
        d.set_usize("core.l1.ways", 8);
        d.set_u64("core.cores", 8);
        d.set_f64("core.base_ipc", 1.6);
        d.set_f64("ivleague.hot_region_fraction", 0.125);
        d.set_bool("llc.randomized", true);
        d.set_str("variant", "IvLeague-Pro");
        d
    }

    #[test]
    fn round_trips_through_text() {
        let d = sample();
        let text = d.to_toml_string();
        let back = KvDoc::parse(&text).expect("parse own output");
        assert_eq!(d, back);
    }

    #[test]
    fn serializes_sections_and_bare_keys() {
        let text = sample().to_toml_string();
        assert!(text.starts_with("variant = \"IvLeague-Pro\"\n"));
        assert!(text.contains("[core.l1]\ncapacity_bytes = 32768\n"));
        assert!(text.contains("[llc]\nrandomized = true\n"));
        assert!(text.contains("base_ipc = 1.6\n"));
    }

    #[test]
    fn parses_comments_and_whitespace() {
        let text = "# top comment\n\n[dram]  \n  channels = 2\n\n# tail\nrow_bytes = 8192\n";
        let d = KvDoc::parse(text).expect("parse");
        assert_eq!(d.get_u64("dram.channels"), Ok(2));
        assert_eq!(d.get_u64("dram.row_bytes"), Ok(8192));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.125, 1.6, 3.0, 1e-9, 123456.789] {
            let mut d = KvDoc::new();
            d.set_f64("x", v);
            let back = KvDoc::parse(&d.to_toml_string()).expect("parse");
            assert_eq!(back.get_f64("x"), Ok(v));
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut d = KvDoc::new();
        d.set_str("s", "line1\nsaid \"hi\" \\ done");
        let back = KvDoc::parse(&d.to_toml_string()).expect("parse");
        assert_eq!(back.get_str("s"), Ok("line1\nsaid \"hi\" \\ done"));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = KvDoc::parse("a = 1\nnot a pair\n").unwrap_err();
        assert_eq!(
            err,
            KvError::Syntax {
                line: 2,
                message: "expected `key = value`".to_string()
            }
        );
        assert!(KvDoc::parse("[unterminated\n").is_err());
        assert!(KvDoc::parse("x = \"open\n").is_err());
        assert!(KvDoc::parse("x = 1.2.3\n").is_err());
    }

    #[test]
    fn typed_access_reports_mismatch_and_missing() {
        let d = sample();
        assert_eq!(
            d.get_u64("nope"),
            Err(KvError::MissingKey("nope".to_string()))
        );
        assert_eq!(
            d.get_bool("core.cores"),
            Err(KvError::TypeMismatch {
                key: "core.cores".to_string(),
                expected: "bool"
            })
        );
        assert_eq!(d.get_f64("core.cores"), Ok(8.0));
    }
}
