//! The workspace's one JSON codec: [`Json`] values, one writer
//! ([`Json::write`], also behind `Display`) and one recursive-descent parser
//! ([`Json::parse`]).
//!
//! Every JSON file the reproduction writes or reads goes through here: the
//! stats registry (`IVL_STATS_JSON`), the trace and timeline JSONL, and the
//! `BENCH_*.json` micro-bench snapshots. The writer has one style: `", "`
//! between items, `": "` after keys, no newlines (a document that wants one
//! member per line lays out its own top level). An `f64` prints with `{:?}`,
//! the shortest decimal that reads back to the same bits, which always
//! carries a `.` or an exponent; a non-finite one prints as `0.0`. Strings
//! escape `"`, `\` and newline by name and other control characters as
//! `\u00XX`.
//!
//! The parser takes RFC 8259 JSON except `null`, which nothing writes. A
//! number of bare digits that fits a `u64` reads as [`Json::U64`], any other
//! number as [`Json::F64`]. Errors carry the byte offset where parsing
//! stopped.
//!
//! ```
//! use ivl_sim_core::json::Json;
//!
//! let doc = Json::object([("name", "g/a\u{1}".into()), ("median_ns", Json::F64(12.5))]);
//! assert_eq!(doc.to_string(), r#"{"name": "g/a\u0001", "median_ns": 12.5}"#);
//! assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
//! assert_eq!(Json::parse("[1,]").unwrap_err().offset, 3);
//! ```

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting the parser accepts (the workspace's own
/// documents nest three levels at most).
const MAX_DEPTH: usize = 128;

/// One JSON value. Objects keep their members in insertion order, so a
/// document lists its fields in the order its owner built them. Strings
/// and keys borrow `'static` names, so a writer that builds one object per
/// trace line allocates only the member list.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(Cow<'static, str>),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in insertion order.
    Object(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// An object with the given members, in order.
    pub fn object(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The first member named `key`, if `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Object(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of a [`Json::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        if let Json::U64(v) = self {
            Some(*v)
        } else {
            None
        }
    }

    /// The value of any number, integers widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        if let Json::Bool(b) = self {
            Some(*b)
        } else {
            None
        }
    }

    /// The value of a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// Parses one JSON document; only whitespace may surround it.
    ///
    /// # Errors
    ///
    /// The byte offset and a description of the first malformed construct.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut c = Cursor { text, pos: 0 };
        c.skip_ws();
        let value = c.value(1)?;
        c.skip_ws();
        if c.pos < text.len() {
            return Err(c.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Appends the value to `out` in the one output style.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::F64(_) => out.push_str("0.0"),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&'static str> for Json {
    fn from(s: &'static str) -> Json {
        Json::Str(s.into())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy runs of plain characters in one go; escapes are rare.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= b' ' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Where and why [`Json::parse`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the parsed text.
    pub offset: usize,
    /// What was expected or found there.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn error(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `want` if it is next.
    fn eat(&mut self, want: u8) -> bool {
        let hit = self.peek() == Some(want);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One value at nesting level `depth` (the document itself is level 1).
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.items(b'}', |c| {
                    let key = c.string()?;
                    c.skip_ws();
                    if !c.eat(b':') {
                        return Err(c.error("expected `:`"));
                    }
                    c.skip_ws();
                    members.push((key.into(), c.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |c| {
                    items.push(c.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => self.string().map(Json::from),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, b) in [("true", true), ("false", false)] {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(Json::Bool(b));
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    /// The comma-separated items after an opening bracket, up to `close`;
    /// `item` parses each one from its first byte.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected `,` or `{}`", close as char)));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            if b < 0x20 {
                return Err(self.error("raw control character in string"));
            }
            if b == b'"' || b == b'\\' {
                out.push_str(&self.text[run..self.pos]);
                self.pos += 1;
                if b == b'"' {
                    return Ok(out);
                }
                out.push(self.escape()?);
                run = self.pos;
            } else {
                self.pos += 1;
            }
        }
    }

    /// Decodes the escape after a `\`.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let mut code = hi;
                if (0xD800..0xDC00).contains(&hi) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("bad surrogate pair"));
                    }
                    code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                }
                return char::from_u32(code).ok_or_else(|| self.error("lone surrogate"));
            }
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let code = (self.text.get(self.pos..self.pos + 4))
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("`\\u` needs four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Consumes a run of digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.error("expected a digit"));
        }
        if int_digits > 1 && self.text.as_bytes()[int_start] == b'0' {
            self.pos = int_start;
            return Err(self.error("leading zero"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.error("expected a digit after `.`"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.error("expected an exponent digit"));
            }
        }
        // Only a bare digit run parses as a `u64`; a sign, fraction or
        // exponent (or overflow) falls through to `f64`.
        let token = &self.text[start..self.pos];
        Ok(token.parse().map_or_else(
            |_| Json::F64(token.parse().expect("a JSON number parses as f64")),
            Json::U64,
        ))
    }
}
