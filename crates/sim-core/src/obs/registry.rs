//! Hierarchical statistics registry.
//!
//! Components export named statistics under dotted paths
//! (`dram.ch0.bank3.row_conflicts`, `scheme.tree_cache`, …) into a
//! [`StatsRegistry`]. A registry is a *snapshot*: collecting one is cheap,
//! and two snapshots subtract ([`StatsRegistry::delta`]) to isolate a
//! measurement window — this is the single warmup-epoch mechanism the
//! simulator uses instead of per-model `reset_stats` calls.
//!
//! Export format: [`StatsRegistry::to_json`] writes a flat JSON object, one
//! dotted path per key, parseable back with [`StatsRegistry::parse_json`]
//! (exact round-trip; the `IVL_STATS_JSON` sink uses this).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::HitMiss;

/// One statistic node in the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// Monotonically increasing event count; deltas subtract.
    Counter(u64),
    /// Point-in-time level (occupancy, utilization); deltas keep the
    /// later value.
    Gauge(f64),
    /// Hit/miss pair; deltas subtract fieldwise.
    Ratio {
        /// Recorded hits.
        hits: u64,
        /// Recorded misses.
        misses: u64,
    },
    /// Fixed-width histogram bins; deltas subtract binwise.
    Histogram(Vec<u64>),
}

impl StatValue {
    /// The change from `earlier` to `self` under each node's delta rule.
    /// A variant mismatch (a path that changed meaning between snapshots)
    /// keeps the later value unchanged.
    fn since(&self, earlier: &StatValue) -> StatValue {
        match (self, earlier) {
            (StatValue::Counter(now), StatValue::Counter(then)) => {
                StatValue::Counter(now.saturating_sub(*then))
            }
            (StatValue::Gauge(now), StatValue::Gauge(_)) => StatValue::Gauge(*now),
            (
                StatValue::Ratio { hits, misses },
                StatValue::Ratio {
                    hits: eh,
                    misses: em,
                },
            ) => StatValue::Ratio {
                hits: hits.saturating_sub(*eh),
                misses: misses.saturating_sub(*em),
            },
            (StatValue::Histogram(now), StatValue::Histogram(then)) => StatValue::Histogram(
                now.iter()
                    .enumerate()
                    .map(|(i, &n)| n.saturating_sub(then.get(i).copied().unwrap_or(0)))
                    .collect(),
            ),
            (later, _) => later.clone(),
        }
    }
}

/// A snapshot of dotted-path statistics.
///
/// # Examples
///
/// ```
/// use ivl_sim_core::obs::registry::StatsRegistry;
///
/// let mut warm = StatsRegistry::new();
/// warm.set_counter("dram.reads", 100);
/// let mut end = StatsRegistry::new();
/// end.set_counter("dram.reads", 140);
/// let measured = end.delta(&warm);
/// assert_eq!(measured.counter("dram.reads"), Some(40));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsRegistry {
    nodes: BTreeMap<String, StatValue>,
}

impl StatsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Number of registered paths.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no paths are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sets a node, replacing any previous value at `path`.
    pub fn set(&mut self, path: &str, value: StatValue) {
        self.nodes.insert(path.to_string(), value);
    }

    /// Sets a counter node.
    pub fn set_counter(&mut self, path: &str, value: u64) {
        self.set(path, StatValue::Counter(value));
    }

    /// Adds to a counter node (creating it at zero first).
    pub fn add_counter(&mut self, path: &str, value: u64) {
        match self.nodes.get_mut(path) {
            Some(StatValue::Counter(v)) => *v = v.saturating_add(value),
            _ => self.set_counter(path, value),
        }
    }

    /// Sets a gauge node.
    pub fn set_gauge(&mut self, path: &str, value: f64) {
        self.set(path, StatValue::Gauge(value));
    }

    /// Sets a hit/miss ratio node.
    pub fn set_ratio(&mut self, path: &str, hm: HitMiss) {
        self.set(
            path,
            StatValue::Ratio {
                hits: hm.hits(),
                misses: hm.misses(),
            },
        );
    }

    /// Sets a histogram node from raw bin counts.
    pub fn set_histogram(&mut self, path: &str, bins: &[u64]) {
        self.set(path, StatValue::Histogram(bins.to_vec()));
    }

    /// The node at `path`.
    pub fn get(&self, path: &str) -> Option<&StatValue> {
        self.nodes.get(path)
    }

    /// The counter at `path`, if that path is a counter.
    pub fn counter(&self, path: &str) -> Option<u64> {
        match self.get(path)? {
            StatValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge at `path`, if that path is a gauge.
    pub fn gauge(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            StatValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The ratio at `path` as a [`HitMiss`], if that path is a ratio.
    pub fn ratio(&self, path: &str) -> Option<HitMiss> {
        match self.get(path)? {
            StatValue::Ratio { hits, misses } => Some(HitMiss::from_parts(*hits, *misses)),
            _ => None,
        }
    }

    /// Iterates `(path, value)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StatValue)> {
        self.nodes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The change from `earlier` to `self`: counters/ratios/histograms
    /// subtract (saturating), gauges keep the later value. Paths present
    /// only in `self` are kept as-is (they accumulated entirely inside the
    /// window); paths present only in `earlier` are dropped.
    pub fn delta(&self, earlier: &StatsRegistry) -> StatsRegistry {
        let mut out = StatsRegistry::new();
        for (path, value) in &self.nodes {
            let d = match earlier.nodes.get(path) {
                Some(then) => value.since(then),
                None => value.clone(),
            };
            out.nodes.insert(path.clone(), d);
        }
        out
    }

    /// Serializes as a flat JSON object: counters as integers, gauges as
    /// floats (always containing `.` or an exponent), ratios as
    /// `{"hits": h, "misses": m}`, histograms as integer arrays. This form
    /// round-trips exactly through [`parse_json`](Self::parse_json).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (path, value)) in self.nodes.iter().enumerate() {
            let comma = if i + 1 < self.nodes.len() { "," } else { "" };
            let _ = write!(out, "  \"{}\": ", json_escape(path));
            match value {
                StatValue::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                StatValue::Gauge(v) => {
                    let _ = write!(out, "{}", json_f64(*v));
                }
                StatValue::Ratio { hits, misses } => {
                    let _ = write!(out, "{{\"hits\": {hits}, \"misses\": {misses}}}");
                }
                StatValue::Histogram(bins) => {
                    let _ = write!(out, "[");
                    for (j, b) in bins.iter().enumerate() {
                        let sep = if j == 0 { "" } else { ", " };
                        let _ = write!(out, "{sep}{b}");
                    }
                    let _ = write!(out, "]");
                }
            }
            let _ = writeln!(out, "{comma}");
        }
        out.push_str("}\n");
        out
    }

    /// Parses the flat JSON form produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse_json(text: &str) -> Result<StatsRegistry, String> {
        let mut p = Parser {
            chars: text.char_indices().peekable(),
            text,
        };
        p.skip_ws();
        p.expect('{')?;
        let mut reg = StatsRegistry::new();
        p.skip_ws();
        if p.peek() == Some('}') {
            p.next_char();
            return Ok(reg);
        }
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            let value = p.value()?;
            reg.nodes.insert(key, value);
            p.skip_ws();
            match p.next_char() {
                Some(',') => continue,
                Some('}') => return Ok(reg),
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".to_string();
    }
    // `{:?}` prints the shortest round-tripping decimal and always keeps a
    // `.` or exponent, so integers and floats stay distinguishable.
    format!("{v:?}")
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.next_char();
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|(_, c)| *c)
    }

    fn next_char(&mut self) -> Option<char> {
        self.chars.next().map(|(_, c)| c)
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next_char() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected `{want}`, got {other:?}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next_char() {
                Some('"') => return Ok(out),
                Some('\\') => match self.next_char() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next_char()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number_token(&mut self) -> Result<String, String> {
        let mut tok = String::new();
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
        ) {
            tok.push(self.next_char().expect("peeked"));
        }
        if tok.is_empty() {
            let at = self
                .chars
                .peek()
                .map(|(i, _)| *i)
                .unwrap_or(self.text.len());
            return Err(format!("expected a number at byte {at}"));
        }
        Ok(tok)
    }

    fn value(&mut self) -> Result<StatValue, String> {
        match self.peek() {
            Some('{') => {
                // Ratio object: {"hits": h, "misses": m} in either order.
                self.next_char();
                let (mut hits, mut misses) = (None, None);
                loop {
                    self.skip_ws();
                    if self.peek() == Some('}') {
                        self.next_char();
                        break;
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(':')?;
                    self.skip_ws();
                    let tok = self.number_token()?;
                    let v: u64 = tok.parse().map_err(|e| format!("bad ratio field: {e}"))?;
                    match key.as_str() {
                        "hits" => hits = Some(v),
                        "misses" => misses = Some(v),
                        other => return Err(format!("unknown ratio field `{other}`")),
                    }
                    self.skip_ws();
                    match self.next_char() {
                        Some(',') => continue,
                        Some('}') => break,
                        other => return Err(format!("expected `,` or `}}`, got {other:?}")),
                    }
                }
                Ok(StatValue::Ratio {
                    hits: hits.ok_or("ratio missing `hits`")?,
                    misses: misses.ok_or("ratio missing `misses`")?,
                })
            }
            Some('[') => {
                self.next_char();
                let mut bins = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.next_char();
                    return Ok(StatValue::Histogram(bins));
                }
                loop {
                    self.skip_ws();
                    let tok = self.number_token()?;
                    bins.push(tok.parse().map_err(|e| format!("bad bin: {e}"))?);
                    self.skip_ws();
                    match self.next_char() {
                        Some(',') => continue,
                        Some(']') => return Ok(StatValue::Histogram(bins)),
                        other => return Err(format!("expected `,` or `]`, got {other:?}")),
                    }
                }
            }
            _ => {
                let tok = self.number_token()?;
                if let Ok(v) = tok.parse::<u64>() {
                    Ok(StatValue::Counter(v))
                } else {
                    Ok(StatValue::Gauge(
                        tok.parse::<f64>().map_err(|e| format!("bad number: {e}"))?,
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsRegistry {
        let mut r = StatsRegistry::new();
        r.set_counter("dram.reads", 123);
        r.set_counter("dram.ch0.bank3.row_conflicts", 7);
        r.set_gauge("forest.utilization", 0.375);
        r.set(
            "scheme.tree_cache",
            StatValue::Ratio {
                hits: 10,
                misses: 4,
            },
        );
        r.set_histogram("scheme.walk_depth", &[0, 5, 9, 0]);
        r
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample();
        let back = StatsRegistry::parse_json(&r.to_json()).expect("parse own output");
        assert_eq!(r, back);
    }

    #[test]
    fn empty_registry_round_trips() {
        let r = StatsRegistry::new();
        assert_eq!(StatsRegistry::parse_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let warm = sample();
        let mut end = sample();
        end.add_counter("dram.reads", 40);
        end.set_gauge("forest.utilization", 0.5);
        end.set(
            "scheme.tree_cache",
            StatValue::Ratio {
                hits: 25,
                misses: 5,
            },
        );
        end.set_counter("fresh.counter", 3);
        let d = end.delta(&warm);
        assert_eq!(d.counter("dram.reads"), Some(40));
        assert_eq!(d.gauge("forest.utilization"), Some(0.5));
        assert_eq!(
            d.get("scheme.tree_cache"),
            Some(&StatValue::Ratio {
                hits: 15,
                misses: 1
            })
        );
        assert_eq!(d.counter("fresh.counter"), Some(3), "window-only path kept");
    }

    #[test]
    fn delta_is_saturating() {
        let mut warm = StatsRegistry::new();
        warm.set_counter("c", 100);
        let mut end = StatsRegistry::new();
        end.set_counter("c", 40); // nonsensical ordering
        assert_eq!(end.delta(&warm).counter("c"), Some(0));
    }

    #[test]
    fn ratio_accessor_reconstructs_hitmiss() {
        let r = sample();
        let hm = r.ratio("scheme.tree_cache").unwrap();
        assert_eq!((hm.hits(), hm.misses()), (10, 4));
        assert!(r.ratio("dram.reads").is_none());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(StatsRegistry::parse_json("").is_err());
        assert!(StatsRegistry::parse_json("{\"a\": }").is_err());
        assert!(StatsRegistry::parse_json("{\"a\": {\"hits\": 1}}").is_err());
        assert!(StatsRegistry::parse_json("{\"a\": [1,]}").is_err());
    }

    #[test]
    fn escaped_paths_round_trip() {
        let mut r = StatsRegistry::new();
        r.set_counter("weird\"path\\with\nescapes", 1);
        let back = StatsRegistry::parse_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }
}
