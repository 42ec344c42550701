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
//! (exact round-trip through the shared [`json`](crate::json) codec; the
//! `IVL_STATS_JSON` sink uses this).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
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

    /// The node as a JSON value (see [`StatsRegistry::to_json`]).
    fn to_json(&self) -> Json {
        match self {
            StatValue::Counter(v) => Json::U64(*v),
            StatValue::Gauge(v) => Json::F64(*v),
            StatValue::Ratio { hits, misses } => {
                Json::object([("hits", Json::U64(*hits)), ("misses", Json::U64(*misses))])
            }
            StatValue::Histogram(bins) => Json::Array(bins.iter().map(|&b| Json::U64(b)).collect()),
        }
    }

    /// The node a JSON value encodes: the inverse of [`to_json`](Self::to_json).
    fn from_json(value: &Json) -> Result<StatValue, String> {
        match value {
            Json::U64(v) => Ok(StatValue::Counter(*v)),
            Json::F64(v) => Ok(StatValue::Gauge(*v)),
            // Ratio object: {"hits": h, "misses": m} in either order.
            Json::Object(fields) if fields.len() == 2 => {
                let count = |k| value.get(k).and_then(Json::as_u64);
                let missing = |k| format!("ratio missing `{k}`");
                Ok(StatValue::Ratio {
                    hits: count("hits").ok_or_else(|| missing("hits"))?,
                    misses: count("misses").ok_or_else(|| missing("misses"))?,
                })
            }
            Json::Array(bins) => bins
                .iter()
                .map(|b| b.as_u64().ok_or_else(|| "bad histogram bin".to_string()))
                .collect::<Result<_, _>>()
                .map(StatValue::Histogram),
            _ => Err("expected a counter, gauge, ratio or histogram".to_string()),
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

    /// Serializes as a flat JSON object, one path per line: counters as
    /// integers, gauges as floats (always containing `.` or an exponent),
    /// ratios as `{"hits": h, "misses": m}`, histograms as integer arrays.
    /// This form round-trips exactly through [`parse_json`](Self::parse_json).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (path, value)) in self.nodes.iter().enumerate() {
            let comma = if i + 1 < self.nodes.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {}: {}{comma}",
                Json::from(path.clone()),
                value.to_json()
            );
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
        let Json::Object(members) = Json::parse(text).map_err(|e| e.to_string())? else {
            return Err("expected a JSON object".to_string());
        };
        let mut reg = StatsRegistry::new();
        for (path, value) in members {
            let value = StatValue::from_json(&value).map_err(|e| format!("`{path}`: {e}"))?;
            reg.nodes.insert(path.into_owned(), value);
        }
        Ok(reg)
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
        end.set_counter("dram.reads", 163);
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
