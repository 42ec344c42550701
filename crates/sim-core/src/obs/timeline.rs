//! Windowed simulated-time metric series (DESIGN.md §10).
//!
//! Where the [`registry`](super::registry) answers "how much, in total, over
//! the measured epoch", the timeline answers "how much, *when*": every record
//! lands in a window of configurable width keyed on the simulated cycle, and
//! each `(series, window)` cell is a counter or a log₂-bucketed histogram.
//! The recorder mirrors the tracer's shape — a cheap cloneable `!Send`
//! [`Timeline`] handle that is a single branch when disabled, with a ring
//! bound (drop-oldest, counted) so an unexpectedly long run cannot eat the
//! host.
//!
//! [`TimelineData`] is the plain, `Send` snapshot. Export is line-oriented
//! JSONL (exact round-trip via [`parse_jsonl`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Default window width in simulated cycles (`IVL_TIMELINE_WINDOW`).
pub const DEFAULT_TIMELINE_WINDOW: u64 = 10_000;
/// Default per-series window cap (`IVL_TIMELINE_CAP`).
pub const DEFAULT_TIMELINE_CAP: usize = 4_096;

/// Histogram bucket count: bucket 0 holds zero values, bucket `b ≥ 1` holds
/// `[2^(b-1), 2^b)`, so bucket 64 tops out the `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// Which cell type a series carries (fixed at first record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Saturating event count per window.
    Counter,
    /// Log₂-bucketed value distribution per window.
    Hist,
}

impl SeriesKind {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Hist => "hist",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "counter" => Some(SeriesKind::Counter),
            "hist" => Some(SeriesKind::Hist),
            _ => None,
        }
    }
}

/// Per-window log₂ histogram with exact count/sum and observed min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistCell {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Log₂ occupancy (see [`HIST_BUCKETS`]).
    pub buckets: Box<[u64; HIST_BUCKETS]>,
}

/// Index of the log₂ bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl HistCell {
    /// A cell with no observations (`min` starts saturated high so the
    /// first sample overwrites it).
    pub fn empty() -> Self {
        HistCell {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0; HIST_BUCKETS]),
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] = self.buckets[bucket_of(v)].saturating_add(1);
    }

    /// Saturating element-wise combine with another cell.
    pub fn merge(&mut self, other: &HistCell) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Approximate percentile (`pct` in `0.0..=1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `pct · count`, clamped to
    /// the observed max — so the error is at most one power of two and never
    /// exceeds the true range.
    pub fn percentile(&self, pct: f64) -> u64 {
        percentile_of_bins(&self.buckets[..], self.count, pct, |b| {
            // Upper bound of bucket b: 0, then 2^b - 1.
            if b == 0 {
                0
            } else if b >= 64 {
                u64::MAX
            } else {
                (1u64 << b) - 1
            }
        })
        .min(self.max)
    }
}

/// Percentile walk over cumulative bins: smallest bin whose cumulative
/// count reaches `pct · total`, mapped through `value_of`. Returns 0 for an
/// empty histogram.
fn percentile_of_bins(bins: &[u64], total: u64, pct: f64, value_of: impl Fn(usize) -> u64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((pct * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &b) in bins.iter().enumerate() {
        cum = cum.saturating_add(b);
        if cum >= target {
            return value_of(i);
        }
    }
    value_of(bins.len().saturating_sub(1))
}

/// One `(series, window)` cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Saturating count.
    Counter(u64),
    /// Log₂ histogram.
    Hist(HistCell),
}

impl Cell {
    fn kind(&self) -> SeriesKind {
        match self {
            Cell::Counter(_) => SeriesKind::Counter,
            Cell::Hist(_) => SeriesKind::Hist,
        }
    }
}

/// One named series: its kind, its retained windows (ascending by window
/// index, at most `cap`), and how many windows the cap evicted.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Cell type, fixed by the first record.
    pub kind: SeriesKind,
    /// `(window index, cell)` pairs, sorted ascending, no duplicates.
    pub windows: VecDeque<(u64, Cell)>,
    /// Windows lost to the cap (drop-oldest), plus records that arrived for
    /// an already-evicted window.
    pub dropped: u64,
}

impl Series {
    fn new(kind: SeriesKind) -> Self {
        Series {
            kind,
            windows: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The cell for window `wi`, creating (and cap-bounding) as needed.
    /// `None` when the window was already evicted by the cap.
    fn cell_mut(&mut self, wi: u64, cap: usize, fresh: impl FnOnce() -> Cell) -> Option<&mut Cell> {
        // Hot path: records arrive with non-decreasing cycles.
        match self.windows.back() {
            Some(&(back, _)) if back == wi => {
                let last = self.windows.len() - 1;
                return Some(&mut self.windows[last].1);
            }
            Some(&(back, _)) if back > wi => {
                // Out-of-order record: binary search the retained ring.
                let pos = self.windows.partition_point(|&(w, _)| w < wi);
                if self.windows.get(pos).map(|&(w, _)| w) == Some(wi) {
                    return Some(&mut self.windows[pos].1);
                }
                if pos == 0 && self.dropped > 0 {
                    // The target window fell off the front already.
                    self.dropped = self.dropped.saturating_add(1);
                    return None;
                }
                self.windows.insert(pos, (wi, fresh()));
                self.enforce_cap(cap);
                let pos = self.windows.partition_point(|&(w, _)| w < wi);
                return match self.windows.get(pos).map(|&(w, _)| w) {
                    Some(w) if w == wi => Some(&mut self.windows[pos].1),
                    _ => None, // the insert itself was the oldest window
                };
            }
            _ => {}
        }
        self.windows.push_back((wi, fresh()));
        self.enforce_cap(cap);
        match self.windows.back() {
            Some(&(back, _)) if back == wi => {
                let last = self.windows.len() - 1;
                Some(&mut self.windows[last].1)
            }
            _ => None,
        }
    }

    fn enforce_cap(&mut self, cap: usize) {
        while self.windows.len() > cap.max(1) {
            self.windows.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// Saturating sum over counter windows (0 for other kinds).
    pub fn counter_sum(&self) -> u64 {
        self.windows.iter().fold(0u64, |acc, (_, c)| match c {
            Cell::Counter(v) => acc.saturating_add(*v),
            _ => acc,
        })
    }

    /// Total observations across histogram windows.
    pub fn hist_count(&self) -> u64 {
        self.windows.iter().fold(0u64, |acc, (_, c)| match c {
            Cell::Hist(h) => acc.saturating_add(h.count),
            _ => acc,
        })
    }
}

/// A full timeline snapshot: plain data, `Send`, serializable.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineData {
    /// Window width in simulated cycles.
    pub window: u64,
    /// Maximum retained windows per series (drop-oldest beyond it).
    pub cap: usize,
    /// Series by dotted name.
    pub series: BTreeMap<String, Series>,
}

impl Default for TimelineData {
    fn default() -> Self {
        TimelineData::new(DEFAULT_TIMELINE_WINDOW, DEFAULT_TIMELINE_CAP)
    }
}

impl TimelineData {
    /// An empty timeline with the given window width and per-series cap.
    pub fn new(window: u64, cap: usize) -> Self {
        TimelineData {
            window: window.max(1),
            cap: cap.max(1),
            series: BTreeMap::new(),
        }
    }

    /// The window index holding `cycle`.
    pub fn window_of(&self, cycle: u64) -> u64 {
        cycle / self.window
    }

    /// True when no series holds any window.
    pub fn is_empty(&self) -> bool {
        self.series.values().all(|s| s.windows.is_empty())
    }

    fn series_mut(&mut self, name: &str, kind: SeriesKind) -> &mut Series {
        // Steady state never allocates: the entry API only clones the name
        // when the series is first seen.
        if !self.series.contains_key(name) {
            self.series.insert(name.to_string(), Series::new(kind));
        }
        self.series.get_mut(name).expect("just ensured")
    }

    /// Adds `n` to the counter series `name` in `cycle`'s window.
    pub fn count(&mut self, name: &str, cycle: u64, n: u64) {
        let (window, cap) = (self.window, self.cap);
        let wi = cycle / window;
        let s = self.series_mut(name, SeriesKind::Counter);
        if s.kind != SeriesKind::Counter {
            debug_assert!(false, "series {name} is not a counter");
            return;
        }
        if let Some(Cell::Counter(v)) = s.cell_mut(wi, cap, || Cell::Counter(0)) {
            *v = v.saturating_add(n);
        }
    }

    /// Observes `v` into the histogram series `name` in `cycle`'s window.
    pub fn observe(&mut self, name: &str, cycle: u64, v: u64) {
        let (window, cap) = (self.window, self.cap);
        let wi = cycle / window;
        let s = self.series_mut(name, SeriesKind::Hist);
        if s.kind != SeriesKind::Hist {
            debug_assert!(false, "series {name} is not a histogram");
            return;
        }
        if let Some(Cell::Hist(h)) = s.cell_mut(wi, cap, || Cell::Hist(HistCell::empty())) {
            h.observe(v);
        }
    }

    /// Drops every retained window and dropped count (the warmup →
    /// measurement flip), keeping window width and cap.
    pub fn clear(&mut self) {
        self.series.clear();
    }

    /// Total windows lost to the cap across all series.
    pub fn dropped(&self) -> u64 {
        self.series
            .values()
            .fold(0u64, |acc, s| acc.saturating_add(s.dropped))
    }

    /// Saturating sum of a counter series' windows (`None` if absent).
    pub fn counter_sum(&self, name: &str) -> Option<u64> {
        self.series.get(name).map(Series::counter_sum)
    }

    /// Serializes to JSONL: a header line, one `meta` line per series, then
    /// one line per retained window. Exact round-trip via [`parse_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"timeline\":1,\"window\":{},\"cap\":{}}}\n",
            self.window, self.cap
        ));
        for (name, s) in &self.series {
            out.push_str(&format!(
                "{{\"series\":{},\"kind\":\"{}\",\"dropped\":{}}}\n",
                json_str(name),
                s.kind.tag(),
                s.dropped
            ));
            for (wi, cell) in &s.windows {
                let start = wi.saturating_mul(self.window);
                match cell {
                    Cell::Counter(v) => out.push_str(&format!(
                        "{{\"series\":{},\"w\":{wi},\"start\":{start},\"v\":{v}}}\n",
                        json_str(name)
                    )),
                    Cell::Hist(h) => {
                        let mut buckets = String::new();
                        for (b, &c) in h.buckets.iter().enumerate() {
                            if c > 0 {
                                if !buckets.is_empty() {
                                    buckets.push(',');
                                }
                                buckets.push_str(&format!("{b}:{c}"));
                            }
                        }
                        out.push_str(&format!(
                            "{{\"series\":{},\"w\":{wi},\"start\":{start},\"count\":{},\
                             \"sum\":{},\"min\":{},\"max\":{},\"b\":\"{buckets}\"}}\n",
                            json_str(name),
                            h.count,
                            h.sum,
                            h.min,
                            h.max
                        ));
                    }
                }
            }
        }
        out
    }

    /// Parses the JSONL produced by [`to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse_jsonl(text: &str) -> Result<TimelineData, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty timeline JSONL")?;
        let window = field_u64(header, "window").ok_or("header missing \"window\"")?;
        let cap = field_u64(header, "cap").ok_or("header missing \"cap\"")? as usize;
        let mut data = TimelineData::new(window, cap);
        for (ln, line) in lines {
            let err = |what: &str| format!("line {}: {what}: {line}", ln + 1);
            let name = field_str(line, "series").ok_or_else(|| err("missing \"series\""))?;
            if let Some(kind) = field_str(line, "kind") {
                let kind = SeriesKind::from_tag(&kind).ok_or_else(|| err("unknown series kind"))?;
                let s = data.series_mut(&name, kind);
                s.dropped = field_u64(line, "dropped").ok_or_else(|| err("missing \"dropped\""))?;
                continue;
            }
            let wi = field_u64(line, "w").ok_or_else(|| err("missing \"w\""))?;
            let cell = if let Some(v) = field_u64(line, "v") {
                Cell::Counter(v)
            } else if let Some(count) = field_u64(line, "count") {
                let mut h = HistCell {
                    count,
                    sum: field_u64(line, "sum").ok_or_else(|| err("missing \"sum\""))?,
                    min: field_u64(line, "min").ok_or_else(|| err("missing \"min\""))?,
                    max: field_u64(line, "max").ok_or_else(|| err("missing \"max\""))?,
                    buckets: Box::new([0; HIST_BUCKETS]),
                };
                let b = field_str(line, "b").ok_or_else(|| err("missing \"b\""))?;
                for pair in b.split(',').filter(|p| !p.is_empty()) {
                    let (bi, c) = pair.split_once(':').ok_or_else(|| err("bad bucket pair"))?;
                    let bi: usize = bi.parse().map_err(|_| err("bad bucket index"))?;
                    if bi >= HIST_BUCKETS {
                        return Err(err("bucket index out of range"));
                    }
                    h.buckets[bi] = c.parse().map_err(|_| err("bad bucket count"))?;
                }
                Cell::Hist(h)
            } else {
                return Err(err("window line has no cell payload"));
            };
            let kind = cell.kind();
            let s = data.series_mut(&name, kind);
            if s.kind != kind {
                return Err(err("cell kind conflicts with series meta"));
            }
            // Lines are emitted in window order per series; push directly so
            // the parse cannot itself evict (cap was enforced at write time).
            s.windows.push_back((wi, cell));
        }
        for s in data.series.values_mut() {
            s.windows.make_contiguous().sort_by_key(|&(w, _)| w);
        }
        Ok(data)
    }
}

/// Renders values as a unicode sparkline (one glyph per value, 8 levels,
/// scaled to the slice max).
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if v <= 0.0 || max <= 0.0 {
                GLYPHS[0]
            } else {
                let lvl = (v / max * 7.0).round() as usize;
                GLYPHS[lvl.min(7)]
            }
        })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extracts `"key":<raw>` from a flat single-line JSON object.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut end = rest.len();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' if depth > 0 => depth -= 1,
            ',' | '}' if depth == 0 => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    Some(rest[..end].trim())
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let raw = field_raw(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'u' => {
                let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            other => out.push(other),
        }
    }
    Some(out)
}

/// The cloneable recorder handle models hold (`!Send`, like the tracer): a
/// single branch when disabled, an `Rc<RefCell<TimelineData>>` when live.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    inner: Option<Rc<RefCell<TimelineData>>>,
}

impl Timeline {
    /// A recorder that drops everything at the cost of one branch.
    pub fn disabled() -> Self {
        Timeline { inner: None }
    }

    /// A live recorder with the given window width and per-series cap.
    pub fn bounded(window: u64, cap: usize) -> Self {
        Timeline {
            inner: Some(Rc::new(RefCell::new(TimelineData::new(window, cap)))),
        }
    }

    /// Whether records are being retained.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to counter series `name` in `cycle`'s window.
    pub fn count(&self, name: &str, cycle: u64, n: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().count(name, cycle, n);
        }
    }

    /// Observes `v` into histogram series `name` in `cycle`'s window.
    pub fn observe(&self, name: &str, cycle: u64, v: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().observe(name, cycle, v);
        }
    }

    /// Drops all retained windows (the warmup → measurement flip).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().clear();
        }
    }

    /// Windows lost to the cap so far.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().dropped())
    }

    /// A plain `Send` copy of the recorded data (empty when disabled).
    pub fn snapshot(&self) -> TimelineData {
        self.inner
            .as_ref()
            .map_or_else(TimelineData::default, |inner| inner.borrow().clone())
    }
}

/// Writes a timeline snapshot to `path` as JSONL.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_timeline_jsonl(data: &TimelineData, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, data.to_jsonl())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tl = Timeline::disabled();
        tl.count("x", 0, 1);
        tl.observe("y", 0, 1);
        assert!(!tl.enabled());
        assert!(tl.snapshot().is_empty());
        assert_eq!(tl.dropped(), 0);
    }

    #[test]
    fn counters_land_in_their_windows() {
        let mut d = TimelineData::new(100, 16);
        d.count("a", 5, 2);
        d.count("a", 99, 1);
        d.count("a", 100, 7);
        d.count("a", 950, 1);
        let s = &d.series["a"];
        assert_eq!(
            s.windows.iter().cloned().collect::<Vec<_>>(),
            vec![
                (0, Cell::Counter(3)),
                (1, Cell::Counter(7)),
                (9, Cell::Counter(1))
            ]
        );
        assert_eq!(d.counter_sum("a"), Some(11));
    }

    #[test]
    fn out_of_order_records_are_sorted_in() {
        let mut d = TimelineData::new(10, 16);
        d.count("a", 95, 1);
        d.count("a", 15, 1);
        d.count("a", 55, 1);
        d.count("a", 15, 2);
        let idxs: Vec<u64> = d.series["a"].windows.iter().map(|&(w, _)| w).collect();
        assert_eq!(idxs, vec![1, 5, 9]);
        assert_eq!(d.series["a"].windows[0].1, Cell::Counter(3));
    }

    #[test]
    fn cap_drops_oldest_and_counts() {
        let mut d = TimelineData::new(10, 3);
        for w in 0..6u64 {
            d.count("a", w * 10, 1);
        }
        let s = &d.series["a"];
        assert_eq!(s.windows.len(), 3);
        assert_eq!(s.dropped, 3);
        assert_eq!(
            s.windows.iter().map(|&(w, _)| w).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        // A record for an evicted window is dropped, not resurrected.
        d.count("a", 0, 1);
        let s = &d.series["a"];
        assert_eq!(s.windows.len(), 3);
        assert_eq!(s.dropped, 4);
        assert_eq!(d.dropped(), 4);
    }

    #[test]
    fn hist_cell_percentiles_are_clamped_log2_bounds() {
        let mut d = TimelineData::new(10, 8);
        for v in [0u64, 1, 2, 3, 100, 100, 100, 200] {
            d.observe("lat", 5, v);
        }
        let Cell::Hist(h) = &d.series["lat"].windows[0].1 else {
            panic!("hist cell expected");
        };
        assert_eq!(h.count, 8);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 200);
        assert_eq!(h.sum, 506);
        // p50 of 8 values → 4th: value 3 lives in bucket 2, upper bound 3.
        assert_eq!(h.percentile(0.50), 3);
        // p95+ land in the top buckets, clamped to the observed max.
        assert_eq!(h.percentile(0.99), 200);
        assert!(h.percentile(0.95) >= 127);
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let mut d = TimelineData::new(10_000, 32);
        d.count("dram.reads", 123, 4);
        d.count("dram.reads", 25_000, 9);
        d.observe("dram.latency", 500, 42);
        d.observe("dram.latency", 700, 0);
        d.series.get_mut("dram.reads").unwrap().dropped = 7;
        let parsed = TimelineData::parse_jsonl(&d.to_jsonl()).expect("own JSONL parses");
        assert_eq!(parsed, d);
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[0.0, 1.0, 7.0]), "▁▂█");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
    }

    #[test]
    fn percentile_of_empty_bins_is_zero() {
        assert_eq!(percentile_of_bins(&[0, 0, 0], 0, 0.5, |i| i as u64), 0);
        assert_eq!(percentile_of_bins(&[1, 0, 3], 4, 0.5, |i| i as u64), 2);
        assert_eq!(percentile_of_bins(&[1, 0, 3], 4, 0.25, |i| i as u64), 0);
    }
}
