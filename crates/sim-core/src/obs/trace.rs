//! Cycle-stamped structured event tracing.
//!
//! Models emit typed [`TraceRecord`]s into a bounded ring buffer owned by
//! a [`Tracer`]. The tracer is a cheap cloneable handle: a disabled tracer
//! is a `None` and every emit is a single branch, so runs without
//! `IVL_TRACE` pay no measurable overhead. Each model holds its own clone
//! and stamps events with its component name, current cycle, and (where
//! meaningful) the security domain and core.
//!
//! Cycle stamps are monotonic *per component stream* but not globally at
//! emit time: the simulator advances the least-advanced core, so core A's
//! deep integrity walk can stamp cycles beyond core B's next issue.
//! [`Tracer::sorted_records`] therefore returns the buffer stably sorted
//! by cycle, which is the order the JSONL sink writes.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::domain::DomainId;
use crate::Cycle;

/// Default ring capacity when `IVL_TRACE_CAP` is unset.
pub const DEFAULT_TRACE_CAP: usize = 1 << 20;

/// Which cache a [`EventKind::CacheAccess`] hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// A core-private L2.
    L2,
    /// The shared randomized LLC.
    Llc,
    /// The encryption-counter metadata cache.
    Counter,
    /// The integrity-tree node cache.
    Tree,
    /// The MAC cache.
    Mac,
    /// The leaf-to-metadata map (LMM) cache.
    Lmm,
}

impl CacheKind {
    /// Stable lowercase name used in trace output and filters.
    pub const fn name(self) -> &'static str {
        match self {
            CacheKind::L2 => "l2",
            CacheKind::Llc => "llc",
            CacheKind::Counter => "ctr_cache",
            CacheKind::Tree => "tree_cache",
            CacheKind::Mac => "mac_cache",
            CacheKind::Lmm => "lmm_cache",
        }
    }

    fn from_name(name: &str) -> Option<CacheKind> {
        Some(match name {
            "l2" => CacheKind::L2,
            "llc" => CacheKind::Llc,
            "ctr_cache" => CacheKind::Counter,
            "tree_cache" => CacheKind::Tree,
            "mac_cache" => CacheKind::Mac,
            "lmm_cache" => CacheKind::Lmm,
            _ => return None,
        })
    }
}

/// Outcome of a DRAM row-buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowResult {
    /// Row already open.
    Hit,
    /// Bank had no open row.
    Empty,
    /// A different row was open and had to be closed.
    Conflict,
}

impl RowResult {
    /// Stable lowercase name used in trace output.
    pub const fn name(self) -> &'static str {
        match self {
            RowResult::Hit => "hit",
            RowResult::Empty => "empty",
            RowResult::Conflict => "conflict",
        }
    }

    fn from_name(name: &str) -> Option<RowResult> {
        Some(match name {
            "hit" => RowResult::Hit,
            "empty" => RowResult::Empty,
            "conflict" => RowResult::Conflict,
            _ => return None,
        })
    }
}

/// The typed payload of one trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// One DRAM transaction, stamped at issue with its modeled latency.
    DramAccess {
        /// Channel index.
        channel: u8,
        /// Bank index within the channel.
        bank: u8,
        /// Row-buffer outcome.
        row: RowResult,
        /// Whether this was a write.
        is_write: bool,
        /// Modeled service latency in cycles.
        latency: Cycle,
    },
    /// A lookup in one of the modeled caches.
    CacheAccess {
        /// Which cache.
        cache: CacheKind,
        /// Whether the lookup hit.
        hit: bool,
        /// Whether the fill evicted a victim.
        evicted: bool,
    },
    /// One level of an integrity-tree walk (level 0 = leaf/counter).
    TreeWalkLevel {
        /// Tree level visited.
        level: u8,
        /// Whether the node was found cached (terminating the walk).
        hit: bool,
    },
    /// An NFL buffer lookup or insertion.
    NflbAccess {
        /// Whether the entry was present.
        hit: bool,
    },
    /// An NFL buffer eviction (writeback to the NFL memory region).
    NflbEvict,
    /// An attacker probe observation (the latency the attack measures).
    Probe {
        /// Which secret bit this probe round targets.
        bit: u32,
        /// Observed probe latency in cycles.
        latency: Cycle,
    },
    /// A secure-page allocation.
    PageAlloc {
        /// Whether allocation failed (forest/slot exhaustion).
        failed: bool,
    },
    /// A secure-page deallocation.
    PageDealloc,
    /// A run-phase boundary (e.g. warmup → measurement).
    Epoch {
        /// Name of the run segment that starts here, e.g. `"measure"`.
        label: &'static str,
    },
}

impl EventKind {
    /// Stable lowercase kind tag used in trace output and the CI smoke
    /// check.
    pub const fn tag(&self) -> &'static str {
        match self {
            EventKind::DramAccess { .. } => "dram",
            EventKind::CacheAccess { .. } => "cache",
            EventKind::TreeWalkLevel { .. } => "tree_walk",
            EventKind::NflbAccess { .. } => "nflb",
            EventKind::NflbEvict => "nflb_evict",
            EventKind::Probe { .. } => "probe",
            EventKind::PageAlloc { .. } => "page_alloc",
            EventKind::PageDealloc => "page_dealloc",
            EventKind::Epoch { .. } => "epoch",
        }
    }
}

/// One fully stamped trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emission order (global, gap-free until the ring drops).
    pub seq: u64,
    /// Simulated cycle stamp.
    pub cycle: Cycle,
    /// Emitting component, e.g. `"dram"`, `"scheme"`, `"attacker"`.
    pub component: &'static str,
    /// Security domain, when the event is domain-attributable.
    pub domain: Option<DomainId>,
    /// Issuing core, when known.
    pub core: Option<u8>,
    /// Typed payload.
    pub kind: EventKind,
}

/// Component/domain filter parsed from `IVL_TRACE_FILTER`.
///
/// Syntax: comma-separated component names plus an optional `domain=<n>`
/// term, e.g. `dram,tree_cache,domain=2`. An empty component list admits
/// every component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFilter {
    components: Vec<String>,
    domain: Option<DomainId>,
}

impl TraceFilter {
    /// A filter admitting everything.
    pub fn all() -> Self {
        TraceFilter::default()
    }

    /// Parses the `IVL_TRACE_FILTER` syntax.
    pub fn parse(spec: &str) -> Self {
        let mut f = TraceFilter::default();
        for term in spec.split(',') {
            let term = term.trim();
            if term.is_empty() {
                continue;
            }
            if let Some(d) = term.strip_prefix("domain=") {
                f.domain = d.trim().parse::<u16>().ok().and_then(DomainId::new);
            } else {
                f.components.push(term.to_string());
            }
        }
        f
    }

    /// Whether a record passes this filter.
    pub fn admits(&self, record: &TraceRecord) -> bool {
        let comp_ok =
            self.components.is_empty() || self.components.iter().any(|c| c == record.component);
        let domain_ok = match self.domain {
            None => true,
            Some(want) => record.domain == Some(want),
        };
        comp_ok && domain_ok
    }
}

#[derive(Debug)]
struct TracerInner {
    ring: VecDeque<TraceRecord>,
    cap: usize,
    filter: TraceFilter,
    next_seq: u64,
    dropped: u64,
}

/// Cheap cloneable tracing handle.
///
/// A tracer built with [`Tracer::disabled`] (the default) makes every
/// [`emit`](Tracer::emit) a single `None` check. Handles share one ring,
/// so every model in a run appends to the same buffer; runs are
/// single-threaded per worker, hence the `Rc<RefCell<…>>` backing (the
/// handle is deliberately `!Send` — never store it in anything returned
/// across threads).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TracerInner>>>,
}

impl Tracer {
    /// A no-op tracer.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An active tracer with the given ring capacity and filter.
    pub fn bounded(cap: usize, filter: TraceFilter) -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TracerInner {
                ring: VecDeque::with_capacity(cap.min(4096)),
                cap: cap.max(1),
                filter,
                next_seq: 0,
                dropped: 0,
            }))),
        }
    }

    /// Whether emits are recorded. Callers building expensive payloads
    /// should branch on this first.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event (drops the oldest record when the ring is full).
    pub fn emit(
        &self,
        cycle: Cycle,
        component: &'static str,
        domain: Option<DomainId>,
        core: Option<u8>,
        kind: EventKind,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut t = inner.borrow_mut();
        let record = TraceRecord {
            seq: t.next_seq,
            cycle,
            component,
            domain,
            core,
            kind,
        };
        t.next_seq = t.next_seq.saturating_add(1);
        if !t.filter.admits(&record) {
            return;
        }
        if t.ring.len() == t.cap {
            t.ring.pop_front();
            t.dropped = t.dropped.saturating_add(1);
        }
        t.ring.push_back(record);
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().ring.len())
    }

    /// Whether the buffer is empty (or the tracer disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped)
    }

    /// The buffered records, stably sorted by cycle (ties keep emission
    /// order). This is the canonical trace order written to JSONL.
    pub fn sorted_records(&self) -> Vec<TraceRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut records: Vec<TraceRecord> = inner.borrow().ring.iter().cloned().collect();
        records.sort_by_key(|r| (r.cycle, r.seq));
        records
    }

    /// Drains the ring (keeps the tracer active and the seq counter
    /// running).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().ring.clear();
        }
    }
}

/// Serializes records as JSONL — one compact JSON object per line, in the
/// given order.
pub fn records_to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = write!(
            out,
            "{{\"seq\": {}, \"cycle\": {}, \"comp\": \"{}\", \"kind\": \"{}\"",
            r.seq,
            r.cycle,
            r.component,
            r.kind.tag()
        );
        if let Some(d) = r.domain {
            let _ = write!(out, ", \"domain\": {}", d.index());
        }
        if let Some(c) = r.core {
            let _ = write!(out, ", \"core\": {c}");
        }
        match &r.kind {
            EventKind::DramAccess {
                channel,
                bank,
                row,
                is_write,
                latency,
            } => {
                let _ = write!(
                    out,
                    ", \"channel\": {channel}, \"bank\": {bank}, \"row\": \"{}\", \"write\": {is_write}, \"latency\": {latency}",
                    row.name()
                );
            }
            EventKind::CacheAccess {
                cache,
                hit,
                evicted,
            } => {
                let _ = write!(
                    out,
                    ", \"cache\": \"{}\", \"hit\": {hit}, \"evicted\": {evicted}",
                    cache.name()
                );
            }
            EventKind::TreeWalkLevel { level, hit } => {
                let _ = write!(out, ", \"level\": {level}, \"hit\": {hit}");
            }
            EventKind::NflbAccess { hit } => {
                let _ = write!(out, ", \"hit\": {hit}");
            }
            EventKind::NflbEvict | EventKind::PageDealloc => {}
            EventKind::Probe { bit, latency } => {
                let _ = write!(out, ", \"bit\": {bit}, \"latency\": {latency}");
            }
            EventKind::PageAlloc { failed } => {
                let _ = write!(out, ", \"failed\": {failed}");
            }
            EventKind::Epoch { label } => {
                let _ = write!(out, ", \"label\": \"{label}\"");
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Parses a JSONL trace back into records (line-oriented; the component
/// string is leaked per distinct name, which is fine for the handful of
/// fixed component names the models emit).
///
/// # Errors
///
/// Returns `(line_number, description)` for the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, (usize, String)> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        records.push(parse_line(line).map_err(|e| (idx + 1, e))?);
    }
    Ok(records)
}

fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let fields = split_flat_object(line)?;
    let get = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    let req = |k: &str| get(k).ok_or_else(|| format!("missing field `{k}`"));
    let num =
        |k: &str| -> Result<u64, String> { req(k)?.parse().map_err(|e| format!("bad `{k}`: {e}")) };
    let boolean = |k: &str| -> Result<bool, String> {
        req(k)?.parse().map_err(|e| format!("bad `{k}`: {e}"))
    };
    let unquote = |v: &str| -> Result<String, String> {
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("expected string, got `{v}`"))?;
        Ok(v.to_string())
    };

    let tag = unquote(req("kind")?)?;
    let kind = match tag.as_str() {
        "dram" => EventKind::DramAccess {
            channel: num("channel")? as u8,
            bank: num("bank")? as u8,
            row: RowResult::from_name(&unquote(req("row")?)?)
                .ok_or_else(|| "bad `row`".to_string())?,
            is_write: boolean("write")?,
            latency: num("latency")?,
        },
        "cache" => EventKind::CacheAccess {
            cache: CacheKind::from_name(&unquote(req("cache")?)?)
                .ok_or_else(|| "bad `cache`".to_string())?,
            hit: boolean("hit")?,
            evicted: boolean("evicted")?,
        },
        "tree_walk" => EventKind::TreeWalkLevel {
            level: num("level")? as u8,
            hit: boolean("hit")?,
        },
        "nflb" => EventKind::NflbAccess {
            hit: boolean("hit")?,
        },
        "nflb_evict" => EventKind::NflbEvict,
        "probe" => EventKind::Probe {
            bit: num("bit")? as u32,
            latency: num("latency")?,
        },
        "page_alloc" => EventKind::PageAlloc {
            failed: boolean("failed")?,
        },
        "page_dealloc" => EventKind::PageDealloc,
        "epoch" => EventKind::Epoch {
            label: leak_name(&unquote(req("label")?)?),
        },
        other => return Err(format!("unknown kind `{other}`")),
    };

    Ok(TraceRecord {
        seq: num("seq")?,
        cycle: num("cycle")?,
        component: leak_name(&unquote(req("comp")?)?),
        domain: get("domain")
            .map(|v| v.parse::<u16>())
            .transpose()
            .map_err(|e| format!("bad `domain`: {e}"))?
            .and_then(DomainId::new),
        core: get("core")
            .map(|v| v.parse::<u8>())
            .transpose()
            .map_err(|e| format!("bad `core`: {e}"))?,
        kind,
    })
}

/// Interns a component/label name as `&'static str`. Only the small fixed
/// vocabulary of model names ever reaches this, so the intentional leak is
/// bounded.
fn leak_name(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static KNOWN: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut known = KNOWN.lock().expect("name intern table poisoned");
    if let Some(existing) = known.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    known.insert(leaked);
    leaked
}

/// Splits one flat `{"k": v, ...}` object into `(key, raw_value)` pairs.
/// Values are either numbers, booleans, or strings without embedded
/// quotes/commas — all the trace serializer ever writes.
fn split_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let body = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or("line is not a JSON object")?;
    let mut fields = Vec::new();
    for part in split_top_level_commas(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part.split_once(':').ok_or("field missing `:`")?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or("key is not a string")?;
        fields.push((key.to_string(), value.trim().to_string()));
    }
    Ok(fields)
}

fn split_top_level_commas(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut in_string = false;
    let mut start = 0;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

/// Forensics: the attacker-visible probe observations in a trace, in
/// trace order — `(bit, latency)` pairs matching what `attack-sim`
/// records as `LatencySample`s.
pub fn probe_observations(records: &[TraceRecord]) -> Vec<(u32, Cycle)> {
    records
        .iter()
        .filter_map(|r| match r.kind {
            EventKind::Probe { bit, latency } => Some((bit, latency)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_tracer() -> Tracer {
        Tracer::bounded(16, TraceFilter::all())
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(5, "dram", None, None, EventKind::PageDealloc);
        assert!(t.is_empty());
        assert!(t.sorted_records().is_empty());
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let t = Tracer::bounded(3, TraceFilter::all());
        for i in 0..5u64 {
            t.emit(i, "dram", None, None, EventKind::PageDealloc);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<_> = t.sorted_records().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn sorted_records_orders_by_cycle_then_seq() {
        let t = probe_tracer();
        t.emit(10, "scheme", None, Some(1), EventKind::PageDealloc);
        t.emit(4, "dram", None, Some(0), EventKind::PageDealloc);
        t.emit(10, "dram", None, Some(0), EventKind::PageDealloc);
        let r = t.sorted_records();
        assert_eq!(
            r.iter().map(|r| (r.cycle, r.seq)).collect::<Vec<_>>(),
            vec![(4, 1), (10, 0), (10, 2)]
        );
    }

    #[test]
    fn filter_by_component_and_domain() {
        let f = TraceFilter::parse("dram, tree_cache, domain=2");
        let mk = |comp: &'static str, domain: Option<u16>| TraceRecord {
            seq: 0,
            cycle: 0,
            component: comp,
            domain: domain.map(DomainId::new_unchecked),
            core: None,
            kind: EventKind::PageDealloc,
        };
        assert!(f.admits(&mk("dram", Some(2))));
        assert!(!f.admits(&mk("dram", Some(3))));
        assert!(!f.admits(&mk("dram", None)));
        assert!(!f.admits(&mk("scheme", Some(2))));
        assert!(TraceFilter::all().admits(&mk("anything", None)));
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let t = probe_tracer();
        t.emit(
            1,
            "dram",
            Some(DomainId::new_unchecked(3)),
            Some(2),
            EventKind::DramAccess {
                channel: 1,
                bank: 7,
                row: RowResult::Conflict,
                is_write: true,
                latency: 38,
            },
        );
        t.emit(
            2,
            "scheme",
            Some(DomainId::new_unchecked(3)),
            None,
            EventKind::CacheAccess {
                cache: CacheKind::Tree,
                hit: false,
                evicted: true,
            },
        );
        t.emit(
            3,
            "scheme",
            None,
            None,
            EventKind::TreeWalkLevel {
                level: 4,
                hit: true,
            },
        );
        t.emit(
            4,
            "scheme",
            None,
            None,
            EventKind::NflbAccess { hit: false },
        );
        t.emit(5, "scheme", None, None, EventKind::NflbEvict);
        t.emit(
            6,
            "attacker",
            None,
            None,
            EventKind::Probe {
                bit: 12,
                latency: 900,
            },
        );
        t.emit(
            7,
            "scheme",
            None,
            None,
            EventKind::PageAlloc { failed: true },
        );
        t.emit(8, "scheme", None, None, EventKind::PageDealloc);
        t.emit(9, "run", None, None, EventKind::Epoch { label: "measure" });
        let records = t.sorted_records();
        let text = records_to_jsonl(&records);
        let back = parse_jsonl(&text).expect("parse own output");
        assert_eq!(back, records);
    }

    #[test]
    fn probe_observations_keep_only_probe_events() {
        let t = probe_tracer();
        t.emit(
            1,
            "scheme",
            None,
            None,
            EventKind::CacheAccess {
                cache: CacheKind::Counter,
                hit: true,
                evicted: false,
            },
        );
        t.emit(
            2,
            "attacker",
            None,
            None,
            EventKind::Probe {
                bit: 5,
                latency: 777,
            },
        );
        assert_eq!(probe_observations(&t.sorted_records()), vec![(5, 777)]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"seq\": 0}").is_err());
        let err = parse_jsonl("{\"seq\": 0, \"cycle\": 1, \"comp\": \"x\", \"kind\": \"nope\"}")
            .unwrap_err();
        assert_eq!(err.0, 1);
    }
}
