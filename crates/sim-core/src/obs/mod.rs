//! Workspace-wide observability layer.
//!
//! Three cooperating pieces (see DESIGN.md §8):
//!
//! * [`registry`] — hierarchical dotted-path statistics snapshots with
//!   delta support and JSON export;
//! * [`trace`] — a bounded, cycle-stamped, typed event ring with a JSONL
//!   sink and a probe-forensics helper;
//! * [`timeline`] — windowed simulated-time metric series (counters and
//!   log₂ histograms per cycle window) with JSONL export.
//!
//! Host time is not measured here: the benchmark's traced pass times each
//! layer from outside the simulator (DESIGN.md §8).
//!
//! Models receive a cloneable [`Obs`] handle; a default-constructed
//! handle is fully disabled and costs one branch per would-be event.
//! Runners build the handle from the environment via
//! [`ObsConfig::from_env`]:
//!
//! | Variable | Effect |
//! |---|---|
//! | `IVL_TRACE` | `1`/`true` → trace to a default file; any other value → trace to that path |
//! | `IVL_TRACE_FILTER` | comma list of components, optional `domain=<n>` |
//! | `IVL_TRACE_CAP` | ring capacity (default `2^20` records) |
//! | `IVL_STATS_JSON` | write the measured stats registry (flat JSON) to this path |
//! | `IVL_TIMELINE` | `1`/`true` → record windowed time series to a default file; any other value → to that path |
//! | `IVL_TIMELINE_WINDOW` | window width in simulated cycles (default `10_000`) |
//! | `IVL_TIMELINE_CAP` | retained windows per series (default `4096`, drop-oldest) |

pub mod registry;
pub mod timeline;
pub mod trace;

use std::path::{Path, PathBuf};

pub use registry::{StatValue, StatsRegistry};
pub use timeline::{Timeline, TimelineData, DEFAULT_TIMELINE_CAP, DEFAULT_TIMELINE_WINDOW};
pub use trace::{
    CacheKind, EventKind, RowResult, TraceFilter, TraceRecord, Tracer, DEFAULT_TRACE_CAP,
};

/// The observability handle a run threads through its models: a tracer
/// and a timeline, both cloneable and both no-ops by default.
///
/// The handle is `!Send` by design (single-threaded per run);
/// never store it in results returned across threads.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Structured event tracer.
    pub tracer: Tracer,
    /// Windowed simulated-time series recorder.
    pub timeline: Timeline,
}

impl Obs {
    /// A fully disabled handle.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Builds the live handle an [`ObsConfig`] asks for.
    pub fn from_config(cfg: &ObsConfig) -> Self {
        Obs {
            tracer: if cfg.trace {
                Tracer::bounded(cfg.trace_cap, cfg.trace_filter.clone())
            } else {
                Tracer::disabled()
            },
            timeline: if cfg.timeline {
                Timeline::bounded(cfg.timeline_window, cfg.timeline_cap)
            } else {
                Timeline::disabled()
            },
        }
    }
}

/// What a run should observe and where the sinks go, typically parsed
/// from the environment by [`ObsConfig::from_env`] at the start of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Record a structured trace.
    pub trace: bool,
    /// Trace ring capacity.
    pub trace_cap: usize,
    /// Component/domain filter.
    pub trace_filter: TraceFilter,
    /// JSONL sink path (`None` → caller decides / no file).
    pub trace_path: Option<PathBuf>,
    /// Stats-registry JSON sink path.
    pub stats_path: Option<PathBuf>,
    /// Record windowed simulated-time series.
    pub timeline: bool,
    /// Timeline window width in simulated cycles.
    pub timeline_window: u64,
    /// Retained windows per timeline series.
    pub timeline_cap: usize,
    /// Timeline JSONL sink path (`None` → caller decides / no file).
    pub timeline_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Everything off.
    pub fn off() -> Self {
        ObsConfig {
            trace_cap: DEFAULT_TRACE_CAP,
            timeline_window: DEFAULT_TIMELINE_WINDOW,
            timeline_cap: DEFAULT_TIMELINE_CAP,
            ..ObsConfig::default()
        }
    }

    /// Parses the variables in the module-level table.
    pub fn from_env() -> Self {
        let mut cfg = ObsConfig::off();
        if let Ok(v) = std::env::var("IVL_TRACE") {
            let v = v.trim();
            if !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false") {
                cfg.trace = true;
                cfg.trace_path = Some(PathBuf::from(
                    if v == "1" || v.eq_ignore_ascii_case("true") {
                        "ivl_trace.jsonl"
                    } else {
                        v
                    },
                ));
            }
        }
        if let Ok(v) = std::env::var("IVL_TRACE_FILTER") {
            cfg.trace_filter = TraceFilter::parse(&v);
        }
        if let Ok(v) = std::env::var("IVL_TRACE_CAP") {
            if let Ok(cap) = v.trim().parse::<usize>() {
                cfg.trace_cap = cap.max(1);
            }
        }
        if let Ok(v) = std::env::var("IVL_STATS_JSON") {
            if !v.trim().is_empty() {
                cfg.stats_path = Some(PathBuf::from(v.trim()));
            }
        }
        if let Ok(v) = std::env::var("IVL_TIMELINE") {
            let v = v.trim();
            if !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false") {
                cfg.timeline = true;
                cfg.timeline_path = Some(PathBuf::from(
                    if v == "1" || v.eq_ignore_ascii_case("true") {
                        "ivl_timeline.jsonl"
                    } else {
                        v
                    },
                ));
            }
        }
        if let Ok(v) = std::env::var("IVL_TIMELINE_WINDOW") {
            if let Ok(w) = v.trim().parse::<u64>() {
                cfg.timeline_window = w.max(1);
            }
        }
        if let Ok(v) = std::env::var("IVL_TIMELINE_CAP") {
            if let Ok(cap) = v.trim().parse::<usize>() {
                cfg.timeline_cap = cap.max(1);
            }
        }
        cfg
    }

    /// Whether any sink or instrument is on.
    pub fn any_enabled(&self) -> bool {
        self.trace || self.stats_path.is_some() || self.timeline
    }
}

/// Inserts `tag` before the extension: `out.json` + `mix8.basic` →
/// `out.mix8.basic.json`. Parallel matrix runs use this so each
/// (mix, scheme) run writes its own sink file instead of clobbering one
/// path.
pub fn decorate_path(path: &Path, tag: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}.{tag}.{ext}"),
        None => format!("{stem}.{tag}"),
    };
    path.with_file_name(name)
}

/// Sanitizes a label (mix/scheme name) into a filename-safe tag.
pub fn path_tag(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes a stats registry to `path` as flat JSON.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_stats_json(reg: &StatsRegistry, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, reg.to_json())
}

/// Writes trace records to `path` as JSONL.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_trace_jsonl(records: &[TraceRecord], path: &Path) -> std::io::Result<()> {
    std::fs::write(path, trace::records_to_jsonl(records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_is_fully_disabled() {
        let obs = Obs::disabled();
        assert!(!obs.tracer.enabled());
        assert!(!obs.timeline.enabled());
    }

    #[test]
    fn from_config_enables_requested_pieces() {
        let mut cfg = ObsConfig::off();
        cfg.trace = true;
        cfg.timeline = true;
        let obs = Obs::from_config(&cfg);
        assert!(obs.tracer.enabled());
        assert!(obs.timeline.enabled());
        let off = Obs::from_config(&ObsConfig::off());
        assert!(!off.tracer.enabled() && !off.timeline.enabled());
    }

    #[test]
    fn decorate_path_inserts_tag_before_extension() {
        assert_eq!(
            decorate_path(Path::new("/tmp/out.json"), "mix8.basic"),
            PathBuf::from("/tmp/out.mix8.basic.json")
        );
        assert_eq!(
            decorate_path(Path::new("trace"), "a"),
            PathBuf::from("trace.a")
        );
    }

    #[test]
    fn path_tag_sanitizes() {
        assert_eq!(path_tag("IvLeague-Pro (8 mixes)"), "IvLeague-Pro__8_mixes_");
    }
}
