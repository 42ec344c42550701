//! The shared JSON codec: random value trees round-trip through the writer
//! and parser, malformed documents are rejected at the right byte, and the
//! files the observability layer and the micro benches have always written
//! parse to the values they carry.

use ivl_sim_core::json::Json;
use ivl_sim_core::obs::timeline::Cell;
use ivl_sim_core::obs::trace::{parse_jsonl, probe_observations, records_to_jsonl};
use ivl_sim_core::obs::{StatValue, StatsRegistry, TimelineData};
use ivl_sim_core::rng::Xoshiro256;
use ivl_testkit::prelude::*;

/// Escaped characters, every class of control character, multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', ' ', ',', ':', '{', ']', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    '😀',
];

fn random_string(rng: &mut Xoshiro256) -> String {
    (0..rng.index(6))
        .map(|_| CHARS[rng.index(CHARS.len())])
        .collect()
}

fn random_json(rng: &mut Xoshiro256, depth: usize) -> Json {
    match rng.index(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Bool(rng.chance(0.5)),
        1 => Json::U64([u64::MAX, 0, rng.next_u64()][rng.index(3)]),
        2 => Json::F64([-0.0, 2.0, -2.5e-7, 1e20, -1.5e300, 5e-324][rng.index(6)]),
        // Any finite bit pattern: negative, subnormal, huge exponents.
        3 => Json::F64(
            Some(f64::from_bits(rng.next_u64()))
                .filter(|v| v.is_finite())
                .unwrap_or(0.5),
        ),
        4 => Json::Str(random_string(rng).into()),
        5 => Json::Array(
            (0..rng.index(4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.index(4))
                .map(|_| (random_string(rng).into(), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

props! {
    #[test]
    fn random_trees_round_trip(seed in any::<u64>(), depth in 0usize..4) {
        let value = random_json(&mut Xoshiro256::seed_from(seed), depth);
        let text = value.to_string();
        prop_assert!(!text.contains('\n'), "the writer emits one line");
        let back = Json::parse(&text).map_err(|e| e.to_string());
        // Compare the re-written text too: `==` cannot tell -0.0 from 0.0.
        prop_assert_eq!(back.as_ref().map(Json::to_string), Ok(text.clone()));
        prop_assert_eq!(back, Ok(value));
    }
}

#[test]
fn malformed_documents_are_rejected_at_their_offset() {
    let deep = "[".repeat(200);
    let cases = [
        (r#"{"a": 1,}"#, 8),   // trailing comma in an object
        ("[1, 2,]", 6),        // trailing comma in an array
        (r#"{"a": "abc"#, 10), // unterminated string
        (r#""a\qb""#, 3),      // bad escape
        (r#""\u12g4""#, 3),    // short unicode escape
        ("nope", 0),           // bare word
        (r#"{"a": null}"#, 6), // null (nothing writes it)
        (r#"{"a": 1"#, 7),     // truncated object
        (r#"{"a""#, 4),        // truncated after a key
        ("", 0),               // empty document
        ("-", 1),              // sign without digits
        ("\"a\u{1}\"", 2),     // raw control character
        ("{} x", 3),           // trailing characters
        (&deep, 128),          // nesting past the bound
    ];
    for (text, offset) in cases {
        let err = Json::parse(text).expect_err(text);
        assert_eq!(err.offset, offset, "`{text}`: {err}");
    }
}

/// Compact timeline JSONL, in the separators it was written with before
/// the shared codec (header, series meta and window lines).
const TIMELINE: &str = r#"{"timeline":1,"window":10000,"cap":4096}
{"series":"dram.busy_cycles","kind":"counter","dropped":0}
{"series":"dram.busy_cycles","w":0,"start":0,"v":25388}
{"series":"dram.latency","kind":"hist","dropped":3}
{"series":"dram.latency","w":1,"start":10000,"count":261,"sum":194550,"min":60,"max":1553,"b":"6:13,8:27,11:58"}
"#;

#[test]
fn compact_timeline_parses_and_writes_back_with_spaced_separators() {
    let data = TimelineData::parse_jsonl(TIMELINE).expect("fixture parses");
    assert_eq!((data.window, data.cap), (10_000, 4096));
    assert_eq!(data.counter_sum("dram.busy_cycles"), Some(25_388));
    let lat = &data.series["dram.latency"];
    let Some((1, Cell::Hist(h))) = lat.windows.front() else {
        panic!("hist window 1 expected: {lat:?}");
    };
    assert_eq!(
        (lat.dropped, h.count, h.sum, h.min, h.max),
        (3, 261, 194_550, 60, 1553)
    );
    assert_eq!((h.buckets[6], h.buckets[8], h.buckets[11]), (13, 27, 58));
    assert_eq!(h.buckets.iter().sum::<u64>(), 98);
    let written = data.to_jsonl();
    assert_eq!(
        written.replace("\": ", "\":").replace(", \"", ",\""),
        TIMELINE
    );
}

const TRACE: &str = r#"{"seq": 0, "cycle": 0, "comp": "dram", "kind": "dram", "channel": 1, "bank": 13, "row": "empty", "write": false, "latency": 104}
{"seq": 16, "cycle": 337, "comp": "cache", "kind": "cache", "domain": 1, "core": 0, "cache": "l2", "hit": false, "evicted": false}
{"seq": 666587, "cycle": 7424164, "comp": "attacker", "kind": "probe", "domain": 2, "bit": 0, "latency": 388}
"#;

#[test]
fn trace_parses_and_writes_back_byte_identical() {
    let records = parse_jsonl(TRACE).expect("fixture parses");
    assert_eq!(records.len(), 3);
    let cache = &records[1];
    assert_eq!(
        (cache.seq, cache.cycle, cache.component),
        (16, 337, "cache")
    );
    assert_eq!(
        (cache.domain.map(|d| d.index()), cache.core),
        (Some(1), Some(0))
    );
    assert_eq!(probe_observations(&records), [(0, 388)]);
    assert_eq!(records_to_jsonl(&records), TRACE);
}

const REGISTRY: &str = r#"{
  "attack.accuracy": 1.0,
  "attack.probes": 128,
  "core0.l2": {"hits": 0, "misses": 12000},
  "scheme.d1.nflb_occupancy": 2.5e-7,
  "scheme.walk_depth": [0, 4272, 748, 121, 16, 0, 0, 0]
}
"#;

#[test]
fn registry_parses_and_writes_back_byte_identical() {
    let reg = StatsRegistry::parse_json(REGISTRY).expect("fixture parses");
    assert_eq!(reg.gauge("attack.accuracy"), Some(1.0));
    assert_eq!(reg.counter("attack.probes"), Some(128));
    let l2 = reg.ratio("core0.l2").unwrap();
    assert_eq!((l2.hits(), l2.misses()), (0, 12_000));
    assert_eq!(reg.gauge("scheme.d1.nflb_occupancy"), Some(2.5e-7));
    let depth = StatValue::Histogram(vec![0, 4272, 748, 121, 16, 0, 0, 0]);
    assert_eq!(reg.get("scheme.walk_depth"), Some(&depth));
    assert_eq!(reg.to_json(), REGISTRY);
}

/// The head of `BENCH_pr12.json`: three-decimal timings.
const BENCH: &str = r#"{
  "suite": "micro",
  "unit": "ns_per_iter",
  "benches": [
    {"name": "crypto/aes128_encrypt_block", "median_ns": 6.486, "p95_ns": 8.439, "mean_ns": 6.746, "min_ns": 6.399, "max_ns": 8.439, "throughput_per_sec": 154181661.260, "samples": 10, "iters_per_sample": 80032}
  ]
}
"#;

#[test]
fn bench_snapshot_parses() {
    let doc = Json::parse(BENCH).expect("fixture parses");
    assert_eq!(doc.get("suite").and_then(Json::as_str), Some("micro"));
    let Some(Json::Array(benches)) = doc.get("benches") else {
        panic!("benches array expected");
    };
    let first = |k| benches[0].get(k).cloned();
    assert_eq!(first("name"), Some("crypto/aes128_encrypt_block".into()));
    assert_eq!(first("median_ns"), Some(Json::F64(6.486)));
    assert_eq!(first("throughput_per_sec"), Some(Json::F64(154_181_661.26)));
    assert_eq!(first("samples"), Some(Json::U64(10)));
}
