//! No-panic properties of the wire codecs: every decoder a daemon or client
//! runs on untrusted bytes — `ServiceRequest`, `ServiceResponse`,
//! `CacheRecord` and `StatsSnapshot` — must answer `Ok` or `Err` for any
//! input, never panic. Inputs are arbitrary bytes, JSON-token soup,
//! truncations and splices of real wire lines, byte-level and field-level
//! mutations of them, and deep `[`/`{` nesting.

use std::sync::OnceLock;

use proptest::prelude::*;

use noc_sprinting::metrics::StatsSnapshot;
use noc_sprinting::runner::ExperimentRunner;
use noc_sprinting::service::{
    code_version, metrics_from_pairs, CacheRecord, DiskResultCache, ServiceRequest,
    ServiceResponse, SweepService,
};
use noc_sprinting::telemetry::JsonValue;
use noc_sprinting::Experiment;

/// `stats` follows the batch so its snapshot carries populated histograms.
const REQUESTS: [&str; 5] = [
    r#"{"type":"ping"}"#,
    r#"{"type":"cancel","id":"gone"}"#,
    concat!(
        r#"{"type":"submit","id":"w","label":"wire","priority":-2,"jobs":["#,
        r#"{"level":4,"pattern":"uniform","rate":0.03,"seed":"0x65","baseline":"noc_sprinting"},"#,
        r#"{"topology":"circ16s5","level":6,"pattern":"hotspot","hot_fraction":0.3,"rate":0.05,"seed":"0x66","baseline":"random_endpoints"}"#,
        r#"]}"#
    ),
    r#"{"type":"stats"}"#,
    r#"{"type":"shutdown"}"#,
];

/// Real wire lines of every kind: the requests above, every event an
/// in-process service answers them with, the stats snapshot on its own, a
/// `busy` event and a cache record built from a served point.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let mut lines: Vec<String> = REQUESTS.iter().map(|r| r.to_string()).collect();
        let mut events = Vec::new();
        for request in REQUESTS
            .iter()
            .filter(|r| !r.contains("shutdown"))
            .chain(&["not json"])
        {
            service.handle_line(request, &mut |ev| events.push(ev));
        }
        for ev in &events {
            lines.push(ev.to_json_line());
            if let ServiceResponse::Stats { snapshot } = ev {
                // The standalone form `noc_top --once --json` dumps.
                lines.push(snapshot.to_json().to_json());
            }
            if let ServiceResponse::Point { point, .. } = ev {
                let record = CacheRecord {
                    key: point.config_hash,
                    seed: point.seed,
                    version: code_version("quick"),
                    value: metrics_from_pairs(&point.metrics).expect("served metrics"),
                };
                lines.push(record.to_json_line());
            }
        }
        lines.push(
            ServiceResponse::Busy {
                id: "w".into(),
                pending: 7,
                limit: 4,
            }
            .to_json_line(),
        );
        lines
    })
}

/// Runs every wire decoder over `text`. Each returns a `Result`; reaching
/// the end of this function is the property.
fn decode_all(text: &str) {
    let _ = ServiceRequest::from_json_line(text);
    let _ = ServiceResponse::from_json_line(text);
    let _ = CacheRecord::from_json_line(text);
    if let Ok(v) = JsonValue::parse(text) {
        let _ = StatsSnapshot::from_json(&v);
    }
}

/// Characters and fragments that steer random input into the parsers'
/// deeper states.
#[rustfmt::skip]
const TOKENS: [&str; 30] = [
    "{", "}", "[", "]", "\"", ":", ",", " ", "\\", "\\u", "0", "1", "-", ".", "e", "0x",
    "true", "false", "null", "\"type\"", "\"submit\"", "\"point\"", "\"stats\"", "\"jobs\"",
    "\"cache\"", "\"metrics\"", "\"schema\":1", "\"index\"", "\u{e9}", "\u{1f600}",
];

/// How many distinct [`replacement`]s there are.
const REPLACEMENTS: usize = 11;

/// Values a field mutation swaps in: wrong types, out-of-range numbers and
/// malformed hex identities (`None` deletes the field instead).
fn replacement(pick: usize) -> Option<JsonValue> {
    [
        None,
        Some(JsonValue::Null),
        Some(JsonValue::Bool(true)),
        Some(JsonValue::Num(-1.0)),
        Some(JsonValue::Num(0.5)),
        Some(JsonValue::Num(1e300)),
        Some(JsonValue::Str(String::new())),
        Some(JsonValue::Str("0xZZ".into())),
        Some(JsonValue::Str("0x1ffffffffffffffff".into())),
        Some(JsonValue::Arr(Vec::new())),
        Some(JsonValue::Obj(Vec::new())),
    ][pick]
        .clone()
}

/// Walks `path` (child indices from the root, as [`paths`] lists them)
/// and replaces, or deletes, the field or element it ends on.
fn mutate_at(v: &mut JsonValue, path: &[usize], new: Option<JsonValue>) {
    let Some((&i, rest)) = path.split_first() else {
        return;
    };
    match v {
        JsonValue::Obj(pairs) if rest.is_empty() => match new {
            Some(n) => pairs[i].1 = n,
            None => drop(pairs.remove(i)),
        },
        JsonValue::Arr(items) if rest.is_empty() => match new {
            Some(n) => items[i] = n,
            None => drop(items.remove(i)),
        },
        JsonValue::Obj(pairs) => mutate_at(&mut pairs[i].1, rest, new),
        JsonValue::Arr(items) => mutate_at(&mut items[i], rest, new),
        _ => unreachable!("paths only descend into containers"),
    }
}

/// Nesting openers: bare arrays, and objects whose key is a field a decoder
/// descends into.
const OPENERS: [&str; 4] = ["[", "{\"jobs\":", "{\"metrics\":", "{\"value\":"];

#[test]
fn corpus_lines_decode_under_their_own_codec() {
    // Requests lead the corpus; every later line is an answer.
    let corpus = &corpus()[REQUESTS.len()..];
    for kind in [
        "accepted",
        "progress",
        "point",
        "done",
        "pong",
        "stats",
        "cancelled",
        "busy",
        "error",
    ] {
        let tag = format!("{{\"type\":\"{kind}\"");
        let line = corpus
            .iter()
            .find(|l| l.starts_with(&tag))
            .unwrap_or_else(|| panic!("corpus lacks a {kind} event"));
        assert!(ServiceResponse::from_json_line(line).is_ok(), "{line}");
    }
    for request in REQUESTS {
        assert!(ServiceRequest::from_json_line(request).is_ok(), "{request}");
    }
    let cache = corpus
        .iter()
        .find(|l| l.starts_with("{\"type\":\"cache\""))
        .expect("cache line");
    assert!(CacheRecord::from_json_line(cache).is_ok());
    let stats = corpus
        .iter()
        .find(|l| l.starts_with("{\"type\":\"stats\""))
        .expect("stats line");
    let snapshot = JsonValue::parse(stats)
        .unwrap()
        .get("snapshot")
        .cloned()
        .unwrap();
    assert!(StatsSnapshot::from_json(&snapshot).is_ok());
}

/// Every path to a field or element of `v`, as child indices from the root.
fn paths(v: &JsonValue, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&JsonValue> = match v {
        JsonValue::Obj(pairs) => pairs.iter().map(|(_, c)| c).collect(),
        JsonValue::Arr(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        prefix.push(i);
        out.push(prefix.clone());
        paths(child, prefix, out);
        prefix.pop();
    }
}

/// Exhaustive over the corpus: every field and element of every real line,
/// replaced by every value in [`replacement`] or deleted.
#[test]
fn every_field_mutation_decodes_without_panic() {
    for line in corpus() {
        let original = JsonValue::parse(line).expect("corpus line parses");
        let mut all = Vec::new();
        paths(&original, &mut Vec::new(), &mut all);
        for path in &all {
            for pick in 0..REPLACEMENTS {
                let mut v = original.clone();
                mutate_at(&mut v, path, replacement(pick));
                decode_all(&v.to_json());
            }
        }
    }
}

#[test]
fn very_deep_nesting_is_an_error() {
    for opener in OPENERS {
        let deep = opener.repeat(200_000);
        decode_all(&deep);
        assert!(ServiceRequest::from_json_line(&deep).is_err());
        let inside = format!("{{\"type\":\"submit\",\"id\":\"d\",\"jobs\":{deep}");
        assert!(ServiceRequest::from_json_line(&inside).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(tokens in prop::collection::vec(0usize..TOKENS.len(), 0..256)) {
        let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        decode_all(&text);
    }

    #[test]
    fn truncated_and_spliced_lines_never_panic(
        a in 0usize..1024,
        b in 0usize..1024,
        cut_a in 0usize..4096,
        cut_b in 0usize..4096,
    ) {
        let corpus = corpus();
        let (a, b) = (corpus[a % corpus.len()].as_bytes(), corpus[b % corpus.len()].as_bytes());
        let (cut_a, cut_b) = (cut_a % (a.len() + 1), cut_b % (b.len() + 1));
        decode_all(&String::from_utf8_lossy(&a[..cut_a]));
        let mut spliced = a[..cut_a].to_vec();
        spliced.extend_from_slice(&b[cut_b..]);
        decode_all(&String::from_utf8_lossy(&spliced));
    }

    #[test]
    fn mutated_lines_never_panic(
        line in 0usize..1024,
        edits in prop::collection::vec((0usize..4096, 0u8..=255), 1..8),
    ) {
        let corpus = corpus();
        let mut bytes = corpus[line % corpus.len()].as_bytes().to_vec();
        for (pos, byte) in edits {
            let at = pos % bytes.len();
            bytes[at] = byte;
        }
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn nesting_near_the_depth_limit_never_panics(
        openers in prop::collection::vec(0usize..OPENERS.len(), 0..160),
        close in any::<bool>(),
    ) {
        let mut text: String = openers.iter().map(|&o| OPENERS[o]).collect();
        text.push('1');
        if close {
            for &o in openers.iter().rev() {
                text.push(if o == 0 { ']' } else { '}' });
            }
        }
        decode_all(&text);
        let inside = format!("{{\"type\":\"submit\",\"id\":\"d\",\"jobs\":[{{\"level\":{text}}}]}}");
        decode_all(&inside);
    }
}
