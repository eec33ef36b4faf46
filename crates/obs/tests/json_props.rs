//! Property tests for the one JSON type: malformed input must produce
//! [`JsonError`]s, never panics, and whatever `Json`'s writer (its
//! `Display`) prints must read back exactly — numbers to the bit.

use proptest::prelude::*;
use proptest::TestRng;
use qpo_obs::json::{parse_json, Json};
use rand::Rng;

/// `a == b` with numbers compared by `to_bits`, so `-0.0` is not `0.0`.
fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Number(x), Json::Number(y)) => x.to_bits() == y.to_bits(),
        (Json::Array(xs), Json::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Json::Object(xs), Json::Object(ys)) => {
            let pair =
                |((k, x), (l, y)): (&(String, Json), &(String, Json))| k == l && same_bits(x, y);
            xs.len() == ys.len() && xs.iter().zip(ys).all(pair)
        }
        _ => a == b,
    }
}

fn gen_string(rng: &mut TestRng) -> String {
    // Escape-relevant characters, control bytes, and multi-byte UTF-8
    // (including an astral char, which the writer emits raw and the
    // reader must slice on byte offsets without panicking).
    let soup: Vec<char> = "abz\"\\\n\r\t\u{0}\u{1}\u{1f}\u{7f}éπ🦀\u{10ffff} /"
        .chars()
        .collect();
    let n = rng.gen_range(0usize..12);
    (0..n).map(|_| soup[rng.gen_range(0..soup.len())]).collect()
}

/// Finite numbers only: any bit pattern that is one, signed zeros, and
/// the extremes of the exponent range.
fn gen_number(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 6] = [
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        -1e300,
        9007199254740993.0,
    ];
    match rng.gen_range(0u32..6) {
        0 => rng.gen_range(-1.0e9..1.0e9f64),
        1 => rng.gen_range(-1000i64..1000) as f64,
        2 => 2f64.powi(rng.gen_range(-60i32..60)),
        3 => Some(f64::from_bits(rng.gen::<u64>()))
            .filter(|x| x.is_finite())
            .unwrap_or(0.0),
        4 => EDGES[rng.gen_range(0..EDGES.len())],
        _ => 0.0,
    }
}

fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    let top = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0u32..top) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0u32..2) == 0),
        2 => Json::Number(gen_number(rng)),
        3 => Json::String(gen_string(rng)),
        4 => {
            let n = rng.gen_range(0usize..4);
            Json::Array((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0usize..4);
            Json::Object(
                (0..n)
                    .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Arbitrary [`Json`] trees, depth-bounded (the shim has no
/// `prop_recursive`, so the recursion lives in a plain generator).
struct JsonTree;

impl proptest::strategy::Strategy for JsonTree {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        gen_json(rng, 3)
    }
}

/// Character soup skewed toward JSON's structural tokens, so deep but
/// broken nestings, dangling escapes, and cut-off literals all appear.
fn json_soup() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('{'),
            Just('}'),
            Just('['),
            Just(']'),
            Just('"'),
            Just(','),
            Just(':'),
            Just('\\'),
            Just('.'),
            Just('-'),
            Just('+'),
            Just('e'),
            Just('u'),
            Just('t'),
            Just('n'),
            Just('0'),
            Just('9'),
            Just(' '),
            Just('é'),
            Just('🦀'),
        ],
        0..48,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn malformed_input_errors_instead_of_panicking(soup in json_soup()) {
        // The property is that this call returns at all: every failure
        // path must surface as a JsonError (satellite of PR 8 — the two
        // `expect`s this reader used to contain turned char soup into
        // panics). On error, the offset stays inside the input and the
        // Display form renders.
        if let Err(e) = parse_json(&soup) {
            prop_assert!(e.offset <= soup.len(), "offset {} past {}", e.offset, soup.len());
            prop_assert!(e.to_string().contains("json error at byte"));
        }
    }

    #[test]
    fn truncated_documents_never_panic(doc in JsonTree, cut in 0.0..1.0f64) {
        let text = doc.to_string();
        // Truncate at an arbitrary char boundary: mid-literal, mid-escape,
        // mid-number. The reader must error or (for a prefix that happens
        // to be complete, e.g. a cut-short number) parse cleanly.
        let boundary = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .nth((cut * text.chars().count() as f64) as usize)
            .unwrap_or(0);
        let _ = parse_json(&text[..boundary]);
    }

    #[test]
    fn writer_output_reads_back_exactly(doc in JsonTree) {
        let text = doc.to_string();
        let parsed = parse_json(&text);
        let exact = parsed.as_ref().is_ok_and(|p| same_bits(p, &doc));
        prop_assert!(exact, "{:?} from {}", parsed, text);
        // And the round-trip is a fixed point: re-serializing the parsed
        // value reproduces the bytes.
        prop_assert_eq!(parsed.unwrap().to_string(), text);
    }

    #[test]
    fn trailing_garbage_is_rejected(doc in JsonTree, tail in json_soup()) {
        let mut text = doc.to_string();
        let trimmed_tail = tail.trim();
        text.push(' ');
        text.push_str(trimmed_tail);
        if trimmed_tail.is_empty() {
            prop_assert!(parse_json(&text).is_ok());
        } else {
            // Any non-whitespace after one complete value is an error;
            // `parse_json` reads exactly one document.
            prop_assert!(parse_json(&text).is_err(), "accepted {}", text);
        }
    }
}

#[test]
fn a_non_finite_number_prints_null() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Number(x).to_string(), "null");
        let doc = Json::Array(vec![Json::Number(x), Json::Number(1.5)]);
        assert_eq!(doc.to_string(), "[null,1.5]");
    }
}
