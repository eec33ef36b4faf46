//! Property tests for the source-server wire protocol: arbitrary requests
//! and replies — trace context and span included — round-trip
//! bit-exactly, and arbitrary byte soup never panics a decoder — it
//! errors, or it is the one encoding of what it decodes to.
//! Binding-pattern text, which rides the request's pattern field,
//! round-trips canonically and its parser is total: byte soup reads as a
//! scan.

use proptest::prelude::*;
use qpo_datalog::{Constant, Tuple};
use qpo_runtime::pattern::{BindingPattern, SCAN_PATTERN};
use qpo_runtime::wire::{
    decode_relation, decode_request, decode_response, encode_relation, encode_request,
    encode_response, read_frame, stamp_span, write_frame, Reply, Request, Response,
};
use qpo_runtime::RemoteSpan;

/// An ASCII identifier-ish string (the shim has no regex strategies).
fn arb_name(max_len: usize) -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_- ";
    proptest::collection::vec(0usize..ALPHABET.len(), 0..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i] as char).collect())
}

fn arb_constant() -> impl Strategy<Value = Constant> {
    prop_oneof![
        any::<i64>().prop_map(Constant::Int).boxed(),
        arb_name(12).prop_map(|s| Constant::Str(s.into())).boxed(),
    ]
}

/// A string constant out of the characters a pattern's grammar uses
/// itself, plus NUL, a space and multi-byte UTF-8 — everything the
/// length prefix exists to make harmless.
fn arb_hostile_string() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        'a', 'i', 's', '0', '9', ';', '=', ':', '-', ' ', '\0', '\n', 'é', '貓', '🎬',
    ];
    proptest::collection::vec(0usize..ALPHABET.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_bindings() -> impl Strategy<Value = Vec<(usize, Constant)>> {
    let constant = prop_oneof![
        any::<i64>().prop_map(Constant::Int).boxed(),
        arb_hostile_string()
            .prop_map(|s| Constant::Str(s.into()))
            .boxed(),
    ];
    proptest::collection::vec((0usize..6, constant), 0..6)
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_constant(), 0..5)
}

/// A request's owned parts: source, pattern and trace context.
type RequestParts = (String, String, u64, u64, u32);

fn arb_request() -> impl Strategy<Value = RequestParts> {
    (
        arb_name(16),
        arb_name(8),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
    )
}

fn request(parts: &RequestParts) -> Request<'_> {
    let (source, pattern, run, plan_seq, attempt) = parts;
    Request {
        source,
        pattern,
        run: *run,
        plan_seq: *plan_seq,
        attempt: *attempt,
    }
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        proptest::collection::vec(arb_tuple(), 0..8)
            .prop_map(Response::Rows)
            .boxed(),
        arb_name(20).prop_map(Response::UnknownSource).boxed(),
        arb_name(20).prop_map(Response::Error).boxed(),
    ]
}

/// Finite non-negative phase times, the only values servers measure.
fn arb_phase() -> impl Strategy<Value = f64> {
    (0u32..1_000_000).prop_map(|micros| f64::from(micros) * 1e-6)
}

fn arb_server_span() -> impl Strategy<Value = RemoteSpan> {
    (
        arb_phase(),
        arb_phase(),
        arb_phase(),
        arb_phase(),
        any::<u64>(),
    )
        .prop_map(
            |(recv_parse, lookup, encode, slack, server_seq)| RemoteSpan {
                recv_parse,
                lookup,
                encode,
                total: recv_parse + lookup + encode + slack,
                server_seq,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_round_trip(parts in arb_request()) {
        let req = request(&parts);
        let bytes = encode_request(&req).expect("encodes");
        prop_assert_eq!(decode_request(&bytes).expect("decodes"), req);
    }

    #[test]
    fn replies_round_trip_bit_exactly(
        response in arb_response(),
        epoch in any::<u64>(),
        span in arb_server_span(),
    ) {
        let mut bytes = encode_response(&response, epoch).expect("encodes");
        stamp_span(&mut bytes, &span).expect("a reply has a span field");
        let reply = decode_response(&bytes).expect("decodes");
        prop_assert_eq!(&reply, &Reply { response, epoch, span });
        // f64 phases travel as to_bits, so equality is exact.
        let bits = |s: RemoteSpan| [s.recv_parse, s.lookup, s.encode, s.total].map(f64::to_bits);
        prop_assert_eq!(bits(reply.span), bits(span));
    }

    #[test]
    fn relation_records_round_trip(
        name in arb_name(16),
        rows in proptest::collection::vec(arb_tuple(), 0..8),
    ) {
        let bytes = encode_relation(&name, &rows).expect("encodes");
        let (n, r) = decode_relation(&bytes).expect("decodes");
        prop_assert_eq!(n, name);
        prop_assert_eq!(r, rows);
    }

    #[test]
    fn framed_messages_survive_the_byte_stream(resp in arb_response(), epoch in any::<u64>()) {
        let payload = encode_response(&resp, epoch).expect("encodes");
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).expect("frames");
        write_frame(&mut stream, &payload).expect("frames again");
        let mut reader = stream.as_slice();
        for _ in 0..2 {
            let got = read_frame(&mut reader).expect("unframes");
            let reply = decode_response(&got).expect("decodes");
            prop_assert_eq!((reply.response, reply.epoch), (resp.clone(), epoch));
        }
    }

    #[test]
    fn garbage_never_panics_the_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics are not. A decode that happens to
        // succeed re-encodes to exactly the input: every field is always
        // present and has one encoding (NaN phases included — spans travel
        // as raw bits).
        if let Ok(req) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&req).expect("re-encodes"), bytes.clone());
        }
        if let Ok(reply) = decode_response(&bytes) {
            let mut again = encode_response(&reply.response, reply.epoch).expect("re-encodes");
            stamp_span(&mut again, &reply.span).expect("a reply has a span field");
            prop_assert_eq!(again, bytes.clone());
        }
        let _ = decode_relation(&bytes);
    }

    #[test]
    fn pattern_text_round_trips_canonically(bindings in arb_bindings()) {
        let pattern = BindingPattern::new(bindings.clone());
        let text = pattern.to_string();
        prop_assert_eq!(&BindingPattern::parse(&text), &pattern, "{:?}", text);
        prop_assert_eq!(text == SCAN_PATTERN, bindings.is_empty());
        // Canonical: the same bindings (one per column, the first wins)
        // in any order are the same bytes.
        let mut distinct: Vec<(usize, Constant)> = Vec::new();
        for binding in bindings {
            if distinct.iter().all(|(column, _)| *column != binding.0) {
                distinct.push(binding);
            }
        }
        let reversed = BindingPattern::new(distinct.into_iter().rev());
        prop_assert_eq!(reversed.to_string(), text.clone());
        // And the text survives the request it rides in.
        let req = Request { source: "v1", pattern: &text, run: 0, plan_seq: 0, attempt: 0 };
        let bytes = encode_request(&req).expect("encodes");
        prop_assert_eq!(decode_request(&bytes).expect("decodes"), req);
    }

    #[test]
    fn pattern_parser_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        bindings in arb_bindings(),
        cut in 0usize..80,
    ) {
        // Byte soup: never a panic, and what does not parse is a scan.
        let soup = String::from_utf8_lossy(&bytes);
        let parsed = BindingPattern::parse(&soup);
        prop_assert!(parsed.to_string() == SCAN_PATTERN || soup.starts_with("bind;"));
        let with_prefix = format!("bind;{soup}");
        let _ = BindingPattern::parse(&with_prefix);
        // Valid text cut anywhere (even inside a length-prefixed string
        // or a multi-byte character) never panics the parser either.
        let text = BindingPattern::new(bindings).to_string();
        let cut = cut.min(text.len());
        let _ = BindingPattern::parse(&String::from_utf8_lossy(&text.as_bytes()[..cut]));
    }

    #[test]
    fn truncations_error_cleanly(
        parts in arb_request(),
        resp in arb_response(),
        epoch in any::<u64>(),
        cut in 0usize..96,
    ) {
        let bytes = encode_request(&request(&parts)).expect("encodes");
        if cut < bytes.len() {
            prop_assert!(decode_request(&bytes[..cut]).is_err());
        }
        let bytes = encode_response(&resp, epoch).expect("encodes");
        if cut < bytes.len() {
            prop_assert!(decode_response(&bytes[..cut]).is_err());
        }
    }
}
