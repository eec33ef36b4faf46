//! Property tests for the source-server wire protocol: arbitrary
//! requests/responses — with and without their optional extension block
//! — round-trip bit-exactly, and arbitrary byte soup
//! never panics a decoder — it errors. Binding-pattern text, which rides
//! the request's pattern field, round-trips canonically and its parser
//! is total: byte soup reads as a scan.

use proptest::prelude::*;
use qpo_datalog::{Constant, Tuple};
use qpo_runtime::pattern::{BindingPattern, SCAN_PATTERN};
use qpo_runtime::wire::{
    decode_relation, decode_request, decode_response, encode_relation, encode_request,
    encode_response, read_frame, write_frame, Request, Response, ServerSpan, TraceContext,
};

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

fn arb_request() -> impl Strategy<Value = Request> {
    (arb_name(16), arb_name(8)).prop_map(|(source, pattern)| Request { source, pattern })
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

/// The optional context block of a request: absent half the time.
fn arb_trace_context() -> impl Strategy<Value = Option<TraceContext>> {
    (
        any::<bool>(),
        (any::<u64>(), any::<u64>(), arb_name(16), any::<u32>()),
    )
        .prop_map(|(present, (run, plan_seq, source, attempt))| {
            present.then_some(TraceContext {
                run,
                plan_seq,
                source,
                attempt,
            })
        })
}

/// Finite non-negative phase times, the only values servers measure.
fn arb_phase() -> impl Strategy<Value = f64> {
    (0u32..1_000_000).prop_map(|micros| f64::from(micros) * 1e-6)
}

fn arb_server_span() -> impl Strategy<Value = ServerSpan> {
    (
        arb_phase(),
        arb_phase(),
        arb_phase(),
        arb_phase(),
        any::<u64>(),
    )
        .prop_map(
            |(recv_parse, lookup, encode, slack, request_seq)| ServerSpan {
                recv_parse,
                lookup,
                encode,
                total: recv_parse + lookup + encode + slack,
                request_seq,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_round_trip(req in arb_request(), ctx in arb_trace_context()) {
        let bytes = encode_request(&req, ctx.as_ref()).expect("encodes");
        prop_assert_eq!(decode_request(&bytes).expect("decodes"), (req, ctx));
    }

    #[test]
    fn responses_round_trip(
        resp in arb_response(),
        epoch in any::<u64>(),
        span in arb_server_span(),
        spanned in any::<bool>(),
    ) {
        let span = spanned.then_some(span);
        let bytes = encode_response(&resp, epoch, span.as_ref()).expect("encodes");
        prop_assert_eq!(decode_response(&bytes).expect("decodes"), (resp, epoch, span));
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
        let payload = encode_response(&resp, epoch, None).expect("encodes");
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).expect("frames");
        write_frame(&mut stream, &payload).expect("frames again");
        let mut reader = stream.as_slice();
        for _ in 0..2 {
            let got = read_frame(&mut reader).expect("unframes");
            prop_assert_eq!(decode_response(&got).expect("decodes"), (resp.clone(), epoch, None));
        }
    }

    #[test]
    fn garbage_never_panics_the_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics are not. A decode that happens to
        // succeed re-encodes to bytes that decode to the same message and
        // are no longer than the input (bodies have no padding and no
        // alternative encodings; skipped or repeated blocks only shrink).
        if let Ok((req, ctx)) = decode_request(&bytes) {
            let again = encode_request(&req, ctx.as_ref()).expect("re-encodes");
            prop_assert!(again.len() <= bytes.len());
            prop_assert_eq!(decode_request(&again).expect("decodes"), (req, ctx));
        }
        if let Ok((resp, epoch, span)) = decode_response(&bytes) {
            let again = encode_response(&resp, epoch, span.as_ref()).expect("re-encodes");
            prop_assert!(again.len() <= bytes.len());
            let (resp2, epoch2, span2) = decode_response(&again).expect("decodes");
            prop_assert_eq!((resp2, epoch2), (resp, epoch));
            // Garbage may decode to NaN phases: compare spans by bits.
            let bits = |s: Option<ServerSpan>| {
                s.map(|s| [s.recv_parse, s.lookup, s.encode, s.total].map(f64::to_bits))
            };
            prop_assert_eq!(bits(span2), bits(span));
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
        let req = Request { source: "v1".into(), pattern: text };
        let bytes = encode_request(&req, None).expect("encodes");
        prop_assert_eq!(decode_request(&bytes).expect("decodes"), (req, None));
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
    fn truncations_error_cleanly(resp in arb_response(), epoch in any::<u64>(), cut in 0usize..64) {
        let bytes = encode_response(&resp, epoch, None).expect("encodes");
        if cut < bytes.len() {
            prop_assert!(decode_response(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn span_block_responses_round_trip_bit_exactly(
        resp in arb_response(),
        epoch in any::<u64>(),
        span in arb_server_span(),
    ) {
        let bytes = encode_response(&resp, epoch, Some(&span)).expect("encodes");
        let (got, got_epoch, got_span) = decode_response(&bytes).expect("decodes");
        prop_assert_eq!(got, resp.clone());
        prop_assert_eq!(got_epoch, epoch);
        let got_span = got_span.expect("span rides along");
        // f64 phases travel as to_bits, so equality is exact.
        prop_assert_eq!(got_span.recv_parse.to_bits(), span.recv_parse.to_bits());
        prop_assert_eq!(got_span.lookup.to_bits(), span.lookup.to_bits());
        prop_assert_eq!(got_span.encode.to_bits(), span.encode.to_bits());
        prop_assert_eq!(got_span.total.to_bits(), span.total.to_bits());
        prop_assert_eq!(got_span.request_seq, span.request_seq);
    }
}
