//! Property tests for the source-server wire protocol: arbitrary
//! requests/responses round-trip bit-exactly, and arbitrary byte soup
//! never panics a decoder — it errors. Binding-pattern text, which rides
//! the request's pattern field, round-trips canonically and its parser
//! is total: byte soup reads as a scan.

use proptest::prelude::*;
use qpo_datalog::{Constant, Tuple};
use qpo_runtime::pattern::{BindingPattern, SCAN_PATTERN};
use qpo_runtime::wire::{
    decode_relation, decode_request, decode_request_ext, decode_response, decode_response_ext,
    encode_relation, encode_request, encode_request_with, encode_response, encode_response_with,
    read_frame, write_frame, Request, Response, ServerSpan, TraceContext,
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

fn arb_trace_context() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>(), arb_name(16), any::<u32>()).prop_map(
        |(run, plan_seq, source, attempt)| TraceContext {
            run,
            plan_seq,
            source,
            attempt,
        },
    )
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
    fn requests_round_trip(req in arb_request()) {
        let bytes = encode_request(&req).expect("encodes");
        prop_assert_eq!(decode_request(&bytes).expect("decodes"), req);
    }

    #[test]
    fn responses_round_trip(resp in arb_response(), epoch in any::<u64>()) {
        let bytes = encode_response(&resp, epoch).expect("encodes");
        prop_assert_eq!(decode_response(&bytes).expect("decodes"), (resp, epoch));
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
            prop_assert_eq!(decode_response(&got).expect("decodes"), (resp.clone(), epoch));
        }
    }

    #[test]
    fn garbage_never_panics_the_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics are not. A decode that happens to
        // succeed must re-encode to the same bytes (the format is
        // canonical: no padding, no alternative encodings).
        if let Ok(req) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&req).expect("re-encodes"), bytes.clone());
        }
        if let Ok((resp, epoch)) = decode_response(&bytes) {
            prop_assert_eq!(encode_response(&resp, epoch).expect("re-encodes"), bytes.clone());
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
    fn truncations_error_cleanly(resp in arb_response(), epoch in any::<u64>(), cut in 0usize..64) {
        let bytes = encode_response(&resp, epoch).expect("encodes");
        if cut < bytes.len() {
            prop_assert!(decode_response(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn traced_requests_round_trip_and_strict_decoders_reject_them(
        req in arb_request(),
        ctx in arb_trace_context(),
    ) {
        let bytes = encode_request_with(&req, Some(&ctx)).expect("encodes");
        let (got, got_ctx) = decode_request_ext(&bytes).expect("decodes");
        prop_assert_eq!(got, req.clone());
        prop_assert_eq!(got_ctx, Some(ctx));
        // A legacy (strict) server sees the context as trailing bytes —
        // the downgrade signal the client latches on.
        prop_assert!(decode_request(&bytes).is_err());
        // And a plain request decodes through the ext path with no
        // context, so tracing servers accept legacy clients unchanged.
        let plain = encode_request(&req).expect("encodes");
        prop_assert_eq!(decode_request_ext(&plain).expect("decodes"), (req, None));
    }

    #[test]
    fn span_block_responses_round_trip_bit_exactly(
        resp in arb_response(),
        epoch in any::<u64>(),
        span in arb_server_span(),
    ) {
        let bytes = encode_response_with(&resp, epoch, Some(&span)).expect("encodes");
        let (got, got_epoch, got_span) = decode_response_ext(&bytes).expect("decodes");
        prop_assert_eq!(got, resp.clone());
        prop_assert_eq!(got_epoch, epoch);
        let got_span = got_span.expect("span rides along");
        // f64 phases travel as to_bits, so equality is exact.
        prop_assert_eq!(got_span.recv_parse.to_bits(), span.recv_parse.to_bits());
        prop_assert_eq!(got_span.lookup.to_bits(), span.lookup.to_bits());
        prop_assert_eq!(got_span.encode.to_bits(), span.encode.to_bits());
        prop_assert_eq!(got_span.total.to_bits(), span.total.to_bits());
        prop_assert_eq!(got_span.request_seq, span.request_seq);
        // The strict decoder rejects the extended payload rather than
        // misreading it.
        prop_assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn legacy_responses_decode_through_the_ext_path(
        resp in arb_response(),
        epoch in any::<u64>(),
    ) {
        // A legacy server's plain response must decode on a tracing
        // client with no span — the graceful-degradation contract.
        let bytes = encode_response(&resp, epoch).expect("encodes");
        let (got, got_epoch, span) = decode_response_ext(&bytes).expect("decodes");
        prop_assert_eq!((got, got_epoch), (resp, epoch));
        prop_assert!(span.is_none());
    }
}
