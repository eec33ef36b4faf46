//! The query string is a boundary: no text, however malformed, reaches a
//! panic. Each drawn string goes through `parse_query`; if it parses,
//! through `Mediator::prepare`; if that succeeds, a Coverage + Streamer
//! session is drained for three plans. Any step may refuse the input with
//! an error; none may panic.
//!
//! Three generators: arbitrary Unicode strings (which almost never
//! parse), strings of the query alphabet's tokens, and query-shaped texts
//! over the movie schema whose head variables are drawn independently of
//! their bodies (so many are unsafe, and some use a relation at the
//! wrong arity).

use proptest::collection::vec;
use proptest::prelude::*;
use qpo_catalog::domains::{movie_domain, MOVIE_POOL, MOVIE_UNIVERSE};
use qpo_datalog::parse_query;
use qpo_exec::{Mediator, QuerySession, StopCondition};
use qpo_utility::Coverage;
use std::sync::OnceLock;

/// Cases per generator.
const CASES: u32 = 256;

/// The pieces of a query text, malformed ones included, `|`-separated.
const TOKENS: &str = "q|(|)|,|:-|:|-|\"|_|0|42|-7| |X|M|Ab|play_in|review_of|american|russian|\
                      directs|ford|hanks|\"blan|é|ß|∀|\u{0}";

const VARIABLES: [&str; 6] = ["X", "Y", "M", "A", "R", "_"];
const CONSTANTS: [&str; 4] = ["ford", "hanks", "\"blanchett\"", "7"];
const RELATIONS: [&str; 5] = ["play_in", "review_of", "american", "russian", "directs"];

fn mediator() -> &'static Mediator {
    static MEDIATOR: OnceLock<Mediator> = OnceLock::new();
    MEDIATOR.get_or_init(|| Mediator::new(movie_domain(), MOVIE_UNIVERSE, &MOVIE_POOL))
}

/// Drives `text` as far through the boundary as it is accepted.
fn through_the_boundary(text: &str) {
    let m = mediator();
    let Ok(query) = parse_query(text) else {
        return;
    };
    let Ok(prepared) = m.prepare(&query) else {
        return;
    };
    let session = QuerySession::new(m, &prepared, &Coverage, qpo_exec::Strategy::Streamer);
    if let Ok(mut session) = session {
        session.drain(StopCondition::plans(3));
    }
}

/// Arbitrary Unicode scalar values, half of them ASCII.
fn arb_unicode() -> impl Strategy<Value = String> {
    vec(prop_oneof![0u32..0x80, 0u32..0x11_0000], 0..32)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Token soup, or a query-shaped text with a token spliced in at a
/// character boundary (near misses reach the parser's deeper paths).
fn arb_tokens() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> = TOKENS.split('|').collect();
    let n = tokens.len();
    let soup = vec(0..n, 0..24).prop_map({
        let tokens = tokens.clone();
        move |ix| ix.into_iter().map(|i| tokens[i]).collect::<String>()
    });
    let spliced = (arb_query_shaped(), any::<usize>(), 0..n).prop_map(move |(mut text, at, t)| {
        let cuts: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        text.insert_str(cuts[at % cuts.len()], tokens[t]);
        text
    });
    prop_oneof![soup, spliced]
}

/// A comma-separated list drawn from `words`.
fn arb_list(
    words: &'static [&'static str],
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    vec(0..words.len(), len).prop_map(move |ix| {
        ix.into_iter()
            .map(|i| words[i])
            .collect::<Vec<_>>()
            .join(", ")
    })
}

/// `q(head) :- body`, the head's variables drawn apart from the body's.
fn arb_query_shaped() -> impl Strategy<Value = String> {
    let term = prop_oneof![
        (0..VARIABLES.len()).prop_map(|i| VARIABLES[i]),
        (0..CONSTANTS.len()).prop_map(|i| CONSTANTS[i]),
    ];
    let atom = (0..RELATIONS.len(), vec(term, 0..4))
        .prop_map(|(r, args)| format!("{}({})", RELATIONS[r], args.join(", ")));
    (arb_list(&VARIABLES, 0..3), vec(atom, 0..4))
        .prop_map(|(head, body)| format!("q({head}) :- {}", body.join(", ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn arbitrary_strings_never_panic(text in arb_unicode()) {
        through_the_boundary(&text);
    }

    #[test]
    fn query_alphabet_strings_never_panic(text in arb_tokens()) {
        through_the_boundary(&text);
    }

    #[test]
    fn query_shaped_strings_never_panic(text in arb_query_shaped()) {
        through_the_boundary(&text);
    }
}
