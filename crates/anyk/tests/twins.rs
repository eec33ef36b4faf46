//! The any-k kernel beside its reference twins, to the bit: the merge
//! beside `ReferenceMerge` (`support/merge.rs`) under scripts of
//! attaches, evictions and bounded pulls, and — release only, wide — the
//! merge and the positional join beside their twins over larger draws
//! than `anyk_props.rs` makes.

#[path = "support/merge.rs"]
mod reference_merge;
mod support;

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use qpo_anyk::{AnyKMerge, LevelCache, RankedJoin, RankedTuple, VecStream};
use qpo_datalog::{Atom, ConjunctiveQuery, Constant, Database, Term, Tuple};
use reference_merge::ReferenceMerge;
use support::ReferenceJoin;

/// One step of a merge script: `(kind, arg, items)`. Kinds 0–2 attach a
/// stream of `items` (score code, value), 3 evicts, 4–9 pull — half of
/// the pulls under a bound.
type Step = (u8, usize, Vec<(u8, u8)>);

/// Three scores: heads tie all the time.
const SCORES: [f64; 3] = [1.0, 0.5, -0.5];

/// Bounds on either side of every score, and on them.
const BOUNDS: [f64; 4] = [1.0, 0.5, 0.0, -1.0];

fn script(steps: usize, items: usize) -> impl Strategy<Value = Vec<Step>> {
    let items = pvec((0u8..3, 0u8..5), 0..items);
    pvec((0u8..10, 0usize..1000, items), 0..steps)
}

/// A delivered tuple, with its score as bits.
fn bits(rt: Option<RankedTuple>) -> Option<(u64, u64, Vec<usize>, Tuple)> {
    rt.map(|rt| (rt.score.to_bits(), rt.plan_seq, rt.plan, rt.tuple))
}

/// Plays `steps` on the merge and on its twin, then drains both; panics
/// where a delivery or the delivered count differs. Six plan encodings
/// share the sequence numbers, and tuples repeat within and across
/// streams, so every tie-break and the dedup are in play.
fn merge_beside_twin(steps: &[Step]) {
    let (mut merge, mut twin) = (AnyKMerge::new(), ReferenceMerge::default());
    let stream = |items: &[(u8, u8)]| {
        let items = items.iter().map(|&(s, v)| {
            let tuple = vec![Constant::int(i64::from(v))];
            (SCORES[usize::from(s)], tuple)
        });
        Box::new(VecStream::ranked(items.collect()))
    };
    let mut attached = 0u64;
    for (at, (kind, arg, items)) in steps.iter().enumerate() {
        match kind {
            0..=2 => {
                let plan = vec![arg % 2, arg / 2 % 3];
                merge.attach(attached, plan.clone(), stream(items));
                twin.attach(attached, plan, stream(items));
                attached += 1;
            }
            // Any attached sequence number, or one never used.
            3 => {
                let victim = *arg as u64 % (attached + 1);
                merge.evict(victim);
                twin.evict(victim);
            }
            _ => {
                let bound = (kind % 2 == 0).then_some(BOUNDS[arg % BOUNDS.len()]);
                let (got, want) = (merge.next_within(bound), twin.next_within(bound));
                assert_eq!(bits(got), bits(want), "pull at step {at} of {steps:?}");
            }
        }
        assert_eq!(
            merge.delivered(),
            twin.delivered(),
            "step {at} of {steps:?}"
        );
    }
    loop {
        let (got, want) = (bits(merge.next_within(None)), bits(twin.next_within(None)));
        assert_eq!(got, want, "drain after {steps:?}");
        if got.is_none() {
            break;
        }
    }
    assert_eq!(merge.delivered(), twin.delivered());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The merge is its reference twin, delivery for delivery: the same
    /// `(score, plan_seq, plan, tuple)` sequence and the same count under
    /// any script of attaches, evictions and pulls with and without a
    /// bound.
    #[test]
    fn merge_matches_its_reference_twin(steps in script(24, 6)) {
        merge_beside_twin(&steps);
    }
}

/// Draws per wide run.
const WIDE_CASES: usize = 20000;

/// The merge twin over longer scripts of longer streams.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release -p qpo-anyk --test twins wide"
)]
fn merge_matches_its_reference_twin_wide() {
    let mut rng = proptest::test_rng("merge_matches_its_reference_twin_wide");
    let draw = script(80, 16);
    for _ in 0..WIDE_CASES {
        merge_beside_twin(&draw.generate(&mut rng));
    }
}

/// Value code → value: three ints and three strings.
fn value(code: u8) -> Constant {
    match code {
        0..=2 => Constant::int(i64::from(code)),
        _ => Constant::str(["a", "b", "c"][usize::from(code - 3) % 3]),
    }
}

/// Variable names, drawn so a fresh variable's name often sorts against
/// its first occurrence (`r(Y, X)`).
const VARS: [&str; 5] = ["Y", "X", "W", "B", "Z"];

/// Term code → term: a variable below 5, else one of three constants.
fn term(code: u8) -> Term {
    match code {
        0..=4 => Term::var(VARS[usize::from(code)]),
        _ => Term::Const(value((code - 5) * 2)),
    }
}

/// Relations `r0..r3`: an arity (1–3) each, facts at that arity, and a few
/// at the wrong one.
type Relations = Vec<(usize, Vec<Vec<u8>>, Vec<Vec<u8>>)>;

fn database(relations: &Relations) -> Database {
    let mut db = Database::new();
    for (r, (arity, facts, odd)) in relations.iter().enumerate() {
        let wrong = arity % 3 + 1;
        let sized = facts.iter().map(|f| &f[..*arity]);
        for fact in sized.chain(odd.iter().map(|f| &f[..wrong])) {
            db.insert(format!("r{r}"), fact.iter().copied().map(value).collect());
        }
    }
    db
}

/// A safe query over `relations`: body atoms of the relations' arities
/// (constants, repeated variables), and a head of body variables and
/// constants (projected, repeated, or empty).
fn query(relations: &Relations, body: &[(usize, Vec<u8>)], head: &[u8]) -> ConjunctiveQuery {
    let body: Vec<Atom> = (body.iter())
        .map(|(r, codes)| {
            let r = r % relations.len();
            let terms = codes[..relations[r].0].iter().copied().map(term);
            Atom::new(format!("r{r}"), terms.collect())
        })
        .collect();
    let vars: Vec<Term> = (body.iter().flat_map(Atom::variables))
        .map(Term::Var)
        .collect();
    let head = (head.iter()).map(|&c| match vars.get(usize::from(c) % vars.len().max(1)) {
        Some(v) if c < 5 => v.clone(),
        _ => Term::Const(value(c % 6)),
    });
    ConjunctiveQuery::new(Atom::new("q", head.collect()), body)
}

/// Few-valued scores per `(atom, fact)`: ties are the rule, not the exception.
fn tied_score(levels: &[f64]) -> impl Fn(usize, &Tuple) -> f64 + '_ {
    move |ai, fact| {
        let weight = |c: &Constant| match c {
            Constant::Int(i) => *i as usize,
            Constant::Str(s) => s.len() + usize::from(s.as_bytes()[0]),
        };
        levels[(ai + fact.iter().map(weight).sum::<usize>()) % levels.len()]
    }
}

fn stream_bits(stream: Vec<(f64, Tuple)>) -> Vec<(u64, Tuple)> {
    stream.into_iter().map(|(s, t)| (s.to_bits(), t)).collect()
}

/// `anyk_props.rs`' `positional_levels_match_the_named_row_twin` over
/// four relations of up to 48 facts and bodies of up to six atoms.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release -p qpo-anyk --test twins wide"
)]
fn positional_levels_match_the_named_row_twin_wide() {
    let mut rng = proptest::test_rng("positional_levels_match_the_named_row_twin_wide");
    let facts = pvec(pvec(0u8..6, 3), 0..48);
    let relations = pvec((1usize..4, facts, pvec(pvec(0u8..6, 4), 0..3)), 4);
    let body = pvec((0usize..4, pvec(0u8..8, 3)), 0..7);
    let head = pvec(0u8..8, 0..5);
    let scores = prop_oneof![Just(0.0), Just(0.5), Just(1.0), Just(-1.0)];
    let draw = (relations, body, head, pvec(scores, 1..4));
    for _ in 0..WIDE_CASES {
        let (rels, body, head, levels) = draw.generate(&mut rng);
        let (db, q) = (database(&rels), query(&rels, &body, &head));
        let score = tied_score(&levels);
        let mut twin = ReferenceJoin::new(&db, &q, &score);
        let bounds: Vec<u64> = twin.level_bounds().into_iter().map(f64::to_bits).collect();
        let want = stream_bits(twin.by_ref().collect());
        let cache = LevelCache::new();
        for (cache, run) in [
            (&LevelCache::new(), "uncached"),
            (&cache, "cold"),
            (&cache, "warm"),
        ] {
            let mut join = RankedJoin::new(&db, &q, &score, cache, |ai| ai.to_string());
            let got: Vec<u64> = join.level_bounds().map(f64::to_bits).collect();
            assert_eq!(got, bounds, "{run} {q}");
            assert_eq!(stream_bits(join.drain()), want, "{run} {q}");
        }
    }
}
