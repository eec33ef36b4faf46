//! Property tests for the conjunctive-query substrate.

mod support;

use proptest::prelude::*;
use qpo_datalog::{
    contains, equivalent, evaluate_slots, expand_plan, expansion::view_map, parse_query,
    sort_tuples, Atom, ConjunctiveQuery, Constant, Database, JoinPrefix, PrefixRows,
    SourceDescription, Term, Tuple,
};
use std::collections::{BTreeSet, HashSet};
use support::evaluate_naive;

/// Arity of relation `r{i}`.
const ARITY: [usize; 4] = [1, 2, 2, 3];

/// A ground value: a small integer or one of two strings.
fn arb_constant() -> impl Strategy<Value = Constant> {
    prop_oneof![
        (0i64..4).prop_map(Constant::Int),
        (0usize..2).prop_map(|i| Constant::str(["a", "b"][i])),
    ]
}

/// One atom over `r0..r3` at its relation's arity, with variables
/// `X0..X3` and occasional constants.
fn arb_atom() -> impl Strategy<Value = Atom> {
    // Two terms in three are variables.
    let term = (0usize..6, arb_constant()).prop_map(|(i, c)| match i {
        0..=3 => Term::var(format!("X{i}")),
        _ => Term::Const(c),
    });
    (0usize..ARITY.len(), proptest::collection::vec(term, 3))
        .prop_map(|(r, ts)| Atom::new(format!("r{r}"), ts[..ARITY[r]].to_vec()))
}

/// How a head is cut from a body: which of the body's variables it keeps
/// (bit `i` of the mask for the `i`-th distinct one) and an optional
/// constant, with the position it is inserted at.
type HeadSpec = (u8, Option<(usize, Constant)>);

fn arb_head() -> impl Strategy<Value = HeadSpec> {
    // One head in three carries a constant.
    let constant =
        (0usize..3, 0usize..5, arb_constant()).prop_map(|(k, at, c)| (k == 0).then_some((at, c)));
    (any::<u8>(), constant)
}

/// The query `q(..) :- body` whose head projects the body's variables as
/// `spec` says — safe by construction, the empty body included.
fn query_over(body: Vec<Atom>, spec: &HeadSpec) -> ConjunctiveQuery {
    let mut query = ConjunctiveQuery::new(Atom::new("q", Vec::new()), body);
    let kept = query.body_variables().into_iter().enumerate();
    let mut head: Vec<Term> = kept
        .filter(|(i, _)| spec.0 >> (i % 8) & 1 == 1)
        .map(|(_, v)| Term::Var(v))
        .collect();
    if let Some((at, c)) = &spec.1 {
        head.insert(at % (head.len() + 1), Term::Const(c.clone()));
    }
    query.head.terms = head;
    query
}

/// Strategy: a random small conjunctive query of zero to three atoms
/// with a projected head.
fn arb_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (proptest::collection::vec(arb_atom(), 0..4), arb_head())
        .prop_map(|(body, spec)| query_over(body, &spec))
}

/// Strategy: a random small ground database over `r0..r3`; about one
/// fact in eight is stored at the wrong arity.
fn arb_db() -> impl Strategy<Value = Database> {
    let fact = (
        0usize..ARITY.len(),
        proptest::collection::vec(arb_constant(), 4),
        0usize..8,
    );
    proptest::collection::vec(fact, 0..20).prop_map(|facts| {
        let mut db = Database::new();
        for (r, values, skew) in facts {
            let arity = if skew == 0 { ARITY[r] + 1 } else { ARITY[r] };
            db.insert(format!("r{r}"), values[..arity].to_vec());
        }
        db
    })
}

/// The rows each body atom of `q` reads when fed `db` whole.
fn whole_slots(q: &ConjunctiveQuery, db: &Database) -> Vec<Vec<Tuple>> {
    q.body
        .iter()
        .map(|a| db.tuples(&a.predicate).cloned().collect())
        .collect()
}

/// One value draw of [`arb_sort_rows`]: `(pool, small, edge, string)`.
type SortCell = (u8, i64, usize, usize);

/// Strategy: rows for [`sort_tuples`], fewer than `most` of them, and then
/// their first third again, so rows repeat. A case has a width of 0–4,
/// and one case in four is ragged: every row takes a width of its own.
/// Values are `Int`s from `-3..4`; a quarter of the cells of the columns
/// a case marks (about half) are from {`i64::MIN`, −1, 0, 1, `i64::MAX`}
/// instead, so one column can need all 64 bits of a packed key and the
/// columns together more; in half the cases, a quarter of the cells of
/// one column, any column, are strings.
fn arb_sort_rows(most: usize) -> impl Strategy<Value = Vec<Tuple>> {
    let cell = (0u8..4, -3i64..4, 0usize..5, 0usize..2);
    let row = (proptest::collection::vec(cell, 4), 0usize..5);
    let case = (0usize..5, 0u8..4, 0u8..16, 0usize..8);
    (case, proptest::collection::vec(row, 0..most)).prop_map(
        |((width, ragged, edges, strings), rows)| {
            let value = |col: usize, (pool, small, edge, string): SortCell| match pool {
                0 if edges >> col & 1 == 1 => Constant::Int([i64::MIN, -1, 0, 1, i64::MAX][edge]),
                1 if strings == col => Constant::str(["a", "b"][string]),
                _ => Constant::Int(small),
            };
            let mut rows: Vec<Tuple> = rows
                .into_iter()
                .map(|(cells, own)| {
                    let width = if ragged == 0 { own } else { width };
                    let cells = cells.into_iter().take(width).enumerate();
                    cells.map(|(col, cell)| value(col, cell)).collect()
                })
                .collect();
            rows.extend_from_within(..rows.len() / 3);
            rows
        },
    )
}

/// `sort_tuples` leaves `rows` exactly as `sort_unstable` does. Compared
/// as vectors: through a `BTreeSet`, a wrong order would only be slow.
fn sorts_like_sort_unstable(rows: Vec<Tuple>) {
    let mut want = rows.clone();
    want.sort_unstable();
    let mut got = rows;
    sort_tuples(&mut got);
    assert_eq!(got, want);
}

/// The boundary sort on the shape of a `share-warm` run's answers:
/// 18 × 18 × 20 rows of three `Int` columns, handed over in the order a
/// `HashSet` iterates them.
#[test]
fn sort_tuples_orders_a_share_warm_sized_union() {
    let union: HashSet<Tuple> = (0..18)
        .flat_map(|a| (0..18).flat_map(move |b| (0..20).map(move |c| (a, b, c))))
        .map(|(a, b, c)| {
            vec![
                Constant::Int(a),
                Constant::Int(b + 11),
                Constant::Int(c + 20),
            ]
        })
        .collect();
    let rows: Vec<Tuple> = union.into_iter().collect();
    assert_eq!(rows.len(), 18 * 18 * 20);
    sorts_like_sort_unstable(rows);
}

/// Draws per wide run of the boundary sort's property.
const WIDE_SORT_CASES: usize = 20000;

/// [`sort_tuples_matches_sort_unstable`] over larger sets.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release -p qpo-datalog --test properties wide"
)]
fn sort_tuples_matches_sort_unstable_wide() {
    let mut rng = proptest::test_rng("sort_tuples_matches_sort_unstable_wide");
    let draw = arb_sort_rows(2048);
    for _ in 0..WIDE_SORT_CASES {
        sorts_like_sort_unstable(draw.generate(&mut rng));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The packed-key sort and the comparison sort agree on every set.
    #[test]
    fn sort_tuples_matches_sort_unstable(rows in arb_sort_rows(64)) {
        sorts_like_sort_unstable(rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn display_parse_roundtrip(q in arb_query()) {
        let text = q.to_string();
        let reparsed = parse_query(&text).expect("display output parses");
        prop_assert_eq!(reparsed, q);
    }

    #[test]
    fn containment_is_reflexive(q in arb_query()) {
        prop_assert!(contains(&q, &q));
        prop_assert!(equivalent(&q, &q));
    }

    #[test]
    fn containment_implies_answer_subset(q1 in arb_query(), q2 in arb_query(), db in arb_db()) {
        if q1.head.arity() == q2.head.arity() && contains(&q1, &q2) {
            let a1 = db.evaluate(&q1);
            let a2 = db.evaluate(&q2);
            prop_assert!(a1.is_subset(&a2),
                "{q1} ⊑ {q2} but answers {a1:?} ⊄ {a2:?}");
        }
    }

    #[test]
    fn containment_is_transitive(a in arb_query(), b in arb_query(), c in arb_query()) {
        if contains(&a, &b) && contains(&b, &c) {
            prop_assert!(contains(&a, &c), "transitivity: {a} / {b} / {c}");
        }
    }

    /// `is_safe`'s allocation-free scan answers what the set definition
    /// does — every head variable among the body's — on heads that may
    /// name variables (`X4`, `X5`) no body atom has.
    #[test]
    fn is_safe_is_the_set_definition(
        body in proptest::collection::vec(arb_atom(), 0..4),
        head in proptest::collection::vec((0usize..7, arb_constant()), 0..4),
    ) {
        let head = head.into_iter().map(|(i, c)| match i {
            0..=5 => Term::var(format!("X{i}")),
            _ => Term::Const(c),
        });
        let q = ConjunctiveQuery::new(Atom::new("q", head.collect()), body);
        let body_vars: BTreeSet<_> = q.body_variables().into_iter().collect();
        let by_sets = q.head_variables().iter().all(|v| body_vars.contains(v));
        prop_assert_eq!(q.is_safe(), by_sets, "{}", q);
    }

    #[test]
    fn minimize_preserves_equivalence(q in arb_query()) {
        let m = qpo_datalog::containment::minimize(&q);
        prop_assert!(m.body.len() <= q.body.len());
        prop_assert!(equivalent(&m, &q), "minimized {m} not equivalent to {q}");
        prop_assert!(m.is_safe());
        // Minimization agrees with evaluation on any database.
    }

    #[test]
    fn minimized_query_has_same_answers(q in arb_query(), db in arb_db()) {
        let m = qpo_datalog::containment::minimize(&q);
        prop_assert_eq!(db.evaluate(&m), db.evaluate(&q));
    }

    #[test]
    fn renaming_preserves_equivalence(q in arb_query()) {
        let renamed = q.rename_with_prefix("zz_");
        prop_assert!(equivalent(&q, &renamed));
    }

    /// Identity views: expanding a plan over views `vR(A..) :- rR(A..)`
    /// yields a query equivalent to the plan with sources renamed back.
    #[test]
    fn identity_view_expansion_is_equivalent(q in arb_query()) {
        let views: Vec<SourceDescription> = ARITY
            .iter()
            .enumerate()
            .map(|(r, &arity)| {
                let args = ["A", "B", "C"][..arity].join(", ");
                SourceDescription::new(
                    parse_query(&format!("v{r}({args}) :- r{r}({args})")).unwrap(),
                )
            })
            .collect();
        let vm = view_map(&views);
        // Build the plan by renaming each rK atom to vK.
        let plan = ConjunctiveQuery::new(
            q.head.clone(),
            q.body
                .iter()
                .map(|a| Atom::new(a.predicate.replace('r', "v"), a.terms.clone()))
                .collect(),
        );
        let expansion = expand_plan(&plan, &vm).expect("identity plans expand");
        prop_assert!(equivalent(&expansion, &q),
            "expansion {expansion} not equivalent to {q}");
    }

    /// The hash-join evaluator agrees with the backtracking oracle on
    /// arbitrary queries and databases.
    #[test]
    fn hash_join_matches_naive(q in arb_query(), db in arb_db()) {
        prop_assert_eq!(db.evaluate(&q), evaluate_naive(&db, &q), "query {}", q);
    }

    /// The slot-fed entry point runs the same pipeline: feeding atom `i`
    /// the database's rows for its predicate — whole, doubled, or
    /// pre-filtered by that atom's own constants (so one relation serving
    /// two atoms hands each a different slice) — answers as the database
    /// and the backtracking oracle do.
    #[test]
    fn slot_fed_join_matches_the_database(q in arb_query(), db in arb_db()) {
        let whole = whole_slots(&q, &db);
        let doubled: Vec<Vec<Tuple>> = whole
            .iter()
            .map(|rows| rows.iter().chain(rows).cloned().collect())
            .collect();
        let selected: Vec<Vec<Tuple>> = q
            .body
            .iter()
            .zip(&whole)
            .map(|(atom, rows)| {
                rows.iter()
                    .filter(|row| {
                        atom.terms.iter().zip(*row).all(|(t, v)| match t {
                            Term::Const(c) => c == v,
                            Term::Var(_) => true,
                        })
                    })
                    .cloned()
                    .collect()
            })
            .collect();
        let (want, captured) = db.evaluate_seeded(&q, None);
        prop_assert!(want.iter().eq(&evaluate_naive(&db, &q)), "query {}: sorted, distinct", q);
        for slots in [&whole, &doubled, &selected] {
            let slices: Vec<&[Tuple]> = slots.iter().map(Vec::as_slice).collect();
            // Seeded at every captured prefix, the slot-fed join is the
            // database's seeded join: the answer set, and the flat rows
            // and the prefixes captured past the seed (duplicate rows
            // duplicate both, so the doubled slots are compared as sets
            // only).
            for seed in std::iter::once(None).chain(captured.iter().map(Some)) {
                let (rows, prefixes) = evaluate_slots(&q, seed, &slices);
                let (db_rows, db_prefixes) = db.evaluate_rows(&q, seed);
                let set = |rows: &PrefixRows| rows.iter().map(<[_]>::to_vec).collect::<BTreeSet<Tuple>>();
                prop_assert!(set(&rows).iter().eq(&want), "query {} seeded {:?}", q, seed.map(|s| s.len));
                prop_assert!(db.evaluate_seeded(&q, seed).0.iter().eq(&set(&db_rows)), "one sort at the edge");
                if !std::ptr::eq(slots, &doubled) {
                    prop_assert_eq!((&rows, &prefixes), (&db_rows, &db_prefixes), "query {}", q);
                }
            }
        }
        // A missing slot reads as the empty relation.
        if let Some((_, fed)) = whole.split_last() {
            let short: Vec<&[Tuple]> = fed.iter().map(Vec::as_slice).collect();
            let (answers, _) = evaluate_slots(&q, None, &short);
            prop_assert!(answers.iter().all(|t| want.iter().any(|w| w == t)));
        }
    }

    /// The hash-consing contract a partial-join memo relies on: the
    /// state after a body prefix depends on that prefix alone. Two
    /// queries sharing their first `n` atoms and differing after (other
    /// tails, other heads) capture equal prefixes up to `n`, and seeding
    /// either from the other's prefix returns exactly its unseeded
    /// answers and tail prefixes.
    #[test]
    fn shared_prefixes_are_interchangeable(
        shared in proptest::collection::vec(arb_atom(), 1..3),
        tails in proptest::collection::vec(proptest::collection::vec(arb_atom(), 0..3), 2),
        heads in proptest::collection::vec(arb_head(), 2),
        db in arb_db(),
    ) {
        let n = shared.len();
        let queries: Vec<ConjunctiveQuery> = tails
            .iter()
            .zip(&heads)
            .map(|(tail, spec)| query_over([shared.as_slice(), tail].concat(), spec))
            .collect();
        let runs: Vec<_> = queries.iter().map(|q| db.evaluate_rows(q, None)).collect();
        let upto = |captured: &[JoinPrefix]| captured.iter().take(n).cloned().collect::<Vec<_>>();
        prop_assert_eq!(upto(&runs[0].1), upto(&runs[1].1), "{} / {}", queries[0], queries[1]);
        for (q, other) in [(0, 1), (1, 0)] {
            let (answers, captured) = &runs[q];
            for seed in runs[other].1.iter().take(n) {
                let (seeded, tail) = db.evaluate_rows(&queries[q], Some(seed));
                prop_assert_eq!(&seeded, answers, "{} seeded at {}", queries[q], seed.len);
                prop_assert_eq!(tail.as_slice(), &captured[seed.len..]);
                // The slot-fed entry point honours the same contract.
                let slots = whole_slots(&queries[q], &db);
                let slices: Vec<&[Tuple]> = slots.iter().map(Vec::as_slice).collect();
                prop_assert_eq!(evaluate_slots(&queries[q], Some(seed), &slices), (seeded, tail));
            }
        }
    }

    /// Evaluation respects conjunction: adding a body atom can only shrink
    /// the answer set (for a fixed safe head).
    #[test]
    fn extra_atoms_shrink_answers(q in arb_query(), db in arb_db(),
                                  r in 0usize..3, a in 0i64..4, b in 0i64..4) {
        let mut bigger = q.clone();
        let terms = [Term::int(a), Term::int(b)];
        bigger.body.push(Atom::new(format!("r{r}"), terms[..ARITY[r]].to_vec()));
        let base = db.evaluate(&q);
        let constrained = db.evaluate(&bigger);
        prop_assert!(constrained.is_subset(&base));
    }
}
