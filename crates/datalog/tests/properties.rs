//! Property tests for the conjunctive-query substrate.

use proptest::prelude::*;
use qpo_datalog::{
    contains, equivalent, evaluate_slots, expand_plan, expansion::view_map, parse_query, Atom,
    ConjunctiveQuery, Constant, Database, SourceDescription, Term, Tuple,
};

/// Strategy: a random small conjunctive query over relations `r0..r2`
/// (binary) with variables `X0..X3` and occasional integer constants.
fn arb_query() -> impl Strategy<Value = ConjunctiveQuery> {
    let term = prop_oneof![
        (0usize..4).prop_map(|i| Term::var(format!("X{i}"))),
        (0i64..3).prop_map(Term::int),
    ];
    let atom = (0usize..3, proptest::collection::vec(term, 2))
        .prop_map(|(r, ts)| Atom::new(format!("r{r}"), ts));
    proptest::collection::vec(atom, 1..4).prop_map(|body| {
        // Head: every variable of the body (safety by construction).
        let mut vars = Vec::new();
        for a in &body {
            for v in a.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let head = Atom::new("q", vars.into_iter().map(Term::Var).collect());
        ConjunctiveQuery::new(head, body)
    })
}

/// Strategy: a random small ground database over `r0..r2` with values 0..4.
fn arb_db() -> impl Strategy<Value = Database> {
    proptest::collection::vec((0usize..3, 0i64..4, 0i64..4), 0..15).prop_map(|facts| {
        let mut db = Database::new();
        for (r, a, b) in facts {
            db.insert(format!("r{r}"), vec![Constant::Int(a), Constant::Int(b)]);
        }
        db
    })
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

    /// Identity views: expanding a plan over views `vR(A,B) :- rR(A,B)`
    /// yields a query equivalent to the plan with sources renamed back.
    #[test]
    fn identity_view_expansion_is_equivalent(q in arb_query()) {
        let views: Vec<SourceDescription> = (0..3)
            .map(|r| {
                SourceDescription::new(
                    parse_query(&format!("v{r}(A, B) :- r{r}(A, B)")).unwrap(),
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
        prop_assert_eq!(db.evaluate(&q), db.evaluate_naive(&q), "query {}", q);
    }

    /// The slot-fed entry point runs the same pipeline: feeding atom `i`
    /// the database's rows for its predicate — whole, doubled, or
    /// pre-filtered by that atom's own constants (so one relation serving
    /// two atoms hands each a different slice) — answers as the database
    /// and the backtracking oracle do.
    #[test]
    fn slot_fed_join_matches_the_database(q in arb_query(), db in arb_db()) {
        let whole: Vec<Vec<Tuple>> = q
            .body
            .iter()
            .map(|a| db.tuples(&a.predicate).cloned().collect())
            .collect();
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
        let want = db.evaluate(&q);
        prop_assert_eq!(&want, &db.evaluate_naive(&q));
        let (_, captured) = db.evaluate_seeded(&q, None);
        for slots in [&whole, &doubled, &selected] {
            let slices: Vec<&[Tuple]> = slots.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(&evaluate_slots(&q, None, &slices).0, &want, "query {}", q);
            // Seeded at every captured prefix, the slot-fed join is the
            // database's seeded join: answers and the prefixes captured
            // past the seed (duplicate rows duplicate prefix rows, so the
            // doubled slots are compared on answers only).
            for seed in std::iter::once(None).chain(captured.iter().map(Some)) {
                let (answers, prefixes) = evaluate_slots(&q, seed, &slices);
                let (db_answers, db_prefixes) = db.evaluate_seeded(&q, seed);
                prop_assert_eq!(&answers, &db_answers, "query {} seeded {:?}", q, seed.map(|s| s.len));
                if !std::ptr::eq(slots, &doubled) {
                    prop_assert_eq!(&prefixes, &db_prefixes, "query {}", q);
                }
            }
        }
        // A missing slot reads as the empty relation.
        let short: Vec<&[Tuple]> = whole[..whole.len() - 1].iter().map(Vec::as_slice).collect();
        prop_assert!(evaluate_slots(&q, None, &short).0.is_subset(&want));
    }

    /// Evaluation respects conjunction: adding a body atom can only shrink
    /// the answer set (for a fixed safe head).
    #[test]
    fn extra_atoms_shrink_answers(q in arb_query(), db in arb_db(),
                                  r in 0usize..3, a in 0i64..4, b in 0i64..4) {
        let mut bigger = q.clone();
        bigger.body.push(Atom::new(format!("r{r}"), vec![Term::int(a), Term::int(b)]));
        let base = db.evaluate(&q);
        let constrained = db.evaluate(&bigger);
        prop_assert!(constrained.is_subset(&base));
    }
}
