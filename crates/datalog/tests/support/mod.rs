//! Test support for `qpo-datalog`: the backtracking evaluator the
//! hash-join pipeline is property-tested against. None of this ships.

use qpo_datalog::{Atom, ConjunctiveQuery, Database, Substitution, Term, Tuple};
use std::collections::BTreeSet;

/// Reference implementation of [`Database::evaluate`]: backtracking join
/// over the body atoms. Exponentially slower on wide joins; kept as the
/// oracle the hash-join path is property-tested against.
///
/// # Panics
/// Panics if the query is unsafe.
pub fn evaluate_naive(db: &Database, query: &ConjunctiveQuery) -> BTreeSet<Tuple> {
    assert!(query.is_safe(), "cannot evaluate unsafe query {query}");
    let mut answers = BTreeSet::new();
    join(db, &query.body, 0, &Substitution::new(), &mut |subst| {
        let tuple = query
            .head
            .terms
            .iter()
            .map(|t| match subst.apply(t) {
                Term::Const(c) => c,
                Term::Var(v) => {
                    unreachable!("safe query left head variable {v} unbound")
                }
            })
            .collect();
        answers.insert(tuple);
    });
    answers
}

/// Backtracking join over the body atoms.
fn join(
    db: &Database,
    body: &[Atom],
    idx: usize,
    subst: &Substitution,
    emit: &mut dyn FnMut(&Substitution),
) {
    let Some(atom) = body.get(idx) else {
        emit(subst);
        return;
    };
    for tuple in db.tuples(&atom.predicate) {
        if tuple.len() != atom.arity() {
            continue;
        }
        let mut ext = subst.clone();
        let ok = atom
            .terms
            .iter()
            .zip(tuple)
            .all(|(pat, c)| ext.match_term(pat, &Term::Const(c.clone())));
        if ok {
            join(db, body, idx + 1, &ext, emit);
        }
    }
}
