//! Naive evaluation of conjunctive queries over ground databases.
//!
//! Used by tests (to cross-check containment decisions against actual
//! semantics) and by the `qpo-exec` mediator (to execute expanded plans over
//! in-memory source extensions).

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::substitution::Substitution;
use crate::term::Constant;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A ground tuple.
pub type Tuple = Vec<Constant>;

/// One intermediate row of the hash-join pipeline: the variables bound by
/// the processed body prefix, with their values.
pub type Binding = BTreeMap<Arc<str>, Constant>;

/// Materialized state of the hash-join pipeline after folding in a prefix
/// of a query's body atoms. Captured by [`Database::evaluate_seeded`] and
/// reusable as the seed of any later query sharing the same atom prefix
/// (same atoms, same order, same database): seeding is bit-identical to
/// recomputing the prefix, because the pipeline is a deterministic
/// function of `(database, atom prefix)`.
///
/// Rows are behind an [`Arc`], so cloning a prefix — and keeping many of
/// them in a memo — is cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPrefix {
    /// Number of body atoms folded into `rows`.
    pub len: usize,
    /// The intermediate rows after those atoms.
    pub rows: Arc<Vec<Binding>>,
}

impl JoinPrefix {
    /// Approximate resident bytes of the materialized rows, for memo
    /// byte accounting. Every row binds the same variable set (the
    /// variables of the folded atoms), so sampling the first row and
    /// scaling by the row count is O(1) instead of a full walk —
    /// prefixes can hold millions of rows and are measured at store
    /// time under the memo lock.
    pub fn approx_bytes(&self) -> usize {
        let per_row = self
            .rows
            .first()
            .map(|row| {
                row.iter()
                    .map(|(k, v)| k.len() + std::mem::size_of_val(v) + 16)
                    .sum::<usize>()
                    + std::mem::size_of::<Binding>()
            })
            .unwrap_or(0);
        per_row * self.rows.len() + std::mem::size_of::<Self>()
    }
}

/// Evaluates `query` over per-atom row slices instead of a [`Database`]:
/// body atom `i` reads exactly `slots[i]` (a missing slot reads as
/// empty), whatever its predicate — so rows a source backend returned for
/// one access join in place, uncopied, and one source feeding two atoms
/// may hand each the rows its own constants selected. Each atom still
/// applies its constants and repeated variables to every row it reads,
/// so a slot may hold any superset of the matching rows, duplicates
/// included. Runs the same pipeline as [`Database::evaluate_seeded`],
/// `seed` and captured prefixes included (slots the seed covers are never
/// read): when every slot holds a superset of the rows a database stores
/// under that atom's predicate that match it, the two return the same
/// answers — and, when each slot lists those rows once and in the
/// database's order, the same prefixes.
///
/// # Panics
/// Panics if the query is unsafe.
pub fn evaluate_slots(
    query: &ConjunctiveQuery,
    seed: Option<&JoinPrefix>,
    slots: &[&[Tuple]],
) -> (BTreeSet<Tuple>, Vec<JoinPrefix>) {
    join_pipeline(query, seed, |i| slots.get(i).copied().unwrap_or_default())
}

/// The hash-join pipeline behind [`Database::evaluate_seeded`] and
/// [`evaluate_slots`], generic over where body atom `i` reads its rows
/// (monomorphised per caller: the database probes its predicate map, the
/// slot-fed path indexes a slice).
fn join_pipeline<'t, I>(
    query: &ConjunctiveQuery,
    seed: Option<&JoinPrefix>,
    rows_of: impl Fn(usize) -> I,
) -> (BTreeSet<Tuple>, Vec<JoinPrefix>)
where
    I: IntoIterator<Item = &'t Tuple>,
{
    use crate::term::Term;

    assert!(query.is_safe(), "cannot evaluate unsafe query {query}");
    let start = seed.map_or(0, |s| s.len.min(query.body.len()));
    // Each row binds exactly the variables seen in processed atoms.
    let mut rows: Arc<Vec<Binding>> = match seed {
        Some(s) if start > 0 => Arc::clone(&s.rows),
        _ => Arc::new(vec![Binding::new()]),
    };
    let mut bound: BTreeSet<Arc<str>> = BTreeSet::new();
    for atom in &query.body[..start] {
        bound.extend(atom.variables());
    }
    let mut captured: Vec<JoinPrefix> = Vec::new();
    for (offset, atom) in query.body[start..].iter().enumerate() {
        // Short-circuit: an empty intermediate set stays empty, and
        // stopping *before* the atom keeps the captured-prefix list
        // identical whether or not this evaluation was seeded.
        if rows.is_empty() {
            break;
        }
        // Bindings each stored tuple induces on the atom's variables
        // (None when the tuple violates the atom's constants or
        // repeated variables).
        let mut tuple_bindings: Vec<Binding> = Vec::new();
        'tuples: for tuple in rows_of(start + offset) {
            if tuple.len() != atom.arity() {
                continue;
            }
            let mut binding = BTreeMap::new();
            for (term, value) in atom.terms.iter().zip(tuple) {
                match term {
                    Term::Const(c) => {
                        if c != value {
                            continue 'tuples;
                        }
                    }
                    Term::Var(v) => match binding.get(v.as_ref()) {
                        Some(prev) if prev != value => continue 'tuples,
                        Some(_) => {}
                        None => {
                            binding.insert(v.clone(), value.clone());
                        }
                    },
                }
            }
            tuple_bindings.push(binding);
        }
        // Hash-join on the variables shared with the rows so far.
        let shared: Vec<Arc<str>> = atom
            .variables()
            .into_iter()
            .filter(|v| bound.contains(v))
            .collect();
        let mut index: BTreeMap<Vec<&Constant>, Vec<&Binding>> = BTreeMap::new();
        for b in &tuple_bindings {
            let key: Vec<&Constant> = shared
                .iter()
                .map(|v| b.get(v.as_ref()).expect("shared var bound by atom"))
                .collect();
            index.entry(key).or_default().push(b);
        }
        let mut next = Vec::new();
        for row in rows.iter() {
            let key: Vec<&Constant> = shared
                .iter()
                .map(|v| row.get(v.as_ref()).expect("shared var bound by row"))
                .collect();
            if let Some(matches) = index.get(&key) {
                for m in matches {
                    let mut merged = row.clone();
                    for (k, v) in m.iter() {
                        merged.insert(k.clone(), v.clone());
                    }
                    next.push(merged);
                }
            }
        }
        rows = Arc::new(next);
        bound.extend(atom.variables());
        captured.push(JoinPrefix {
            len: start + offset + 1,
            rows: Arc::clone(&rows),
        });
    }
    let answers = rows
        .iter()
        .map(|row| {
            query
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => row
                        .get(v.as_ref())
                        .cloned()
                        .expect("safe query binds every head variable"),
                })
                .collect()
        })
        .collect();
    (answers, captured)
}

/// An in-memory database: a set of ground facts per predicate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<Arc<str>, BTreeSet<Tuple>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts a fact; returns `true` if it was not already present.
    pub fn insert(&mut self, predicate: impl AsRef<str>, tuple: Tuple) -> bool {
        self.relations
            .entry(Arc::from(predicate.as_ref()))
            .or_default()
            .insert(tuple)
    }

    /// All tuples of `predicate` (empty slice view if absent).
    pub fn tuples(&self, predicate: &str) -> impl Iterator<Item = &Tuple> {
        self.relations.get(predicate).into_iter().flatten()
    }

    /// Number of tuples stored for `predicate`.
    pub fn cardinality(&self, predicate: &str) -> usize {
        self.relations.get(predicate).map_or(0, BTreeSet::len)
    }

    /// Total number of facts.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(BTreeSet::len).sum()
    }

    /// Predicates with at least one fact, in deterministic order.
    pub fn predicates(&self) -> impl Iterator<Item = &Arc<str>> {
        self.relations.keys()
    }

    /// Evaluates a conjunctive query, returning the set of answer tuples.
    ///
    /// Implemented as a pipeline of hash joins: body atoms are processed in
    /// order, each joined against the intermediate binding set on the
    /// variables they share with it — `O(rows + tuples)` per atom instead
    /// of the backtracking search's worst-case product. The semantics are
    /// identical to [`Database::evaluate_naive`], which is kept for
    /// cross-checking.
    ///
    /// # Panics
    /// Panics if the query is unsafe (an unbound head variable would make an
    /// answer non-ground).
    pub fn evaluate(&self, query: &ConjunctiveQuery) -> BTreeSet<Tuple> {
        self.evaluate_seeded(query, None).0
    }

    /// [`Database::evaluate`], optionally seeded with the materialized
    /// state of a body-atom prefix, and returning the [`JoinPrefix`]
    /// captured after each processed atom (so callers can memoize them
    /// for later plans sharing the prefix).
    ///
    /// A seed is only sound when it was captured — by this method, on
    /// this database — for a query whose first `seed.len` body atoms are
    /// identical to this query's. Under that contract the result is
    /// bit-identical to the unseeded evaluation: the pipeline below is a
    /// deterministic function of `(database, atom prefix)`, so starting
    /// from the materialized rows is indistinguishable from recomputing
    /// them. Seeds longer than the body are truncated.
    ///
    /// The captured prefixes cover atoms `seed.len+1 ..= body.len` (the
    /// pipeline short-circuits once the intermediate row set is empty, so
    /// capture stops there too).
    ///
    /// # Panics
    /// Panics if the query is unsafe (an unbound head variable would make
    /// an answer non-ground).
    pub fn evaluate_seeded(
        &self,
        query: &ConjunctiveQuery,
        seed: Option<&JoinPrefix>,
    ) -> (BTreeSet<Tuple>, Vec<JoinPrefix>) {
        join_pipeline(query, seed, |i| self.tuples(&query.body[i].predicate))
    }

    /// Reference implementation: backtracking join over the body atoms.
    /// Exponentially slower than [`Database::evaluate`] on wide joins; kept
    /// as the oracle the hash-join path is property-tested against.
    ///
    /// # Panics
    /// Panics if the query is unsafe.
    pub fn evaluate_naive(&self, query: &ConjunctiveQuery) -> BTreeSet<Tuple> {
        assert!(query.is_safe(), "cannot evaluate unsafe query {query}");
        let mut answers = BTreeSet::new();
        self.join(&query.body, 0, &Substitution::new(), &mut |subst| {
            let tuple = query
                .head
                .terms
                .iter()
                .map(|t| match subst.apply(t) {
                    crate::term::Term::Const(c) => c,
                    crate::term::Term::Var(v) => {
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
        &self,
        body: &[Atom],
        idx: usize,
        subst: &Substitution,
        emit: &mut dyn FnMut(&Substitution),
    ) {
        let Some(atom) = body.get(idx) else {
            emit(subst);
            return;
        };
        for tuple in self.tuples(&atom.predicate) {
            if tuple.len() != atom.arity() {
                continue;
            }
            let mut ext = subst.clone();
            let ok = atom
                .terms
                .iter()
                .zip(tuple)
                .all(|(pat, c)| ext.match_term(pat, &crate::term::Term::Const(c.clone())));
            if ok {
                self.join(body, idx + 1, &ext, emit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn movie_db() -> Database {
        let mut db = Database::new();
        for (a, m) in [
            ("ford", "blade_runner"),
            ("ford", "witness"),
            ("hanks", "big"),
        ] {
            db.insert("play_in", vec![Constant::str(a), Constant::str(m)]);
        }
        for (r, m) in [("rev1", "blade_runner"), ("rev2", "big")] {
            db.insert("review_of", vec![Constant::str(r), Constant::str(m)]);
        }
        db.insert("american", vec![Constant::str("witness")]);
        db
    }

    #[test]
    fn insert_and_cardinality() {
        let mut db = Database::new();
        assert!(db.insert("r", vec![Constant::int(1)]));
        assert!(!db.insert("r", vec![Constant::int(1)]), "duplicate ignored");
        assert_eq!(db.cardinality("r"), 1);
        assert_eq!(db.cardinality("absent"), 0);
        assert_eq!(db.total_facts(), 1);
        assert_eq!(db.predicates().count(), 1);
    }

    #[test]
    fn single_atom_selection() {
        let db = movie_db();
        let q = parse_query("q(M) :- play_in(ford, M)").unwrap();
        let ans = db.evaluate(&q);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&vec![Constant::str("blade_runner")]));
        assert!(ans.contains(&vec![Constant::str("witness")]));
    }

    #[test]
    fn join_across_atoms() {
        let db = movie_db();
        let q = parse_query("q(M, R) :- play_in(ford, M), review_of(R, M)").unwrap();
        let ans = db.evaluate(&q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Constant::str("blade_runner"), Constant::str("rev1")]));
    }

    #[test]
    fn repeated_variable_enforces_equality() {
        let mut db = Database::new();
        db.insert("r", vec![Constant::int(1), Constant::int(1)]);
        db.insert("r", vec![Constant::int(1), Constant::int(2)]);
        let q = parse_query("q(X) :- r(X, X)").unwrap();
        let ans = db.evaluate(&q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Constant::int(1)]));
    }

    #[test]
    fn empty_body_yields_single_empty_answer() {
        let db = Database::new();
        let q = parse_query("q() :-").unwrap();
        assert_eq!(db.evaluate(&q).len(), 1, "q() :- true has the empty tuple");
    }

    #[test]
    fn no_matching_facts_yields_empty() {
        let db = movie_db();
        let q = parse_query("q(M) :- play_in(nobody, M)").unwrap();
        assert!(db.evaluate(&q).is_empty());
    }

    #[test]
    fn arity_mismatched_facts_are_skipped() {
        let mut db = Database::new();
        db.insert("r", vec![Constant::int(1)]);
        db.insert("r", vec![Constant::int(1), Constant::int(2)]);
        let q = parse_query("q(X, Y) :- r(X, Y)").unwrap();
        assert_eq!(db.evaluate(&q).len(), 1);
    }

    #[test]
    #[should_panic(expected = "unsafe query")]
    fn unsafe_query_panics() {
        let db = Database::new();
        let q = parse_query("q(Z) :- r(X)").unwrap();
        db.evaluate(&q);
    }

    #[test]
    fn hash_join_matches_naive_on_movie_db() {
        let db = movie_db();
        for text in [
            "q(M) :- play_in(ford, M)",
            "q(M, R) :- play_in(ford, M), review_of(R, M)",
            "q(A, M, R) :- play_in(A, M), review_of(R, M), american(M)",
            "q() :-",
            "q(M) :- play_in(nobody, M)",
        ] {
            let q = parse_query(text).unwrap();
            assert_eq!(db.evaluate(&q), db.evaluate_naive(&q), "{text}");
        }
    }

    #[test]
    fn hash_join_handles_cartesian_products() {
        // Atoms sharing no variables degenerate to a cross product.
        let mut db = Database::new();
        db.insert("a", vec![Constant::Int(1)]);
        db.insert("a", vec![Constant::Int(2)]);
        db.insert("b", vec![Constant::Int(7)]);
        let q = parse_query("q(X, Y) :- a(X), b(Y)").unwrap();
        let ans = db.evaluate(&q);
        assert_eq!(ans.len(), 2);
        assert_eq!(ans, db.evaluate_naive(&q));
    }

    #[test]
    fn hash_join_constant_in_head() {
        let mut db = Database::new();
        db.insert("r", vec![Constant::Int(1)]);
        let q = parse_query("q(X, tag) :- r(X)").unwrap();
        let ans = db.evaluate(&q);
        assert!(ans.contains(&vec![Constant::Int(1), Constant::str("tag")]));
        assert_eq!(ans, db.evaluate_naive(&q));
    }

    #[test]
    fn seeded_evaluation_is_bit_identical_at_every_prefix_length() {
        let db = movie_db();
        for text in [
            "q(M) :- play_in(ford, M)",
            "q(M, R) :- play_in(ford, M), review_of(R, M)",
            "q(A, M, R) :- play_in(A, M), review_of(R, M), american(M)",
            "q(M) :- play_in(nobody, M), review_of(R, M)",
        ] {
            let q = parse_query(text).unwrap();
            let (reference, captured) = db.evaluate_seeded(&q, None);
            assert_eq!(reference, db.evaluate(&q), "{text}");
            for prefix in &captured {
                let (seeded, rest) = db.evaluate_seeded(&q, Some(prefix));
                assert_eq!(seeded, reference, "{text} seeded at {}", prefix.len);
                // The re-captured suffix matches the original's tail.
                let tail: Vec<_> = captured.iter().filter(|p| p.len > prefix.len).collect();
                assert_eq!(rest.len(), tail.len());
                for (a, b) in rest.iter().zip(tail) {
                    assert_eq!((a.len, &a.rows), (b.len, &b.rows), "{text}");
                }
            }
        }
    }

    #[test]
    fn capture_covers_each_atom_and_prefixes_share_rows_cheaply() {
        let db = movie_db();
        let q = parse_query("q(A, M, R) :- play_in(A, M), review_of(R, M), american(M)").unwrap();
        let (_, captured) = db.evaluate_seeded(&q, None);
        assert_eq!(captured.len(), 3);
        assert_eq!(
            captured.iter().map(|p| p.len).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(captured[0].approx_bytes() > 0);
        // Cloning shares the Arc'd rows instead of copying them.
        let clone = captured[1].clone();
        assert!(Arc::ptr_eq(&clone.rows, &captured[1].rows));
    }

    #[test]
    fn oversized_seed_is_truncated_to_the_body() {
        let db = movie_db();
        let q = parse_query("q(M) :- play_in(ford, M)").unwrap();
        let (reference, captured) = db.evaluate_seeded(&q, None);
        let mut seed = captured.last().unwrap().clone();
        seed.len = 10;
        let (seeded, rest) = db.evaluate_seeded(&q, Some(&seed));
        assert_eq!(seeded, reference);
        assert!(rest.is_empty());
    }

    /// Containment must agree with evaluation: if q1 ⊑ q2 then on every
    /// database the answers of q1 are a subset of the answers of q2.
    #[test]
    fn containment_agrees_with_evaluation_on_movie_db() {
        let db = movie_db();
        let q1 = parse_query("q(M) :- play_in(ford, M), american(M)").unwrap();
        let q2 = parse_query("q(M) :- play_in(ford, M)").unwrap();
        assert!(crate::containment::contains(&q1, &q2));
        let a1 = db.evaluate(&q1);
        let a2 = db.evaluate(&q2);
        assert!(a1.is_subset(&a2));
        assert!(a1.len() < a2.len());
    }
}
