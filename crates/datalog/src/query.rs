//! Conjunctive queries `Q(Ȳ) :- R1(Ȳ1), ..., Rm(Ȳm)`.

use crate::atom::Atom;
use crate::substitution::Substitution;
use crate::term::Term;
use std::fmt;
use std::sync::Arc;

/// A conjunctive query: a head atom over distinguished terms and a body of
/// subgoal atoms over mediated-schema (or source) relations.
///
/// `Hash`/`Ord` are structural (head, then body, position by position), so
/// a query can key maps directly; see [`crate::canonical::CanonicalQuery`]
/// for a key that identifies queries up to variable renaming.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConjunctiveQuery {
    /// Head atom; its predicate names the query and its terms are the
    /// distinguished (output) terms.
    pub head: Atom,
    /// Body subgoals, in positional order. Position `i` is "the `i`-th
    /// subgoal" of the paper; buckets are indexed by these positions.
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Creates a query from a head and body.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        ConjunctiveQuery { head, body }
    }

    /// Number of body subgoals (the paper's query length `n`).
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// True iff the body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Distinct variables of the head, in first-occurrence order.
    pub fn head_variables(&self) -> Vec<Arc<str>> {
        self.head.variables()
    }

    /// Distinct variables of the body, in first-occurrence order.
    pub fn body_variables(&self) -> Vec<Arc<str>> {
        let mut seen = Vec::new();
        for atom in &self.body {
            for v in atom.variables() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// All distinct variables (head then body), in first-occurrence order.
    pub fn all_variables(&self) -> Vec<Arc<str>> {
        let mut seen = self.head_variables();
        for v in self.body_variables() {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// A query is *safe* iff every head variable appears in the body.
    /// A scan, allocation-free: evaluation asserts it once per plan.
    pub fn is_safe(&self) -> bool {
        let in_body = |t: &Term| self.body.iter().any(|atom| atom.terms.contains(t));
        self.head.terms.iter().all(|t| !t.is_var() || in_body(t))
    }

    /// Applies a substitution to head and body.
    pub fn apply(&self, subst: &Substitution) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: self.head.apply(subst),
            body: self.body.iter().map(|a| a.apply(subst)).collect(),
        }
    }

    /// Renames every variable with the given prefix (`X` becomes
    /// `{prefix}X`), producing a query that shares no variables with the
    /// original. Used when unfolding view definitions so existentials from
    /// different view occurrences never collide.
    pub fn rename_with_prefix(&self, prefix: &str) -> ConjunctiveQuery {
        let mut subst = Substitution::new();
        for v in self.all_variables() {
            subst.bind(v.as_ref(), Term::var(format!("{prefix}{v}")));
        }
        self.apply(&subst)
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        if self.body.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `q(M, R) :- play_in("ford", M), review_of(R, M)` — Figure 1's query.
    fn figure1_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            Atom::new("q", vec![Term::var("M"), Term::var("R")]),
            vec![
                Atom::new("play_in", vec![Term::str("ford"), Term::var("M")]),
                Atom::new("review_of", vec![Term::var("R"), Term::var("M")]),
            ],
        )
    }

    #[test]
    fn lengths_and_variables() {
        let q = figure1_query();
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        let hv: Vec<_> = q.head_variables().iter().map(|v| v.to_string()).collect();
        assert_eq!(hv, vec!["M", "R"]);
        let bv: Vec<_> = q.body_variables().iter().map(|v| v.to_string()).collect();
        assert_eq!(bv, vec!["M", "R"]);
        assert_eq!(q.all_variables().len(), 2);
    }

    #[test]
    fn safety() {
        assert!(figure1_query().is_safe());
        let unsafe_q = ConjunctiveQuery::new(
            Atom::new("q", vec![Term::var("Z")]),
            vec![Atom::new("r", vec![Term::var("X")])],
        );
        assert!(!unsafe_q.is_safe());
        // Constants in the head do not affect safety.
        let const_head = ConjunctiveQuery::new(
            Atom::new("q", vec![Term::int(1)]),
            vec![Atom::new("r", vec![Term::var("X")])],
        );
        assert!(const_head.is_safe());
    }

    #[test]
    fn rename_is_collision_free_and_structure_preserving() {
        let q = figure1_query();
        let r = q.rename_with_prefix("p0_");
        assert_eq!(r.len(), q.len());
        assert_eq!(r.head.predicate, q.head.predicate);
        assert_eq!(r.head.terms[0], Term::var("p0_M"));
        // Constants are untouched.
        assert_eq!(r.body[0].terms[0], Term::str("ford"));
        // No shared variables with the original.
        let orig: BTreeSet<_> = q.all_variables().into_iter().collect();
        assert!(r.all_variables().iter().all(|v| !orig.contains(v)));
    }

    #[test]
    fn display() {
        assert_eq!(
            figure1_query().to_string(),
            "q(M, R) :- play_in(\"ford\", M), review_of(R, M)"
        );
        let empty = ConjunctiveQuery::new(Atom::new("q", vec![]), vec![]);
        assert_eq!(empty.to_string(), "q() :- true");
    }
}
