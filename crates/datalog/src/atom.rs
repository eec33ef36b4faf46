//! Atoms: a predicate applied to a tuple of terms.

use crate::substitution::Substitution;
use crate::term::Term;
use std::fmt;
use std::sync::Arc;

/// An atom `p(t1, ..., tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Predicate (relation) name.
    pub predicate: Arc<str>,
    /// Argument terms, in positional order.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom from a predicate name and terms.
    pub fn new(predicate: impl AsRef<str>, terms: Vec<Term>) -> Self {
        Atom {
            predicate: Arc::from(predicate.as_ref()),
            terms,
        }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Iterator over the distinct variables appearing in this atom, in
    /// first-occurrence order.
    pub fn variables(&self) -> Vec<Arc<str>> {
        let mut seen = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !seen.contains(v) {
                    seen.push(v.clone());
                }
            }
        }
        seen
    }

    /// Applies a substitution to every argument.
    pub fn apply(&self, subst: &Substitution) -> Atom {
        Atom {
            predicate: self.predicate.clone(),
            terms: self.terms.iter().map(|t| subst.apply(t)).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom() -> Atom {
        Atom::new(
            "play_in",
            vec![Term::var("A"), Term::var("M"), Term::var("A")],
        )
    }

    #[test]
    fn arity_and_variables() {
        let a = atom();
        assert_eq!(a.arity(), 3);
        // Duplicate variables reported once, in first-occurrence order.
        let vars = a.variables();
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].as_ref(), "A");
        assert_eq!(vars[1].as_ref(), "M");
    }

    #[test]
    fn apply_substitution() {
        let mut s = Substitution::new();
        s.bind("A", Term::str("ford"));
        let a = atom().apply(&s);
        assert_eq!(a.terms[0], Term::str("ford"));
        assert_eq!(a.terms[1], Term::var("M"));
        assert_eq!(a.terms[2], Term::str("ford"));
    }

    #[test]
    fn display() {
        assert_eq!(atom().to_string(), "play_in(A, M, A)");
        assert_eq!(Atom::new("t", vec![]).to_string(), "t()");
    }
}
