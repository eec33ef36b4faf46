//! Terms and constants of the conjunctive-query language.

use std::fmt;
use std::sync::Arc;

/// A ground value: an integer or an interned string.
///
/// Strings are reference-counted so that copying queries and plans around —
/// which the ordering algorithms do constantly — never clones string data.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Constant {
    /// An integer constant, e.g. a year or a synthetic tuple id.
    Int(i64),
    /// A string constant, e.g. `"ford"`.
    Str(Arc<str>),
}

impl Constant {
    /// Creates a string constant.
    pub fn str(s: impl AsRef<str>) -> Self {
        Constant::Str(Arc::from(s.as_ref()))
    }

    /// Creates an integer constant.
    pub fn int(v: i64) -> Self {
        Constant::Int(v)
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(v) => write!(f, "{v}"),
            Constant::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

impl From<i64> for Constant {
    fn from(v: i64) -> Self {
        Constant::Int(v)
    }
}

impl From<&str> for Constant {
    fn from(s: &str) -> Self {
        Constant::str(s)
    }
}

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable, identified by name. By convention names start with an
    /// uppercase letter (`X`, `Movie`) or an underscore for generated
    /// existentials (`__e0`).
    Var(Arc<str>),
    /// A constant.
    Const(Constant),
}

impl Term {
    /// Creates a variable term.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Arc::from(name.as_ref()))
    }

    /// Creates a string-constant term.
    pub fn str(s: impl AsRef<str>) -> Self {
        Term::Const(Constant::str(s))
    }

    /// Creates an integer-constant term.
    pub fn int(v: i64) -> Self {
        Term::Const(Constant::Int(v))
    }

    /// True iff this term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Constant> for Term {
    fn from(c: Constant) -> Self {
        Term::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let v = Term::var("X");
        assert!(v.is_var());
        assert_eq!(v, Term::Var("X".into()));

        let c = Term::int(7);
        assert!(!c.is_var());
        assert_eq!(c, Term::Const(Constant::Int(7)));

        let s = Term::str("ford");
        assert_eq!(s, Term::Const(Constant::str("ford")));
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(Term::var("X"), Term::var("X"));
        assert_ne!(Term::var("X"), Term::var("Y"));
        assert_ne!(Term::var("X"), Term::str("X"));
        assert_eq!(Constant::from(3), Constant::Int(3));
        assert_eq!(Constant::from("a"), Constant::str("a"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::var("Movie").to_string(), "Movie");
        assert_eq!(Term::int(-4).to_string(), "-4");
        assert_eq!(Term::str("ford").to_string(), "\"ford\"");
    }
}
