//! Binding patterns: which columns of a source relation an access fixes
//! to constants, in one canonical text form.
//!
//! The text travels as-is in three places — the `pattern` field of
//! [`AccessContext`](crate::backend::AccessContext), the wire request's
//! pattern field, and the [`SourceMemo`](crate::memo::SourceMemo) key —
//! so "the same access" means "the same bytes" everywhere.
//!
//! ## Grammar
//!
//! ```text
//! pattern = "scan" | "bind" binding+
//! binding = ";" column "=" ( "i" int | "s" byte-len ":" bytes )
//! ```
//!
//! `column` and `byte-len` are decimal `usize`, `int` a decimal `i64`,
//! and `bytes` exactly `byte-len` bytes of UTF-8 — length-prefixed, so
//! no constant needs escaping. Bindings are sorted by column with one
//! binding per column, which makes the text canonical: equal binding sets
//! render to equal bytes. `q(M) :- v1(ford, M)` accesses `v1` under
//! `bind;0=s4:ford`.
//!
//! ## The superset-safe contract
//!
//! A backend handed a pattern must return *every* row matching it and
//! may return more. The join applies each atom's constants to every row
//! it reads regardless, so a source that ignores patterns, a text that
//! does not parse ([`BindingPattern::parse`] is total and degrades to
//! [`SCAN_PATTERN`]), and the zero-copy in-process store all answer with
//! the whole relation and nothing changes but the bytes shipped.

use qpo_datalog::{Atom, Constant, Term};
use std::fmt;

/// The binding pattern of a full extension scan: no column is bound.
pub const SCAN_PATTERN: &str = "scan";

/// A set of `column = constant` bindings, sorted by column, at most one
/// per column. `Display` renders the canonical text of the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BindingPattern {
    bindings: Vec<(usize, Constant)>,
}

impl BindingPattern {
    /// The pattern binding each given column; the first binding of a
    /// column wins (dropping a conflicting one only widens the match,
    /// which the superset-safe contract allows).
    pub fn new(bindings: impl IntoIterator<Item = (usize, Constant)>) -> Self {
        let mut bindings: Vec<(usize, Constant)> = bindings.into_iter().collect();
        bindings.sort_by_key(|&(column, _)| column);
        bindings.dedup_by_key(|&mut (column, _)| column);
        BindingPattern { bindings }
    }

    /// The pattern an access serving `atom` ships: one binding per
    /// constant argument.
    pub fn of_atom(atom: &Atom) -> Self {
        BindingPattern::new(
            atom.terms
                .iter()
                .enumerate()
                .filter_map(|(column, term)| match term {
                    Term::Const(c) => Some((column, c.clone())),
                    Term::Var(_) => None,
                }),
        )
    }

    /// Parses pattern text. Total: anything that is not well-formed
    /// `bind…` text — [`SCAN_PATTERN`] included — parses as the scan
    /// pattern, the safe reading under the superset contract.
    pub fn parse(text: &str) -> Self {
        parse_bindings(text).map_or_else(BindingPattern::default, BindingPattern::new)
    }

    /// Whether no column is bound.
    fn is_scan(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Whether `row` carries every bound constant in its column. A row
    /// too short to have a bound column does not match (no atom of that
    /// arity can join it either).
    pub fn matches(&self, row: &[Constant]) -> bool {
        self.bindings
            .iter()
            .all(|(column, constant)| row.get(*column) == Some(constant))
    }
}

impl fmt::Display for BindingPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_scan() {
            return f.write_str(SCAN_PATTERN);
        }
        f.write_str("bind")?;
        for (column, constant) in &self.bindings {
            match constant {
                Constant::Int(i) => write!(f, ";{column}=i{i}")?,
                Constant::Str(s) => write!(f, ";{column}=s{}:{s}", s.len())?,
            }
        }
        Ok(())
    }
}

/// `Some(bindings)` for well-formed `bind…` text, `None` otherwise.
fn parse_bindings(text: &str) -> Option<Vec<(usize, Constant)>> {
    let mut rest = text.strip_prefix("bind")?;
    let mut bindings = Vec::new();
    while !rest.is_empty() {
        let (column, value) = rest.strip_prefix(';')?.split_once('=')?;
        let column: usize = column.parse().ok()?;
        let constant = if let Some(int) = value.strip_prefix('i') {
            let end = int.find(';').unwrap_or(int.len());
            rest = &int[end..];
            Constant::Int(int[..end].parse().ok()?)
        } else {
            let (len, bytes) = value.strip_prefix('s')?.split_once(':')?;
            let len: usize = len.parse().ok()?;
            // `get` also refuses a length that splits a UTF-8 sequence.
            let s = bytes.get(..len)?;
            rest = &bytes[len..];
            Constant::Str(s.into())
        };
        bindings.push((column, constant));
    }
    (!bindings.is_empty()).then_some(bindings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_datalog::parse_atom;

    #[test]
    fn atoms_render_their_constants_in_column_order() {
        let atom = parse_atom("v1(ford, M, 7)").unwrap();
        let pattern = BindingPattern::of_atom(&atom);
        assert_eq!(pattern.to_string(), "bind;0=s4:ford;2=i7");
        assert_eq!(BindingPattern::parse(&pattern.to_string()), pattern);
        let free = BindingPattern::of_atom(&parse_atom("v1(A, M)").unwrap());
        assert!(free.is_scan());
        assert_eq!(free.to_string(), SCAN_PATTERN);
    }

    #[test]
    fn strings_need_no_escaping() {
        let nasty = "a;1=i2:\u{0}é ";
        let pattern = BindingPattern::new([(3, Constant::str(nasty)), (1, Constant::Int(-5))]);
        let text = pattern.to_string();
        assert_eq!(text, format!("bind;1=i-5;3=s{}:{nasty}", nasty.len()));
        assert_eq!(BindingPattern::parse(&text), pattern);
    }

    #[test]
    fn one_binding_per_column_sorted() {
        let a = BindingPattern::new([
            (2, Constant::Int(1)),
            (0, Constant::Int(9)),
            (2, Constant::Int(8)),
        ]);
        assert_eq!(a.to_string(), "bind;0=i9;2=i1");
    }

    #[test]
    fn malformed_text_degrades_to_scan() {
        for text in [
            "",
            "scan",
            "bind",
            "bind;",
            "bind;0",
            "bind;0=",
            "bind;x=i1",
            "bind;0=i",
            "bind;0=i1x",
            "bind;0=s9:short",
            "bind;0=s1:é",
            "bind;0=s1:ab",
            "bind;0=q1",
            "bound:bf",
        ] {
            assert!(BindingPattern::parse(text).is_scan(), "{text:?}");
        }
    }

    #[test]
    fn matching_checks_every_bound_column() {
        let pattern = BindingPattern::parse("bind;0=s4:ford;1=i2");
        let row = |a: &str, b: i64| vec![Constant::str(a), Constant::Int(b)];
        assert!(pattern.matches(&row("ford", 2)));
        assert!(!pattern.matches(&row("ford", 3)));
        assert!(!pattern.matches(&row("hanks", 2)));
        assert!(!pattern.matches(&[Constant::str("ford")]), "row too short");
        assert!(BindingPattern::default().matches(&[]));
    }
}
