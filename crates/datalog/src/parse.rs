//! A small parser for datalog-style conjunctive queries.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query ::= atom ":-" (atom ("," atom)*)?        e.g. q(X) :- r(X, a), s(X)
//! atom  ::= ident "(" (term ("," term)*)? ")"
//! term  ::= VARIABLE | INTEGER | STRING | ident
//! ```
//!
//! Identifiers starting with an uppercase letter or `_` are **variables**;
//! lowercase identifiers in argument position are string **constants**
//! (standard datalog convention), as are quoted strings; integer literals
//! are integer constants.

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::term::Term;
use std::fmt;

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the failure was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn require(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`")))
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest().is_empty()
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let mut chars = rest.char_indices();
        match chars.next() {
            Some((_, c)) if c.is_alphabetic() || c == '_' => {}
            _ => return Err(self.error("expected identifier")),
        }
        let end = rest
            .char_indices()
            .find(|&(_, c)| !(c.is_alphanumeric() || c == '_'))
            .map_or(rest.len(), |(i, _)| i);
        self.pos += end;
        Ok(&rest[..end])
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let first = rest
            .chars()
            .next()
            .ok_or_else(|| self.error("expected term"))?;
        if first == '"' {
            // Quoted string constant (no escape sequences needed here).
            let close = rest[1..]
                .find('"')
                .ok_or_else(|| self.error("unterminated string"))?;
            let s = &rest[1..1 + close];
            self.pos += close + 2;
            return Ok(Term::str(s));
        }
        if first == '-' || first.is_ascii_digit() {
            let end = rest
                .char_indices()
                .skip(1)
                .find(|&(_, c)| !c.is_ascii_digit())
                .map_or(rest.len(), |(i, _)| i);
            let lit = &rest[..end];
            let v: i64 = lit
                .parse()
                .map_err(|_| self.error(format!("bad integer literal `{lit}`")))?;
            self.pos += end;
            return Ok(Term::int(v));
        }
        let ident = self.ident()?;
        if ident.starts_with(|c: char| c.is_uppercase() || c == '_') {
            Ok(Term::var(ident))
        } else {
            Ok(Term::str(ident))
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let name = self.ident()?;
        if name.starts_with(char::is_uppercase) {
            return Err(self.error(format!(
                "predicate `{name}` must start with a lowercase letter"
            )));
        }
        self.require("(")?;
        let mut terms = Vec::new();
        if !self.eat(")") {
            loop {
                terms.push(self.term()?);
                if self.eat(")") {
                    break;
                }
                self.require(",")?;
            }
        }
        Ok(Atom::new(name, terms))
    }

    fn query(&mut self) -> Result<ConjunctiveQuery, ParseError> {
        let head = self.atom()?;
        self.require(":-")?;
        let mut body = Vec::new();
        if !self.at_end() {
            // Allow an explicit empty body written as `true`.
            if self.eat("true") {
                if !self.at_end() {
                    return Err(self.error("trailing input after `true`"));
                }
                return Ok(ConjunctiveQuery::new(head, body));
            }
            loop {
                body.push(self.atom()?);
                if !self.eat(",") {
                    break;
                }
            }
        }
        if !self.at_end() {
            return Err(self.error("trailing input"));
        }
        Ok(ConjunctiveQuery::new(head, body))
    }
}

/// Parses a conjunctive query, e.g. `"q(M, R) :- play_in(ford, M), review_of(R, M)"`.
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery, ParseError> {
    Parser::new(input).query()
}

/// Parses a single atom, e.g. `"play_in(ford, M)"`.
pub fn parse_atom(input: &str) -> Result<Atom, ParseError> {
    let mut p = Parser::new(input);
    let atom = p.atom()?;
    if !p.at_end() {
        return Err(p.error("trailing input"));
    }
    Ok(atom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_query() {
        let q = parse_query("q(M, R) :- play_in(ford, M), review_of(R, M)").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.head.predicate.as_ref(), "q");
        assert_eq!(q.body[0].terms[0], Term::str("ford"));
        assert_eq!(q.body[0].terms[1], Term::var("M"));
    }

    #[test]
    fn lowercase_is_constant_uppercase_is_variable() {
        let a = parse_atom("r(x_const, Xvar, _anon, \"lit\", -12)").unwrap();
        assert_eq!(a.terms[0], Term::str("x_const"));
        assert_eq!(a.terms[1], Term::var("Xvar"));
        assert_eq!(a.terms[2], Term::var("_anon"));
        assert_eq!(a.terms[3], Term::str("lit"));
        assert_eq!(a.terms[4], Term::int(-12));
    }

    #[test]
    fn zero_arity_and_empty_body() {
        assert_eq!(parse_atom("t()").unwrap().arity(), 0);
        let q = parse_query("q() :-").unwrap();
        assert!(q.is_empty());
        let q = parse_query("q() :- true").unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse_query("  q( X ,Y )  :-   r(X,  Y) ").unwrap();
        assert_eq!(a.to_string(), "q(X, Y) :- r(X, Y)");
    }

    #[test]
    fn roundtrips_display() {
        for text in [
            "q(M, R) :- play_in(\"ford\", M), review_of(R, M)",
            "v3(A, M) :- play_in(A, M)",
            "p(X) :- r(X, X), s(7, X)",
        ] {
            let q = parse_query(text).unwrap();
            assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        }
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("q(X)").is_err(), "missing :-");
        assert!(parse_atom("q(X").is_err(), "unclosed paren");
        assert!(parse_atom("Q(X)").is_err(), "uppercase predicate");
        assert!(parse_atom("q(\"oops)").is_err(), "unterminated string");
        assert!(parse_query("q(X) :- r(X) junk").is_err(), "trailing input");
        assert!(parse_atom("q(,)").is_err(), "empty term");
        let err = parse_query("q(X)").unwrap_err();
        assert!(err.to_string().contains("expected `:-`"), "{err}");
    }
}
