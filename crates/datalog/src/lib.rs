//! Conjunctive-query substrate for LAV data integration.
//!
//! The plan-ordering paper (Doan & Halevy, ICDE 2002, §2) assumes a
//! local-as-view mediator: user queries are conjunctive queries over a
//! mediated schema, each data source is described by a conjunctive view over
//! that schema, and a *query plan* is a conjunction of source relations whose
//! **expansion** (unfolding of the view definitions) must be *contained* in
//! the user query for the plan to be sound.
//!
//! This crate provides everything needed to state and decide those notions:
//!
//! - [`Term`], [`Atom`], [`ConjunctiveQuery`] — the query language;
//! - [`SourceDescription`] — LAV view definitions;
//! - [`expansion::expand_plan`] — plan unfolding with fresh existentials;
//! - [`containment::contains`] — conjunctive-query containment via
//!   canonical databases and homomorphism search;
//! - [`soundness::is_sound_plan`] — the soundness test the bucket algorithm
//!   applies to each candidate plan;
//! - [`eval`] — naive bottom-up evaluation over a ground database (used by
//!   tests and by the `qpo-exec` mediator);
//! - [`parse`] — a small datalog-syntax parser for ergonomic examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod canonical;
pub mod containment;
pub mod eval;
pub mod expansion;
pub mod parse;
pub mod query;
pub mod soundness;
pub mod substitution;
pub mod term;
pub mod view;

pub use atom::Atom;
pub use canonical::{canonicalize, is_variable_renaming, CanonicalQuery};
pub use containment::{contains, equivalent, find_containment_mapping};
pub use eval::{evaluate_slots, sort_tuples, Database, JoinPrefix, PrefixRows, RowHasher, Tuple};
pub use expansion::{expand_plan, ExpansionError};
pub use parse::{parse_atom, parse_query, ParseError};
pub use query::ConjunctiveQuery;
pub use soundness::is_sound_plan;
pub use substitution::Substitution;
pub use term::{Constant, Term};
pub use view::SourceDescription;
