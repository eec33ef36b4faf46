//! Mediated schemas, source statistics, and synthetic domain generators.
//!
//! The ordering algorithms of the paper consume a *numeric* view of the
//! integration domain: for each query subgoal a bucket of sources, each with
//! statistics (expected output tuples `n_i`, per-item transmission cost
//! `α_i`, per-tuple monetary fee, failure probability, flat access cost
//! `c_i`, and a coverage *extent* over the subgoal's universe). This crate
//! defines that view ([`ProblemInstance`]), symbolic catalogs binding
//! statistics to named LAV sources ([`Catalog`]), the synthetic instance
//! generator used by the experiments (§6: bucket size, overlap rate, seeded
//! distributions), and the two narrative domains of the paper (movies from
//! Figure 1, digital cameras from §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod domains;
pub mod extent;
pub mod generator;
pub mod instance;
pub mod schema;
pub mod stats;

pub use catalog::{Catalog, CatalogError};
pub use extent::Extent;
pub use generator::{GeneratorConfig, StatRange};
pub use instance::{ProblemInstance, SourceRef};
pub use schema::{MediatedSchema, SchemaRelation};
pub use stats::SourceStats;
