//! Execution engine and mediator loop for data-integration query plans.
//!
//! This crate closes the loop of the paper's architecture (§1): the
//! reformulator produces plans, the ordering algorithms emit them best
//! first, and the *execution engine* here evaluates them against
//! in-memory source extensions, unioning the answers. It exists so the
//! examples can demonstrate — with actual tuples — that ordering plans by
//! utility front-loads the answers a user sees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anyk;
pub mod backends;
pub mod concurrent;
mod core;
pub mod extensions;
pub mod mediator;
pub mod profile;
pub mod session;
pub mod sharing;

pub use anyk::{offline_ranked_answers, ranked_join_for_plan};
pub use backends::{snapshot_relations, BackendRegistry};
pub use concurrent::{ConcurrentRun, RunOptions};
pub use extensions::{populate_sources, try_populate_sources, ExtensionError};
pub use mediator::{
    Mediator, MediatorError, MediatorRun, PlanReport, StopCondition, Strategy,
    DEFAULT_CACHE_CAPACITY,
};
pub use profile::format_kernel_stats;
pub use qpo_anyk::{CatalogScorer, LevelCache, RankedJoin, RankedTuple, TupleScorer};
pub use qpo_reformulation::{CacheStats, PreparedQuery, ReformulationCache};
pub use qpo_runtime::SourceMemo;
pub use session::QuerySession;
pub use sharing::{ExecutionMemo, SubplanMemo};
