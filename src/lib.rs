//! # query-plan-ordering
//!
//! A complete Rust implementation of **"Efficiently Ordering Query Plans
//! for Data Integration" (AnHai Doan & Alon Halevy, ICDE 2002)** — a
//! local-as-view data integration stack whose reformulator emits query
//! plans in exact decreasing-utility order, incrementally.
//!
//! The workspace provides, and this crate re-exports:
//!
//! - [`datalog`] — conjunctive queries, LAV views, expansion, containment,
//!   soundness, evaluation;
//! - [`catalog`] — mediated schemas, source statistics, synthetic
//!   instance generators, example domains;
//! - [`reformulation`] — bucket algorithm, inverse rules, MiniCon;
//! - [`utility`] — the measure framework: coverage, transmission costs,
//!   source failure, monetary cost, with interval evaluation of abstract
//!   plans;
//! - [`ordering`] — the paper's algorithms: Greedy, Drips, iDrips,
//!   Streamer, plus the PI and Naive baselines;
//! - [`exec`] — an in-memory execution engine and the session-based
//!   query-serving mediator with a canonicalized reformulation cache;
//! - [`anyk`] — tuple-level ranked (any-k) answer streaming: rank-aware
//!   join enumeration per plan and a lazy cross-plan merge delivering one
//!   globally ranked anytime answer stream;
//! - [`runtime`] — simulated flaky remote sources and the bounded-parallel
//!   speculative executor with retries and outcome feedback;
//! - [`obs`] — first-party telemetry: a metrics registry, a deterministic
//!   virtual-clock trace journal, JSONL / Prometheus / human exporters,
//!   a live session directory, dominance-elimination certificates with an `explain` index, an
//!   `EXPLAIN ANALYZE`-style span-tree profiler reconstructed from the
//!   trace, per-source drift detection against catalog expectations, and
//!   a dependency-free live introspection server;
//! - [`interval`] — the interval arithmetic underneath it all.
//!
//! ## Quickstart
//!
//! ```
//! use query_plan_ordering::prelude::*;
//!
//! // Figure 1 of the paper: six movie sources, a query for reviews of
//! // movies starring Harrison Ford.
//! let catalog = movie_domain();
//! let query = movie_query();
//!
//! // Reformulate: one bucket per subgoal.
//! let reform = reformulate(&catalog, &query).unwrap();
//! let inst = reform.problem_instance(&catalog, MOVIE_UNIVERSE, 5.0).unwrap();
//!
//! // Order all nine plans by coverage with Streamer.
//! let mut streamer = Streamer::new(&inst, &Coverage, &ByExpectedTuples).unwrap();
//! let plans = streamer.order_k(9);
//! assert_eq!(plans.len(), 9);
//! // Utilities are non-increasing (coverage has diminishing returns).
//! assert!(plans.windows(2).all(|w| w[0].utility >= w[1].utility));
//!
//! // The ordering is exactly Definition 2.1 — check it by brute force.
//! verify_ordering(&inst, &Coverage, &plans, 1e-12).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qpo_anyk as anyk;
pub use qpo_catalog as catalog;
pub use qpo_core as ordering;
pub use qpo_datalog as datalog;
pub use qpo_exec as exec;
pub use qpo_interval as interval;
pub use qpo_obs as obs;
pub use qpo_reformulation as reformulation;
pub use qpo_runtime as runtime;
pub use qpo_utility as utility;

/// One-stop imports for the common workflow: build or load a catalog,
/// reformulate, pick a measure, order plans, execute.
pub mod prelude {
    pub use qpo_anyk::{
        encode_tuple, plan_bound, AnyKMerge, CatalogScorer, RankedJoin, RankedTuple, TupleScorer,
    };
    pub use qpo_catalog::domains::{
        camera_domain, camera_query, movie_domain, movie_query, CAMERA_UNIVERSE, MOVIE_UNIVERSE,
    };
    pub use qpo_catalog::{
        Catalog, Extent, GeneratorConfig, MediatedSchema, ProblemInstance, SchemaRelation,
        SourceRef, SourceStats, StatRange,
    };
    pub use qpo_core::{
        full_space, remove_plan, verify_ordering, AbstractionHeuristic, ByExpectedTuples,
        ByExtentMidpoint, ByTransmissionCost, Greedy, IDrips, KernelStats, Naive, OrderedPlan,
        OrdererError, OrderingKernel, Pi, PlanOrderer, PlanSpace, RandomKey, Streamer,
        StreamerStats,
    };
    pub use qpo_datalog::{
        parse_atom, parse_query, Atom, CanonicalQuery, ConjunctiveQuery, Constant, Database,
        SourceDescription, Term,
    };
    pub use qpo_exec::{
        format_kernel_stats, offline_ranked_answers, ranked_join_for_plan, snapshot_relations,
        BackendRegistry, CacheStats, ConcurrentRun, ExecutionMemo, Mediator, MediatorRun,
        PlanReport, PreparedQuery, QuerySession, ReformulationCache, RunOptions, StopCondition,
        Strategy, SubplanMemo,
    };
    pub use qpo_interval::Interval;
    pub use qpo_obs::{
        encode_plan, parse_plan, prometheus_text, summary_text, validate_trace, AccessObservation,
        DivergenceMonitor, EliminationCertificate, Explanation, IntrospectionServer, Obs, PlanSpan,
        ProfileIndex, RunProfile, SessionBoard, SessionEntry, SourceDrift, SourceExpectation,
        SourceSpan, SpanStatus, TraceJournal,
    };
    pub use qpo_reformulation::{
        create_buckets, enumerate_sound_plans, minicon_plan_spaces, reformulate, Reformulation,
    };
    pub use qpo_runtime::{
        BackendError, BackendErrorClass, FaultConfig, MemProvider, PlanStatus, RelationProvider,
        RunBudget, RuntimePolicy, SimBackend, SourceBackend, SourceServer, StoreBackend,
        TcpBackend,
    };
    pub use qpo_utility::{
        Combined, CountingMeasure, Coverage, ExecutionContext, FailureCost, FusionCost, LinearCost,
        MonetaryCost, UtilityMeasure,
    };
}
