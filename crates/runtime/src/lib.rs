//! Concurrent, failure-aware source-access runtime.
//!
//! The paper's setting is a mediator querying *remote, autonomous, flaky*
//! web sources (§1) — yet its experiments, and this repo's serial
//! [`Mediator`](../qpo_exec/mediator/index.html), execute plans against
//! perfectly reliable in-memory extensions. This crate supplies the
//! missing runtime layer:
//!
//! - [`source`] — every catalog source wrapped as a [`SourceService`] with
//!   a deterministic, seed-driven behavior model (latency distribution,
//!   transient/permanent failure injection, per-access fees) derived from
//!   the same statistics that parameterize the utility measures;
//! - [`policy`] — bounded parallelism, speculation depth, capped
//!   exponential backoff retries, per-access timeouts, fault injection;
//! - [`executor`] — a speculative bounded-parallel executor over any
//!   [`PlanOrderer`](qpo_core::PlanOrderer), as one steppable loop: pops
//!   stay serial (utilities are conditioned on emission order), a wave
//!   executes on the stepping thread, plus helpers while accesses wait,
//!   completions merge back in emission order, and failures degrade the
//!   run gracefully instead of aborting it. Each merge reports the outcome
//!   to the orderer ([`PlanOrderer::observe`](qpo_core::PlanOrderer::observe)),
//!   so subsequent emissions are conditioned on what actually executed,
//!   and folds the plan's access chains into the run's per-source drift
//!   monitor;
//! - [`backend`] — the [`SourceBackend`] trait the executor dispatches
//!   every access through: the deterministic simulator ([`SimBackend`],
//!   the default), a persistent indexed store ([`store::StoreBackend`]),
//!   and an out-of-process TCP source ([`net::TcpBackend`] speaking the
//!   [`wire`] protocol against a [`net::SourceServer`]).
//!
//! Under the default [`SimBackend`] everything is deterministic: a run is
//! a pure function of its inputs and the fault seed, bit-for-bit
//! reproducible under any worker count. With faults disabled the executor
//! is *equivalent* to the serial mediator — same plan emission order,
//! same answer set — which is the property the integration tests in
//! `qpo-exec` pin down. Real backends keep the same trace structure but
//! report measured wall latency mapped onto the virtual-time axis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod executor;
pub mod memo;
pub mod net;
pub mod pattern;
pub mod policy;
pub mod source;
pub mod store;
pub mod wire;

pub use backend::{
    AccessContext, AccessReply, BackendError, BackendErrorClass, RemoteSpan, SimBackend,
    SourceBackend,
};
pub use executor::{
    Executor, FailureReason, PlanEvaluator, PlanExecution, PlanStatus, RunBudget, RunState,
    RunStats, RuntimeRun, SourceAccess, WaveObserver,
};
pub use memo::{MemoHit, MemoOutcome, SourceMemo};
pub use net::{fetch_server_trace, MemProvider, RelationProvider, SourceServer, TcpBackend};
pub use pattern::{BindingPattern, SCAN_PATTERN};
pub use policy::{FaultConfig, RetryPolicy, RuntimePolicy};
pub use source::{Access, AccessOutcome, SourceGrid, SourceService};
pub use store::StoreBackend;
