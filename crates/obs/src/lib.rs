//! First-party telemetry for the plan-ordering stack.
//!
//! The paper's contribution is *measured* — its Figure 6 counts interval
//! evaluations and times the arrival of the k-th best plan — so the
//! reproduction needs instrumentation that is always on, cheap, and
//! deterministic. This crate supplies it without any external dependency
//! (the workspace builds fully offline):
//!
//! - [`registry`] — a [`Registry`] of atomic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log₂ [`Histogram`]s, labelled by source / plan / orderer
//!   and cheap enough to leave enabled in benchmarks;
//! - [`journal`] — a [`TraceJournal`] of structured plan-lifecycle and
//!   kernel-certificate events, timestamped by the executor's **virtual
//!   clock** so a trace is bit-for-bit identical under any worker count
//!   (the fixed-seed-replay guarantee of the runtime, extended to the
//!   trace itself); [`Record`], the one decoded view every trace reader
//!   folds, and [`read_jsonl`], the one place a trace line is parsed;
//! - [`vocab`] — the journal's event vocabulary stated once, as data:
//!   every kind's span role, every field's type and whether it is
//!   required. The validator, the debug-build emit check and the
//!   `trace-validate` gate are driven by it;
//! - [`export`] — a JSONL rendering of the journal, a Prometheus-style
//!   text exposition of the registry, and a human summary;
//! - [`json`] — the one JSON value type: a minimal reader used to
//!   validate traces ([`validate_trace`]) and the one writer every served
//!   document goes through, without pulling in serde;
//! - [`sessions`] — the live session directory ([`SessionBoard`]);
//! - [`explain`] — dominance provenance: [`EliminationCertificate`]s
//!   recorded by the ordering kernel and the [`Explanation`] that
//!   [`RunProfile::explain`] gives for "why did plan p rank i / why was q
//!   never emitted";
//! - [`profile`] — post-hoc profiling: the [`ProfileIndex`] rebuilds a
//!   hierarchical span tree per run from the journal alone (prepare /
//!   ordering / per-plan wait / per-source attempt+backoff / join), with
//!   a critical path whose length bit-equals the executor's reported
//!   makespan and an `EXPLAIN ANALYZE`-style renderer;
//! - [`divergence`] — source drift detection: per-source online
//!   estimators ([`DivergenceMonitor`]) compared against the
//!   catalog-declared behavior, exported as `qpo_source_divergence`
//!   gauges and `drift_detected` journal events, recomputable bit-exact
//!   from the trace — by folding the profile's spans, not by a second
//!   reconstruction;
//! - [`backends`] — the live backend directory ([`BackendBoard`]): the
//!   mediator publishes each registered source backend's label, kind,
//!   and a live epoch sampler, rendered by [`backends_text`];
//! - [`serve`] — a dependency-free introspection server
//!   ([`serve::serve`]) exposing `/metrics`, `/traces`, `/sessions`,
//!   `/explain`, `/profile`, `/divergence`, `/backends`, and
//!   `/healthz`, on the workspace's one accept loop ([`ConnectionServer`]).
//!
//! The [`Obs`] bundle ties a registry, a journal, and a session board
//! together; every instrumented layer (`OrderingKernel`, the
//! `qpo-runtime` executor, `Mediator::run` via `RunOptions::obs`) accepts
//! one.
//!
//! ```
//! use qpo_obs::{Obs, Value};
//!
//! let obs = Obs::with_trace();
//! let pops = obs.registry.counter("qpo_demo_pops_total", &[("orderer", "demo")]);
//! pops.inc();
//! obs.journal.set_clock(1.5);
//! obs.journal.record("plan_emitted", vec![("plan_seq", Value::U64(0))]);
//! obs.journal.record("plan_completed", vec![("plan_seq", Value::U64(0))]);
//! let trace = obs.journal.to_jsonl();
//! let report = qpo_obs::validate_trace(&trace).unwrap();
//! assert_eq!(report.spans_opened, report.spans_closed);
//! assert_eq!(pops.get(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod divergence;
pub mod explain;
pub mod export;
pub mod journal;
pub mod json;
pub mod profile;
pub mod registry;
pub mod serve;
pub mod sessions;
pub mod vocab;

pub use backends::{backends_text, BackendBoard};
pub use divergence::{AccessObservation, DivergenceMonitor, SourceDrift, SourceExpectation};
pub use explain::{
    encode_candidates, encode_plan, parse_candidates, parse_plan, EliminationCertificate,
    Explanation,
};
pub use export::{escape_label_value, prometheus_text, summary_text};
pub use journal::{
    read_jsonl, validate_records, validate_trace, Record, TraceEvent, TraceJournal, TraceReport,
    Value,
};
pub use json::{parse_json, Json, JsonError};
pub use profile::{PlanSpan, ProfileIndex, RemoteSpan, RunProfile, SourceSpan, SpanStatus};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use serve::{ConnectionServer, IntrospectionServer};
pub use sessions::{SessionBoard, SessionEntry};

/// The observability bundle handed to instrumented layers: one shared
/// metrics registry plus one (possibly disabled) trace journal.
///
/// Cloning is cheap and shares the underlying storage, so a single `Obs`
/// can be threaded through the mediator, the executor, and the ordering
/// kernel of one run and read back afterwards.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Metric storage: counters accumulate, gauges hold the latest value,
    /// histograms bucket distributions.
    pub registry: Registry,
    /// The structured event journal. Disabled by default (recording is a
    /// no-op); see [`Obs::with_trace`].
    pub journal: TraceJournal,
    /// The live session directory behind the introspection server's
    /// `/sessions` endpoint. Always on (registration is a few map
    /// operations per session, not per plan).
    pub sessions: SessionBoard,
    /// The live backend directory behind the introspection server's
    /// `/backends` endpoint. The mediator publishes one entry per
    /// registered source backend (label, kind, live epoch sampler).
    pub backends: BackendBoard,
}

impl Obs {
    /// Registry on, journal off — the always-on metrics configuration.
    pub fn new() -> Self {
        Obs::default()
    }

    /// Registry on, journal on — the `--trace` configuration.
    pub fn with_trace() -> Self {
        Obs {
            registry: Registry::new(),
            journal: TraceJournal::enabled(),
            sessions: SessionBoard::new(),
            backends: BackendBoard::new(),
        }
    }
}
