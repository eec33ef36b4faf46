//! Pluggable source backends: the boundary between the wave executor and
//! the worlds it can run against.
//!
//! The paper's mediator assumes autonomous remote sources with real
//! latency and real failure. Historically every access in this repo
//! bottomed out in [`SourceService::simulate_access`] — a pure hash roll.
//! The [`SourceBackend`] trait factors that assumption out: the executor
//! dispatches every source access through a backend, and the backend
//! decides what an access *is*:
//!
//! - [`SimBackend`] — the original deterministic simulator, bit-for-bit.
//!   The default everywhere; all determinism and differential suites run
//!   against it unchanged.
//! - [`crate::store::StoreBackend`] — an in-process persistent indexed
//!   store (one append-only log + an in-memory index rebuilt on
//!   open), so sources survive process restarts.
//! - [`crate::net::TcpBackend`] — an out-of-process source reached over a
//!   length-prefixed wire protocol ([`crate::wire`]), with genuine network
//!   latency, timeouts, and connection failures.
//!
//! ## The contract
//!
//! [`SourceBackend::access`] performs one access *attempt* and is fallible
//! in two layered ways. The `Ok` path returns an [`AccessReply`] whose
//! [`Access`] may still report a simulated/observed failure outcome — that
//! is the simulator's native vocabulary, preserved exactly. The `Err` path
//! returns a typed [`BackendError`] for infrastructure failures (I/O,
//! protocol violations, missing relations) with an explicit
//! transient-vs-permanent classification, so the executor's existing
//! retry/backoff machinery handles a refused TCP connection with the same
//! discipline it applies to a simulated transient fault.
//!
//! Latencies are in *virtual time units* (the unit the catalog's cost
//! model speaks). Real backends measure wall time and map it onto that
//! axis via their `latency_unit` (units per wall second); the simulator
//! draws latencies directly. Either way the journal clock advances by the
//! reported latency, so traces from real backends are structurally
//! identical to simulated ones — only the timestamps stop being replayable.
//!
//! ## Epochs
//!
//! [`SourceBackend::epoch`] is a monotone counter that changes whenever
//! the backend's *data* may have changed (e.g. a store compaction or a
//! write). The [`crate::memo::SourceMemo`] records the epoch it observed;
//! a changed epoch invalidates cached terminal outcomes, so cross-plan
//! reuse never serves answers from a world that no longer exists. The
//! simulator is pure, so its epoch is constant `0`.

use crate::policy::FaultConfig;
use crate::source::{Access, SourceService};
use qpo_datalog::Tuple;
use qpo_obs::Counter;
use std::fmt;
use std::sync::Arc;

/// Whether a backend failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendErrorClass {
    /// The failure may heal: connection refused/reset, timeout, torn
    /// frame. The executor retries with backoff, exactly as it does for
    /// simulated transient faults.
    Transient,
    /// The failure is structural: unknown source, permission denied,
    /// malformed store. Retrying is pointless; the plan fails fast and
    /// the outcome is memoizable.
    Permanent,
}

impl BackendErrorClass {
    /// The journal/metric label for this class.
    pub fn label(self) -> &'static str {
        match self {
            BackendErrorClass::Transient => "transient",
            BackendErrorClass::Permanent => "permanent",
        }
    }
}

/// A typed infrastructure failure from a source backend, carrying its
/// retry classification and the virtual latency already paid discovering
/// it (e.g. the wall time a connect spent before being refused).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendError {
    /// Retry classification.
    pub class: BackendErrorClass,
    /// Human-readable description, journalled alongside the class.
    pub message: String,
    /// Virtual time spent discovering the failure (charged to the plan).
    pub latency: f64,
}

impl BackendError {
    /// A retryable failure.
    pub fn transient(message: impl Into<String>) -> Self {
        BackendError {
            class: BackendErrorClass::Transient,
            message: message.into(),
            latency: 0.0,
        }
    }

    /// A terminal failure.
    pub fn permanent(message: impl Into<String>) -> Self {
        BackendError {
            class: BackendErrorClass::Permanent,
            message: message.into(),
            latency: 0.0,
        }
    }

    /// Attaches the virtual latency paid discovering the failure.
    pub fn with_latency(mut self, latency: f64) -> Self {
        self.latency = latency.max(0.0);
        self
    }

    /// Classifies an I/O error. Connection-level and timing failures are
    /// transient (the server may come back); structural failures —
    /// missing files, permissions, corrupt data — are permanent.
    pub fn from_io(err: &std::io::Error, context: &str) -> Self {
        use std::io::ErrorKind;
        let class = match err.kind() {
            ErrorKind::NotFound
            | ErrorKind::PermissionDenied
            | ErrorKind::InvalidInput
            | ErrorKind::InvalidData
            | ErrorKind::Unsupported => BackendErrorClass::Permanent,
            // Refused/reset/aborted/timeout/EOF and everything else:
            // retry — autonomous sources flap.
            _ => BackendErrorClass::Transient,
        };
        BackendError {
            class,
            message: format!("{context}: {err}"),
            latency: 0.0,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} backend failure: {}",
            self.class.label(),
            self.message
        )
    }
}

impl std::error::Error for BackendError {}

/// Per-attempt context the executor hands to the backend: the binding
/// pattern being served, the deterministic coordinates of the attempt,
/// and the fault configuration (which only [`SimBackend`] consults).
#[derive(Debug, Clone, Copy)]
pub struct AccessContext<'a> {
    /// Binding pattern of the access, in the canonical text of
    /// [`crate::pattern`]: [`crate::pattern::SCAN_PATTERN`], or the
    /// constants the plan's subgoal fixes. Superset-safe — a backend
    /// must return every row matching it and may return more (the whole
    /// relation included), because the join re-applies every constant.
    pub pattern: &'a str,
    /// Process-local identifier of the run performing the access.
    /// Propagated to tracing backends (the TCP backend's wire trace
    /// context) so a server's journal can tell concurrent runs apart; it
    /// is never journalled client-side, so traces stay deterministic.
    pub run: u64,
    /// Emission sequence number of the plan performing the access.
    pub plan_seq: u64,
    /// Zero-based attempt number within the retry loop.
    pub attempt: u32,
    /// The run's fault configuration. Real backends ignore it — their
    /// faults are real.
    pub faults: &'a FaultConfig,
}

/// Server-side timing of one remote access. On the wire it is the span
/// field of every reply ([`crate::wire::Reply`]), in wall seconds; on an
/// [`AccessReply`] it is mapped onto the client's virtual-time axis (the
/// backend's `latency_unit` scaling, same as the client latency) and
/// clamped so `recv_parse + lookup + encode ≤ total ≤` the attempt's
/// charged client latency, making `client latency − total` a
/// non-negative network residual.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RemoteSpan {
    /// Server frame receive + request parse time.
    pub recv_parse: f64,
    /// Server provider lookup time.
    pub lookup: f64,
    /// Server row encode time.
    pub encode: f64,
    /// Total server residence time, `≥` the phase sum.
    pub total: f64,
    /// The server's monotone request counter at this request.
    pub server_seq: u64,
}

/// What one backend access attempt produced: the access record (outcome +
/// virtual latency) and, for backends that actually hold data, the
/// relation's tuples. `None` tuples means "evaluate against whatever data
/// the evaluator already has" — the simulator's contract, where the
/// static database is the world.
#[derive(Debug, Clone)]
pub struct AccessReply {
    /// Outcome and charged virtual latency of the attempt.
    pub access: Access,
    /// The source relation's tuples, when the backend serves data.
    pub tuples: Option<Arc<Vec<Tuple>>>,
    /// Server-side span of the attempt, when the backend is a server
    /// that times its replies (only [`crate::net::TcpBackend`] today).
    /// `None` degrades to single-span client-side attribution.
    pub remote: Option<RemoteSpan>,
}

/// A world the executor can run plans against. Implementations must be
/// cheap to call from worker threads and internally synchronized.
pub trait SourceBackend: Send + Sync {
    /// Short label for journal/metric dimensions (`"sim"`, `"store"`,
    /// `"tcp"`).
    fn kind(&self) -> &'static str;

    /// Monotone data-version counter; see the module docs. Constant for
    /// pure backends.
    fn epoch(&self) -> u64 {
        0
    }

    /// Live `[opened, reused]` connection counters, for backends that
    /// hold network connections — how many they dialed, and how many
    /// exchanges rode a kept-alive one. `None` (the default) for backends
    /// without connections.
    fn connection_counters(&self) -> Option<[Counter; 2]> {
        None
    }

    /// Performs one access attempt against `svc`. `Ok` carries the
    /// attempt's outcome (which may itself be a simulated failure); `Err`
    /// is an infrastructure failure with an explicit retry class.
    fn access(
        &self,
        svc: &SourceService,
        ctx: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError>;
}

/// The deterministic simulator as a backend: delegates straight to
/// [`SourceService::simulate_access`], preserving the seeded rolls
/// bit-for-bit. Never returns `Err` and never serves tuples — the
/// evaluator's static database is the simulated world's data.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl SourceBackend for SimBackend {
    fn kind(&self) -> &'static str {
        "sim"
    }

    fn access(
        &self,
        svc: &SourceService,
        ctx: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError> {
        Ok(AccessReply {
            access: svc.simulate_access(ctx.faults, ctx.plan_seq, ctx.attempt),
            tuples: None,
            remote: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::SCAN_PATTERN;
    use crate::source::SourceGrid;
    use qpo_catalog::{Extent, ProblemInstance, SourceStats};

    fn grid() -> SourceGrid {
        let inst = ProblemInstance::new(
            0.0,
            vec![100],
            vec![vec![SourceStats::new()
                .with_name("v1")
                .with_extent(Extent::new(0, 10))
                .with_access_cost(2.0)
                .with_failure_prob(0.4)]],
        )
        .unwrap();
        SourceGrid::from_instance(&inst)
    }

    #[test]
    fn sim_backend_reproduces_simulate_access_bit_for_bit() {
        let grid = grid();
        let svc = grid.service(0, 0);
        let faults = FaultConfig::with_seed(42);
        for plan_seq in 0..50 {
            for attempt in 0..4 {
                let ctx = AccessContext {
                    pattern: SCAN_PATTERN,
                    run: 0,
                    plan_seq,
                    attempt,
                    faults: &faults,
                };
                let reply = SimBackend.access(svc, &ctx).expect("sim never errors");
                assert_eq!(
                    reply.access,
                    svc.simulate_access(&faults, plan_seq, attempt)
                );
                assert!(reply.tuples.is_none());
            }
        }
        assert_eq!(SimBackend.kind(), "sim");
        assert_eq!(SimBackend.epoch(), 0);
    }

    #[test]
    fn io_errors_classify_by_kind() {
        use std::io::{Error, ErrorKind};
        let transient = [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::TimedOut,
            ErrorKind::UnexpectedEof,
            ErrorKind::BrokenPipe,
        ];
        for kind in transient {
            let e = BackendError::from_io(&Error::new(kind, "boom"), "connect");
            assert_eq!(e.class, BackendErrorClass::Transient, "{kind:?}");
            assert!(e.message.contains("connect"));
        }
        let permanent = [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidData,
        ];
        for kind in permanent {
            let e = BackendError::from_io(&Error::new(kind, "boom"), "open");
            assert_eq!(e.class, BackendErrorClass::Permanent, "{kind:?}");
        }
    }

    #[test]
    fn error_constructors_carry_class_and_latency() {
        let e = BackendError::transient("flaky").with_latency(3.5);
        assert_eq!(e.class, BackendErrorClass::Transient);
        assert_eq!(e.latency, 3.5);
        assert_eq!(e.class.label(), "transient");
        let e = BackendError::permanent("gone");
        assert_eq!(e.class.label(), "permanent");
        assert!(e.to_string().contains("permanent backend failure"));
        // Negative latencies are clamped: a plan can never be refunded.
        assert_eq!(BackendError::transient("x").with_latency(-1.0).latency, 0.0);
    }
}
