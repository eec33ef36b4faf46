//! The journal's event vocabulary, stated once as data: [`KINDS`] gives
//! every event kind the workspace emits its [`Role`] in a run's span
//! structure, [`FIELDS`] gives every field of every kind its wire type
//! and whether a reader may rely on it. The validator's conformance loop,
//! the emit-side debug assertion in
//! [`TraceJournal::record_at`](crate::TraceJournal::record_at), the JSONL
//! reader's integer check and the `trace-validate` gate are all driven by
//! these two tables, so adding a field to a kind is a one-row edit (plus
//! DESIGN.md § Observability, which mirrors them by hand).
//!
//! *Required* means exactly "a trace without it is rejected"; every other
//! listed field is optional but typed. Unlisted fields pass unchecked; the
//! validator refuses an unlisted kind (tests' `"tick"`).

/// Wire type of an event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Non-negative integer (ids, counts); at most 2⁵³ in JSONL.
    U64,
    /// Floating point (clocks, latencies, utilities).
    F64,
    /// String (source names, outcomes, encoded plans).
    Str,
    /// Flag.
    Bool,
}

/// What an event kind means for the span structure of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Opens a run scope: restarts the virtual clock and `plan_seq`.
    RunOpen,
    /// Opens the plan span named by `plan_seq`.
    SpanOpen,
    /// Closes the plan span named by `plan_seq`.
    SpanClose,
    /// Legal only while the plan span named by `plan_seq` is open.
    InSpan,
    /// Legal once the plan named by `plan_seq` was emitted, open or not;
    /// a `tuple_emitted` only once that plan completed.
    AfterEmission,
    /// Ordering-kernel work: prepare time before a run's first emission,
    /// ordering time after it.
    Ordering,
    /// No structural constraint.
    Free,
}

/// One field of one event kind: a row of [`FIELDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Event kind the field belongs to.
    pub kind: &'static str,
    /// Field name as journalled.
    pub name: &'static str,
    /// Wire type.
    pub ty: FieldType,
    /// Whether `validate_trace` rejects the event without it.
    pub required: bool,
}

const fn field(kind: &'static str, name: &'static str, ty: FieldType, required: bool) -> FieldSpec {
    FieldSpec {
        kind,
        name,
        ty,
        required,
    }
}

use FieldType::{Bool, Str, F64, U64};
const REQUIRED: bool = true;
const OPTIONAL: bool = false;

/// Every event kind the workspace emits, in rough lifecycle order.
pub const KINDS: &[(&str, Role)] = &[
    ("run_started", Role::RunOpen),
    ("source_declared", Role::Free),
    ("plan_emitted", Role::SpanOpen),
    ("memo_hit", Role::InSpan),
    ("memo_store", Role::InSpan),
    ("subplan_reused", Role::InSpan),
    ("stream_attached", Role::InSpan),
    ("tuple_emitted", Role::AfterEmission),
    ("stream_evicted", Role::AfterEmission),
    ("source_attempt", Role::Free),
    ("server_span", Role::Free),
    ("plan_completed", Role::SpanClose),
    ("plan_failed", Role::SpanClose),
    ("plan_unsound", Role::SpanClose),
    ("drift_detected", Role::Free),
    ("run_finished", Role::Free),
    ("kernel_elimination", Role::Ordering),
];

/// Every field of every kind in [`KINDS`], in emit order.
pub const FIELDS: &[FieldSpec] = &[
    field("run_started", "lookahead", U64, OPTIONAL),
    field("run_started", "backend", Str, OPTIONAL),
    field("run_started", "strategy", Str, OPTIONAL),
    field("source_declared", "source", Str, REQUIRED),
    field("source_declared", "latency", F64, REQUIRED),
    field("source_declared", "transient_rate", F64, REQUIRED),
    field("source_declared", "tuples", F64, REQUIRED),
    field("plan_emitted", "plan_seq", U64, REQUIRED),
    field("plan_emitted", "plan", Str, OPTIONAL),
    field("plan_emitted", "utility", F64, OPTIONAL),
    field("memo_hit", "plan_seq", U64, REQUIRED),
    field("memo_hit", "source", Str, REQUIRED),
    field("memo_hit", "outcome", Str, OPTIONAL),
    field("memo_hit", "warm", Bool, OPTIONAL),
    field("memo_store", "plan_seq", U64, REQUIRED),
    field("memo_store", "source", Str, REQUIRED),
    field("memo_store", "outcome", Str, OPTIONAL),
    field("subplan_reused", "plan_seq", U64, REQUIRED),
    field("subplan_reused", "prefix_len", U64, OPTIONAL),
    field("stream_attached", "plan_seq", U64, REQUIRED),
    field("stream_attached", "plan", Str, OPTIONAL),
    field("tuple_emitted", "plan_seq", U64, REQUIRED),
    field("tuple_emitted", "k", U64, OPTIONAL),
    field("tuple_emitted", "score", F64, REQUIRED),
    field("tuple_emitted", "tuple", Str, OPTIONAL),
    field("stream_evicted", "plan_seq", U64, REQUIRED),
    field("source_attempt", "plan_seq", U64, OPTIONAL),
    field("source_attempt", "source", Str, OPTIONAL),
    field("source_attempt", "attempt", U64, OPTIONAL),
    field("source_attempt", "backoff", F64, OPTIONAL),
    field("source_attempt", "latency", F64, OPTIONAL),
    field("source_attempt", "outcome", Str, OPTIONAL),
    field("source_attempt", "remote_total", F64, OPTIONAL),
    field("source_attempt", "remote_recv", F64, OPTIONAL),
    field("source_attempt", "remote_lookup", F64, OPTIONAL),
    field("source_attempt", "remote_encode", F64, OPTIONAL),
    field("source_attempt", "remote_seq", U64, OPTIONAL),
    field("source_attempt", "error_class", Str, OPTIONAL),
    field("source_attempt", "error", Str, OPTIONAL),
    field("server_span", "request_seq", U64, REQUIRED),
    field("server_span", "source", Str, REQUIRED),
    field("server_span", "pattern", Str, REQUIRED),
    field("server_span", "recv", F64, REQUIRED),
    field("server_span", "lookup", F64, REQUIRED),
    field("server_span", "encode", F64, REQUIRED),
    field("server_span", "total", F64, REQUIRED),
    field("server_span", "run", U64, REQUIRED),
    field("server_span", "plan_seq", U64, REQUIRED),
    field("server_span", "attempt", U64, REQUIRED),
    field("plan_completed", "plan_seq", U64, REQUIRED),
    // The three counts are absent for a plan merged unjoined: one a
    // session's `next_tuple` pulled for its ranked stream, whose rows
    // reach the answer set only when the session's answers are read.
    field("plan_completed", "tuples", U64, OPTIONAL),
    field("plan_completed", "new_tuples", U64, OPTIONAL),
    field("plan_completed", "cumulative", U64, OPTIONAL),
    field("plan_completed", "latency", F64, OPTIONAL),
    field("plan_failed", "plan_seq", U64, REQUIRED),
    field("plan_failed", "reason", Str, OPTIONAL),
    field("plan_failed", "source", Str, OPTIONAL),
    field("plan_failed", "latency", F64, OPTIONAL),
    field("plan_unsound", "plan_seq", U64, REQUIRED),
    field("plan_unsound", "latency", F64, OPTIONAL),
    field("drift_detected", "source", Str, REQUIRED),
    field("drift_detected", "stat", Str, REQUIRED),
    field("drift_detected", "value", F64, REQUIRED),
    field("drift_detected", "threshold", F64, REQUIRED),
    field("run_finished", "plans", U64, REQUIRED),
    // Absent while an executed plan of the run is still unjoined.
    field("run_finished", "answers", U64, OPTIONAL),
    field("run_finished", "makespan", F64, REQUIRED),
    field("kernel_elimination", "plan_id", U64, OPTIONAL),
    field("kernel_elimination", "champion_id", U64, OPTIONAL),
    field("kernel_elimination", "victim", Str, OPTIONAL),
    field("kernel_elimination", "champion", Str, OPTIONAL),
    field("kernel_elimination", "victim_lo", F64, OPTIONAL),
    field("kernel_elimination", "victim_hi", F64, OPTIONAL),
    field("kernel_elimination", "champion_lo", F64, OPTIONAL),
    field("kernel_elimination", "champion_hi", F64, OPTIONAL),
    field("kernel_elimination", "epoch", U64, OPTIONAL),
];

/// The role `kind` plays, if the vocabulary knows the kind. A scan on
/// purpose: over the `const` table it compiles to a length compare per
/// row, ≈ 7 ns a lookup where a sorted index under a `OnceLock` with a
/// binary search measured ≈ 25 ns (CHANGES.md, PR 23).
pub fn role_of(kind: &str) -> Option<Role> {
    KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, role)| *role)
}

/// The vocabulary's fields of `kind` (none for a kind it does not list).
pub fn fields_of(kind: &str) -> impl Iterator<Item = &'static FieldSpec> + '_ {
    FIELDS.iter().filter(move |f| f.kind == kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_unique_and_span_roles_name_their_plan() {
        for (i, (kind, role)) in KINDS.iter().enumerate() {
            assert!(KINDS[..i].iter().all(|(k, _)| k != kind), "{kind} twice");
            // The validator keys spans by `plan_seq`; a span-structural
            // kind that did not require it would escape the span rules.
            let keyed = matches!(
                role,
                Role::SpanOpen | Role::SpanClose | Role::InSpan | Role::AfterEmission
            );
            let plan = field(kind, "plan_seq", U64, REQUIRED);
            assert!(!keyed || fields_of(kind).any(|f| *f == plan), "{kind}");
            assert!(fields_of(kind).next().is_some(), "{kind} lists no field");
        }
        for (i, f) in FIELDS.iter().enumerate() {
            assert!(role_of(f.kind).is_some(), "{} is not a kind", f.kind);
            let twin = |g: &FieldSpec| (g.kind, g.name) == (f.kind, f.name);
            assert!(!FIELDS[..i].iter().any(twin), "{}.{} twice", f.kind, f.name);
            let reserved = ["seq", "clock", "kind"].contains(&f.name);
            assert!(!reserved, "{}.{} shadows a reserved key", f.kind, f.name);
        }
        // However `role_of` resolves a kind, it answers for every row with
        // that row's role, and for nothing else.
        for (kind, role) in KINDS {
            assert_eq!(role_of(kind), Some(*role), "{kind}");
            assert_eq!(role_of(&kind[1..]), None, "{kind} without its head");
        }
        assert_eq!(role_of("tick"), None);
        assert_eq!(role_of(""), None);
    }
}
