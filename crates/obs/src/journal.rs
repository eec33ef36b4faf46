//! The structured event journal: plan-lifecycle spans and the kernel's
//! certificates, timestamped by the executor's *virtual clock*.
//!
//! Every event carries the virtual time at which it logically happened,
//! not the wall time at which some worker thread got around to reporting
//! it. Because the runtime's virtual clock is a pure function of
//! `(seed, sources, plan order)`, the serialized journal is bit-for-bit
//! identical under any worker count — the fixed-seed-replay guarantee,
//! extended to the trace itself.
//!
//! A disabled journal (the default) makes [`TraceJournal::record`] a
//! no-op guarded by one immutable bool, so instrumented hot paths cost
//! nothing when tracing is off.
//!
//! ## Bounded journals
//!
//! [`TraceJournal::enabled_with_capacity`] caps retained events with
//! ring-buffer semantics: once full, each append drops the oldest event
//! and bumps [`TraceJournal::dropped`]. Sequence numbers keep counting
//! across drops, so a truncated export no longer starts at seq 0 and
//! [`validate_trace`]'s contiguity check rejects it — by design: profile
//! reconstruction ([`crate::profile`]) and divergence replay need the
//! *un-truncated* run. The source server's span journal is one
//! (`qpo_runtime::net::SERVER_JOURNAL_CAP`): a long-lived process where only
//! the recent tail matters.

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::json::{parse_json, push_f64, push_str, Json};
use crate::vocab::{fields_of, role_of, FieldSpec, FieldType, Role};

/// A field value attached to a trace event.
///
/// Strings are `Cow<'static, str>` so the instrumented hot paths can
/// attach static labels (outcomes, strategies) without a heap
/// allocation per event — `Value::Str("ok".into())` borrows; dynamic
/// names still pass an owned `String` through the same constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (sequence numbers, counts).
    U64(u64),
    /// Floating point (latencies, utilities, clock offsets).
    F64(f64),
    /// Short string (source names, outcomes).
    Str(Cow<'static, str>),
    /// Flag.
    Bool(bool),
}

/// One journal entry: a kind, the virtual time it happened at, and a
/// small set of fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone record index: contiguous from 0 for an unbounded journal;
    /// a capped journal keeps counting across dropped events, so the
    /// first retained seq reveals how much history is gone.
    pub seq: u64,
    /// Virtual time of the event.
    pub clock: f64,
    /// Event kind (`plan_emitted`, `source_attempt`, `kernel_elimination`, …).
    pub kind: &'static str,
    /// Event fields, serialized in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

#[derive(Debug, Default)]
struct JournalInner {
    clock: f64,
    events: VecDeque<TraceEvent>,
    /// Seq of the next event (equals total events ever recorded).
    next_seq: u64,
    /// Retention cap; `None` grows without bound.
    cap: Option<usize>,
    /// Events dropped to honor the cap.
    dropped: u64,
}

impl JournalInner {
    fn push(&mut self, clock: f64, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(TraceEvent {
            seq,
            clock,
            kind,
            fields,
        });
        if let Some(cap) = self.cap {
            while self.events.len() > cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
    }
}

/// An append-only, virtually-clocked event journal. Cloning shares the
/// buffer; whether the journal records at all is fixed at construction.
#[derive(Debug, Clone, Default)]
pub struct TraceJournal {
    recording: bool,
    inner: Arc<Mutex<JournalInner>>,
}

impl TraceJournal {
    /// A journal that records. (`TraceJournal::default()` is disabled and
    /// drops everything.)
    pub fn enabled() -> Self {
        TraceJournal {
            recording: true,
            inner: Arc::default(),
        }
    }

    /// A recording journal retaining at most `cap` events, ring-buffer
    /// style: once full, each append drops the oldest event and bumps
    /// [`dropped`](Self::dropped). Sequence numbers are *not* reassigned,
    /// so [`validate_trace`]'s seq-contiguity check detects a truncated
    /// export — profile and divergence reconstruction require the full
    /// run (see the module docs).
    pub fn enabled_with_capacity(cap: usize) -> Self {
        let journal = TraceJournal::enabled();
        journal.inner.lock().unwrap_or_else(|e| e.into_inner()).cap = Some(cap);
        journal
    }

    /// Events dropped so far to honor the cap (0 for unbounded journals).
    pub fn dropped(&self) -> u64 {
        if !self.recording {
            return 0;
        }
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Whether [`record`](Self::record) stores anything. Checking this is
    /// free — callers use it to skip building field vectors entirely.
    pub fn is_enabled(&self) -> bool {
        self.recording
    }

    /// Sets the virtual clock used by subsequent [`record`](Self::record)
    /// calls.
    pub fn set_clock(&self, t: f64) {
        if !self.recording {
            return;
        }
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clock = t;
    }

    /// Current virtual clock (0 when disabled).
    pub fn clock(&self) -> f64 {
        if !self.recording {
            return 0.0;
        }
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clock
    }

    /// Appends an event at the current virtual clock.
    pub fn record(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        if !self.recording {
            return;
        }
        debug_assert_conforms(kind, &fields);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let clock = inner.clock;
        inner.push(clock, kind, fields);
    }

    /// Appends an event at an explicit virtual time (does not move the
    /// clock). In debug builds an event of a kind the
    /// [vocabulary](crate::vocab) knows must [conform](Record::conforms)
    /// to its row, so every test run checks every emitter against the
    /// table; release builds check nothing.
    pub fn record_at(&self, clock: f64, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        if !self.recording {
            return;
        }
        debug_assert_conforms(kind, &fields);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.push(clock, kind, fields);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        if !self.recording {
            return 0;
        }
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .len()
    }

    /// True when nothing has been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies of all retained events, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.with_events(|events| events.iter().cloned().collect())
    }

    /// Runs `f` over the retained events, in order, without copying them.
    /// Recorders wait on the journal's lock until it returns.
    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&VecDeque<TraceEvent>) -> R) -> R {
        f(&self.inner.lock().unwrap_or_else(|e| e.into_inner()).events)
    }

    /// Serializes the journal as JSON Lines: one object per event with
    /// reserved keys `seq`, `clock`, `kind`, then the event's own fields.
    /// Non-finite numbers render as `null`. The rendering is a pure
    /// function of the event list, so deterministic journals serialize to
    /// byte-identical text.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            let _ = write!(out, "{{\"seq\":{},\"clock\":", ev.seq);
            let _ = push_f64(&mut out, ev.clock);
            out.push_str(",\"kind\":");
            let _ = push_str(&mut out, ev.kind);
            for (k, v) in &ev.fields {
                out.push(',');
                let _ = push_str(&mut out, k);
                out.push(':');
                let _ = match v {
                    Value::U64(n) => write!(out, "{n}"),
                    Value::F64(x) => push_f64(&mut out, *x),
                    Value::Str(s) => push_str(&mut out, s),
                    Value::Bool(b) => write!(out, "{b}"),
                };
            }
            out.push_str("}\n");
        }
        out
    }
}

fn debug_assert_conforms(kind: &'static str, fields: &[(&'static str, Value)]) {
    if cfg!(debug_assertions) {
        let conforms = Record::live(0, 0.0, kind, fields).conforms();
        assert_eq!(conforms, Ok(()), "emitter disagrees with the vocabulary");
    }
}

/// One decoded journal entry: the single view every reader
/// ([`validate_trace`], and the profiler behind the drift replay and
/// `explain`) folds, whether it came from a live [`TraceEvent`]
/// (`Record::from`) or from a JSONL line ([`read_jsonl`]). Fields read by
/// name *and* type: one journalled with another type reads as absent.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// The event's record index.
    pub seq: u64,
    /// Virtual time of the event; NaN where the JSONL carried `null`.
    pub clock: f64,
    /// Event kind.
    pub kind: Cow<'a, str>,
    /// 1-based JSONL line the record was read from; 0 for a live event.
    line: usize,
    fields: Fields<'a>,
}

#[derive(Debug, Clone)]
enum Fields<'a> {
    Event(&'a [(&'static str, Value)]),
    Line(Vec<(String, Value)>),
}

impl<'a> From<&'a TraceEvent> for Record<'a> {
    fn from(ev: &'a TraceEvent) -> Self {
        Record::live(ev.seq, ev.clock, ev.kind, &ev.fields)
    }
}

impl<'a> Record<'a> {
    fn live(seq: u64, clock: f64, kind: &'a str, fields: &'a [(&'static str, Value)]) -> Self {
        Record {
            seq,
            clock,
            kind: Cow::Borrowed(kind),
            line: 0,
            fields: Fields::Event(fields),
        }
    }

    /// The value journalled under `name` (the first, if repeated).
    pub fn get(&self, name: &str) -> Option<&Value> {
        match &self.fields {
            Fields::Event(f) => f.iter().find(|(k, _)| *k == name).map(|(_, v)| v),
            Fields::Line(f) => f.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        }
    }

    /// The unsigned integer field `name`.
    pub fn u64(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The floating-point field `name`. Finite values round-trip through
    /// JSONL bit-exactly (the exporter writes shortest-roundtrip forms) —
    /// what keeps every offline reconstruction equal to the live one.
    pub fn f64(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The string field `name`.
    pub fn str(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The flag field `name`.
    pub fn bool(&self, name: &str) -> Option<bool> {
        match self.get(name)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `msg` prefixed with where the record sits: its JSONL line, or its
    /// seq for a live event.
    pub fn error(&self, msg: impl std::fmt::Display) -> String {
        match self.line {
            0 => format!("seq {}: {msg}", self.seq),
            line => format!("line {line}: {msg}"),
        }
    }

    /// Checks the record against the [vocabulary](crate::vocab): every
    /// required field of its kind is there, and every listed field it
    /// carries has the table's type. A required number must also be
    /// finite — the exporter writes a non-finite one as `null`, which no
    /// reader can use. Kinds outside the vocabulary conform.
    pub fn conforms(&self) -> Result<(), String> {
        for f in fields_of(&self.kind) {
            let found = self.get(f.name);
            let ok = match (found, f.ty) {
                (None, _) => !f.required,
                (Some(Value::F64(x)), FieldType::F64) => !f.required || x.is_finite(),
                (Some(Value::U64(_)), FieldType::U64)
                | (Some(Value::Str(_)), FieldType::Str)
                | (Some(Value::Bool(_)), FieldType::Bool) => true,
                _ => false,
            };
            if !ok {
                let rule = if f.required { "requires" } else { "types" };
                return Err(format!(
                    "\"{}\" {rule} field \"{}\" as {:?}, found {found:?}",
                    f.kind, f.name, f.ty
                ));
            }
        }
        Ok(())
    }
}

/// Decodes a JSONL trace (the `/traces` format) into [`Record`]s — the one
/// place a trace line is parsed, and the owner of the `line N: …` error
/// text. Every non-empty line must be an object of scalars with an integer
/// `seq`, a numeric or `null` `clock` and a string `kind`. A number under
/// a field the vocabulary types `U64` must be an integer in `0..=2⁵³`:
/// `"plan_seq":-1` or `0.5` is an error, never plan 0. Other numbers
/// decode as F64, and `null` (how a non-finite number is written) as NaN.
pub fn read_jsonl(jsonl: &str) -> Result<Vec<Record<'static>>, String> {
    fn integer(n: f64) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2⁵³
        ((0.0..=MAX_EXACT).contains(&n) && n.fract() == 0.0).then_some(n as u64)
    }
    let mut records = Vec::new();
    for (i, text) in jsonl.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        let line = i + 1;
        let fail = |msg: String| format!("line {line}: {msg}");
        let pairs = match parse_json(text) {
            Ok(Json::Object(pairs)) => pairs,
            Ok(other) => return Err(fail(format!("expected object, got {other:?}"))),
            Err(e) => return Err(fail(e.to_string())),
        };
        let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let seq = match get("seq") {
            Some(Json::Number(n)) => integer(*n),
            _ => None,
        };
        let seq = seq.ok_or_else(|| fail("missing integer \"seq\"".into()))?;
        let clock = match get("clock") {
            Some(Json::Number(n)) => *n,
            Some(Json::Null) => f64::NAN,
            _ => return Err(fail("missing numeric \"clock\"".into())),
        };
        let Some(Json::String(kind)) = get("kind").cloned() else {
            return Err(fail("missing string \"kind\"".into()));
        };
        let mut fields = Vec::with_capacity(pairs.len().saturating_sub(3));
        for (key, value) in pairs {
            if matches!(key.as_str(), "seq" | "clock" | "kind") {
                continue;
            }
            let is_id = || fields_of(&kind).any(|f| f.name == key && f.ty == FieldType::U64);
            let value = match value {
                Json::Number(n) if is_id() => Value::U64(integer(n).ok_or_else(|| {
                    fail(format!(
                        "\"{kind}\" field \"{key}\" is {n}, not an integer in 0..=2^53"
                    ))
                })?),
                Json::Number(n) => Value::F64(n),
                Json::Null => Value::F64(f64::NAN),
                Json::String(s) => Value::Str(s.into()),
                Json::Bool(b) => Value::Bool(b),
                nested => return Err(fail(format!("field \"{key}\" is not a scalar: {nested:?}"))),
            };
            fields.push((key, value));
        }
        records.push(Record {
            seq,
            clock,
            kind: Cow::Owned(kind),
            line,
            fields: Fields::Line(fields),
        });
    }
    Ok(records)
}

/// What [`validate_trace`] found in a structurally sound trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Total event lines.
    pub events: u64,
    /// Events per kind, sorted by kind.
    pub counts: BTreeMap<String, u64>,
    /// Plan-lifecycle spans opened (`plan_emitted`).
    pub spans_opened: u64,
    /// Plan-lifecycle spans closed (`plan_completed|plan_failed|plan_unsound`).
    pub spans_closed: u64,
}

impl TraceReport {
    /// Count for one event kind (0 when absent).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanState {
    Open,
    /// Closed; `true` when by `plan_completed` (its tuples may leave).
    Closed(bool),
}

/// Checks a JSONL trace for structural soundness: every line decodes
/// ([`read_jsonl`]), `seq` is contiguous from 0, every event is of a kind
/// the [vocabulary](crate::vocab) lists and [conforms](Record::conforms) to it, the
/// virtual clock is non-decreasing in seq order *within each run* (each
/// `run_started` marker restarts it; `null` clocks are skipped), and
/// plan-lifecycle spans open before they close (no double-open, no
/// double-close, no close without open). `plan_seq` restarts at 0 on each
/// `run_started` marker, so spans are keyed by (run, plan); a journal may
/// accumulate any number of runs. Runs are numbered as everywhere else:
/// the zero-based index of the `run_started` marker, events ahead of the
/// first marker belonging to no run. Returns per-kind counts and the
/// open/close tally; callers asserting balance compare
/// [`TraceReport::spans_opened`] with [`TraceReport::spans_closed`].
///
/// The span rules follow each kind's [`Role`]: an `InSpan` event
/// (`stream_attached`, the memo events) must land while its plan's span
/// is open, an `AfterEmission` event (`stream_evicted`) after the plan's
/// `plan_emitted` in the same run, and a `tuple_emitted` after its plan's
/// `plan_completed` — a tuple leaves once its plan executed, for good.
/// `tuple_emitted` scores must be non-increasing within each run (the
/// global any-k ranking guarantee, checked on the wire format); a
/// `memo_hit` must follow a `memo_store` for the same `source` earlier in
/// the same run unless it carries `"warm":true` (the entry survives from
/// a prior run sharing the memo); a run seals with at most one
/// `run_finished`; an `error_class` is `transient` or `permanent`.
///
/// Remote spans (`remote_*` fields on `source_attempt`) may only appear
/// in runs whose `run_started` declares `"backend":"tcp"`, the five
/// fields travel together, no phase (nor the total) is negative, the
/// server total never exceeds the attempt's client-observed `latency`,
/// and the phase sum never exceeds `remote_total` — the
/// clamp-by-construction invariants the runtime's decoder enforces,
/// re-checked on the wire format. This is the one place they are checked:
/// the profile builder derives the network residual from them.
pub fn validate_trace(jsonl: &str) -> Result<TraceReport, String> {
    validate_records(read_jsonl(jsonl)?)
}

/// [`validate_trace`] over already-decoded records.
pub fn validate_records<'a, R: Borrow<Record<'a>>>(
    records: impl IntoIterator<Item = R>,
) -> Result<TraceReport, String> {
    let mut report = TraceReport::default();
    let mut spans: BTreeMap<(Option<u64>, u64), SpanState> = BTreeMap::new();
    let mut run: Option<u64> = None;
    let mut last_clock = f64::NEG_INFINITY;
    let mut last_tuple_score: Option<f64> = None;
    let mut stored_sources: BTreeSet<String> = BTreeSet::new();
    let mut run_finished_seen = false;
    let mut run_backend: Option<String> = None;
    for rec in records {
        let rec = rec.borrow();
        let (seq, kind) = (rec.seq, &*rec.kind);
        if seq != report.events {
            let expected = report.events;
            return Err(rec.error(format!("seq {seq} breaks contiguity (expected {expected})")));
        }
        report.events += 1;
        *report.counts.entry(kind.to_string()).or_insert(0) += 1;
        let role = role_of(kind)
            .ok_or_else(|| rec.error(format!("event kind \"{kind}\" is not in the vocabulary")))?;
        if role == Role::RunOpen {
            // A new run restarts the virtual clock; its own timestamp
            // opens the new monotone window, and the ranked tuple stream
            // starts over, and memo stores no longer vouch for hits.
            run = Some(run.map_or(0, |r| r + 1));
            last_clock = f64::NEG_INFINITY;
            last_tuple_score = None;
            stored_sources.clear();
            run_finished_seen = false;
            run_backend = rec.str("backend").map(str::to_string);
        }
        let scope = || match run {
            Some(r) => format!("run {r}"),
            None => "the preamble (before any run_started)".to_string(),
        };
        if !rec.clock.is_nan() {
            if rec.clock < last_clock {
                return Err(format!(
                    "seq {seq}: clock {} decreases within {} (previous clock {last_clock})",
                    rec.clock,
                    scope()
                ));
            }
            last_clock = rec.clock;
        }
        rec.conforms().map_err(|e| rec.error(e))?;

        // Span structure, by role. The table requires `plan_seq` of every
        // kind with a span role, so conformance already vouched for it.
        if let Some(plan) = rec.u64("plan_seq") {
            let state = spans.get(&(run, plan)).copied();
            match (role, state) {
                (Role::SpanOpen, None) => {
                    spans.insert((run, plan), SpanState::Open);
                    report.spans_opened += 1;
                }
                (Role::SpanOpen, Some(_)) => {
                    return Err(rec.error(format!("plan {plan} emitted twice")))
                }
                (Role::SpanClose, Some(SpanState::Open)) => {
                    spans.insert((run, plan), SpanState::Closed(kind == "plan_completed"));
                    report.spans_closed += 1;
                }
                (Role::SpanClose, Some(SpanState::Closed(_))) => {
                    return Err(rec.error(format!("plan {plan} closed twice (\"{kind}\")")))
                }
                (Role::InSpan, Some(SpanState::Closed(_))) => {
                    return Err(rec.error(format!(
                        "\"{kind}\" for plan {plan} after its terminal event"
                    )))
                }
                (Role::SpanClose | Role::InSpan | Role::AfterEmission, None) => {
                    return Err(
                        rec.error(format!("\"{kind}\" for plan {plan} with no prior emission"))
                    )
                }
                _ => {}
            }
        }

        match kind {
            "tuple_emitted" => {
                let plan = rec.u64("plan_seq").unwrap_or_default();
                if spans.get(&(run, plan)) != Some(&SpanState::Closed(true)) {
                    let early = format!("\"{kind}\" for plan {plan} before its \"plan_completed\"");
                    return Err(rec.error(early));
                }
                let score = rec.f64("score").map(|s| s + 0.0);
                if let (Some(score), Some(prev)) = (score, last_tuple_score) {
                    if score.total_cmp(&prev) == std::cmp::Ordering::Greater {
                        return Err(format!(
                            "seq {seq}: tuple score {score} increases within {} \
                             (previous score {prev})",
                            scope()
                        ));
                    }
                }
                last_tuple_score = score.or(last_tuple_score);
            }
            "memo_store" => stored_sources.extend(rec.str("source").map(str::to_string)),
            "memo_hit" => {
                let source = rec.str("source").unwrap_or_default();
                if rec.bool("warm") != Some(true) && !stored_sources.contains(source) {
                    return Err(rec.error(format!(
                        "cold \"memo_hit\" on \"{source}\" without a prior \
                         \"memo_store\" in {}",
                        scope()
                    )));
                }
            }
            // `run_finished` carries the serial-clock makespan the
            // profile's critical path must equal, at most once per run.
            "run_finished" if run_finished_seen => {
                return Err(rec.error(format!("second \"run_finished\" in {}", scope())));
            }
            "run_finished" => run_finished_seen = true,
            "source_attempt" => {
                if let Some(class) = rec.str("error_class") {
                    if class != "transient" && class != "permanent" {
                        return Err(rec.error(format!(
                            "\"source_attempt\" carries invalid \"error_class\" {class:?} \
                             (expected \"transient\" or \"permanent\")"
                        )));
                    }
                }
                let remote = |f: &FieldSpec| f.name.starts_with("remote_");
                if fields_of(kind).any(|f| remote(f) && rec.get(f.name).is_some()) {
                    if run_backend.as_deref() != Some("tcp") {
                        return Err(rec.error(format!(
                            "\"source_attempt\" carries remote-span fields but {} declares \
                             backend {:?} (remote spans only ride tcp-backend attempts)",
                            scope(),
                            run_backend.as_deref().unwrap_or("<none>")
                        )));
                    }
                    let missing = |field: &str| {
                        rec.error(format!(
                            "remote span missing numeric \"{field}\" \
                             (the five remote_* fields travel together)"
                        ))
                    };
                    let num = |field: &str| {
                        let finite = rec.f64(field).filter(|x| x.is_finite());
                        finite.ok_or_else(|| missing(field))
                    };
                    let total = num("remote_total")?;
                    let recv = num("remote_recv")?;
                    let lookup = num("remote_lookup")?;
                    let encode = num("remote_encode")?;
                    rec.u64("remote_seq").ok_or_else(|| missing("remote_seq"))?;
                    let latency = num("latency")?;
                    if [total, recv, lookup, encode].iter().any(|x| *x < 0.0) {
                        return Err(rec.error("remote span has a negative phase"));
                    }
                    if total > latency {
                        return Err(rec.error(format!(
                            "remote_total {total} exceeds the attempt's client latency {latency}"
                        )));
                    }
                    if recv + lookup + encode > total {
                        return Err(rec.error(format!(
                            "remote phase sum {} exceeds remote_total {total}",
                            recv + lookup + encode
                        )));
                    }
                }
            }
            _ => {}
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_drops_everything_for_free() {
        let j = TraceJournal::default();
        assert!(!j.is_enabled());
        j.set_clock(5.0);
        j.record("plan_emitted", vec![("plan_seq", Value::U64(0))]);
        assert!(j.is_empty());
        assert_eq!(j.to_jsonl(), "");
        assert_eq!(j.clock(), 0.0);
    }

    #[test]
    fn clones_share_the_buffer_and_the_clock() {
        let a = TraceJournal::enabled();
        let b = a.clone();
        a.set_clock(2.0);
        b.record("kernel_elimination", vec![]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.events()[0].clock, 2.0);
        assert_eq!(b.clock(), 2.0);
    }

    #[test]
    fn jsonl_rendering_is_exact() {
        let j = TraceJournal::enabled();
        j.set_clock(0.5);
        j.record(
            "source_attempt",
            vec![
                ("plan_seq", Value::U64(3)),
                ("source", Value::Str("review\"db".into())),
                ("latency", Value::F64(1.25)),
                ("ok", Value::Bool(true)),
                ("timeout", Value::F64(f64::INFINITY)),
            ],
        );
        j.record_at(0.75, "kernel_elimination", vec![]);
        assert_eq!(
            j.to_jsonl(),
            concat!(
                "{\"seq\":0,\"clock\":0.5,\"kind\":\"source_attempt\",",
                "\"plan_seq\":3,\"source\":\"review\\\"db\",\"latency\":1.25,",
                "\"ok\":true,\"timeout\":null}\n",
                "{\"seq\":1,\"clock\":0.75,\"kind\":\"kernel_elimination\"}\n",
            )
        );
        // record_at must not move the shared clock.
        assert_eq!(j.clock(), 0.5);
    }

    fn lifecycle_trace() -> String {
        let j = TraceJournal::enabled();
        for (kind, plan) in [
            ("plan_emitted", 0),
            ("subplan_reused", 0),
            ("plan_emitted", 1),
            ("source_attempt", 1),
            ("plan_failed", 1),
            ("stream_evicted", 1),
            ("plan_completed", 0),
        ] {
            j.record(kind, vec![("plan_seq", Value::U64(plan))]);
        }
        j.to_jsonl()
    }

    #[test]
    fn validate_accepts_balanced_lifecycles() {
        let report = validate_trace(&lifecycle_trace()).expect("trace is sound");
        assert_eq!(report.events, 7);
        assert_eq!(report.spans_opened, 2);
        assert_eq!(report.spans_closed, 2);
        assert_eq!(report.count("plan_failed"), 1);
        assert_eq!(report.count("no_such_kind"), 0);
    }

    #[test]
    fn validate_rejects_structural_violations() {
        let close_only = "{\"seq\":0,\"clock\":0,\"kind\":\"plan_completed\",\"plan_seq\":4}\n";
        assert!(validate_trace(close_only)
            .unwrap_err()
            .contains("no prior emission"));

        let double_open = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":4}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":4}\n",
        );
        assert!(validate_trace(double_open)
            .unwrap_err()
            .contains("emitted twice"));

        let gap = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"source_attempt\"}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"source_attempt\"}\n",
        );
        assert!(validate_trace(gap).unwrap_err().contains("contiguity"));

        assert!(validate_trace("not json\n").is_err());
        assert!(validate_trace("{\"seq\":0,\"clock\":0}\n")
            .unwrap_err()
            .contains("kind"));
    }

    #[test]
    fn validate_enforces_per_run_clock_monotonicity() {
        // Clocks may restart at each run_started marker, stall, or be
        // null — all fine as long as they never decrease within a run.
        let ok = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":1.5,\"kind\":\"source_attempt\"}\n",
            "{\"seq\":2,\"clock\":null,\"kind\":\"source_attempt\"}\n",
            "{\"seq\":3,\"clock\":1.5,\"kind\":\"source_attempt\"}\n",
            "{\"seq\":4,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":5,\"clock\":0.25,\"kind\":\"source_attempt\"}\n",
        );
        assert!(validate_trace(ok).is_ok());

        let backwards = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":2,\"kind\":\"source_attempt\"}\n",
            "{\"seq\":2,\"clock\":1,\"kind\":\"source_attempt\"}\n",
        );
        let err = validate_trace(backwards).unwrap_err();
        assert!(err.contains("seq 2"), "names the violating seq: {err}");
        assert!(err.contains("decreases within run 0"), "{err}");

        // Without an intervening run_started, a clock reset is an error.
        let reset_without_marker = concat!(
            "{\"seq\":0,\"clock\":3,\"kind\":\"source_attempt\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"source_attempt\"}\n",
        );
        assert!(validate_trace(reset_without_marker).is_err());
    }

    #[test]
    fn validate_checks_tuple_stream_events() {
        // Plan 0 attaches while open and completes; its tuples are released
        // after that, across later plans' spans. Plan 1 attaches, fails and
        // is evicted, having delivered nothing.
        let ok = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"stream_attached\",\"plan_seq\":0}\n",
            "{\"seq\":3,\"clock\":1,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
            "{\"seq\":4,\"clock\":1,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":2.5}\n",
            "{\"seq\":5,\"clock\":1,\"kind\":\"plan_emitted\",\"plan_seq\":1}\n",
            "{\"seq\":6,\"clock\":1,\"kind\":\"stream_attached\",\"plan_seq\":1}\n",
            "{\"seq\":7,\"clock\":2,\"kind\":\"plan_failed\",\"plan_seq\":1}\n",
            "{\"seq\":8,\"clock\":2,\"kind\":\"stream_evicted\",\"plan_seq\":1}\n",
            "{\"seq\":9,\"clock\":2,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":2.5}\n",
            "{\"seq\":10,\"clock\":3,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":1}\n",
        );
        let report = validate_trace(ok).expect("tuple lifecycle is sound");
        assert_eq!(report.count("tuple_emitted"), 3);

        // A delivered tuple is final, so it may only leave once its plan
        // has executed: not while the plan is still open...
        let early = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"stream_attached\",\"plan_seq\":0}\n",
            "{\"seq\":3,\"clock\":1,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":2.5}\n",
            "{\"seq\":4,\"clock\":1,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
        );
        let err = validate_trace(early).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("before its \"plan_completed\""), "{err}");
        // ...and never for a plan that failed.
        let failed = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_failed\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":1}\n",
        );
        let err = validate_trace(failed).unwrap_err();
        assert!(err.contains("before its \"plan_completed\""), "{err}");

        let no_plan =
            "{\"seq\":0,\"clock\":0,\"kind\":\"tuple_emitted\",\"plan_seq\":1,\"score\":1}\n";
        assert!(validate_trace(no_plan)
            .unwrap_err()
            .contains("no prior emission"));

        let late_attach = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":1,\"kind\":\"stream_attached\",\"plan_seq\":0}\n",
        );
        assert!(validate_trace(late_attach)
            .unwrap_err()
            .contains("after its terminal event"));

        let increasing = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":1}\n",
            "{\"seq\":3,\"clock\":0,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":2}\n",
        );
        let err = validate_trace(increasing).unwrap_err();
        assert!(err.contains("increases within the preamble"), "{err}");

        // run_started resets the tuple-score window like the clock's.
        let two_runs = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
            "{\"seq\":3,\"clock\":0,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":1}\n",
            "{\"seq\":4,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":5,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":6,\"clock\":0,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
            "{\"seq\":7,\"clock\":0,\"kind\":\"tuple_emitted\",\"plan_seq\":0,\"score\":9}\n",
        );
        assert!(validate_trace(two_runs).is_ok());
    }

    #[test]
    fn validate_checks_source_attempt_error_class() {
        // Backend errors carry a typed classification; only the two
        // recognized labels validate (absent is fine — sim attempts
        // don't classify).
        let ok = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"source_attempt\",\"plan_seq\":0,\"source\":\"s0\",\"outcome\":\"transient\",\"error_class\":\"transient\",\"error\":\"connect refused\"}\n",
            "{\"seq\":2,\"clock\":1,\"kind\":\"source_attempt\",\"plan_seq\":0,\"source\":\"s0\",\"outcome\":\"permanent\",\"error_class\":\"permanent\",\"error\":\"unknown source\"}\n",
            "{\"seq\":3,\"clock\":1,\"kind\":\"source_attempt\",\"plan_seq\":0,\"source\":\"s1\",\"outcome\":\"ok\"}\n",
            "{\"seq\":4,\"clock\":2,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
        );
        let report = validate_trace(ok).expect("classified attempts validate");
        assert_eq!(report.count("source_attempt"), 3);

        let bad_label = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"source_attempt\",\"plan_seq\":0,\"source\":\"s0\",\"outcome\":\"transient\",\"error_class\":\"flaky\"}\n",
        );
        let err = validate_trace(bad_label).unwrap_err();
        assert!(err.contains("error_class"), "{err}");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn validate_checks_memo_events() {
        // A store inside one plan's span vouches for a later cold hit in
        // another plan of the same run; subplan reuse rides inside spans.
        let ok = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":1,\"kind\":\"memo_store\",\"plan_seq\":0,\"source\":\"s0\"}\n",
            "{\"seq\":3,\"clock\":1,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
            "{\"seq\":4,\"clock\":1,\"kind\":\"plan_emitted\",\"plan_seq\":1}\n",
            "{\"seq\":5,\"clock\":1,\"kind\":\"memo_hit\",\"plan_seq\":1,\"source\":\"s0\"}\n",
            "{\"seq\":6,\"clock\":1,\"kind\":\"subplan_reused\",\"plan_seq\":1,\"prefix_len\":2}\n",
            "{\"seq\":7,\"clock\":2,\"kind\":\"plan_completed\",\"plan_seq\":1}\n",
        );
        let report = validate_trace(ok).expect("memo lifecycle is sound");
        assert_eq!(report.count("memo_hit"), 1);
        assert_eq!(report.count("memo_store"), 1);
        assert_eq!(report.count("subplan_reused"), 1);

        // A cold hit with no prior store in this run is a lie.
        let unvouched = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"memo_hit\",\"plan_seq\":0,\"source\":\"s0\"}\n",
        );
        let err = validate_trace(unvouched).unwrap_err();
        assert!(err.contains("without a prior \"memo_store\""), "{err}");

        // ...unless the hit is warm: the entry came from an earlier run.
        let warm = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"memo_hit\",\"plan_seq\":0,",
            "\"source\":\"s0\",\"warm\":true}\n",
        );
        assert!(validate_trace(warm).is_ok());

        // run_started clears the vouching set.
        let stale_store = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"memo_store\",\"plan_seq\":0,\"source\":\"s0\"}\n",
            "{\"seq\":3,\"clock\":0,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
            "{\"seq\":4,\"clock\":0,\"kind\":\"run_started\"}\n",
            "{\"seq\":5,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":6,\"clock\":0,\"kind\":\"memo_hit\",\"plan_seq\":0,\"source\":\"s0\"}\n",
        );
        assert!(validate_trace(stale_store).is_err());

        // Memo events must land inside an open span.
        let orphan =
            "{\"seq\":0,\"clock\":0,\"kind\":\"memo_store\",\"plan_seq\":0,\"source\":\"s\"}\n";
        assert!(validate_trace(orphan)
            .unwrap_err()
            .contains("no prior emission"));

        let after_close = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_completed\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":0,\"kind\":\"subplan_reused\",\"plan_seq\":0,\"prefix_len\":1}\n",
        );
        assert!(validate_trace(after_close)
            .unwrap_err()
            .contains("after its terminal event"));
    }

    /// Renders one JSONL line from reserved keys and raw-JSON fields.
    fn line(seq: usize, kind: &str, fields: &[(&str, String)]) -> String {
        let mut out = format!("{{\"seq\":{seq},\"clock\":0,\"kind\":\"{kind}\"");
        for (name, json) in fields {
            let _ = write!(out, ",\"{name}\":{json}");
        }
        out + "}\n"
    }

    #[test]
    fn every_vocabulary_row_is_enforced_field_by_field() {
        // Values chosen so a fully populated event of any kind is sound in
        // the context below: plan 0 is open (completed, for a tuple),
        // "transient" was stored (and is a legal error_class), all-zero
        // remote spans nest in a tcp run.
        let sound = |f: &FieldSpec| match f.ty {
            FieldType::U64 | FieldType::F64 => "0".to_string(),
            FieldType::Str => "\"transient\"".to_string(),
            FieldType::Bool => "true".to_string(),
        };
        let mistyped = |f: &FieldSpec| match f.ty {
            FieldType::Str | FieldType::Bool => "3".to_string(),
            FieldType::U64 | FieldType::F64 => "\"x\"".to_string(),
        };
        for &(kind, role) in crate::vocab::KINDS {
            let mut context = line(0, "run_started", &[("backend", "\"tcp\"".into())]);
            if role != Role::SpanOpen {
                context += &line(1, "plan_emitted", &[("plan_seq", "0".into())]);
                let stored = [("plan_seq", "0".into()), ("source", "\"transient\"".into())];
                context += &line(2, "memo_store", &stored);
            }
            if kind == "tuple_emitted" {
                // A tuple leaves only once its plan has executed.
                context += &line(3, "plan_completed", &[("plan_seq", "0".into())]);
            }
            let seq = context.lines().count();
            let check = |fields: &[(&str, String)]| {
                validate_trace(&(context.clone() + &line(seq, kind, fields)))
            };
            let with = |fields: &[(&'static str, String)], name: &str, json: Option<&str>| {
                let swap = |(n, v): &(&'static str, String)| match (*n == name, json) {
                    (true, None) => None,
                    (true, Some(json)) => Some((*n, json.to_string())),
                    (false, _) => Some((*n, v.clone())),
                };
                fields.iter().filter_map(swap).collect::<Vec<_>>()
            };
            let all: Vec<_> = fields_of(kind).map(|f| (f.name, sound(f))).collect();
            check(&all).unwrap_or_else(|e| panic!("{kind}, every field: {e}"));
            let required = fields_of(kind).filter(|f| f.required);
            let minimal: Vec<_> = required.map(|f| (f.name, sound(f))).collect();
            check(&minimal).unwrap_or_else(|e| panic!("{kind}, required fields: {e}"));
            for f in fields_of(kind) {
                let names = |result: Result<TraceReport, String>, what: &str| {
                    let err = result.expect_err(what);
                    let named = [kind, f.name].map(|n| err.contains(&format!("\"{n}\"")));
                    assert_eq!(named, [true, true], "{kind}.{} {what}: {err}", f.name);
                };
                names(check(&with(&all, f.name, Some(&mistyped(f)))), "mistyped");
                if f.required {
                    names(check(&with(&minimal, f.name, None)), "dropped");
                    // `null` is how the exporter writes a non-finite
                    // number: as good as missing for a required field.
                    names(check(&with(&minimal, f.name, Some("null"))), "nulled");
                }
            }
        }
    }

    #[test]
    fn a_corrupted_id_is_rejected_not_aliased_to_another_plan() {
        // `as u64` would read -1 and 0.5 as plan 0 and close *its* span.
        for bad in ["-1", "0.5", "9007199254740994", "1e300"] {
            let trace = line(0, "plan_emitted", &[("plan_seq", "0".into())])
                + &line(1, "plan_completed", &[("plan_seq", bad.into())]);
            let err = validate_trace(&trace).unwrap_err();
            assert!(err.starts_with("line 2: "), "{bad}: {err}");
            assert!(err.contains("plan_seq"), "{bad}: {err}");
            assert!(read_jsonl(&trace).is_err(), "{bad}");
        }
        let bad_seq = "{\"seq\":-0.5,\"clock\":0,\"kind\":\"tick\"}\n";
        assert!(validate_trace(bad_seq).unwrap_err().contains("seq"));
        // 2⁵³ itself is exact and passes; fields of unlisted kinds stay
        // untyped numbers.
        let edge = line(
            0,
            "plan_emitted",
            &[("plan_seq", "9007199254740992".into())],
        ) + &line(1, "tick", &[("i", "-1".into())]);
        let records = read_jsonl(&edge).expect("in range");
        assert_eq!(records[0].u64("plan_seq"), Some(1 << 53));
        assert_eq!(records[1].f64("i"), Some(-1.0));
        validate_records(&records[..1]).expect("valid");
        let err = validate_records(&records).unwrap_err();
        assert!(err.contains("\"tick\" is not in the vocabulary"), "{err}");
    }

    #[test]
    fn records_read_alike_from_events_and_lines() {
        let j = TraceJournal::enabled();
        j.set_clock(1.5);
        j.record(
            "memo_hit",
            vec![
                ("plan_seq", Value::U64(3)),
                ("source", Value::Str("v1".into())),
                ("warm", Value::Bool(true)),
            ],
        );
        j.record(
            "source_attempt",
            vec![("latency", Value::F64(f64::INFINITY))],
        );
        let events = j.events();
        let lines = read_jsonl(&j.to_jsonl()).unwrap();
        for (ev, line) in events.iter().map(Record::from).zip(&lines) {
            assert_eq!(
                (ev.seq, ev.clock, &ev.kind),
                (line.seq, line.clock, &line.kind)
            );
            assert_eq!(ev.get("source"), line.get("source"));
        }
        let hit = &lines[0];
        assert_eq!(hit.u64("plan_seq"), Some(3));
        assert_eq!(hit.str("source"), Some("v1"));
        assert_eq!(hit.bool("warm"), Some(true));
        assert_eq!(hit.f64("plan_seq"), None, "typed reads do not coerce");
        assert_eq!(hit.error("boom"), "line 1: boom");
        assert_eq!(Record::from(&events[0]).error("boom"), "seq 0: boom");
        // A non-finite number is `null` on the wire and NaN coming back.
        assert!(lines[1].f64("latency").is_some_and(f64::is_nan));
    }

    #[test]
    fn emitters_are_checked_against_the_vocabulary_in_debug_builds_only() {
        let emit = |kind: &'static str, fields: Vec<(&'static str, Value)>| {
            std::panic::catch_unwind(|| TraceJournal::enabled().record(kind, fields)).is_ok()
        };
        assert!(emit("plan_emitted", vec![("plan_seq", Value::U64(0))]));
        assert!(emit("tick", vec![]), "unlisted kinds pass");
        // Release builds pay nothing and check nothing.
        let unchecked = !cfg!(debug_assertions);
        assert_eq!(emit("plan_emitted", vec![]), unchecked, "required field");
        let mistyped = vec![("plan_seq", Value::U64(0)), ("utility", Value::U64(1))];
        assert_eq!(emit("plan_emitted", mistyped), unchecked, "optional field");
        // A disabled journal records nothing and checks nothing.
        TraceJournal::default().record("plan_emitted", vec![]);
    }

    #[test]
    fn capped_journal_drops_oldest_and_keeps_counting() {
        let j = TraceJournal::enabled_with_capacity(3);
        for i in 0..5u64 {
            j.record("tick", vec![("i", Value::U64(i))]);
        }
        assert_eq!(j.len(), 3, "ring buffer holds the cap");
        assert_eq!(j.dropped(), 2);
        let seqs: Vec<u64> = j.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest dropped, seqs never reused");
        // A truncated export no longer starts at seq 0, so the
        // contiguity check catches it — profile reconstruction must not
        // silently run on partial history.
        let err = validate_trace(&j.to_jsonl()).unwrap_err();
        assert!(err.contains("contiguity"), "{err}");
        // An un-truncated capped journal still validates.
        let fresh = TraceJournal::enabled_with_capacity(8);
        fresh.record("plan_emitted", vec![("plan_seq", Value::U64(0))]);
        fresh.record("plan_completed", vec![("plan_seq", Value::U64(0))]);
        assert!(validate_trace(&fresh.to_jsonl()).is_ok());
        assert_eq!(fresh.dropped(), 0);
    }

    #[test]
    fn validate_checks_remote_span_soundness() {
        let tcp_run = |attempt_line: &str| {
            format!(
                concat!(
                    "{{\"seq\":0,\"clock\":0,\"kind\":\"run_started\",\"backend\":\"tcp\"}}\n",
                    "{{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}}\n",
                    "{}\n",
                    "{{\"seq\":3,\"clock\":2,\"kind\":\"plan_completed\",\"plan_seq\":0}}\n",
                ),
                attempt_line
            )
        };
        let ok = tcp_run(
            "{\"seq\":2,\"clock\":1,\"kind\":\"source_attempt\",\"plan_seq\":0,\
             \"source\":\"s0\",\"attempt\":1,\"backoff\":0,\"latency\":2.0,\"outcome\":\"ok\",\
             \"remote_total\":1.5,\"remote_recv\":0.25,\"remote_lookup\":1.0,\
             \"remote_encode\":0.25,\"remote_seq\":7}",
        );
        assert!(validate_trace(&ok).is_ok());

        // Server total larger than the client-observed latency is a lie.
        let inflated = tcp_run(
            "{\"seq\":2,\"clock\":1,\"kind\":\"source_attempt\",\"plan_seq\":0,\
             \"source\":\"s0\",\"attempt\":1,\"backoff\":0,\"latency\":1.0,\"outcome\":\"ok\",\
             \"remote_total\":1.5,\"remote_recv\":0.25,\"remote_lookup\":1.0,\
             \"remote_encode\":0.25,\"remote_seq\":7}",
        );
        let err = validate_trace(&inflated).unwrap_err();
        assert!(
            err.contains("exceeds the attempt's client latency"),
            "{err}"
        );

        // Phases summing beyond the total violate the decoder's clamp.
        let overfull = tcp_run(
            "{\"seq\":2,\"clock\":1,\"kind\":\"source_attempt\",\"plan_seq\":0,\
             \"source\":\"s0\",\"attempt\":1,\"backoff\":0,\"latency\":2.0,\"outcome\":\"ok\",\
             \"remote_total\":1.0,\"remote_recv\":0.5,\"remote_lookup\":0.5,\
             \"remote_encode\":0.5,\"remote_seq\":7}",
        );
        assert!(validate_trace(&overfull).unwrap_err().contains("phase sum"));

        // A negative phase cannot be a measured duration, even when the
        // sum still fits under the total.
        let negative = tcp_run(
            "{\"seq\":2,\"clock\":1,\"kind\":\"source_attempt\",\"plan_seq\":0,\
             \"source\":\"s0\",\"attempt\":1,\"backoff\":0,\"latency\":2.0,\"outcome\":\"ok\",\
             \"remote_total\":1.0,\"remote_recv\":-0.5,\"remote_lookup\":0.5,\
             \"remote_encode\":0.5,\"remote_seq\":7}",
        );
        let err = validate_trace(&negative).unwrap_err();
        assert!(err.contains("negative phase"), "{err}");
        assert!(err.contains("line 3"), "{err}");

        // The five fields travel together.
        let partial = tcp_run(
            "{\"seq\":2,\"clock\":1,\"kind\":\"source_attempt\",\"plan_seq\":0,\
             \"source\":\"s0\",\"attempt\":1,\"backoff\":0,\"latency\":2.0,\"outcome\":\"ok\",\
             \"remote_total\":1.0}",
        );
        assert!(validate_trace(&partial)
            .unwrap_err()
            .contains("travel together"));

        // Remote spans only ride tcp-backend runs.
        let sim = concat!(
            "{\"seq\":0,\"clock\":0,\"kind\":\"run_started\",\"backend\":\"sim\"}\n",
            "{\"seq\":1,\"clock\":0,\"kind\":\"plan_emitted\",\"plan_seq\":0}\n",
            "{\"seq\":2,\"clock\":1,\"kind\":\"source_attempt\",\"plan_seq\":0,\
             \"source\":\"s0\",\"attempt\":1,\"backoff\":0,\"latency\":2.0,\"outcome\":\"ok\",\
             \"remote_total\":1.5,\"remote_recv\":0.25,\"remote_lookup\":1.0,\
             \"remote_encode\":0.25,\"remote_seq\":7}\n",
        );
        assert!(validate_trace(sim)
            .unwrap_err()
            .contains("only ride tcp-backend attempts"));
    }

    #[test]
    fn poisoned_lock_still_records_and_exports() {
        let j = TraceJournal::enabled();
        j.set_clock(1.0);
        j.record("plan_emitted", vec![("plan_seq", Value::U64(0))]);
        let poisoner = j.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("worker dies mid-record");
        })
        .join();
        assert!(j.inner.is_poisoned(), "the panic must poison the lock");
        j.record("plan_completed", vec![("plan_seq", Value::U64(0))]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.clock(), 1.0);
        let report = validate_trace(&j.to_jsonl()).expect("export survives poison");
        assert_eq!(report.events, 2);
        assert_eq!(report.spans_opened, report.spans_closed);
    }

    #[test]
    fn validate_round_trips_an_enabled_journal() {
        let j = TraceJournal::enabled();
        j.set_clock(1.0);
        j.record(
            "plan_emitted",
            vec![("plan_seq", Value::U64(0)), ("utility", Value::F64(0.75))],
        );
        j.record(
            "plan_unsound",
            vec![
                ("plan_seq", Value::U64(0)),
                ("source", Value::Str("s".into())),
            ],
        );
        let report = validate_trace(&j.to_jsonl()).expect("round trip");
        assert_eq!(report.events, j.len() as u64);
        assert_eq!(report.spans_opened, report.spans_closed);
    }
}
