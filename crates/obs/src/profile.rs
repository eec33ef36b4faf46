//! Post-hoc query profiling: a hierarchical span tree reconstructed from
//! the trace journal alone.
//!
//! The executor journals every run on a **serial virtual clock** (plan
//! latencies summed in emission order), so the JSONL trace — and
//! therefore everything this module derives from it — is byte-identical
//! across worker counts. [`ProfileIndex`] replays a journal (a live
//! [`TraceJournal`] or a JSONL file) into one [`RunProfile`] per
//! `run_started` scope:
//!
//! ```text
//! run
//! ├── prepare   (elimination certificates before the first emission)
//! ├── ordering  (elimination certificates after it)
//! └── plan* — schedule wait · per-source {backoff, attempt}* · join · self
//!                              └ remote: network + server {recv, lookup, encode}
//! ```
//!
//! When a source chain's successful attempt came back with a server span
//! (tcp backends: every `qpo-source-server` reply carries one), the
//! executor journals it as `remote_*` fields and this module stitches a
//! [`RemoteSpan`] child under the attempt: the charged latency
//! decomposes into a server portion (with its receive/parse,
//! provider-lookup, and row-encode phases) and a `network` residual that
//! bit-equals `charge − server_total`. Backends without a server (sim,
//! store) journal no span, and the chain keeps the single-span
//! attribution above.
//!
//! Per-plan attribution is **exact, not differenced**: the runtime
//! journals each attempt's `backoff` and `latency` charges and each
//! terminal event's plan `latency` explicitly, and this module re-sums
//! them in the same left-to-right order the executor used. The run's
//! critical path (the sum of plan latencies in emission order) therefore
//! bit-equals the serial makespan the executor reports in its
//! `run_finished` event — [`RunProfile::check`] and the differential
//! tests pin that down to `f64::to_bits`.
//!
//! A pulled session is a run of the same loop and profiles as one.
//!
//! Renderers: [`RunProfile::render_text`] is the `EXPLAIN ANALYZE`-style
//! aligned view answering "which plan chain bounded the run and which
//! source dominated it"; [`RunProfile::to_json`] and
//! [`ProfileIndex::to_json`] are the machine form the introspection
//! server's `/profile` endpoint serves byte-identically.
//!
//! Each run also keeps the kernel's elimination certificates, so
//! [`RunProfile::explain`] — the `/explain` endpoint — answers from the
//! same reconstruction.

use crate::divergence::SourceExpectation;
use crate::explain::{encode_plan, EncodedCertificate, Explanation};
use crate::journal::{read_jsonl, Record, TraceJournal};
use crate::json::Json;
use crate::vocab::{role_of, Role};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The server-side span stitched under a source chain's successful
/// attempt, journalled by the executor as `remote_*` fields when the
/// backend's reply carried one (tcp backends). All times are in the
/// run's virtual units; `network` is the client-observed residual
/// `charge − total`, reproduced here with the same single f64
/// subtraction the executor performed live, exact to the bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteSpan {
    /// Server time from frame receipt to request parse.
    pub recv_parse: f64,
    /// Server time resolving the provider for the requested source.
    pub lookup: f64,
    /// Server time encoding the result rows.
    pub encode: f64,
    /// Total server-side time for the request (≥ the phase sum).
    pub total: f64,
    /// The attempt latency the executor charged for this access — the
    /// parent the remote span nests inside.
    pub charge: f64,
    /// Network + framing residual: `charge − total`.
    pub network: f64,
    /// The server's monotonically increasing request counter.
    pub server_seq: u64,
}

/// One source's sub-span within a plan: the retry chain with its two
/// charge kinds (backoff wait, attempt latency) re-summed in the order
/// the runtime charged them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceSpan {
    /// Source name.
    pub name: String,
    /// Attempts observed (highest `attempt` field).
    pub attempts: u64,
    /// Attempts that failed transiently.
    pub transient: u64,
    /// Total backoff wait before attempts.
    pub backoff: f64,
    /// Total attempt latency charged.
    pub attempt_time: f64,
    /// Total time on this source, accumulated in charge order
    /// (backoff, attempt, backoff, attempt, …) so it bit-equals the
    /// runtime's own accumulation for the access.
    pub total: f64,
    /// Outcome of the final attempt (`ok`/`transient`/`permanent`).
    pub outcome: String,
    /// The server span from the successful attempt, when its reply
    /// carried one. At most one per chain: only an `ok` attempt ends the
    /// chain, and only `ok` attempts journal a span.
    pub remote: Option<RemoteSpan>,
}

/// Terminal status of a profiled plan span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanStatus {
    /// Executed and merged (`plan_completed`).
    Completed,
    /// Marked failed (`plan_failed`).
    Failed,
    /// Rejected by the soundness test (`plan_unsound`).
    Unsound,
    /// No terminal event in the trace (truncated journal).
    #[default]
    Open,
}

impl SpanStatus {
    /// Stable lowercase label used by both renderers.
    pub fn label(&self) -> &'static str {
        match self {
            SpanStatus::Completed => "completed",
            SpanStatus::Failed => "failed",
            SpanStatus::Unsound => "unsound",
            SpanStatus::Open => "open",
        }
    }
}

/// One plan's span: schedule wait, per-source sub-spans, join and self
/// time, with the exact latency the executor charged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanSpan {
    /// Emission sequence number within the run.
    pub seq: u64,
    /// The plan, encoded as by [`crate::encode_plan`].
    pub plan: String,
    /// Utility at emission time.
    pub utility: f64,
    /// Serial clock of the `plan_emitted` event.
    pub start: f64,
    /// Serial clock of the terminal event (equals `start` while open).
    pub end: f64,
    /// The plan's charged latency (terminal event's `latency` field).
    pub latency: f64,
    /// Schedule wait: time between emission and execution start, i.e.
    /// `(end - start) - latency`, clamped at zero.
    pub wait: f64,
    /// Join time: latency not attributable to the critical source.
    pub join: f64,
    /// Self time: latency with no child span to carry it (plans without
    /// source sub-spans keep their whole latency here).
    pub self_time: f64,
    /// Terminal status.
    pub status: SpanStatus,
    /// Source accesses served from the memo (zero-duration shortcuts).
    pub memo_hits: u64,
    /// Prefix length seeded from the subplan memo, if journalled.
    pub reused_prefix: Option<u64>,
    /// Tuples the plan returned (`plan_completed` only).
    pub tuples: Option<u64>,
    /// Per-source sub-spans, in first-attempt order.
    pub sources: Vec<SourceSpan>,
    /// Index into `sources` of the critical (slowest) source.
    pub critical_source: Option<usize>,
}

impl PlanSpan {
    /// Total span time: schedule wait plus charged latency.
    pub fn total(&self) -> f64 {
        self.wait + self.latency
    }
}

/// The reconstructed profile of one `run_started` scope.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunProfile {
    /// Zero-based run index within the journal.
    pub run: u64,
    /// The orderer's algorithm name.
    pub strategy: Option<String>,
    /// The executor lookahead.
    pub lookahead: Option<u64>,
    /// Kernel elimination certificates journalled before the first plan
    /// emission (orderer build), those ahead of the run's marker included.
    pub prepare_events: u64,
    /// Kernel elimination certificates journalled after the first plan
    /// emission (incremental ordering).
    pub ordering_events: u64,
    /// Plan spans in emission order.
    pub plans: Vec<PlanSpan>,
    /// The serial makespan the run reported in `run_finished`, if any.
    pub makespan: Option<f64>,
    /// Distinct answers reported in `run_finished`, if any.
    pub answers: Option<u64>,
    /// Critical-path length: plan latencies summed in emission order —
    /// the same fold the executor's serial clock performs, so it
    /// bit-equals `makespan` on executor traces.
    pub critical_path: f64,
    /// Indices into `plans` in the order their terminal events were
    /// journalled — the order the loop merged them in.
    pub closed: Vec<usize>,
    /// The catalog expectations the run declared (`source_declared`), in
    /// journal order. Kept for the drift replay; neither renderer shows
    /// them.
    pub declared: Vec<(String, SourceExpectation)>,
    /// The kernel's elimination certificates, in journal order. Read by
    /// [`RunProfile::explain`]; neither renderer shows them.
    pub certificates: Vec<EncodedCertificate>,
}

impl RunProfile {
    /// The plan that bounded the run: largest latency, earliest on ties.
    pub fn critical_plan(&self) -> Option<&PlanSpan> {
        self.plans
            .iter()
            .filter(|p| p.latency > 0.0)
            .max_by(|a, b| match a.latency.total_cmp(&b.latency) {
                std::cmp::Ordering::Equal => b.seq.cmp(&a.seq),
                other => other,
            })
    }

    /// The source that dominated the run: largest summed span time
    /// across all plans, alphabetically first on ties.
    pub fn dominant_source(&self) -> Option<(String, f64)> {
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        for p in &self.plans {
            for s in &p.sources {
                *totals.entry(&s.name).or_insert(0.0) += s.total;
            }
        }
        let mut best: Option<(&str, f64)> = None;
        for (name, total) in &totals {
            if best.is_none_or(|(_, t)| *total > t) {
                best = Some((name, *total));
            }
        }
        best.map(|(n, t)| (n.to_string(), t))
    }

    /// Structural invariants of the span tree, used by the CI
    /// `trace-validate` gate and the property tests:
    ///
    /// 1. children nest within their parent (plan spans are ordered and
    ///    non-negative; every source total is bounded by the plan
    ///    latency);
    /// 2. self times are non-negative and the critical decomposition
    ///    (critical source + join + self) sums exactly to the latency;
    /// 3. the critical path never exceeds the reported makespan.
    ///
    /// Stitched remote spans are the validator's
    /// ([`validate_records`](crate::validate_records)): it rejects a trace
    /// whose remote phases are negative or do not nest, and the builder
    /// computes the network residual as `charge − total` itself.
    pub fn check(&self) -> Result<(), String> {
        let fail = |msg: String| Err(format!("run {}: {msg}", self.run));
        let mut cursor = f64::NEG_INFINITY;
        for p in &self.plans {
            if p.end < p.start {
                return fail(format!(
                    "plan {} span inverted ({}..{})",
                    p.seq, p.start, p.end
                ));
            }
            if p.start < cursor {
                return fail(format!("plan {} emitted before its predecessor's", p.seq));
            }
            cursor = p.start;
            if !(p.wait >= 0.0 && p.join >= 0.0 && p.self_time >= 0.0 && p.latency >= 0.0) {
                return fail(format!("plan {} has a negative time", p.seq));
            }
            let mut critical = 0.0f64;
            for s in &p.sources {
                if s.total < 0.0 || s.backoff < 0.0 || s.attempt_time < 0.0 {
                    return fail(format!("plan {} source {} negative time", p.seq, s.name));
                }
                if p.status != SpanStatus::Open && s.total > p.latency {
                    return fail(format!(
                        "plan {} source {} escapes its parent span ({} > {})",
                        p.seq, s.name, s.total, p.latency
                    ));
                }
                critical = critical.max(s.total);
            }
            if !p.sources.is_empty() && p.status != SpanStatus::Open {
                let sum = critical + p.join + p.self_time;
                if sum != p.latency {
                    return fail(format!(
                        "plan {} attribution leaks: {} + {} + {} != {}",
                        p.seq, critical, p.join, p.self_time, p.latency
                    ));
                }
            }
        }
        if let Some(makespan) = self.makespan {
            if self.critical_path > makespan {
                return fail(format!(
                    "critical path {} exceeds makespan {makespan}",
                    self.critical_path
                ));
            }
        }
        Ok(())
    }

    /// Why `plan` ranked where it did in this run, or why it never went
    /// out. An emission wins over a certificate: iDrips may prune an
    /// abstract candidate set in one round yet emit a refined plan from it
    /// later, and an emitted plan *was* ranked. The first span whose
    /// journalled `plan` matches answers (a span journalled without one
    /// cannot); otherwise the last certificate covering the plan, with the
    /// count of those that do.
    pub fn explain(&self, plan: &[usize]) -> Explanation {
        let encoded = encode_plan(plan);
        let emitted = self
            .plans
            .iter()
            .find(|p| !p.plan.is_empty() && p.plan == encoded);
        if let Some(p) = emitted {
            return Explanation::Emitted {
                rank: p.seq,
                utility: p.utility,
                clock: p.start,
            };
        }
        let mut covering: Vec<_> = self
            .certificates
            .iter()
            .filter_map(EncodedCertificate::decode)
            .filter(|c| c.covers(plan))
            .collect();
        let matches = covering.len() as u64;
        match covering.pop() {
            Some(certificate) => Explanation::Eliminated {
                certificate,
                matches,
            },
            None => Explanation::Unknown,
        }
    }

    /// The machine-readable profile (the `/profile?run=…` endpoint serves
    /// these bytes).
    pub fn to_json(&self) -> String {
        self.json().to_string()
    }

    fn json(&self) -> Json {
        let plans = self.plans.iter().map(|p| {
            let sources = p.sources.iter().enumerate().map(|(j, s)| {
                let mut fields: Vec<(&str, Json)> = vec![
                    ("source", s.name.as_str().into()),
                    ("attempts", s.attempts.into()),
                    ("transient", s.transient.into()),
                    ("backoff", s.backoff.into()),
                    ("attempt_time", s.attempt_time.into()),
                    ("total", s.total.into()),
                    ("outcome", s.outcome.as_str().into()),
                ];
                if let Some(r) = &s.remote {
                    let remote = Json::object([
                        ("total", r.total.into()),
                        ("recv_parse", r.recv_parse.into()),
                        ("lookup", r.lookup.into()),
                        ("encode", r.encode.into()),
                        ("network", r.network.into()),
                        ("server_seq", r.server_seq.into()),
                    ]);
                    fields.push(("remote", remote));
                }
                fields.push(("critical", (p.critical_source == Some(j)).into()));
                Json::object(fields)
            });
            Json::object([
                ("seq", p.seq.into()),
                ("plan", p.plan.as_str().into()),
                ("utility", p.utility.into()),
                ("status", p.status.label().into()),
                ("start", p.start.into()),
                ("end", p.end.into()),
                ("wait", p.wait.into()),
                ("latency", p.latency.into()),
                ("join", p.join.into()),
                ("self", p.self_time.into()),
                ("memo_hits", p.memo_hits.into()),
                ("reused_prefix", p.reused_prefix.into()),
                ("tuples", p.tuples.into()),
                ("sources", sources.collect()),
            ])
        });
        let dominant = self
            .dominant_source()
            .map(|(name, total)| Json::object([("source", name.into()), ("total", total.into())]));
        Json::object([
            ("run", self.run.into()),
            ("strategy", self.strategy.as_deref().into()),
            ("lookahead", self.lookahead.into()),
            ("prepare_events", self.prepare_events.into()),
            ("ordering_events", self.ordering_events.into()),
            ("makespan", self.makespan.into()),
            ("answers", self.answers.into()),
            ("critical_path", self.critical_path.into()),
            (
                "bounding_plan",
                self.critical_plan().map(|p| p.plan.as_str()).into(),
            ),
            ("dominant_source", dominant.into()),
            ("plans", plans.collect()),
        ])
    }

    /// The `EXPLAIN ANALYZE`-style aligned text view: run header, the
    /// plan chain that bounded the run, the source that dominated it,
    /// then one aligned row per plan with its source sub-spans.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "run {}", self.run);
        if let Some(s) = &self.strategy {
            let _ = write!(out, " · strategy={s}");
        }
        if let Some(n) = self.lookahead {
            let _ = write!(out, " · lookahead={n}");
        }
        let _ = write!(out, " · plans={}", self.plans.len());
        if let Some(a) = self.answers {
            let _ = write!(out, " · answers={a}");
        }
        out.push_str(" · critical-path=");
        push_num(&mut out, self.critical_path);
        if let Some(m) = self.makespan {
            out.push_str(" · makespan=");
            push_num(&mut out, m);
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "prepare: {} certificates · ordering: {} certificates",
            self.prepare_events, self.ordering_events
        );
        match self.critical_plan() {
            Some(p) => {
                let _ = write!(out, "bounded by plan {} [{}] (latency ", p.seq, p.plan);
                push_num(&mut out, p.latency);
                out.push(')');
            }
            None => out.push_str("bounded by no plan (zero-latency run)"),
        }
        match self.dominant_source() {
            Some((name, total)) => {
                let _ = write!(out, " · dominated by source {name} (total ");
                push_num(&mut out, total);
                out.push_str(")\n");
            }
            None => out.push_str(" · no source accesses\n"),
        }
        // Aligned plan table: compute column widths over shortest-form
        // numbers so the layout is deterministic for byte-identity tests.
        let rows: Vec<[String; 8]> = self
            .plans
            .iter()
            .map(|p| {
                [
                    p.seq.to_string(),
                    p.plan.clone(),
                    p.status.label().to_string(),
                    num(p.wait),
                    num(p.latency),
                    num(p.join),
                    num(p.self_time),
                    match p.critical_source {
                        Some(i) => p.sources[i].name.clone(),
                        None => "-".to_string(),
                    },
                ]
            })
            .collect();
        let header = [
            "seq",
            "plan",
            "status",
            "wait",
            "latency",
            "join",
            "self",
            "crit-source",
        ];
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        out.push_str("  ");
        for (i, h) in header.iter().enumerate() {
            let _ = write!(out, "{:<width$}  ", h, width = widths[i]);
        }
        out.push('\n');
        for (p, row) in self.plans.iter().zip(rows.iter()) {
            out.push_str("  ");
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
            for (j, s) in p.sources.iter().enumerate() {
                let _ = write!(out, "      └ {}: attempts={} backoff=", s.name, s.attempts);
                push_num(&mut out, s.backoff);
                out.push_str(" attempt=");
                push_num(&mut out, s.attempt_time);
                out.push_str(" total=");
                push_num(&mut out, s.total);
                let _ = write!(out, " outcome={}", s.outcome);
                if let Some(r) = &s.remote {
                    out.push_str(" server=");
                    push_num(&mut out, r.total);
                    out.push_str(" network=");
                    push_num(&mut out, r.network);
                }
                if p.critical_source == Some(j) {
                    out.push_str(" «critical»");
                }
                out.push('\n');
            }
            if p.memo_hits > 0 {
                let _ = writeln!(
                    out,
                    "      └ memo: {} shortcut(s) at plan start",
                    p.memo_hits
                );
            }
        }
        out
    }
}

/// Shortest-roundtrip number rendering for the text renderer (the JSON
/// writer renders finite values identically).
fn num(v: f64) -> String {
    let mut s = String::new();
    push_num(&mut s, v);
    s
}

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("nan");
    }
}

/// All run profiles reconstructed from one journal — the one span
/// reconstruction: the drift replay
/// ([`DivergenceMonitor::from_profile`](crate::DivergenceMonitor::from_profile))
/// folds these spans rather than re-deriving access chains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileIndex {
    runs: Vec<RunProfile>,
    /// What the journal recorded ahead of its first `run_started` marker,
    /// reconstructed like a run but belonging to none.
    preamble: RunProfile,
}

impl ProfileIndex {
    /// Replays a live journal in place, without copying its events.
    pub fn from_journal(journal: &TraceJournal) -> Self {
        journal.with_events(|events| ProfileIndex::from_records(events.iter().map(Record::from)))
    }

    /// Replays a JSONL trace file (the `/traces` format). Lines that do
    /// not decode ([`read_jsonl`]) are errors — run `validate_trace` for
    /// the full structural diagnosis.
    pub fn from_jsonl(jsonl: &str) -> Result<Self, String> {
        Ok(ProfileIndex::from_records(read_jsonl(jsonl)?))
    }

    /// Replays decoded records (in journal order) into run profiles.
    pub fn from_records<'a, R: Borrow<Record<'a>>>(records: impl IntoIterator<Item = R>) -> Self {
        let mut b = Builder::default();
        for rec in records {
            b.observe(rec.borrow());
        }
        b.flush();
        b.index
    }

    /// The reconstructed runs, in journal order. A run's number — here,
    /// in `/profile?run=`, `/explain?run=` and the validator's messages —
    /// is the zero-based index of its `run_started` marker.
    pub fn runs(&self) -> &[RunProfile] {
        &self.runs
    }

    /// One run by its zero-based index.
    pub fn run(&self, run: u64) -> Option<&RunProfile> {
        self.runs.get(run as usize)
    }

    /// The most recent run.
    pub fn latest(&self) -> Option<&RunProfile> {
        self.runs.last()
    }

    /// The scope a live drift monitor's state corresponds to: the latest
    /// run (each run binds a fresh monitor), or, in a journal without a
    /// `run_started` marker, everything it recorded.
    pub(crate) fn latest_scope(&self) -> &RunProfile {
        self.latest().unwrap_or(&self.preamble)
    }

    /// All runs as one JSON document: `{"runs":[…]}`.
    pub fn to_json(&self) -> String {
        let runs = self.runs.iter().map(RunProfile::json).collect();
        Json::object([("runs", runs)]).to_string()
    }
}

/// Incremental profile reconstruction over one journal.
#[derive(Default)]
struct Builder {
    index: ProfileIndex,
    /// The scope under reconstruction: the preamble until the first
    /// `run_started` marker, then the run that marker opened.
    current: RunProfile,
    in_run: bool,
    /// plan_seq → index into the current scope's `plans`, while the span
    /// is open.
    open: BTreeMap<u64, usize>,
    /// Certificates seen before any `run_started` (orderer build work
    /// journalled ahead of the run scope); absorbed by the next run.
    pending_prepare: u64,
}

impl Builder {
    fn observe(&mut self, rec: &Record<'_>) {
        let kind = &*rec.kind;
        let run = &mut self.current;
        if kind == "kernel_elimination" {
            // The scope at hand keeps it, the preamble included (which
            // `explain` never reads).
            run.certificates
                .extend(EncodedCertificate::from_record(rec));
        }
        match role_of(kind).unwrap_or(Role::Free) {
            Role::RunOpen => {
                self.flush();
                self.in_run = true;
                self.current = RunProfile {
                    run: self.index.runs.len() as u64,
                    strategy: rec.str("strategy").map(str::to_string),
                    lookahead: rec.u64("lookahead"),
                    prepare_events: std::mem::take(&mut self.pending_prepare),
                    ..RunProfile::default()
                };
            }
            Role::Ordering if !self.in_run => self.pending_prepare += 1,
            Role::Ordering if run.plans.is_empty() => run.prepare_events += 1,
            Role::Ordering => run.ordering_events += 1,
            Role::SpanOpen => {
                let seq = rec.u64("plan_seq").unwrap_or(run.plans.len() as u64);
                self.open_span(seq, rec);
            }
            Role::SpanClose => {
                let closed = rec.u64("plan_seq").and_then(|seq| self.open.remove(&seq));
                if let Some(i) = closed {
                    let p = &mut run.plans[i];
                    p.end = rec.clock;
                    p.latency = rec.f64("latency").unwrap_or(0.0);
                    p.tuples = rec.u64("tuples");
                    p.status = match kind {
                        "plan_completed" => SpanStatus::Completed,
                        "plan_failed" => SpanStatus::Failed,
                        _ => SpanStatus::Unsound,
                    };
                    close_plan(p);
                    run.closed.push(i);
                }
            }
            _ => match kind {
                "memo_hit" => {
                    if let Some(p) = self.span_mut(rec) {
                        p.memo_hits += 1;
                    }
                }
                "subplan_reused" => {
                    let prefix = rec.u64("prefix_len");
                    if let Some(p) = self.span_mut(rec) {
                        p.reused_prefix = prefix.or(Some(0));
                    }
                }
                "source_attempt" => self.attempt(rec),
                "source_declared" => {
                    if let Some(source) = rec.str("source") {
                        let expected = SourceExpectation {
                            latency: rec.f64("latency").unwrap_or(0.0),
                            transient_rate: rec.f64("transient_rate").unwrap_or(0.0),
                            tuples: rec.f64("tuples").unwrap_or(0.0),
                        };
                        run.declared.push((source.to_string(), expected));
                    }
                }
                // First seal wins. A session abandoned mid-stream seals its
                // trace on drop, which can land *after* a newer run already
                // started and sealed (e.g. `drop(session)` late in an
                // example); that stray event must not overwrite the current
                // run's own makespan and answer count.
                "run_finished" if run.makespan.is_none() && run.answers.is_none() => {
                    run.makespan = rec.f64("makespan");
                    run.answers = rec.u64("answers");
                }
                _ => {}
            },
        }
    }

    /// One attempt of a plan's retry chain against a source: the one place
    /// a chain is folded (max attempt, transient count, backoff-then-charge
    /// sum, last outcome, remote split). An attempt for a plan the scope
    /// has not seen emitted opens the span implicitly, so no journalled
    /// access is lost to the drift replay.
    fn attempt(&mut self, rec: &Record<'_>) {
        let (Some(seq), Some(name)) = (rec.u64("plan_seq"), rec.str("source")) else {
            return;
        };
        let i = match self.open.get(&seq) {
            Some(&i) => i,
            None => self.open_span(seq, rec),
        };
        let sources = &mut self.current.plans[i].sources;
        let j = sources.iter().position(|s| s.name == name);
        let j = j.unwrap_or_else(|| {
            sources.push(SourceSpan {
                name: name.to_string(),
                ..SourceSpan::default()
            });
            sources.len() - 1
        });
        let s = &mut sources[j];
        let backoff = rec.f64("backoff").unwrap_or(0.0);
        let charge = rec.f64("latency").unwrap_or(0.0);
        let outcome = rec.str("outcome").unwrap_or("");
        s.attempts = s.attempts.max(rec.u64("attempt").unwrap_or(0));
        s.transient += u64::from(outcome == "transient");
        s.backoff += backoff;
        s.attempt_time += charge;
        // Charge order matters for bit-equality with the runtime's own
        // per-access accumulation.
        s.total += backoff;
        s.total += charge;
        s.outcome = outcome.to_string();
        // The network residual repeats the executor's live subtraction
        // (charge − server total) on the journalled f64s, so the stitched
        // attribution is bit-exact.
        if let Some(total) = rec.f64("remote_total") {
            s.remote = Some(RemoteSpan {
                recv_parse: rec.f64("remote_recv").unwrap_or(0.0),
                lookup: rec.f64("remote_lookup").unwrap_or(0.0),
                encode: rec.f64("remote_encode").unwrap_or(0.0),
                total,
                charge,
                network: charge - total,
                server_seq: rec.u64("remote_seq").unwrap_or(0),
            });
        }
    }

    /// Opens the span of plan `seq` at `rec`'s clock; returns its index.
    fn open_span(&mut self, seq: u64, rec: &Record<'_>) -> usize {
        let plans = &mut self.current.plans;
        self.open.insert(seq, plans.len());
        plans.push(PlanSpan {
            seq,
            plan: rec.str("plan").unwrap_or_default().to_string(),
            utility: rec.f64("utility").unwrap_or(0.0),
            start: rec.clock,
            end: rec.clock,
            ..PlanSpan::default()
        });
        plans.len() - 1
    }

    fn span_mut(&mut self, rec: &Record<'_>) -> Option<&mut PlanSpan> {
        let i = *self.open.get(&rec.u64("plan_seq")?)?;
        self.current.plans.get_mut(i)
    }

    /// Seals the scope under reconstruction.
    fn flush(&mut self) {
        let mut scope = std::mem::take(&mut self.current);
        // The same left-to-right fold the executor's serial clock
        // performs, hence bit-equal to its reported makespan.
        for p in &scope.plans {
            scope.critical_path += p.latency;
        }
        if self.in_run {
            self.index.runs.push(scope);
        } else {
            self.index.preamble = scope;
        }
        self.open.clear();
    }
}

/// Final attribution for a closed plan span: schedule wait from the
/// clock delta, then the critical decomposition of the charged latency
/// into critical source, join, and self. Plans without source sub-spans
/// keep their whole latency as self time.
fn close_plan(p: &mut PlanSpan) {
    p.wait = ((p.end - p.start) - p.latency).max(0.0);
    if p.sources.is_empty() {
        p.critical_source = None;
        p.join = 0.0;
        p.self_time = p.latency;
        return;
    }
    let mut best = 0usize;
    for (i, s) in p.sources.iter().enumerate() {
        if s.total > p.sources[best].total {
            best = i;
        }
    }
    p.critical_source = Some(best);
    let critical = p.sources[best].total;
    p.join = (p.latency - critical).max(0.0);
    p.self_time = (p.latency - critical - p.join).max(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Value;

    /// A two-plan run journalled the way the executor does: plan 0 has a
    /// retried source and a fast one, plan 1 hits the memo and runs
    /// source-free (charged latency 0).
    fn fixture() -> TraceJournal {
        let j = TraceJournal::enabled();
        j.record("kernel_elimination", vec![("plan_id", Value::U64(3))]);
        j.record("run_started", vec![("lookahead", Value::U64(2))]);
        j.record("kernel_elimination", vec![("plan_id", Value::U64(1))]);
        j.record(
            "plan_emitted",
            vec![
                ("plan_seq", Value::U64(0)),
                ("plan", Value::Str("v2.v3".into())),
                ("utility", Value::F64(0.8)),
            ],
        );
        j.record(
            "plan_emitted",
            vec![
                ("plan_seq", Value::U64(1)),
                ("plan", Value::Str("v2.v4".into())),
                ("utility", Value::F64(0.5)),
            ],
        );
        for (attempt, backoff, charge, outcome) in
            [(1u64, 0.0, 2.0, "transient"), (2, 0.5, 2.5, "ok")]
        {
            j.record(
                "source_attempt",
                vec![
                    ("plan_seq", Value::U64(0)),
                    ("source", Value::Str("v2".into())),
                    ("attempt", Value::U64(attempt)),
                    ("backoff", Value::F64(backoff)),
                    ("latency", Value::F64(charge)),
                    ("outcome", Value::Str(outcome.into())),
                ],
            );
        }
        j.record(
            "source_attempt",
            vec![
                ("plan_seq", Value::U64(0)),
                ("source", Value::Str("v3".into())),
                ("attempt", Value::U64(1)),
                ("backoff", Value::F64(0.0)),
                ("latency", Value::F64(1.0)),
                ("outcome", Value::Str("ok".into())),
            ],
        );
        j.record(
            "plan_completed",
            vec![
                ("plan_seq", Value::U64(0)),
                ("latency", Value::F64(5.0)),
                ("tuples", Value::U64(7)),
            ],
        );
        j.set_clock(5.0);
        j.record(
            "memo_hit",
            vec![
                ("plan_seq", Value::U64(1)),
                ("source", Value::Str("v2".into())),
                ("warm", Value::Bool(true)),
            ],
        );
        j.record(
            "plan_completed",
            vec![
                ("plan_seq", Value::U64(1)),
                ("latency", Value::F64(0.0)),
                ("tuples", Value::U64(7)),
            ],
        );
        j.record(
            "run_finished",
            vec![
                ("plans", Value::U64(2)),
                ("answers", Value::U64(7)),
                ("makespan", Value::F64(5.0)),
            ],
        );
        j
    }

    #[test]
    fn reconstructs_the_span_tree_with_exact_attribution() {
        let index = ProfileIndex::from_journal(&fixture());
        assert_eq!(index.runs().len(), 1);
        let run = index.latest().unwrap();
        run.check().expect("invariants");
        // The certificate before run_started counts as prepare work, the
        // one after (pre-emission) too.
        assert_eq!(run.prepare_events, 2);
        assert_eq!(run.lookahead, Some(2));
        assert_eq!(run.makespan, Some(5.0));
        assert_eq!(run.critical_path.to_bits(), 5.0f64.to_bits());

        let p0 = &run.plans[0];
        assert_eq!(p0.status, SpanStatus::Completed);
        // v2's chain: 0 + 2, then 0.5 + 2.5 — total 5, the critical
        // source; v3 contributes 1. Wait is the clock delta minus the
        // charged latency (both clocks are 0 here, so it clamps to 0).
        assert_eq!(p0.sources.len(), 2);
        let v2 = &p0.sources[0];
        assert_eq!((v2.attempts, v2.transient), (2, 1));
        assert_eq!(v2.total, 5.0);
        assert_eq!(v2.backoff, 0.5);
        assert_eq!(v2.attempt_time, 4.5);
        assert_eq!(v2.outcome, "ok");
        assert_eq!(p0.critical_source, Some(0));
        assert_eq!((p0.wait, p0.join, p0.self_time), (0.0, 0.0, 0.0));

        let p1 = &run.plans[1];
        assert_eq!(p1.memo_hits, 1);
        assert_eq!(p1.latency, 0.0);
        assert_eq!(p1.wait, 5.0, "emitted at 0, merged at clock 5");

        assert_eq!(run.critical_plan().unwrap().seq, 0);
        assert_eq!(run.dominant_source(), Some(("v2".to_string(), 5.0)));
    }

    #[test]
    fn renderers_agree_with_the_reconstruction() {
        let index = ProfileIndex::from_journal(&fixture());
        let run = index.latest().unwrap();
        let text = run.render_text();
        assert!(text.contains("critical-path=5"), "{text}");
        assert!(text.contains("bounded by plan 0 [v2.v3]"), "{text}");
        assert!(text.contains("dominated by source v2"), "{text}");
        assert!(text.contains("«critical»"), "{text}");
        assert!(text.contains("memo: 1 shortcut(s)"), "{text}");
        let json = run.to_json();
        crate::json::parse_json(&json).expect("well-formed");
        assert!(json.contains("\"bounding_plan\":\"v2.v3\""));
        // The JSONL path rebuilds the identical index.
        let jsonl = fixture().to_jsonl();
        assert_eq!(ProfileIndex::from_jsonl(&jsonl).unwrap(), index);
    }

    #[test]
    fn truncated_traces_leave_spans_open() {
        let j = TraceJournal::enabled();
        j.record("run_started", vec![]);
        j.record(
            "plan_emitted",
            vec![
                ("plan_seq", Value::U64(0)),
                ("plan", Value::Str("v1".into())),
                ("utility", Value::F64(0.1)),
            ],
        );
        let index = ProfileIndex::from_journal(&j);
        let run = index.latest().unwrap();
        run.check().expect("open spans are valid");
        assert_eq!(run.plans[0].status, SpanStatus::Open);
        assert_eq!(run.plans[0].latency, 0.0);
        assert_eq!(run.makespan, None);
    }

    #[test]
    fn a_stray_late_seal_does_not_overwrite_the_first() {
        // An abandoned session seals its trace on drop, which can land
        // after a newer run's own run_finished (no run_started between
        // them). The first seal must win.
        let j = fixture();
        j.record(
            "run_finished",
            vec![
                ("plans", Value::U64(1)),
                ("answers", Value::U64(450)),
                ("makespan", Value::F64(0.0)),
            ],
        );
        let index = ProfileIndex::from_journal(&j);
        assert_eq!(index.runs().len(), 1);
        let run = index.latest().unwrap();
        run.check().expect("invariants survive the stray seal");
        assert_eq!(run.makespan, Some(5.0));
        assert_eq!(run.answers, Some(7));
    }

    #[test]
    fn check_rejects_escaping_children_and_leaky_attribution() {
        let mut run = RunProfile::default();
        run.plans.push(PlanSpan {
            seq: 0,
            plan: "p".into(),
            utility: 0.0,
            start: 0.0,
            end: 1.0,
            latency: 1.0,
            wait: 0.0,
            join: 0.0,
            self_time: 0.0,
            status: SpanStatus::Completed,
            memo_hits: 0,
            reused_prefix: None,
            tuples: None,
            sources: vec![SourceSpan {
                name: "s".into(),
                attempts: 1,
                transient: 0,
                backoff: 0.0,
                attempt_time: 2.0,
                total: 2.0,
                outcome: "ok".into(),
                remote: None,
            }],
            critical_source: Some(0),
        });
        let err = run.check().unwrap_err();
        assert!(err.contains("escapes its parent span"), "{err}");
        // Contain the child but break the decomposition sum instead.
        run.plans[0].sources[0].total = 1.0;
        run.plans[0].join = 0.5;
        let err = run.check().unwrap_err();
        assert!(err.contains("attribution leaks"), "{err}");
        // A makespan below the critical path is also rejected.
        run.plans.clear();
        run.critical_path = 2.0;
        run.makespan = Some(1.0);
        let err = run.check().unwrap_err();
        assert!(err.contains("exceeds makespan"), "{err}");
    }

    /// A single-plan run whose one source attempt carries the journalled
    /// remote span fields the executor emits for traced tcp backends.
    fn remote_fixture(total: f64) -> TraceJournal {
        let j = TraceJournal::enabled();
        j.record(
            "run_started",
            vec![
                ("lookahead", Value::U64(1)),
                ("backend", Value::Str("tcp".into())),
            ],
        );
        j.record(
            "plan_emitted",
            vec![
                ("plan_seq", Value::U64(0)),
                ("plan", Value::Str("v1".into())),
                ("utility", Value::F64(0.9)),
            ],
        );
        j.record(
            "source_attempt",
            vec![
                ("plan_seq", Value::U64(0)),
                ("source", Value::Str("v1".into())),
                ("attempt", Value::U64(1)),
                ("backoff", Value::F64(0.0)),
                ("latency", Value::F64(3.0)),
                ("outcome", Value::Str("ok".into())),
                ("remote_total", Value::F64(total)),
                ("remote_recv", Value::F64(0.25)),
                ("remote_lookup", Value::F64(0.5)),
                ("remote_encode", Value::F64(0.75)),
                ("remote_seq", Value::U64(42)),
            ],
        );
        j.set_clock(3.0);
        j.record(
            "plan_completed",
            vec![
                ("plan_seq", Value::U64(0)),
                ("latency", Value::F64(3.0)),
                ("tuples", Value::U64(1)),
            ],
        );
        j.record(
            "run_finished",
            vec![
                ("plans", Value::U64(1)),
                ("answers", Value::U64(1)),
                ("makespan", Value::F64(3.0)),
            ],
        );
        j
    }

    #[test]
    fn remote_spans_stitch_under_the_attempt_exactly() {
        let j = remote_fixture(1.75);
        let index = ProfileIndex::from_journal(&j);
        let run = index.latest().unwrap();
        run.check().expect("remote invariants");
        let r = run.plans[0].sources[0].remote.as_ref().expect("stitched");
        assert_eq!(
            r,
            &RemoteSpan {
                recv_parse: 0.25,
                lookup: 0.5,
                encode: 0.75,
                total: 1.75,
                charge: 3.0,
                network: 3.0 - 1.75,
                server_seq: 42,
            }
        );
        // The decomposition is exact: the network residual is the same
        // f64 subtraction the executor performed live.
        assert_eq!(r.network.to_bits(), (r.charge - r.total).to_bits());
        let json = run.to_json();
        assert!(json.contains("\"remote\":{\"total\":1.75"), "{json}");
        assert!(json.contains("\"server_seq\":42"), "{json}");
        let text = run.render_text();
        assert!(text.contains("server=1.75 network=1.25"), "{text}");
        // The JSONL path rebuilds the identical stitched index.
        let offline = ProfileIndex::from_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(offline, index);
        assert_eq!(offline.latest().unwrap().to_json(), json);
    }

    #[test]
    fn chains_without_remote_fields_stay_single_span() {
        // A backend without a server: no remote_* fields, no stitched child.
        let index = ProfileIndex::from_journal(&fixture());
        let run = index.latest().unwrap();
        for p in run.plans.iter() {
            for s in &p.sources {
                assert_eq!(s.remote, None);
            }
        }
        assert!(!run.to_json().contains("\"remote\""));
        assert!(!run.render_text().contains(" server="));
    }

    #[test]
    fn a_corrupted_plan_id_is_an_error_not_a_merged_span() {
        // Read with `as u64`, plan -1 or 0.5 would charge plan 0's span.
        let jsonl = fixture().to_jsonl();
        let attempt = "\"kind\":\"source_attempt\",\"plan_seq\":0,";
        assert!(jsonl.contains(attempt));
        for bad in ["-1", "0.5"] {
            let corrupted = jsonl.replacen(
                attempt,
                &format!("\"kind\":\"source_attempt\",\"plan_seq\":{bad},"),
                1,
            );
            let err = ProfileIndex::from_jsonl(&corrupted).unwrap_err();
            assert!(err.contains("line ") && err.contains("plan_seq"), "{err}");
        }
    }

    #[test]
    fn accesses_outside_an_emitted_span_are_kept_for_the_drift_replay() {
        // Before any run_started, and for a plan never emitted: the
        // access is no run's, so no profile shows it, but it is not lost.
        let j = TraceJournal::enabled();
        for latency in [2.0, 3.0] {
            j.record(
                "source_attempt",
                vec![
                    ("plan_seq", Value::U64(0)),
                    ("source", Value::Str("v1".into())),
                    ("attempt", Value::U64(1)),
                    ("latency", Value::F64(latency)),
                    ("outcome", Value::Str("ok".into())),
                ],
            );
            j.record("plan_completed", vec![("plan_seq", Value::U64(0))]);
        }
        let index = ProfileIndex::from_journal(&j);
        assert!(index.runs().is_empty());
        assert_eq!(index.to_json(), "{\"runs\":[]}");
        let scope = index.latest_scope();
        // A closed span's number is free again: two chains, not one.
        assert_eq!(scope.closed, vec![0, 1]);
        assert_eq!(scope.plans[1].sources[0].total, 3.0);
    }

    /// One run: plan 0,1 emitted, a plan-less emission, and one
    /// certificate pruning the candidate sets {0,1} × {3}.
    fn explained() -> TraceJournal {
        let j = TraceJournal::enabled();
        j.record("run_started", vec![("lookahead", Value::U64(1))]);
        j.record(
            "plan_emitted",
            vec![
                ("plan_seq", Value::U64(0)),
                ("plan", Value::Str("0,1".into())),
                ("utility", Value::F64(0.75)),
            ],
        );
        j.record("plan_emitted", vec![("plan_seq", Value::U64(1))]);
        j.record(
            "kernel_elimination",
            vec![
                ("plan_id", Value::U64(7)),
                ("champion_id", Value::U64(2)),
                ("victim", Value::Str("0,1|3".into())),
                ("champion", Value::Str("2|0,1".into())),
                ("victim_lo", Value::F64(0.1)),
                ("victim_hi", Value::F64(0.4)),
                ("champion_lo", Value::F64(0.5)),
                ("champion_hi", Value::F64(0.9)),
                ("epoch", Value::U64(3)),
            ],
        );
        j
    }

    #[test]
    fn explain_answers_emitted_eliminated_and_unknown() {
        let index = ProfileIndex::from_journal(&explained());
        assert_eq!(index.runs().len(), 1);
        let run = index.latest().unwrap();
        assert_eq!(run.certificates.len(), 1);
        match run.explain(&[0, 1]) {
            Explanation::Emitted { rank, utility, .. } => assert_eq!((rank, utility), (0, 0.75)),
            other => panic!("expected emitted, got {other:?}"),
        }
        match run.explain(&[1, 3]) {
            Explanation::Eliminated {
                certificate,
                matches,
            } => {
                assert_eq!(matches, 1);
                assert!(certificate.comparison_holds());
            }
            other => panic!("expected eliminated, got {other:?}"),
        }
        assert_eq!(run.explain(&[9, 9]), Explanation::Unknown);
        assert_eq!(run.explain(&[]), Explanation::Unknown, "a plan-less span");
        let json = run.explain(&[1, 3]).to_json(0, &[1, 3]);
        assert!(json.starts_with("{\"run\":0,\"plan\":\"1,3\""), "{json}");
        assert!(json.contains("\"status\":\"eliminated\""), "{json}");
        assert!(json.contains("\"certificate\":{"), "{json}");
        // Certificates stay out of the rendered profile.
        assert!(!run.to_json().contains("victim"));
        let offline = ProfileIndex::from_jsonl(&explained().to_jsonl()).unwrap();
        assert_eq!(offline, index);
    }

    #[test]
    fn certificates_ahead_of_the_first_marker_belong_to_no_run() {
        let j = explained();
        let events = j.events();
        let index = ProfileIndex::from_records(events[1..].iter().map(Record::from));
        assert!(index.runs().is_empty());
        assert_eq!(index.latest_scope().certificates.len(), 1);
    }

    #[test]
    fn malformed_jsonl_is_an_error_not_a_panic() {
        assert!(ProfileIndex::from_jsonl("{\"seq\":0").is_err());
        assert!(ProfileIndex::from_jsonl("{\"seq\":0}").is_err());
        assert!(ProfileIndex::from_jsonl("").unwrap().runs().is_empty());
    }
}
