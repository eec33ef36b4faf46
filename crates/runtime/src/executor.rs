//! The bounded-parallelism plan executor, as one steppable loop.
//!
//! ## Execution model
//!
//! A coordinator pops plans from the [`PlanOrderer`] *serially* — utilities
//! are conditioned on emission order, so pops cannot be parallelized — but
//! **speculatively**: up to `lookahead` plans are in flight before any
//! outcome is known. Each pop optimistically assumes its predecessors
//! execute (the same assumption the serial mediator makes), which is why,
//! with faults disabled, any lookahead reproduces the serial ordering
//! exactly. The plans of one such *wave* perform their source accesses
//! (retries with backoff) and are evaluated; the coordinator merges
//! completions in emission order, so answers and per-plan novelty counts
//! are deterministic. When a plan fails, the coordinator reports it back
//! via [`PlanOrderer::observe`] so later pops are conditioned on what
//! actually ran.
//!
//! **Threads are for waiting.** A plan leaves the coordinating thread only
//! if executing it *waits* — it has a slot the memo did not resolve, and
//! that access calls a backend that does I/O (any but the simulator): a
//! fact about the job, never a measured duration. A memo-resolved slot waits
//! for nothing — its rows ride along with its outcome — so a fully warm
//! wave runs on the coordinator over any backend. What does not wait runs
//! there in emission order — and in a wave that waits the coordinator is
//! lane 0: it keeps the first waiting plan and [`Executor::run`] hands the
//! others to at most `workers − 1` helper threads, spawned on first need.
//! (What that gives up, and the ≈ 80 µs break-even of a hand-off: DESIGN.md.)
//!
//! The loop is explicit: [`Executor::begin`] opens a [`RunState`],
//! [`Executor::step`] advances it by one reported plan (popping and
//! merging a whole wave when none is pending), [`RunState::finish`] seals
//! it. [`Executor::run`] is `begin`, `while let Some(..) = step`, `finish`
//! inside a thread scope the helpers live in; a pull-based session is the
//! same run paused between pulls. A plan's own state rides in its job as
//! its [`PlanEvaluator::Ticket`], and the top of every wave is the one
//! place the backend's data version is read (the attached memo is synced).
//!
//! ## Determinism
//!
//! Faults and latencies are pure functions of `(seed, source, plan
//! sequence, attempt)` ([`crate::source`]), pops happen at fixed points
//! (wave boundaries), and merging is by sequence number — so a run is a
//! deterministic function of its inputs, independent of worker count,
//! thread scheduling, and of where between steps it was paused. Worker
//! count changes wall time, nothing else.
//!
//! ## The budget rule
//!
//! A plan is popped unless `budget.satisfied(answers, popped, spent +
//! cost of the window popped so far)`. `spent` grows at *merge*, by the
//! emission-time cost of every plan that was attempted (executed or
//! failed) and by nothing for a discarded, unsound one — so `max_plans`
//! is exact, `max_cost` is exact at wave boundaries and errs only toward
//! a shorter window inside one (a popped plan is priced before its
//! soundness verdict is in), and an unsound plan never shortens a run.
//! `enough_answers` is only re-checked at wave boundaries (answers of
//! in-flight plans are unknown), so a speculative run may execute up to
//! `lookahead − 1` plans past the serial stopping point — the usual price
//! of speculation. Use `lookahead = 1` for exact answer-budget parity.

use crate::backend::{AccessContext, BackendErrorClass, RemoteSpan, SimBackend, SourceBackend};
use crate::memo::{MemoOutcome, SourceMemo, SCAN_PATTERN};
use crate::policy::{backoff_before, RuntimePolicy};
use crate::source::{AccessOutcome, SourceGrid, SourceService};
use crossbeam::channel;
use qpo_core::{OrderedPlan, PlanOrderer, PlanOutcome};
use qpo_datalog::eval::packed_order;
use qpo_datalog::{Constant, PrefixRows, RowHasher, Tuple};
use qpo_obs::{Counter, DivergenceMonitor, Gauge, Histogram, Obs, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The rows one access returned, shared uncopied.
type Rows = Arc<Vec<Tuple>>;

/// Process-wide run-id source for trace-context propagation: each
/// [`Executor::begin`] call takes the next value, so backend
/// requests from distinct runs (or distinct executors) carry distinct
/// trace run ids over the wire. The id is propagation metadata only — it
/// is never journalled, so traces stay a pure function of
/// `(seed, sources, plan order)`.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Evaluates concrete plans against the integration system's data; the
/// runtime is generic over this so it does not depend on any particular
/// mediator. Implementations must be cheap to call from worker threads.
pub trait PlanEvaluator: Sync {
    /// A plan's own state from pop to merge: created at the pop, filled by
    /// the observer at schedule, carried by the plan's job to where it runs
    /// (`is_sound` and `evaluate` fill it in place), back at merge.
    type Ticket: Default + Send;

    /// Whether the plan passes the soundness test (unsound plans are
    /// reported but never executed, mirroring the serial mediator).
    fn is_sound(&self, plan: &[usize], ticket: &mut Self::Ticket) -> bool;

    /// Evaluates the plan's conjunctive query, returning its answers as
    /// one flat table, in any order, duplicates allowed: the merge hashes
    /// each row into the run's union ([`RunState::insert_answers`]) and
    /// counts it towards the plan's `tuples` once — the entry is stamped
    /// with the plan — so no evaluator sorts, dedups or builds a set of the
    /// plan's own. `fetched[bucket]` holds the rows the backend returned
    /// for that bucket's access — live, or replayed from the
    /// [`SourceMemo`] entry that resolved the slot — and is `None` only
    /// where the backend holds no data (the simulator). An evaluator over
    /// a static database ignores them, which is exactly the simulated
    /// world's contract; qpo-exec's core joins them in place.
    ///
    /// `None` answers "not joined": the plan executed, but whoever drives
    /// the run joins it later and hands its rows to
    /// [`RunState::insert_answers`] then. The merge inserts nothing for
    /// it, reports it [`PlanStatus::Executed`] without counts, and the run
    /// counts it unjoined until that call.
    fn evaluate(
        &self,
        plan: &[usize],
        fetched: &[Option<Arc<Vec<Tuple>>>],
        ticket: &mut Self::Ticket,
    ) -> Option<PrefixRows>;

    /// The binding pattern ([`crate::pattern`]) the access for `bucket`
    /// of `plan` goes out under — the constants that subgoal of the plan
    /// fixes. It is the access's identity everywhere: the backend request,
    /// the [`SourceMemo`] key, and the rows [`PlanEvaluator::evaluate`]
    /// is handed for that bucket are all "this source under this pattern". The default scans, which
    /// keeps every evaluator over a static database — and its memo keys
    /// and traces — exactly as they were.
    fn access_pattern(&self, plan: &[usize], bucket: usize) -> &str {
        let _ = (plan, bucket);
        SCAN_PATTERN
    }
}

/// A hook into the coordinator's deterministic wave loop, called only
/// from the coordinator thread (never from helpers): once when a plan is
/// popped and scheduled (speculatively — no outcome known yet), with its
/// ticket `T` ([`PlanEvaluator::Ticket`]) to fill, and once when its
/// completion merges (outcome and answers final), with the ticket back.
/// Both calls carry the serial virtual clock, so anything the observer
/// derives — attached tuple streams, journal events, progress gauges —
/// stays a pure function of `(seed, sources, plan order)` and is
/// byte-identical across worker counts.
pub trait WaveObserver<T> {
    /// A plan was popped from the orderer and is about to execute, at the
    /// serial virtual time of its `plan_emitted` event.
    fn plan_scheduled(&mut self, _: u64, _: &OrderedPlan, _: &mut T, _vclock: f64) {}

    /// A plan's completion merged into the run. `vclock` is the serial
    /// virtual time *after* the plan's latency (its terminal event's
    /// timestamp).
    fn plan_merged(&mut self, _report: &PlanExecution, _ticket: T, _vclock: f64) {}
}

/// The do-nothing observer: `&mut ()` runs a plain, unhooked loop.
impl<T> WaveObserver<T> for () {}

/// When a run stops popping further plans (§1: "query execution can then
/// be aborted as soon as the user has found a satisfactory answer, or when
/// allotted resource limits have been reached"): at the first satisfied
/// condition; `None` fields never trigger. [`Executor::step`] checks it
/// before every pop; see the module docs for the rule and its
/// speculation caveats.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunBudget {
    /// Stop once at least this many distinct answers have been merged.
    pub enough_answers: Option<usize>,
    /// Stop after popping this many plans (sound or not).
    pub max_plans: Option<usize>,
    /// Stop once cumulative negated utility (cost, for cost-like
    /// measures) of attempted plans — executed or failed; discarded
    /// unsound candidates spend nothing — exceeds this.
    pub max_cost: Option<f64>,
}

impl RunBudget {
    /// Never stops early.
    pub fn unbounded() -> Self {
        RunBudget::default()
    }

    /// Stop after popping `n` plans.
    pub fn plans(n: usize) -> Self {
        RunBudget {
            max_plans: Some(n),
            ..RunBudget::default()
        }
    }

    /// Stop after `n` distinct answers.
    pub fn answers(n: usize) -> Self {
        RunBudget {
            enough_answers: Some(n),
            ..RunBudget::default()
        }
    }

    /// Stop after a cost budget is exhausted.
    pub fn budget(cost: f64) -> Self {
        RunBudget {
            max_cost: Some(cost),
            ..RunBudget::default()
        }
    }

    /// Whether the run should stop given its answers, pops and spend.
    pub fn satisfied(&self, answers: usize, plans: usize, spent: f64) -> bool {
        self.enough_answers.is_some_and(|n| answers >= n)
            || self.max_plans.is_some_and(|n| plans >= n)
            || self.max_cost.is_some_and(|c| spent > c)
    }
}

/// One source access within a plan execution: total attempts, charged
/// virtual latency (backoffs included), fee, and whether it succeeded.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceAccess {
    /// Bucket of the accessed source.
    pub bucket: usize,
    /// Index within the bucket.
    pub index: usize,
    /// Source name.
    pub name: String,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Attempts that failed transiently.
    pub transient_failures: u32,
    /// Virtual time spent on this source: attempt latencies plus backoffs.
    pub latency: f64,
    /// Fee charged (0 unless the access succeeded).
    pub fee: f64,
    /// Whether the access ultimately succeeded.
    pub ok: bool,
    /// Whether the source was permanently down.
    pub permanently_down: bool,
    /// Server-side total of the successful attempt in virtual units, when
    /// the backend returned a remote span (a TCP server). `None` for
    /// simulated, store-backed, and failed accesses.
    pub remote_server: Option<f64>,
    /// Network residual of the successful attempt: client-observed attempt
    /// latency minus the server-reported total. Present iff
    /// `remote_server` is, and never negative.
    pub remote_network: Option<f64>,
}

/// Why a plan failed to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// A source was permanently down.
    PermanentlyDown {
        /// The offending source.
        source: String,
    },
    /// A source kept failing transiently until the retry budget ran out.
    RetriesExhausted {
        /// The offending source.
        source: String,
    },
}

/// What happened to one popped plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStatus {
    /// Executed successfully. For a plan the evaluator did not join
    /// ([`PlanEvaluator::evaluate`] answered `None`) the counts are not
    /// known at merge: `tuples` and `new_tuples` are 0 and `cumulative` is
    /// the answers joined so far.
    Executed {
        /// Answers this plan returned (new or not).
        tuples: usize,
        /// Answers no earlier (by emission order) plan had produced.
        new_tuples: usize,
        /// Distinct answers after merging this plan.
        cumulative: usize,
    },
    /// Discarded by the soundness test; never executed.
    Unsound,
    /// Marked failed after retries/permanent failure; never produced
    /// answers. The run continues — this is the graceful-degradation path.
    Failed(FailureReason),
}

/// Full record of one popped plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExecution {
    /// Emission sequence number (0-based pop order).
    pub seq: u64,
    /// The plan as emitted, with its utility at emission time.
    pub ordered: OrderedPlan,
    /// Outcome.
    pub status: PlanStatus,
    /// Per-source access records (empty for unsound plans).
    pub accesses: Vec<SourceAccess>,
    /// Virtual latency of the plan: max over its sources (accessed in
    /// parallel).
    pub latency: f64,
    /// Total fees charged for the plan's successful accesses.
    pub fees: f64,
}

impl PlanExecution {
    /// True iff the plan executed and returned answers.
    pub fn executed(&self) -> bool {
        matches!(self.status, PlanStatus::Executed { .. })
    }

    /// True iff the plan was marked failed.
    pub fn failed(&self) -> bool {
        matches!(self.status, PlanStatus::Failed(_))
    }
}

/// Aggregate counters over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Source access attempts across all plans.
    pub attempts: u64,
    /// Attempts that failed transiently.
    pub transient_failures: u64,
    /// Plans marked failed.
    pub failed_plans: usize,
    /// Simulated makespan: per wave, the plans' latencies scheduled onto
    /// `workers` lanes, summed over waves.
    pub virtual_time: f64,
    /// Total fees charged.
    pub fees: f64,
    /// Source accesses served from the memo instead of live (0 unless a
    /// [`SourceMemo`] is attached).
    pub memo_hits: u64,
}

/// The result of a concurrent run.
#[derive(Debug, Clone)]
pub struct RuntimeRun {
    /// Per-plan records, in emission order.
    pub reports: Vec<PlanExecution>,
    /// Union of all executed plans' answers.
    pub answers: BTreeSet<Tuple>,
    /// Aggregate counters.
    pub stats: RunStats,
    /// The run's source drift, folded by the loop as plans merged.
    pub divergence: DivergenceMonitor,
}

impl RuntimeRun {
    /// Plans that executed successfully.
    pub fn executed(&self) -> usize {
        self.reports.iter().filter(|r| r.executed()).count()
    }

    /// Plans marked failed.
    pub fn failed(&self) -> usize {
        self.reports.iter().filter(|r| r.failed()).count()
    }
}

struct Job<E: PlanEvaluator> {
    seq: u64,
    /// Trace run id propagated to the backend on every access.
    run: u64,
    ordered: OrderedPlan,
    /// Per-bucket accesses the coordinator's memo lookup resolved, with
    /// the rows stored beside them (aligned with the plan; empty without a
    /// memo). Workers only perform the live accesses for the `None` slots.
    resolved: Vec<Option<(SourceAccess, Option<Rows>)>>,
    ticket: E::Ticket,
}

/// One resolved source-access attempt, captured by the job for the
/// trace journal. `offset` is virtual time *relative to the plan's start*
/// (each source is accessed in parallel, so offsets restart per source);
/// the coordinator anchors it to the journal's serial clock at merge.
/// `backoff` and `latency` are the attempt's two charges (wait before,
/// access time after) — journalled explicitly so profile reconstruction
/// can rebuild the per-source chain bit-exactly instead of differencing
/// floating-point offsets.
struct AttemptEvent {
    source: String,
    attempt: u32,
    offset: f64,
    backoff: f64,
    latency: f64,
    outcome: &'static str,
    /// Backend infrastructure failure behind this attempt, when there was
    /// one: `(class label, message)`. Journalled as `error_class`/`error`
    /// so the typed classification survives into the trace.
    error: Option<(&'static str, String)>,
    /// Server-side span the reply carried, when the backend returned one
    /// (only ever on `ok` attempts). Journalled as typed `remote_*`
    /// fields, in virtual units.
    remote: Option<RemoteSpan>,
}

struct Completion<E: PlanEvaluator> {
    seq: u64,
    ordered: OrderedPlan,
    ticket: E::Ticket,
    sound: bool,
    /// The plan's answers; `None` unless it executed and was joined.
    tuples: Option<PrefixRows>,
    accesses: Vec<SourceAccess>,
    /// The rows each access returned, aligned with `accesses`.
    fetched: Vec<Option<Rows>>,
    failure: Option<FailureReason>,
    /// Per-attempt records, populated only when the journal is enabled.
    trace: Vec<AttemptEvent>,
    /// Backend infrastructure errors across all attempts, by class —
    /// counted here so the metric lands on the coordinator like every
    /// other run metric.
    backend_errors: [u64; 2],
}

/// Registry handles the executor updates as it merges completions. The
/// counters accumulate across runs sharing one registry; the gauges
/// reflect the most recent run.
struct RunMetrics {
    attempts: Counter,
    transient_failures: Counter,
    plans_executed: Counter,
    plans_failed: Counter,
    plans_unsound: Counter,
    retries_per_access: Histogram,
    emission_delay: Histogram,
    virtual_time: Gauge,
    fees: Gauge,
    memo_hits: Counter,
    memo_misses: Counter,
    memo_bytes: Gauge,
    /// `qpo_runtime_access_latency{source,backend}` by `(bucket, index)`:
    /// one registry walk per source the run touches, at its first access.
    access_latency: BTreeMap<(usize, usize), Histogram>,
    /// Backend infrastructure errors by class, labeled with the backend
    /// kind: `[transient, permanent]`. `None` without a backend.
    backend_errors: Option<[Counter; 2]>,
}

impl RunMetrics {
    fn registered(obs: &Obs, backend: Option<&'static str>) -> Self {
        let c = |name| obs.registry.counter(name, &[]);
        let status = |s| {
            obs.registry
                .counter("qpo_runtime_plans_total", &[("status", s)])
        };
        let memo = |name| obs.registry.counter(name, &[("layer", "source")]);
        RunMetrics {
            attempts: c("qpo_runtime_attempts_total"),
            transient_failures: c("qpo_runtime_transient_failures_total"),
            plans_executed: status("executed"),
            plans_failed: status("failed"),
            plans_unsound: status("unsound"),
            retries_per_access: obs
                .registry
                .histogram("qpo_runtime_retries_per_access", &[]),
            emission_delay: obs.registry.histogram("qpo_runtime_emission_delay", &[]),
            virtual_time: obs.registry.gauge("qpo_runtime_virtual_time", &[]),
            fees: obs.registry.gauge("qpo_runtime_fees", &[]),
            memo_hits: memo("qpo_memo_hits_total"),
            memo_misses: memo("qpo_memo_misses_total"),
            memo_bytes: obs.registry.gauge("qpo_memo_bytes", &[("layer", "source")]),
            access_latency: BTreeMap::new(),
            backend_errors: backend.map(|kind| {
                [BackendErrorClass::Transient, BackendErrorClass::Permanent].map(|class| {
                    let labels = [("backend", kind), ("class", class.label())];
                    obs.registry.counter("qpo_backend_errors_total", &labels)
                })
            }),
        }
    }
}

/// The helper threads of one [`Executor::run`], beside the coordinating
/// thread: jobs out, completions back. None is spawned before a wave
/// hands a job off.
struct Pool<'p, E: PlanEvaluator> {
    /// Spawns one more helper inside the run's scope.
    spawn: &'p dyn Fn(),
    helpers: usize,
    jobs: channel::Sender<Job<E>>,
    /// The pool's own end of the job queue, to take a job back.
    unclaimed: &'p channel::Receiver<Job<E>>,
    done: channel::Receiver<Completion<E>>,
}

/// A run between two steps: everything the loop carries from one pop to
/// the next. [`Executor::begin`] opens it, [`Executor::step`] advances it,
/// [`RunState::finish`] seals it; in between it can be held for as long
/// as the caller likes — a pull-based session is exactly that.
pub struct RunState {
    /// Union of the merged plans' answers, each under the `seq` of the
    /// last plan that derived it. Its iteration order is never observed.
    union: AnswerTable,
    /// Executed plans whose rows are not in the union yet: their
    /// evaluator answered "not joined".
    unjoined: BTreeSet<u64>,
    /// Aggregate counters over the merged plans.
    pub stats: RunStats,
    /// The run's drift monitor: [`Executor::begin`] declares each grid
    /// source's catalog expectations, and each merge folds in the plan's
    /// fresh access chains once the clock has moved past it. A local
    /// executor declares and observes nothing.
    divergence: DivergenceMonitor,
    /// Emission-time cost of the merged plans that were attempted.
    spent: f64,
    /// Plans popped so far; the next plan's sequence number.
    popped: u64,
    /// The serial virtual clock the journal (and the emission-delay
    /// histogram) runs on; see [`Executor::run`].
    vclock: f64,
    /// Merged reports [`Executor::step`] has not returned yet.
    ready: VecDeque<PlanExecution>,
    /// Trace run id propagated to the backend; see `RUN_COUNTER`.
    run: u64,
    /// The bundle the run reports into: the executor's shared one, else a
    /// private one.
    obs: Obs,
    metrics: RunMetrics,
    finished: bool,
}

/// The run's answer union as one flat table: its distinct rows of the
/// first row's width, row-major in first-insert order, under an
/// open-addressing index of row numbers that regrows from stored hashes.
#[derive(Default)]
struct AnswerTable {
    width: usize,
    values: Vec<Constant>,
    /// Per row: its hash, and the `seq` of the last plan that derived it.
    marks: Vec<(u64, u64)>,
    /// Power-of-two slots at most half full, each 0 or a row number + 1.
    index: Vec<usize>,
    /// Rows of another width: only a custom [`PlanEvaluator`] returns them.
    spill: HashMap<Tuple, u64, BuildHasherDefault<RowHasher>>,
}

impl AnswerTable {
    fn len(&self) -> usize {
        self.marks.len() + self.spill.len()
    }

    fn row(&self, r: usize) -> &[Constant] {
        &self.values[r * self.width..(r + 1) * self.width]
    }

    /// Stamps `row` with `seq`, inserting it if new; returns its old stamp.
    fn stamp(&mut self, row: &[Constant], seq: u64) -> Option<u64> {
        if row.len() != self.width && !self.marks.is_empty() {
            return self.spill.insert(row.to_vec(), seq);
        }
        if 2 * (self.marks.len() + 1) > self.index.len() {
            self.regrow();
        }
        let hash = BuildHasherDefault::<RowHasher>::default().hash_one(row);
        let mask = self.index.len() - 1;
        let mut at = hash as usize & mask;
        while let Some(r) = self.index[at].checked_sub(1) {
            if self.marks[r].0 == hash && self.row(r) == row {
                return Some(std::mem::replace(&mut self.marks[r].1, seq));
            }
            at = (at + 1) & mask;
        }
        self.index[at] = self.marks.len() + 1;
        self.width = row.len(); // the first row's, or unchanged
        self.values.extend_from_slice(row);
        self.marks.push((hash, seq));
        None
    }

    /// Doubles the index and re-files every row by its stored hash.
    fn regrow(&mut self) {
        let mask = (2 * self.index.len()).max(16) - 1;
        self.index = vec![0; mask + 1];
        for (r, &(hash, _)) in self.marks.iter().enumerate() {
            let mut at = hash as usize & mask;
            while self.index[at] != 0 {
                at = (at + 1) & mask;
            }
            self.index[at] = r + 1;
        }
    }
}

impl RunState {
    /// The distinct answers in the union so far — those of every plan
    /// joined — sorted: a copy, built per call, each tuple allocated once,
    /// in order — by [`packed_order`] when the rows pack (`collect`'s sort
    /// then finds one run), else by sorting the allocated rows.
    pub fn answers(&self) -> BTreeSet<Tuple> {
        let union = &self.union;
        let rows = (0..union.marks.len()).map(|r| union.row(r));
        let packed = union.spill.is_empty().then(|| packed_order(rows.clone()));
        if let Some(order) = packed.flatten() {
            return order.into_iter().map(|r| union.row(r).to_vec()).collect();
        }
        let mut answers: Vec<Tuple> = rows.map(<[Constant]>::to_vec).collect();
        answers.extend(union.spill.keys().cloned());
        answers.sort_unstable();
        answers.into_iter().collect()
    }

    /// How many distinct answers are in the union so far.
    pub fn answer_count(&self) -> usize {
        self.union.len()
    }

    /// Hashes plan `seq`'s rows into the union — the one place an answer
    /// enters it — and returns the plan's `(tuples, new_tuples)`. Probed
    /// with the borrowed row, so only a new answer is copied; each entry is
    /// stamped with the last plan that derived it, so a row the plan
    /// derives twice counts once. The merge calls it for every plan it
    /// joined; for a plan whose evaluator answered "not joined", whoever
    /// drives the run calls it once with the rows it joined later — in
    /// emission order — and the run counts that plan joined from then on.
    pub fn insert_answers(&mut self, seq: u64, rows: &PrefixRows) -> (usize, usize) {
        self.unjoined.remove(&seq);
        let (mut total, mut new_tuples) = (0, 0);
        for row in rows.iter() {
            // `seen` is the stamp the row had — none, an earlier plan's,
            // or (a duplicate within this plan) `seq` itself.
            let seen = self.union.stamp(row, seq);
            total += usize::from(seen != Some(seq));
            new_tuples += usize::from(seen.is_none());
        }
        (total, new_tuples)
    }

    /// Cost spent so far: negated emission-time utility, summed in
    /// emission order over the merged plans that were attempted (executed
    /// or failed). Unsound plans are discarded unexecuted and spend
    /// nothing.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Plans popped from the orderer so far (sound or not).
    pub fn popped(&self) -> usize {
        self.popped as usize
    }

    /// The serial virtual clock: merged plan latencies summed in emission
    /// order.
    pub fn clock(&self) -> f64 {
        self.vclock
    }

    /// Seals the run: mirrors the makespan and fee gauges and journals
    /// `run_finished` — with the answer count only if every executed plan
    /// was joined. Idempotent.
    pub fn finish(&mut self) {
        if std::mem::replace(&mut self.finished, true) {
            return;
        }
        self.metrics.virtual_time.set(self.stats.virtual_time);
        self.metrics.fees.set(self.stats.fees);
        if self.obs.journal.is_enabled() {
            // End-of-run marker carrying the *serial-clock* makespan
            // (plan latencies summed in emission order) — the quantity
            // profile reconstruction's critical path must bit-equal.
            // `stats.virtual_time` is the lane-scheduled makespan and
            // legitimately varies with the worker count; the clock does
            // not. With one worker the two coincide.
            let mut fields = vec![("plans", Value::U64(self.popped))];
            if self.unjoined.is_empty() {
                fields.push(("answers", Value::U64(self.union.len() as u64)));
            }
            fields.push(("makespan", Value::F64(self.vclock)));
            self.obs
                .journal
                .record_at(self.vclock, "run_finished", fields);
        }
    }
}

/// The bounded-parallelism speculative executor. Borrows the source grid
/// and evaluator; one executor can run many orderers.
pub struct Executor<'a, E: PlanEvaluator> {
    eval: &'a E,
    policy: RuntimePolicy,
    obs: Option<&'a Obs>,
    memo: Option<SourceMemo>,
    /// The remote world plans execute against; `None` for
    /// [`Executor::local`].
    sources: Option<(&'a SourceGrid, Arc<dyn SourceBackend>)>,
}

impl<'a, E: PlanEvaluator> Executor<'a, E> {
    /// Creates an executor whose runs report into a private, unread
    /// observability bundle unless [`Executor::with_obs`] shares one.
    /// Accesses run against [`SimBackend`] unless
    /// [`Executor::with_backend`] swaps in another world.
    pub fn new(grid: &'a SourceGrid, eval: &'a E, policy: RuntimePolicy) -> Self {
        Executor {
            sources: Some((grid, Arc::new(SimBackend))),
            ..Executor::local(eval, policy)
        }
    }

    /// An executor with no remote world: the evaluator already holds every
    /// row its plans read, so no source is accessed — no attempts, no
    /// fees, every plan's latency 0 and the virtual clock never moves.
    /// Ordering, soundness, merging, budgets and feedback are the same
    /// loop.
    pub fn local(eval: &'a E, policy: RuntimePolicy) -> Self {
        Executor {
            eval,
            policy,
            obs: None,
            memo: None,
            sources: None,
        }
    }

    /// Routes every source access through `backend` instead of the
    /// default deterministic simulator. Real backends report measured
    /// wall latency mapped onto the virtual-time axis, so traces keep
    /// their structure but stop being replayable bit-for-bit. (A
    /// [`Executor::local`] one has no access to route.)
    pub fn with_backend(mut self, backend: Arc<dyn SourceBackend>) -> Self {
        if let Some((_, current)) = &mut self.sources {
            *current = backend;
        }
        self
    }

    /// Shares an observability bundle: run metrics land on its registry
    /// and, when its journal is enabled, every run appends plan-lifecycle
    /// events timestamped by the serial virtual clock.
    pub fn with_obs(mut self, obs: &'a Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a session-scoped [`SourceMemo`]: repeated source accesses
    /// are served from the memo (see the module docs of [`crate::memo`])
    /// instead of re-paying latency, retries, and fees. All memo traffic
    /// stays on the coordinator thread, so runs remain bit-identical
    /// across worker counts.
    pub fn with_source_memo(mut self, memo: &SourceMemo) -> Self {
        self.memo = Some(memo.clone());
        self
    }

    /// Runs the orderer to completion of `budget` (or plan-space
    /// exhaustion), up to `policy.workers` plans executing at once — on
    /// this thread and, while accesses wait, on helpers (module docs).
    ///
    /// ## The two clocks
    ///
    /// `stats.virtual_time` models the *makespan* with this worker count
    /// and legitimately changes with it. The trace journal instead runs on
    /// a **serial virtual clock** — plan latencies summed in emission
    /// order — which is a pure function of `(seed, sources, plan order)`:
    /// that is what makes the JSONL trace byte-identical across worker
    /// counts (with the lookahead held fixed; lookahead changes *which*
    /// plans are emitted, which is run semantics, not scheduling).
    ///
    /// `observer` is hooked into the coordinator loop (see the
    /// [`WaveObserver`] docs for the callback contract); `&mut ()` hooks
    /// nothing.
    pub fn run(
        &self,
        orderer: &mut dyn PlanOrderer,
        budget: RunBudget,
        observer: &mut dyn WaveObserver<E::Ticket>,
    ) -> RuntimeRun {
        let mut state = self.begin(orderer);
        let mut reports: Vec<PlanExecution> = Vec::new();
        crossbeam::thread::scope(|s| {
            let (jobs, unclaimed) = channel::unbounded::<Job<E>>();
            let (completions, done) = channel::unbounded::<Completion<E>>();
            let spawn = || {
                let (rx, tx) = (unclaimed.clone(), completions.clone());
                s.spawn(move |_| {
                    while let Ok(job) = rx.recv() {
                        if tx.send(self.execute_job(job)).is_err() {
                            break;
                        }
                    }
                });
            };
            // Dropped with the closure — on unwind too — which hangs up
            // the job channel and lets helpers parked on it exit.
            let mut pool = Pool {
                spawn: &spawn,
                helpers: 0,
                jobs,
                unclaimed: &unclaimed,
                done,
            };
            while let Some(report) =
                self.advance(&mut state, orderer, budget, observer, Some(&mut pool))
            {
                reports.push(report);
            }
        })
        // A helper's panic is the run's: it resumes here, on the caller.
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        state.finish();
        // The public type is a tree: the run's one sort, at its boundary.
        RuntimeRun {
            reports,
            answers: state.answers(),
            stats: state.stats,
            divergence: state.divergence,
        }
    }

    /// Opens a run over `orderer`: takes a fresh trace run id, starts the
    /// attached memo's run, declares the catalog's expectations to the
    /// run's drift monitor and — when the journal is enabled — restarts
    /// the virtual clock with a `run_started` marker and journals the same
    /// expectations as `source_declared`.
    pub fn begin(&self, orderer: &dyn PlanOrderer) -> RunState {
        let obs = self.obs.cloned().unwrap_or_default();
        let journal = &obs.journal;
        let backend_kind = self.sources.as_ref().map(|(_, backend)| backend.kind());
        if let (Some(memo), Some(_)) = (&self.memo, &self.sources) {
            memo.begin_run();
        }
        if journal.is_enabled() {
            // Scope marker: `plan_seq` restarts per run, so the validator
            // keys spans by (runs seen, plan_seq). Workers stay out of the
            // fields — they must not change the trace bytes.
            journal.set_clock(0.0);
            let lookahead = self.policy.lookahead.max(1) as u64;
            let mut fields = vec![("lookahead", Value::U64(lookahead))];
            fields.extend(backend_kind.map(|kind| ("backend", Value::Str(kind.into()))));
            fields.push(("strategy", Value::Str(orderer.algorithm_name().into())));
            journal.record("run_started", fields);
        }
        // Catalog-declared expectations for every source the run can
        // touch, so drift detection can be recomputed from the trace alone
        // (qpo-obs::divergence): no catalog needed offline, and the
        // journalled values are the f64s the live monitor is declared.
        let mut divergence = DivergenceMonitor::new(&obs);
        for svc in self.sources.iter().flat_map(|(grid, _)| grid.iter()) {
            let expected = qpo_obs::SourceExpectation {
                latency: svc.stats.expected_latency(),
                transient_rate: svc.stats.failure_prob,
                tuples: svc.stats.tuples,
            };
            divergence.declare(&svc.name, expected);
            if journal.is_enabled() {
                journal.record(
                    "source_declared",
                    vec![
                        ("source", Value::Str(svc.name.to_string().into())),
                        ("latency", Value::F64(expected.latency)),
                        ("transient_rate", Value::F64(expected.transient_rate)),
                        ("tuples", Value::F64(expected.tuples)),
                    ],
                );
            }
        }
        RunState {
            union: AnswerTable::default(),
            unjoined: BTreeSet::new(),
            stats: RunStats::default(),
            divergence,
            spent: 0.0,
            popped: 0,
            vclock: 0.0,
            ready: VecDeque::new(),
            run: RUN_COUNTER.fetch_add(1, Ordering::Relaxed),
            metrics: RunMetrics::registered(&obs, backend_kind),
            obs,
            finished: false,
        }
    }

    /// Advances the run by one plan: returns the next merged plan's
    /// record, or `None` once `budget` is satisfied or the plan space is
    /// exhausted (a later call with a laxer budget resumes). When no
    /// merged report is pending, pops the next speculation window under
    /// the budget rule (module docs), executes it **inline on the calling
    /// thread** and merges it in emission order; `observer` sees every
    /// plan of the wave scheduled, then every one merged.
    ///
    /// With `lookahead > 1` a wave's reports are handed out one per call
    /// while [`RunState::answers`], `state.stats`, [`RunState::spent`] and
    /// the clock already reflect the whole merged wave.
    pub fn step(
        &self,
        state: &mut RunState,
        orderer: &mut dyn PlanOrderer,
        budget: RunBudget,
        observer: &mut dyn WaveObserver<E::Ticket>,
    ) -> Option<PlanExecution> {
        self.advance(state, orderer, budget, observer, None)
    }

    /// [`Executor::step`], executing the wave on `pool` when there is one.
    fn advance(
        &self,
        state: &mut RunState,
        orderer: &mut dyn PlanOrderer,
        budget: RunBudget,
        observer: &mut dyn WaveObserver<E::Ticket>,
        pool: Option<&mut Pool<'_, E>>,
    ) -> Option<PlanExecution> {
        if let Some(report) = state.ready.pop_front() {
            return Some(report);
        }
        // The one read of the backend's data version: a move clears the memo.
        if let (Some(memo), Some((_, backend))) = (&self.memo, &self.sources) {
            memo.sync_backend_epoch(backend.epoch());
        }
        let lookahead = self.policy.lookahead.max(1);
        // `spent` and the pop count are exact here; `answers` lags by the
        // window in flight, and the window's own cost is provisional — an
        // unsound plan in it will have spent nothing at merge.
        let mut window: Vec<OrderedPlan> = Vec::new();
        let mut priced = state.spent;
        while window.len() < lookahead
            && !budget.satisfied(
                state.answer_count(),
                state.popped as usize + window.len(),
                priced,
            )
        {
            let Some(ordered) = orderer.next_plan() else {
                break;
            };
            priced += -ordered.utility;
            window.push(ordered);
        }
        let vclock = state.vclock;
        let mut jobs: Vec<Job<E>> = Vec::with_capacity(window.len());
        for ordered in window {
            let seq = state.popped;
            state.popped += 1;
            let journal = &state.obs.journal;
            if journal.is_enabled() {
                journal.record_at(
                    vclock,
                    "plan_emitted",
                    vec![
                        ("plan_seq", Value::U64(seq)),
                        (
                            "plan",
                            Value::Str(qpo_obs::encode_plan(&ordered.plan).into()),
                        ),
                        ("utility", Value::F64(ordered.utility)),
                    ],
                );
            }
            let resolved = self.resolve_from_memo(seq, &ordered, state);
            let mut ticket = E::Ticket::default();
            observer.plan_scheduled(seq, &ordered, &mut ticket, vclock);
            jobs.push(Job {
                seq,
                run: state.run,
                ordered,
                resolved,
                ticket,
            });
        }
        let mut wave = self.dispatch(jobs, pool);
        wave.sort_by_key(|c| c.seq);
        let latencies = wave.iter().map(|c| plan_latency(&c.accesses));
        state.stats.virtual_time += makespan(latencies, self.policy.workers);
        for completion in wave {
            let (report, ticket) = self.merge(completion, orderer, state);
            observer.plan_merged(&report, ticket, state.vclock);
            state.ready.push_back(report);
        }
        state.ready.pop_front()
    }

    /// Executes one wave under the dispatch rule (module docs): hands the
    /// waiting jobs but the first to the pool's helpers, executes the rest
    /// here in emission order, takes back what no helper has claimed by
    /// then, and only then blocks on completions.
    fn dispatch(
        &self,
        jobs: Vec<Job<E>>,
        mut pool: Option<&mut Pool<'_, E>>,
    ) -> Vec<Completion<E>> {
        let total = jobs.len();
        // A job waits iff it has a live access, and that access is slow.
        let slow = matches!(&self.sources, Some((_, backend)) if backend.kind() != "sim");
        let waits =
            |job: &Job<_>| slow && job.resolved.iter().flatten().count() < job.ordered.plan.len();
        let max_helpers = self.policy.workers.max(1) - 1;
        let mut lane0_free = true;
        let (handed, kept): (Vec<_>, Vec<_>) = jobs.into_iter().partition(|job| {
            pool.is_some() && max_helpers > 0 && waits(job) && !std::mem::take(&mut lane0_free)
        });
        if let Some(pool) = &mut pool {
            while pool.helpers < handed.len().min(max_helpers) {
                (pool.spawn)();
                pool.helpers += 1;
            }
            for job in handed {
                assert!(pool.jobs.send(job).is_ok(), "the pool holds a receiver");
            }
        }
        let mut wave: Vec<_> = kept.into_iter().map(|job| self.execute_job(job)).collect();
        if let Some(pool) = pool {
            while let Ok(job) = pool.unclaimed.try_recv() {
                wave.push(self.execute_job(job));
            }
            // Helpers send one completion per job they claimed.
            wave.extend(pool.done.iter().take(total - wave.len()));
        }
        wave
    }

    /// Coordinator-side memo consult at dispatch time: resolves each of
    /// the plan's source accesses from the memo where possible, counting
    /// hits/misses and journalling `memo_hit` events on the serial clock.
    /// Deterministic: runs in emission order, and only outcomes merged in
    /// previous waves (or previous runs, for a warm memo) are visible.
    fn resolve_from_memo(
        &self,
        seq: u64,
        ordered: &OrderedPlan,
        state: &mut RunState,
    ) -> Vec<Option<(SourceAccess, Option<Rows>)>> {
        let (Some(memo), Some((grid, _))) = (&self.memo, &self.sources) else {
            return Vec::new();
        };
        let journal = &state.obs.journal;
        ordered
            .plan
            .iter()
            .enumerate()
            .map(|(bucket, &index)| {
                let pattern = self.eval.access_pattern(&ordered.plan, bucket);
                let Some(hit) = memo.lookup(bucket, index, pattern) else {
                    state.metrics.memo_misses.inc();
                    return None;
                };
                state.stats.memo_hits += 1;
                state.metrics.memo_hits.inc();
                let svc = grid.service(bucket, index);
                if journal.is_enabled() {
                    journal.record_at(
                        state.vclock,
                        "memo_hit",
                        vec![
                            ("plan_seq", Value::U64(seq)),
                            ("source", Value::Str(svc.name.to_string().into())),
                            (
                                "outcome",
                                Value::Str(memo_outcome_label(hit.outcome).into()),
                            ),
                            ("warm", Value::Bool(hit.warm)),
                        ],
                    );
                }
                Some((replay_access(svc, hit.outcome), hit.rows))
            })
            .collect()
    }

    /// Folds one completion into the run: the outcome fed back to the
    /// orderer, counters mirrored onto the registry, the plan's lifecycle
    /// journalled, the serial virtual clock advanced, the drift monitor fed.
    fn merge(
        &self,
        completion: Completion<E>,
        orderer: &mut dyn PlanOrderer,
        state: &mut RunState,
    ) -> (PlanExecution, E::Ticket) {
        let Completion {
            seq,
            ordered,
            ticket,
            sound,
            tuples,
            accesses,
            fetched,
            failure,
            trace,
            backend_errors,
        } = completion;
        let joined = tuples.map(|rows| state.insert_answers(seq, &rows));
        let RunState {
            union,
            unjoined,
            stats,
            divergence,
            spent,
            vclock,
            metrics,
            obs,
            ..
        } = state;
        let journal = &obs.journal;
        let registry = &obs.registry;
        let latency = plan_latency(&accesses);
        let fees: f64 = accesses.iter().map(|a| a.fee).sum();
        // Accesses only exist where sources do.
        let backend_kind = self.sources.as_ref().map_or("", |(_, b)| b.kind());
        for a in &accesses {
            stats.attempts += u64::from(a.attempts);
            stats.transient_failures += u64::from(a.transient_failures);
            metrics.attempts.add(u64::from(a.attempts));
            metrics
                .transient_failures
                .add(u64::from(a.transient_failures));
            metrics
                .retries_per_access
                .record(f64::from(a.attempts) - 1.0);
            let handle = metrics.access_latency.entry((a.bucket, a.index));
            let labels = [("source", a.name.as_str()), ("backend", backend_kind)];
            handle
                .or_insert_with(|| registry.histogram("qpo_runtime_access_latency", &labels))
                .record(a.latency);
        }
        for (class, &count) in metrics.backend_errors.iter().flatten().zip(&backend_errors) {
            if count > 0 {
                class.add(count);
            }
        }
        stats.fees += fees;
        // A plan's source accesses run concurrently, so the per-source
        // attempt chains interleave in time; journal them in virtual-time
        // order (stable, so equal-offset events keep their per-source
        // order) to keep the trace clock monotone in seq order — the
        // invariant `validate_trace` enforces per run.
        let mut trace = trace;
        trace.sort_by(|a, b| a.offset.total_cmp(&b.offset));
        for ev in trace {
            let mut fields = vec![
                ("plan_seq", Value::U64(seq)),
                ("source", Value::Str(ev.source.into())),
                ("attempt", Value::U64(u64::from(ev.attempt))),
                ("backoff", Value::F64(ev.backoff)),
                ("latency", Value::F64(ev.latency)),
                ("outcome", Value::Str(ev.outcome.into())),
            ];
            // The server-side span, when the reply carried one: typed
            // fields in virtual units, so profile stitching and the
            // divergence replay recompute `network = latency −
            // remote_total` bit-for-bit from the trace alone.
            if let Some(r) = ev.remote {
                fields.push(("remote_total", Value::F64(r.total)));
                fields.push(("remote_recv", Value::F64(r.recv_parse)));
                fields.push(("remote_lookup", Value::F64(r.lookup)));
                fields.push(("remote_encode", Value::F64(r.encode)));
                fields.push(("remote_seq", Value::U64(r.server_seq)));
            }
            // Journal the backend-error classification (typed, end to
            // end): attempts behind an infrastructure failure carry the
            // class and message alongside the retry-loop outcome.
            if let Some((class, message)) = ev.error {
                fields.push(("error_class", Value::Str(class.into())));
                fields.push(("error", Value::Str(message.into())));
            }
            journal.record_at(*vclock + ev.offset, "source_attempt", fields);
        }
        let done = *vclock + latency;
        // Memo maintenance, in emission order on the coordinator thread. A
        // plan failing from a *live* access invalidates the memo first
        // (mirroring the ExecutionContext retract feedback), then this
        // plan's own terminal outcomes are stored into the fresh epoch —
        // so a permanently-down source costs exactly one real access.
        // Retries-exhausted transient failures are never stored: the
        // catalog says those sources should be retried by later plans. A
        // success is stored with the rows it returned.
        if let (Some(memo), Some((_, backend))) = (&self.memo, &self.sources) {
            if accesses.iter().any(|a| a.attempts > 0 && !a.ok) {
                memo.invalidate();
            }
            // A backend that learns its data version from replies (tcp:
            // 0 until the first) knows it by now. For a memo holding
            // nothing that is the version to start on, not a move.
            if memo.is_empty() {
                memo.sync_backend_epoch(backend.epoch());
            }
            for (a, rows) in accesses.iter().zip(fetched).filter(|(a, _)| a.attempts > 0) {
                let outcome = if a.ok {
                    MemoOutcome::Success
                } else if a.permanently_down {
                    MemoOutcome::PermanentFailure
                } else {
                    continue;
                };
                let pattern = self.eval.access_pattern(&ordered.plan, a.bucket);
                memo.store_rows(a.bucket, a.index, pattern, outcome, rows);
                if journal.is_enabled() {
                    journal.record_at(
                        done,
                        "memo_store",
                        vec![
                            ("plan_seq", Value::U64(seq)),
                            ("source", Value::Str(a.name.clone().into())),
                            ("outcome", Value::Str(memo_outcome_label(outcome).into())),
                        ],
                    );
                }
            }
            metrics.memo_bytes.set(memo.approx_bytes() as f64);
        }
        // The budget's `spent`: an attempted plan costs what it was
        // emitted at, whether it then executed or failed; a discarded one
        // costs nothing.
        if sound {
            *spent += -ordered.utility;
        }
        let status = if !sound {
            metrics.plans_unsound.inc();
            if journal.is_enabled() {
                journal.record_at(
                    done,
                    "plan_unsound",
                    vec![
                        ("plan_seq", Value::U64(seq)),
                        ("latency", Value::F64(latency)),
                    ],
                );
            }
            PlanStatus::Unsound
        } else if let Some(reason) = failure {
            stats.failed_plans += 1;
            metrics.plans_failed.inc();
            if journal.is_enabled() {
                let (kind, source) = match &reason {
                    FailureReason::PermanentlyDown { source } => ("permanently_down", source),
                    FailureReason::RetriesExhausted { source } => ("retries_exhausted", source),
                };
                journal.record_at(
                    done,
                    "plan_failed",
                    vec![
                        ("plan_seq", Value::U64(seq)),
                        ("reason", Value::Str(kind.into())),
                        ("source", Value::Str(source.clone().into())),
                        ("latency", Value::F64(latency)),
                    ],
                );
            }
            orderer.observe(&PlanOutcome::failed(&ordered.plan));
            PlanStatus::Failed(reason)
        } else {
            // An unjoined plan has no counts yet, in the report or the
            // journal.
            let (total, new_tuples) = joined.unwrap_or_else(|| {
                unjoined.insert(seq);
                (0, 0)
            });
            metrics.plans_executed.inc();
            metrics.emission_delay.record(done);
            if journal.is_enabled() {
                let mut fields = vec![("plan_seq", Value::U64(seq))];
                if joined.is_some() {
                    fields.extend([
                        ("tuples", Value::U64(total as u64)),
                        ("new_tuples", Value::U64(new_tuples as u64)),
                        ("cumulative", Value::U64(union.len() as u64)),
                    ]);
                }
                fields.push(("latency", Value::F64(latency)));
                journal.record_at(done, "plan_completed", fields);
            }
            // The one feedback call for a plan that ran, on every driver;
            // an unjoined plan reports 0 tuples, its join still ahead.
            orderer.observe(&PlanOutcome::succeeded(&ordered.plan, total));
            PlanStatus::Executed {
                tuples: total,
                new_tuples,
                cumulative: union.len(),
            }
        };
        *vclock += latency;
        journal.set_clock(*vclock);
        // Fresh access chains only: a memo replay (`attempts == 0`) observes
        // the memo, and journals no `source_attempt` for the replay either.
        // Only a joined plan has a tuple count to observe.
        let answers = joined.map(|(tuples, _)| tuples as f64);
        for a in accesses.iter().filter(|a| a.attempts > 0) {
            let observed = qpo_obs::AccessObservation {
                attempts: u64::from(a.attempts),
                transient_failures: u64::from(a.transient_failures),
                ok: a.ok,
                permanently_down: a.permanently_down,
                latency: a.latency,
                tuples: answers,
                network: a.remote_network,
                server: a.remote_server,
            };
            divergence.observe(&a.name, observed);
        }
        let report = PlanExecution {
            seq,
            ordered,
            status,
            accesses,
            latency,
            fees,
        };
        (report, ticket)
    }

    /// Performs the plan's source accesses through the backend, then
    /// evaluates it if everything succeeded — on the coordinating thread
    /// or a helper. Attempt-level trace events are collected here
    /// (relative to the plan's start) and handed to the merge, the only
    /// place that writes the journal.
    fn execute_job(&self, job: Job<E>) -> Completion<E> {
        let Job {
            seq,
            run,
            ordered,
            mut resolved,
            mut ticket,
        } = job;
        let tracing = self.obs.is_some_and(|obs| obs.journal.is_enabled());
        let mut trace: Vec<AttemptEvent> = Vec::new();
        let mut accesses: Vec<SourceAccess> = Vec::new();
        let mut fetched: Vec<Option<Rows>> = Vec::new();
        let mut backend_errors = [0u64; 2];
        let sound = self.eval.is_sound(&ordered.plan, &mut ticket);
        // Unsound plans are discarded unexecuted, and a local executor has
        // no source to access.
        if let (true, Some((grid, backend))) = (sound, &self.sources) {
            for (bucket, svc) in grid.plan_services(&ordered.plan).enumerate() {
                // Slots the coordinator resolved from the memo are replayed
                // as-is: zero attempts, zero latency, zero fee, and the
                // rows the memoized access returned.
                if let Some((access, rows)) = resolved.get_mut(bucket).and_then(Option::take) {
                    accesses.push(access);
                    fetched.push(rows);
                    continue;
                }
                let events = tracing.then_some(&mut trace);
                let outcome = access_with_retries(
                    backend.as_ref(),
                    svc,
                    self.eval.access_pattern(&ordered.plan, bucket),
                    &self.policy,
                    run,
                    seq,
                    events,
                );
                accesses.push(outcome.access);
                fetched.push(outcome.tuples);
                backend_errors[0] += outcome.backend_errors[0];
                backend_errors[1] += outcome.backend_errors[1];
            }
        }
        let failure = accesses.iter().find(|a| !a.ok).map(|a| {
            let source = a.name.clone();
            match a.permanently_down {
                true => FailureReason::PermanentlyDown { source },
                false => FailureReason::RetriesExhausted { source },
            }
        });
        let tuples = if sound && failure.is_none() {
            self.eval.evaluate(&ordered.plan, &fetched, &mut ticket)
        } else {
            None
        };
        // Only a memo keeps rows past the join. Without one they are freed
        // here, on the thread that ran the job, not serially at merge.
        if self.memo.is_none() {
            fetched.clear();
        }
        Completion {
            seq,
            ordered,
            ticket,
            sound,
            tuples,
            accesses,
            fetched,
            failure,
            trace,
            backend_errors,
        }
    }
}

/// Journal label for a memoized outcome.
fn memo_outcome_label(outcome: MemoOutcome) -> &'static str {
    match outcome {
        MemoOutcome::Success => "success",
        MemoOutcome::PermanentFailure => "permanent_failure",
    }
}

/// The record of an access to `svc` before its first attempt: nothing
/// tried, charged or learned yet.
fn unattempted(svc: &SourceService) -> SourceAccess {
    SourceAccess {
        bucket: svc.bucket,
        index: svc.index,
        name: svc.name.to_string(),
        attempts: 0,
        transient_failures: 0,
        latency: 0.0,
        fee: 0.0,
        ok: false,
        permanently_down: false,
        remote_server: None,
        remote_network: None,
    }
}

/// The access record a memo hit replays: the terminal outcome with zero
/// attempts, zero latency, and zero fee — the whole point of the memo.
fn replay_access(svc: &SourceService, outcome: MemoOutcome) -> SourceAccess {
    SourceAccess {
        ok: outcome == MemoOutcome::Success,
        permanently_down: outcome == MemoOutcome::PermanentFailure,
        ..unattempted(svc)
    }
}

/// Plan latency: its sources are accessed in parallel, so the slowest one
/// bounds the plan.
fn plan_latency(accesses: &[SourceAccess]) -> f64 {
    accesses.iter().map(|a| a.latency).fold(0.0, f64::max)
}

/// Simulated makespan of `latencies` greedily list-scheduled (in emission
/// order) onto `workers` lanes.
fn makespan(latencies: impl Iterator<Item = f64>, workers: usize) -> f64 {
    let mut lanes = vec![0.0f64; workers.max(1)];
    for lat in latencies {
        if let Some(lane) = lanes.iter_mut().min_by(|a, b| a.total_cmp(b)) {
            *lane += lat;
        }
    }
    lanes.into_iter().fold(0.0, f64::max)
}

/// What one retried source access resolved to: the access record, the
/// tuples the backend served (if it serves data), and the count of
/// backend infrastructure errors absorbed, by class
/// (`[transient, permanent]`).
struct ResolvedAccess {
    access: SourceAccess,
    tuples: Option<Arc<Vec<Tuple>>>,
    backend_errors: [u64; 2],
}

/// Accesses one source under `pattern` through `backend` with the
/// policy's retry discipline, accumulating backoffs and attempt latencies
/// into one virtual-time charge. When `events` is given, every resolved
/// attempt is appended with its plan-relative virtual-time offset and
/// outcome (`ok`/`transient`/`permanent`); attempts behind a
/// typed [`crate::backend::BackendError`] additionally carry its class and
/// message. Backend errors never panic the retry loop: they map onto the
/// simulator's outcome vocabulary — transient ones consume an attempt and
/// back off like simulated transient faults, permanent ones fail the
/// access like a permanently-down source.
fn access_with_retries(
    backend: &dyn SourceBackend,
    svc: &SourceService,
    pattern: &str,
    policy: &RuntimePolicy,
    run: u64,
    seq: u64,
    mut events: Option<&mut Vec<AttemptEvent>>,
) -> ResolvedAccess {
    let mut access = unattempted(svc);
    let mut tuples = None;
    let mut backend_errors = [0u64; 2];
    for attempt in 0..policy.max_attempts.max(1) {
        let backoff = backoff_before(attempt);
        access.attempts = attempt + 1;
        access.latency += backoff;
        let ctx = AccessContext {
            pattern,
            run,
            plan_seq: seq,
            attempt,
            faults: &policy.faults,
        };
        // The attempt's outcome, the latency it is charged, whether it
        // found the source down for good, and the typed error behind it.
        let (outcome, charge, down, error, reply) = match backend.access(svc, &ctx) {
            Ok(reply) => match reply.access.outcome {
                AccessOutcome::Success => ("ok", reply.access.latency, false, None, Some(reply)),
                AccessOutcome::TransientFailure => {
                    ("transient", reply.access.latency, false, None, None)
                }
                AccessOutcome::PermanentFailure => ("permanent", 0.0, true, None, None),
            },
            Err(err) => {
                let down = err.class == BackendErrorClass::Permanent;
                backend_errors[usize::from(down)] += 1;
                let label = err.class.label();
                (label, err.latency, down, Some((label, err.message)), None)
            }
        };
        access.latency += charge;
        if let Some(events) = events.as_deref_mut() {
            events.push(AttemptEvent {
                source: svc.name.to_string(),
                attempt: access.attempts,
                offset: access.latency,
                backoff,
                latency: charge,
                outcome,
                error,
                remote: reply.as_ref().and_then(|r| r.remote),
            });
        }
        if let Some(reply) = reply {
            access.ok = true;
            access.fee = svc.stats.fee_per_tuple * svc.stats.tuples;
            access.remote_server = reply.remote.map(|r| r.total);
            access.remote_network = reply.remote.map(|r| charge - r.total);
            tuples = reply.tuples;
            break;
        }
        access.permanently_down = down;
        if down {
            break;
        }
        access.transient_failures += 1;
    }
    ResolvedAccess {
        access,
        tuples,
        backend_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FaultConfig;
    use qpo_catalog::{Extent, ProblemInstance, SourceStats};
    use qpo_core::Pi;
    use qpo_datalog::Constant;
    use qpo_utility::Coverage;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// A toy integration system: a plan's answers are the items in the
    /// intersection of its sources' extents (the join of the coverage
    /// model), one tuple per item.
    struct ToyEval {
        inst: ProblemInstance,
    }

    impl PlanEvaluator for ToyEval {
        type Ticket = ();

        fn is_sound(&self, _plan: &[usize], _: &mut ()) -> bool {
            true
        }

        fn evaluate(
            &self,
            plan: &[usize],
            _: &[Option<Arc<Vec<Tuple>>>],
            _: &mut (),
        ) -> Option<PrefixRows> {
            let stats = self.inst.plan_stats(plan);
            let start = stats.iter().map(|s| s.extent.start).max().unwrap_or(0);
            let end = stats.iter().map(|s| s.extent.end()).min().unwrap_or(0);
            let items: Vec<Constant> = (start..end).map(|x| Constant::Int(x as i64)).collect();
            Some(PrefixRows::new(1, items.len(), items))
        }
    }

    fn inst() -> ProblemInstance {
        let src = |name: &str, s, l, f| {
            SourceStats::new()
                .with_name(name)
                .with_extent(Extent::new(s, l))
                .with_access_cost(3.0)
                .with_transmission_cost(0.05)
                .with_failure_prob(f)
                .with_fee(0.01)
        };
        ProblemInstance::new(
            1.0,
            vec![30, 30],
            vec![
                vec![
                    src("v1", 0, 20, 0.1),
                    src("v2", 5, 20, 0.3),
                    src("v3", 15, 10, 0.0),
                ],
                vec![src("w1", 0, 25, 0.2), src("w2", 10, 15, 0.4)],
            ],
        )
        .unwrap()
    }

    fn run_with(policy: RuntimePolicy, budget: RunBudget) -> RuntimeRun {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let eval = ToyEval { inst: inst.clone() };
        let mut orderer = Pi::new(&inst, &Coverage);
        Executor::new(&grid, &eval, policy).run(&mut orderer, budget, &mut ())
    }

    fn plan_sequence(run: &RuntimeRun) -> Vec<Vec<usize>> {
        run.reports.iter().map(|r| r.ordered.plan.clone()).collect()
    }

    #[test]
    fn no_faults_matches_across_workers_and_lookahead() {
        let baseline = run_with(RuntimePolicy::serial(), RunBudget::unbounded());
        assert_eq!(baseline.reports.len(), 6);
        assert_eq!(baseline.failed(), 0);
        for (workers, lookahead) in [(2, 2), (4, 4), (3, 6), (8, 1)] {
            let policy = RuntimePolicy::parallel(workers).with_lookahead(lookahead);
            let run = run_with(policy, RunBudget::unbounded());
            assert_eq!(plan_sequence(&run), plan_sequence(&baseline));
            assert_eq!(run.answers, baseline.answers);
            // Per-plan records are bit-identical too (latency draws are
            // deterministic and independent of scheduling).
            assert_eq!(run.reports, baseline.reports);
        }
    }

    #[test]
    fn fixed_seed_reproduces_failures_bit_for_bit() {
        let faults = FaultConfig::with_seed(99).with_extra_transient_rate(0.3);
        // Lookahead is held fixed: it changes *when* outcomes feed back
        // into the orderer, which is part of the run's semantics. Worker
        // count is the thing that must not matter.
        let policy = |w: usize| {
            RuntimePolicy::parallel(w)
                .with_lookahead(2)
                .with_faults(faults.clone())
                .with_max_attempts(2)
        };
        let a = run_with(policy(1), RunBudget::unbounded());
        let b = run_with(policy(4), RunBudget::unbounded());
        assert!(a.stats.transient_failures > 0, "faults actually fired");
        assert_eq!(a.reports, b.reports, "independent of worker count");
        assert_eq!(a.answers, b.answers);
        // virtual_time models the makespan *with that worker count*, so it
        // is the one statistic that legitimately differs between a and b.
        assert_eq!(a.stats.attempts, b.stats.attempts);
        assert_eq!(a.stats.transient_failures, b.stats.transient_failures);
        assert_eq!(a.stats.failed_plans, b.stats.failed_plans);
        assert_eq!(a.stats.fees, b.stats.fees);
        assert!(
            a.stats.virtual_time >= b.stats.virtual_time,
            "fewer lanes, longer makespan"
        );
        let c = run_with(policy(4), RunBudget::unbounded());
        assert_eq!(b.reports, c.reports, "reruns replay exactly");
        assert_eq!(b.stats, c.stats);
    }

    #[test]
    fn permanently_down_source_degrades_gracefully() {
        let faults = FaultConfig::with_seed(1).with_source_down("v2");
        let run = run_with(
            RuntimePolicy::parallel(3).with_faults(faults),
            RunBudget::unbounded(),
        );
        assert_eq!(run.reports.len(), 6, "the run still covers the plan space");
        let failed: Vec<_> = run.reports.iter().filter(|r| r.failed()).collect();
        assert_eq!(failed.len(), 2, "both plans through v2 fail");
        for r in &failed {
            assert_eq!(r.ordered.plan[0], 1, "v2 is bucket 0 index 1");
            assert!(matches!(
                r.status,
                PlanStatus::Failed(FailureReason::PermanentlyDown { ref source }) if source == "v2"
            ));
        }
        assert_eq!(run.executed(), 4);
        assert!(!run.answers.is_empty());
        assert_eq!(run.stats.failed_plans, 2);
    }

    #[test]
    fn retries_recover_transient_failures() {
        let faults = FaultConfig::with_seed(5).with_extra_transient_rate(0.2);
        let run = run_with(
            RuntimePolicy::parallel(2)
                .with_faults(faults.clone())
                .with_max_attempts(8),
            RunBudget::unbounded(),
        );
        assert!(run.stats.transient_failures > 0);
        assert!(
            run.stats.attempts > run.reports.len() as u64,
            "some accesses retried"
        );
        // With 4 attempts at ~35–40% failure, every plan should make it.
        assert_eq!(run.failed(), 0, "retries absorb transient faults");
        let baseline = run_with(RuntimePolicy::serial(), RunBudget::unbounded());
        assert_eq!(
            run.answers, baseline.answers,
            "full answer set despite faults"
        );
    }

    #[test]
    fn max_plans_budget_is_exact_under_speculation() {
        for lookahead in [1, 2, 5] {
            let run = run_with(
                RuntimePolicy::parallel(4).with_lookahead(lookahead),
                RunBudget::plans(3),
            );
            assert_eq!(run.reports.len(), 3, "lookahead {lookahead}");
        }
    }

    #[test]
    fn answers_budget_is_exact_without_speculation() {
        let run = run_with(RuntimePolicy::serial(), RunBudget::answers(1));
        assert_eq!(run.reports.len(), 1, "first plan already yields answers");
        assert!(!run.answers.is_empty());
    }

    /// Stepping a run by hand — inline, one report per call, held for as
    /// long as the caller likes after the `k`-th — is the uninterrupted
    /// pool run: same reports, answers, counters and trace bytes.
    #[test]
    fn a_paused_run_resumes_to_the_uninterrupted_run() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let eval = ToyEval { inst: inst.clone() };
        for (workers, lookahead) in [(1, 1), (1, 4), (3, 4)] {
            let policy = RuntimePolicy::parallel(workers)
                .with_lookahead(lookahead)
                .with_faults(
                    FaultConfig::with_seed(99)
                        .with_extra_transient_rate(0.3)
                        .with_source_down("w2"),
                )
                .with_max_attempts(2);
            let whole_obs = Obs::with_trace();
            let whole = Executor::new(&grid, &eval, policy.clone())
                .with_obs(&whole_obs)
                .run(
                    &mut Pi::new(&inst, &Coverage),
                    RunBudget::unbounded(),
                    &mut (),
                );
            assert!(whole.stats.transient_failures > 0 && whole.failed() > 0);
            for k in [0, 1, 3, 5] {
                let obs = Obs::with_trace();
                let executor = Executor::new(&grid, &eval, policy.clone()).with_obs(&obs);
                let mut orderer = Pi::new(&inst, &Coverage);
                let mut state = executor.begin(&orderer);
                let mut step = |state: &mut RunState| {
                    executor.step(state, &mut orderer, RunBudget::unbounded(), &mut ())
                };
                let mut reports: Vec<PlanExecution> =
                    (0..k).map_while(|_| step(&mut state)).collect();
                assert_eq!(reports.len(), k, "paused after {k} plans");
                assert!(
                    state.popped() >= k,
                    "a wave may be merged ahead of its reports"
                );
                reports.extend(std::iter::from_fn(|| step(&mut state)));
                state.finish();
                state.finish(); // idempotent: one `run_finished`
                let label = format!("workers={workers} lookahead={lookahead} k={k}");
                assert_eq!(reports, whole.reports, "{label}");
                assert_eq!(state.answers(), whole.answers, "{label}");
                assert_eq!(state.stats, whole.stats, "{label}");
                assert_eq!(state.spent(), {
                    let attempted = whole
                        .reports
                        .iter()
                        .filter(|r| r.status != PlanStatus::Unsound);
                    attempted.fold(0.0, |spent, r| spent + -r.ordered.utility)
                });
                assert_eq!(
                    obs.journal.to_jsonl(),
                    whole_obs.journal.to_jsonl(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn failed_plans_are_reported_back_to_the_orderer() {
        use std::cell::Cell;

        /// Scripted orderer that counts failure observations.
        struct Probe {
            plans: Vec<Vec<usize>>,
            failures_seen: Cell<usize>,
        }
        impl PlanOrderer for Probe {
            fn algorithm_name(&self) -> &'static str {
                "probe"
            }
            fn next_plan(&mut self) -> Option<OrderedPlan> {
                self.plans.pop().map(|plan| OrderedPlan {
                    plan,
                    utility: -1.0,
                })
            }
            fn observe(&mut self, outcome: &PlanOutcome) {
                if outcome.is_failure() {
                    self.failures_seen.set(self.failures_seen.get() + 1);
                }
            }
        }

        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let eval = ToyEval { inst: inst.clone() };
        let policy = RuntimePolicy::parallel(2)
            .with_faults(FaultConfig::with_seed(2).with_source_down("w1"));
        let mut probe = Probe {
            plans: vec![vec![0, 0], vec![1, 1], vec![2, 0]],
            failures_seen: Cell::new(0),
        };
        let run =
            Executor::new(&grid, &eval, policy).run(&mut probe, RunBudget::unbounded(), &mut ());
        assert_eq!(run.failed(), 2, "plans through w1 fail");
        assert_eq!(probe.failures_seen.get(), 2, "each failure observed once");
    }

    /// A reusable barrier whose wait fails the test instead of hanging it.
    struct Rendezvous {
        parties: usize,
        /// Arrived so far, and how many times the barrier has opened.
        state: Mutex<(usize, u64)>,
        opened: Condvar,
    }

    impl Rendezvous {
        fn of(parties: usize) -> Self {
            Rendezvous {
                parties,
                state: Mutex::default(),
                opened: Condvar::new(),
            }
        }

        fn wait(&self) {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            if state.0 == self.parties {
                *state = (0, state.1 + 1);
                self.opened.notify_all();
                return;
            }
            let turn = state.1;
            let patience = Duration::from_secs(10);
            let wait = self
                .opened
                .wait_timeout_while(state, patience, |s| s.1 == turn);
            assert!(!wait.unwrap().1.timed_out(), "a lane never arrived");
        }
    }

    /// [`ToyEval`], recording the thread each plan's job runs on; it can
    /// hold every job at a rendezvous, or panic on one plan.
    struct Recording {
        toy: ToyEval,
        threads: Mutex<Vec<ThreadId>>,
        /// Per evaluated plan, how many of its slots came with rows.
        slots_with_rows: Mutex<Vec<usize>>,
        rendezvous: Option<Rendezvous>,
        panic_on: Option<Vec<usize>>,
    }

    impl Recording {
        fn new() -> Self {
            Recording {
                toy: ToyEval { inst: inst() },
                threads: Mutex::default(),
                slots_with_rows: Mutex::default(),
                rendezvous: None,
                panic_on: None,
            }
        }

        /// The distinct threads recorded so far, clearing the record.
        fn take_threads(&self) -> HashSet<ThreadId> {
            std::mem::take(&mut *self.threads.lock().unwrap())
                .into_iter()
                .collect()
        }
    }

    impl PlanEvaluator for Recording {
        type Ticket = ();

        fn is_sound(&self, plan: &[usize], _: &mut ()) -> bool {
            self.threads.lock().unwrap().push(thread::current().id());
            assert_ne!(self.panic_on.as_deref(), Some(plan), "scripted panic");
            if let Some(rendezvous) = &self.rendezvous {
                rendezvous.wait();
            }
            true
        }

        fn evaluate(
            &self,
            plan: &[usize],
            fetched: &[Option<Arc<Vec<Tuple>>>],
            _: &mut (),
        ) -> Option<PrefixRows> {
            let with_rows = fetched.iter().flatten().count();
            self.slots_with_rows.lock().unwrap().push(with_rows);
            self.toy.evaluate(plan, fetched, &mut ())
        }
    }

    /// A backend that does I/O as far as the executor can tell, each
    /// access optionally held at a rendezvous.
    struct WaitingBackend(Option<Rendezvous>);

    impl SourceBackend for WaitingBackend {
        fn kind(&self) -> &'static str {
            "waiting-test"
        }

        fn access(
            &self,
            _: &SourceService,
            _: &AccessContext<'_>,
        ) -> Result<crate::backend::AccessReply, crate::backend::BackendError> {
            if let Some(rendezvous) = &self.0 {
                rendezvous.wait();
            }
            Ok(crate::backend::AccessReply {
                access: crate::source::Access {
                    outcome: AccessOutcome::Success,
                    latency: 1.0,
                },
                tuples: None,
                remote: None,
            })
        }
    }

    #[test]
    fn jobs_with_nothing_to_wait_for_run_on_the_calling_thread() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let eval = Recording::new();
        let caller = HashSet::from([thread::current().id()]);
        let policy = RuntimePolicy::parallel(4);
        let memo = SourceMemo::new();
        let simulated = Executor::new(&grid, &eval, policy.clone());
        let memoized = Executor::new(&grid, &eval, policy.clone()).with_source_memo(&memo);
        let local = Executor::local(&eval, policy);
        for (label, executor) in [("sim", simulated), ("memo", memoized), ("local", local)] {
            let run = executor.run(
                &mut Pi::new(&inst, &Coverage),
                RunBudget::unbounded(),
                &mut (),
            );
            assert_eq!(run.executed(), 6, "{label}");
            assert_eq!(eval.take_threads(), caller, "{label}");
        }
    }

    #[test]
    fn the_coordinator_is_a_lane_and_helpers_number_workers_minus_one() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        for (workers, plans) in [(2, 4), (2, 6), (3, 3), (3, 6)] {
            // Every access of a wave meets every other: the wave's
            // `workers` jobs are on `workers` threads at once, or time out.
            let backend = Arc::new(WaitingBackend(Some(Rendezvous::of(workers))));
            let eval = Recording::new();
            let run = Executor::new(&grid, &eval, RuntimePolicy::parallel(workers))
                .with_backend(backend)
                .run(
                    &mut Pi::new(&inst, &Coverage),
                    RunBudget::plans(plans),
                    &mut (),
                );
            assert_eq!(run.executed(), plans);
            let threads = eval.take_threads();
            assert_eq!(threads.len(), workers, "workers={workers} plans={plans}");
            assert!(threads.contains(&thread::current().id()), "lane 0");
        }
    }

    #[test]
    fn a_job_leaves_the_coordinator_only_to_wait_on_a_live_access() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let caller = thread::current().id();
        let memo = SourceMemo::new();
        let eval = Recording::new();
        // Each live access waits for one by the wave's other plan.
        let backend = Arc::new(WaitingBackend(Some(Rendezvous::of(2))));
        let run = || {
            Executor::new(&grid, &eval, RuntimePolicy::parallel(2))
                .with_backend(backend.clone())
                .with_source_memo(&memo)
                .run(&mut Pi::new(&inst, &Coverage), RunBudget::plans(2), &mut ())
        };
        // Cold: both plans of the wave have live slots, hence wait — on
        // two threads, or the rendezvous times out.
        assert_eq!(run().stats.memo_hits, 0);
        let threads = eval.take_threads();
        assert!(threads.len() == 2 && threads.contains(&caller));
        // Warm: the memo resolves every slot of the same wave — nothing to
        // wait for, nothing handed off, over the same I/O backend.
        assert_eq!(run().stats.memo_hits, 4);
        assert_eq!(eval.take_threads(), HashSet::from([caller]));
    }

    /// A memo-resolved slot waits for nothing — its rows are in the memo —
    /// so a fully warm wave over a backend that does I/O never leaves the
    /// calling thread, and the evaluator is handed rows in every slot
    /// exactly as on the live run.
    #[test]
    fn a_fully_memo_resolved_wave_over_a_data_backend_stays_on_the_caller_with_its_rows() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let eval = Recording::new();
        let memo = SourceMemo::new();
        let backend = Arc::new(FlakyBackend {
            flaky_attempts: 0,
            down: None,
        });
        let run = || {
            let run = Executor::new(&grid, &eval, RuntimePolicy::parallel(3))
                .with_backend(backend.clone())
                .with_source_memo(&memo)
                .run(
                    &mut Pi::new(&inst, &Coverage),
                    RunBudget::unbounded(),
                    &mut (),
                );
            assert_eq!(run.executed(), 6);
            let seen = std::mem::take(&mut *eval.slots_with_rows.lock().unwrap());
            assert_eq!(seen, [2; 6], "rows in both slots of every plan");
            run
        };
        let cold = run();
        assert!(cold.stats.attempts > 0 && memo.approx_bytes() > 0);
        eval.take_threads();
        let warm = run();
        assert_eq!((warm.stats.attempts, warm.stats.memo_hits), (0, 12));
        assert_eq!(warm.answers, cold.answers);
        let caller = HashSet::from([thread::current().id()]);
        assert_eq!(eval.take_threads(), caller, "nothing to wait for");
    }

    #[test]
    fn a_panic_on_the_coordinator_unwinds_out_of_run_past_the_helpers() {
        let (outcome, unwound) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let inst = inst();
            let grid = SourceGrid::from_instance(&inst);
            let mut eval = Recording::new();
            // The first plan popped: the wave's first waiting job, lane 0.
            eval.panic_on = Pi::new(&inst, &Coverage).next_plan().map(|p| p.plan);
            let executor = Executor::new(&grid, &eval, RuntimePolicy::parallel(2))
                .with_backend(Arc::new(WaitingBackend(None)));
            let run = std::panic::AssertUnwindSafe(|| {
                executor.run(
                    &mut Pi::new(&inst, &Coverage),
                    RunBudget::unbounded(),
                    &mut (),
                )
            });
            let _ = outcome.send(std::panic::catch_unwind(run).is_err());
        });
        let patience = Duration::from_secs(10);
        assert_eq!(unwound.recv_timeout(patience), Ok(true), "run hung");
    }

    fn run_memoized(policy: RuntimePolicy, budget: RunBudget, memo: &SourceMemo) -> RuntimeRun {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let eval = ToyEval { inst: inst.clone() };
        let mut orderer = Pi::new(&inst, &Coverage);
        Executor::new(&grid, &eval, policy)
            .with_source_memo(memo)
            .run(&mut orderer, budget, &mut ())
    }

    #[test]
    fn memo_serves_repeated_accesses_without_attempts() {
        let baseline = run_with(RuntimePolicy::serial(), RunBudget::unbounded());
        let memo = SourceMemo::new();
        let run = run_memoized(RuntimePolicy::serial(), RunBudget::unbounded(), &memo);
        assert_eq!(plan_sequence(&run), plan_sequence(&baseline));
        assert_eq!(run.answers, baseline.answers, "answers are untouched");
        // 6 plans over a 3×2 grid touch 12 source slots but only 5 distinct
        // sources: everything after the first access of each is a hit.
        assert_eq!(run.stats.memo_hits, 12 - 5);
        assert_eq!(run.stats.attempts, 5, "one live attempt per source");
        assert!(run.stats.attempts < baseline.stats.attempts);
        assert!(run.stats.fees < baseline.stats.fees, "hits charge no fee");
        assert_eq!(memo.hits(), 7);
        assert_eq!(memo.len(), 5);
    }

    #[test]
    fn memoized_runs_match_across_worker_counts() {
        for workers in [1, 4, 8] {
            let memo = SourceMemo::new();
            let policy = RuntimePolicy::parallel(workers).with_lookahead(2);
            let run = run_memoized(policy, RunBudget::unbounded(), &memo);
            let reference = {
                let memo = SourceMemo::new();
                run_memoized(
                    RuntimePolicy::serial().with_lookahead(2),
                    RunBudget::unbounded(),
                    &memo,
                )
            };
            assert_eq!(run.reports, reference.reports, "workers = {workers}");
            assert_eq!(run.answers, reference.answers);
            assert_eq!(run.stats.memo_hits, reference.stats.memo_hits);
        }
    }

    #[test]
    fn warm_memo_serves_a_second_run_entirely_from_cache() {
        let memo = SourceMemo::new();
        let cold = run_memoized(RuntimePolicy::serial(), RunBudget::unbounded(), &memo);
        let warm = run_memoized(RuntimePolicy::serial(), RunBudget::unbounded(), &memo);
        assert_eq!(plan_sequence(&warm), plan_sequence(&cold));
        assert_eq!(warm.answers, cold.answers);
        assert_eq!(warm.stats.attempts, 0, "every access memoized");
        assert_eq!(warm.stats.memo_hits, 12);
    }

    #[test]
    fn permanently_down_source_costs_one_live_access() {
        let faults = FaultConfig::with_seed(1).with_source_down("v2");
        let memo = SourceMemo::new();
        let run = run_memoized(
            RuntimePolicy::serial().with_faults(faults.clone()),
            RunBudget::unbounded(),
            &memo,
        );
        let baseline = run_with(
            RuntimePolicy::serial().with_faults(faults),
            RunBudget::unbounded(),
        );
        // Identical semantics: same plans, same failures, same answers.
        assert_eq!(plan_sequence(&run), plan_sequence(&baseline));
        assert_eq!(run.failed(), baseline.failed());
        assert_eq!(run.answers, baseline.answers);
        // But only the first plan through v2 pays the real access.
        let v2_attempts: u32 = run
            .reports
            .iter()
            .flat_map(|r| &r.accesses)
            .filter(|a| a.name == "v2")
            .map(|a| a.attempts)
            .sum();
        assert_eq!(v2_attempts, 1);
        // The live failure cleared the memo, so some earlier success was
        // re-verified: another source is accessed live in two plans.
        let mut live: BTreeMap<&str, usize> = BTreeMap::new();
        for a in run.reports.iter().flat_map(|r| &r.accesses) {
            if a.attempts > 0 && a.name != "v2" {
                *live.entry(&a.name).or_default() += 1;
            }
        }
        assert!(live.values().any(|&n| n >= 2), "live accesses: {live:?}");
    }

    #[test]
    fn exhausted_retries_are_not_memoized() {
        // A transient retries-exhausted failure must not be served from
        // the memo: later plans through the same source retry fresh.
        let faults = FaultConfig::with_seed(99).with_extra_transient_rate(0.3);
        let policy = RuntimePolicy::serial()
            .with_faults(faults)
            .with_max_attempts(1);
        let baseline = run_with(policy.clone(), RunBudget::unbounded());
        let exhausted: Vec<&PlanExecution> = baseline
            .reports
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    PlanStatus::Failed(FailureReason::RetriesExhausted { .. })
                )
            })
            .collect();
        assert!(
            !exhausted.is_empty(),
            "seed must produce an exhausted-retries failure"
        );
        let memo = SourceMemo::new();
        let run = run_memoized(policy, RunBudget::unbounded(), &memo);
        // Every plan the baseline executed also executes under the memo:
        // the memo can only save work, never mask a retryable source.
        for (m, b) in run.reports.iter().zip(&baseline.reports) {
            assert_eq!(m.ordered.plan, b.ordered.plan);
            if b.executed() {
                assert!(
                    m.executed(),
                    "memo masked plan {:?} that the baseline executed",
                    b.ordered.plan
                );
            }
        }
    }

    #[test]
    fn makespan_schedules_onto_lanes() {
        assert_eq!(makespan([4.0, 3.0, 2.0, 1.0].into_iter(), 1), 10.0);
        assert_eq!(makespan([4.0, 3.0, 2.0, 1.0].into_iter(), 2), 5.0);
        assert_eq!(makespan([4.0, 3.0, 2.0, 1.0].into_iter(), 4), 4.0);
        assert_eq!(makespan(std::iter::empty(), 3), 0.0);
    }

    #[test]
    fn a_reliable_simulated_access_succeeds_first_try() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let policy = RuntimePolicy::serial().with_faults(FaultConfig::with_seed(4));
        let a = access_with_retries(
            &SimBackend,
            grid.service(0, 2),
            SCAN_PATTERN,
            &policy,
            0,
            0,
            None,
        );
        assert_eq!((a.access.attempts, a.access.ok), (1, true));
        assert!(a.tuples.is_none(), "the simulator serves no data");
        assert_eq!(a.backend_errors, [0, 0]);
    }

    /// A backend that fails transiently for the first `flaky_attempts`
    /// attempts of every access, then serves data — exercising the
    /// typed-error retry path end to end.
    struct FlakyBackend {
        flaky_attempts: u32,
        down: Option<&'static str>,
    }

    impl crate::backend::SourceBackend for FlakyBackend {
        fn kind(&self) -> &'static str {
            "flaky-test"
        }

        fn access(
            &self,
            svc: &SourceService,
            ctx: &AccessContext<'_>,
        ) -> Result<crate::backend::AccessReply, crate::backend::BackendError> {
            if self.down == Some(svc.name.as_ref()) {
                return Err(crate::backend::BackendError::permanent(
                    "host decommissioned",
                ));
            }
            if ctx.attempt < self.flaky_attempts {
                return Err(
                    crate::backend::BackendError::transient("connection reset").with_latency(0.5)
                );
            }
            Ok(crate::backend::AccessReply {
                access: crate::source::Access {
                    outcome: AccessOutcome::Success,
                    latency: 1.0,
                },
                tuples: Some(Arc::new(vec![vec![Constant::Int(1)]])),
                remote: None,
            })
        }
    }

    #[test]
    fn transient_backend_errors_are_retried_with_backoff() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let svc = grid.service(0, 0);
        let policy = RuntimePolicy::serial(); // 4 attempts, exp. backoff
        let backend = FlakyBackend {
            flaky_attempts: 2,
            down: None,
        };
        let mut events = Vec::new();
        let a = access_with_retries(
            &backend,
            svc,
            SCAN_PATTERN,
            &policy,
            0,
            0,
            Some(&mut events),
        );
        assert!(a.access.ok, "third attempt succeeds");
        assert_eq!(a.access.attempts, 3);
        assert_eq!(a.access.transient_failures, 2);
        assert_eq!(a.backend_errors, [2, 0]);
        assert!(a.tuples.is_some(), "data arrives with the success");
        // Backoffs accrued: attempt 1 free, attempts 2 and 3 back off,
        // plus two 0.5 error charges and the final 1.0 access.
        let expected = backoff_before(1) + backoff_before(2) + 2.0;
        assert!((a.access.latency - expected).abs() < 1e-9);
        // The typed classification rides on the attempt events.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].outcome, "transient");
        assert_eq!(events[0].error.as_ref().unwrap().0, "transient");
        assert!(events[1].error.as_ref().unwrap().1.contains("reset"));
        assert!(events[2].error.is_none());
    }

    #[test]
    fn permanent_backend_errors_fail_plans_gracefully() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let eval = ToyEval { inst: inst.clone() };
        let backend = FlakyBackend {
            flaky_attempts: 0,
            down: Some("w1"),
        };
        let mut orderer = Pi::new(&inst, &Coverage);
        let run = Executor::new(&grid, &eval, RuntimePolicy::parallel(2))
            .with_backend(Arc::new(backend))
            .run(&mut orderer, RunBudget::unbounded(), &mut ());
        assert_eq!(run.reports.len(), 6, "the run still covers the plan space");
        let failed: Vec<_> = run.reports.iter().filter(|r| r.failed()).collect();
        assert_eq!(failed.len(), 3, "every plan through w1 fails");
        for r in &failed {
            assert!(matches!(
                r.status,
                PlanStatus::Failed(FailureReason::PermanentlyDown { ref source })
                    if source == "w1"
            ));
        }
        assert!(run.executed() > 0, "plans avoiding w1 still answer");
    }
}
