//! The bounded-parallelism plan executor.
//!
//! ## Execution model
//!
//! A coordinator pops plans from the [`PlanOrderer`] *serially* — utilities
//! are conditioned on emission order, so pops cannot be parallelized — but
//! **speculatively**: up to `lookahead` plans are in flight before any
//! outcome is known. Each pop optimistically assumes its predecessors
//! execute (the same assumption the serial mediator makes), which is why,
//! with faults disabled, any lookahead reproduces the serial ordering
//! exactly. Worker threads simulate the source accesses (retries, backoff,
//! timeouts) and evaluate the plan; the coordinator merges completions in
//! emission order, so answers and per-plan novelty counts are
//! deterministic. When a plan fails, the coordinator reports it back via
//! [`PlanOrderer::observe`] so later pops are conditioned on what actually
//! ran.
//!
//! ## Determinism
//!
//! Faults and latencies are pure functions of `(seed, source, plan
//! sequence, attempt)` ([`crate::source`]), pops happen at fixed points
//! (wave boundaries), and merging is by sequence number — so a run is a
//! deterministic function of its inputs, independent of worker count and
//! thread scheduling. Worker count changes wall time, nothing else.
//!
//! ## Budget caveat under speculation
//!
//! `max_plans` and `max_cost` are known at pop time and honored exactly.
//! `enough_answers` is only re-checked at wave boundaries (answers of
//! in-flight plans are unknown), so a speculative run may execute up to
//! `lookahead − 1` plans past the serial stopping point — the usual price
//! of speculation. Use `lookahead = 1` for exact answer-budget parity.

use crate::backend::{AccessContext, BackendErrorClass, RemoteSpan, SimBackend, SourceBackend};
use crate::memo::{MemoHit, MemoOutcome, SourceMemo, SCAN_PATTERN};
use crate::policy::{RetryPolicy, RuntimePolicy};
use crate::source::{AccessOutcome, SourceGrid, SourceService};
use crossbeam::channel;
use qpo_core::{OrderedPlan, PlanOrderer, PlanOutcome};
use qpo_datalog::Tuple;
use qpo_obs::{Counter, Gauge, Histogram, Obs, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Process-wide run-id source for trace-context propagation: each
/// [`Executor::run_observed`] call takes the next value, so backend
/// requests from distinct runs (or distinct executors) carry distinct
/// trace run ids over the wire. The id is propagation metadata only — it
/// is never journalled, so traces stay a pure function of
/// `(seed, sources, plan order)`.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Evaluates concrete plans against the integration system's data; the
/// runtime is generic over this so it does not depend on any particular
/// mediator. Implementations must be cheap to call from worker threads.
pub trait PlanEvaluator: Sync {
    /// Whether the plan passes the soundness test (unsound plans are
    /// reported but never executed, mirroring the serial mediator).
    fn is_sound(&self, plan: &[usize]) -> bool;

    /// Evaluates the plan's conjunctive query, returning its answers —
    /// each once: the merge counts them as the plan's `tuples` and unions
    /// them into the run's answer set as they come, with no set of the
    /// plan's own in between. `fetched[bucket]` holds the rows the backend returned for that
    /// bucket's access — `None` for buckets it holds no data for (the
    /// simulator) and for memo-resolved slots. An evaluator over a static
    /// database ignores them, which is exactly the simulated world's
    /// contract; qpo-exec's core joins them in place.
    fn evaluate(&self, plan: &[usize], fetched: &[Option<Arc<Vec<Tuple>>>]) -> Vec<Tuple>;

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
/// from the coordinator thread (never from workers): once when a plan is
/// popped and scheduled (speculatively — no outcome known yet) and once
/// when its completion merges (outcome and answers final). Both calls
/// carry the serial virtual clock, so anything the observer derives —
/// attached tuple streams, journal events, progress gauges — stays a
/// pure function of `(seed, sources, plan order)` and is byte-identical
/// across worker counts. `qpo-exec`'s any-k streaming attaches per-plan
/// ranked tuple streams here.
pub trait WaveObserver {
    /// A plan was popped from the orderer and handed to the workers.
    /// `vclock` is the serial virtual time of its `plan_scheduled` event.
    fn plan_scheduled(&mut self, _seq: u64, _ordered: &OrderedPlan, _vclock: f64) {}

    /// A plan's completion merged into the run. `vclock` is the serial
    /// virtual time *after* the plan's latency (its terminal event's
    /// timestamp).
    fn plan_merged(&mut self, _report: &PlanExecution, _vclock: f64) {}
}

/// The do-nothing observer [`Executor::run`] uses.
struct NoopObserver;

impl WaveObserver for NoopObserver {}

/// When a run stops popping further plans (§1: "query execution can then
/// be aborted as soon as the user has found a satisfactory answer, or when
/// allotted resource limits have been reached"): at the first satisfied
/// condition; `None` fields never trigger. The serial session checks it
/// before every pull; see the module docs for speculation caveats.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunBudget {
    /// Stop once at least this many distinct answers have been merged.
    pub enough_answers: Option<usize>,
    /// Stop after popping this many plans (sound or not).
    pub max_plans: Option<usize>,
    /// Stop once cumulative negated utility (cost, for cost-like
    /// measures) of popped plans exceeds this.
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
    /// Attempts that failed transiently (timeouts included).
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
    /// the backend returned a remote span (traced TCP server). `None` for
    /// simulated, untraced, legacy-server, and failed accesses.
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
    /// Executed successfully.
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

struct Job {
    seq: u64,
    /// Trace run id propagated to the backend on every access.
    run: u64,
    ordered: OrderedPlan,
    /// Per-bucket accesses already resolved by the coordinator's memo
    /// lookup (aligned with the plan; empty when no memo is attached).
    /// Workers only perform the live accesses for the `None` slots.
    resolved: Vec<Option<SourceAccess>>,
}

/// One resolved source-access attempt, captured on the worker for the
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

struct Completion {
    seq: u64,
    ordered: OrderedPlan,
    sound: bool,
    tuples: Vec<Tuple>,
    accesses: Vec<SourceAccess>,
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
    /// Backend infrastructure errors by class, labeled with the backend
    /// kind: `[transient, permanent]`.
    backend_errors: [Counter; 2],
}

impl RunMetrics {
    fn registered(obs: &Obs, backend: &'static str) -> Self {
        let c = |name| obs.registry.counter(name, &[]);
        let status = |s| {
            obs.registry
                .counter("qpo_runtime_plans_total", &[("status", s)])
        };
        let memo = |name| obs.registry.counter(name, &[("layer", "source")]);
        let backend_error = |class| {
            obs.registry.counter(
                "qpo_backend_errors_total",
                &[("backend", backend), ("class", class)],
            )
        };
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
            backend_errors: [
                backend_error(BackendErrorClass::Transient.label()),
                backend_error(BackendErrorClass::Permanent.label()),
            ],
        }
    }
}

/// The bounded-parallelism speculative executor. Borrows the source grid
/// and evaluator; one executor can run many orderers.
pub struct Executor<'a, E: PlanEvaluator> {
    grid: &'a SourceGrid,
    eval: &'a E,
    policy: RuntimePolicy,
    obs: Obs,
    memo: Option<SourceMemo>,
    backend: Arc<dyn SourceBackend>,
}

impl<'a, E: PlanEvaluator> Executor<'a, E> {
    /// Creates an executor with a private observability bundle (metrics
    /// still accumulate and can be read back via [`Executor::obs`]).
    /// Accesses run against [`SimBackend`] unless
    /// [`Executor::with_backend`] swaps in another world.
    pub fn new(grid: &'a SourceGrid, eval: &'a E, policy: RuntimePolicy) -> Self {
        Executor {
            grid,
            eval,
            policy,
            obs: Obs::new(),
            memo: None,
            backend: Arc::new(SimBackend),
        }
    }

    /// Routes every source access through `backend` instead of the
    /// default deterministic simulator. Real backends report measured
    /// wall latency mapped onto the virtual-time axis, so traces keep
    /// their structure but stop being replayable bit-for-bit.
    pub fn with_backend(mut self, backend: Arc<dyn SourceBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Shares an observability bundle: run metrics land on its registry
    /// and, when its journal is enabled, every run appends plan-lifecycle
    /// events timestamped by the serial virtual clock.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
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

    /// The executor's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Runs the orderer to completion of `budget` (or plan-space
    /// exhaustion), executing plans on `policy.workers` threads.
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
    pub fn run(&self, orderer: &mut dyn PlanOrderer, budget: RunBudget) -> RuntimeRun {
        self.run_observed(orderer, budget, &mut NoopObserver)
    }

    /// [`Executor::run`] with a [`WaveObserver`] hooked into the
    /// coordinator loop (see the trait docs for the callback contract).
    pub fn run_observed(
        &self,
        orderer: &mut dyn PlanOrderer,
        budget: RunBudget,
        observer: &mut dyn WaveObserver,
    ) -> RuntimeRun {
        let workers = self.policy.workers.max(1);
        let lookahead = self.policy.lookahead.max(1);
        let metrics = RunMetrics::registered(&self.obs, self.backend.kind());
        let journal = &self.obs.journal;
        // Fresh trace run id for context propagation; see `RUN_COUNTER`.
        let run = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        if let Some(memo) = &self.memo {
            // Outcomes memoized under an older backend data version are
            // stale before the run even starts.
            memo.sync_backend_epoch(self.backend.epoch());
            memo.begin_run();
        }
        if journal.is_enabled() {
            // Scope marker: `plan_seq` restarts per run, so the validator
            // keys spans by (runs seen, plan_seq). Workers stay out of the
            // fields — they must not change the trace bytes.
            journal.set_clock(0.0);
            journal.record(
                "run_started",
                vec![
                    ("lookahead", Value::U64(lookahead as u64)),
                    ("backend", Value::Str(self.backend.kind().into())),
                ],
            );
            // Catalog-declared expectations for every source the run can
            // touch, so drift detection can be recomputed from the trace
            // alone (qpo-obs::divergence): no catalog needed offline, and
            // the declared values are the same f64s the live monitor sees.
            for svc in self.grid.iter() {
                journal.record(
                    "source_declared",
                    vec![
                        ("source", Value::Str(svc.name.to_string().into())),
                        ("latency", Value::F64(svc.behavior.expected_latency())),
                        (
                            "transient_rate",
                            Value::F64(svc.behavior.transient_failure_rate),
                        ),
                        ("tuples", Value::F64(svc.behavior.expected_tuples)),
                    ],
                );
            }
        }
        crossbeam::thread::scope(|s| {
            let (job_tx, job_rx) = channel::unbounded::<Job>();
            let (done_tx, done_rx) = channel::unbounded::<Completion>();
            for _ in 0..workers {
                let rx = job_rx.clone();
                let tx = done_tx.clone();
                s.spawn(move |_| {
                    while let Ok(job) = rx.recv() {
                        if tx.send(self.execute_job(job)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(job_rx);
            drop(done_tx);

            let mut answers: BTreeSet<Tuple> = BTreeSet::new();
            let mut reports: Vec<PlanExecution> = Vec::new();
            let mut stats = RunStats::default();
            let mut spent = 0.0;
            let mut seq: u64 = 0;
            // The serial virtual clock the journal (and the emission-delay
            // histogram) runs on; see the method docs.
            let mut vclock = 0.0f64;
            loop {
                // Pop the next speculation window. `spent` and the pop
                // count are exact here; `answers` lags by the in-flight
                // window (see module docs).
                let mut window: Vec<OrderedPlan> = Vec::new();
                while window.len() < lookahead
                    && !budget.satisfied(answers.len(), reports.len() + window.len(), spent)
                {
                    let Some(ordered) = orderer.next_plan() else {
                        break;
                    };
                    spent += -ordered.utility;
                    window.push(ordered);
                }
                if window.is_empty() {
                    break;
                }
                // Reuse-aware scheduling: within ε-tie groups of the
                // window, favor plans overlapping the memo. Opt-in, and
                // never across a strict dominance (gap > ε).
                if let (Some(memo), Some(eps)) = (&self.memo, self.policy.reuse_epsilon) {
                    reorder_for_reuse(&mut window, eps, |plan| {
                        plan.iter()
                            .enumerate()
                            .filter(|&(b, &i)| {
                                memo.contains(b, i, self.eval.access_pattern(plan, b))
                            })
                            .count()
                    });
                }
                let in_flight = window.len();
                for ordered in window {
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
                        journal.record_at(
                            vclock,
                            "plan_scheduled",
                            vec![("plan_seq", Value::U64(seq))],
                        );
                    }
                    let resolved =
                        self.resolve_from_memo(seq, &ordered, vclock, &mut stats, &metrics);
                    observer.plan_scheduled(seq, &ordered, vclock);
                    assert!(
                        job_tx
                            .send(Job {
                                seq,
                                run,
                                ordered,
                                resolved,
                            })
                            .is_ok(),
                        "workers outlive the coordinator loop"
                    );
                    seq += 1;
                }
                let mut wave: Vec<Completion> = (0..in_flight)
                    .map(|_| done_rx.recv().expect("workers send one completion per job"))
                    .collect();
                wave.sort_by_key(|c| c.seq);
                stats.virtual_time +=
                    makespan(wave.iter().map(|c| plan_latency(&c.accesses)), workers);
                for completion in wave {
                    let report = self.merge(
                        completion,
                        orderer,
                        &mut answers,
                        &mut stats,
                        &metrics,
                        &mut vclock,
                    );
                    observer.plan_merged(&report, vclock);
                    reports.push(report);
                }
            }
            drop(job_tx);
            metrics.virtual_time.set(stats.virtual_time);
            metrics.fees.set(stats.fees);
            if journal.is_enabled() {
                // End-of-run marker carrying the *serial-clock* makespan
                // (plan latencies summed in emission order) — the quantity
                // profile reconstruction's critical path must bit-equal.
                // `stats.virtual_time` is the lane-scheduled makespan and
                // legitimately varies with the worker count; `vclock` does
                // not. With one worker the two coincide.
                journal.record_at(
                    vclock,
                    "run_finished",
                    vec![
                        ("plans", Value::U64(reports.len() as u64)),
                        ("answers", Value::U64(answers.len() as u64)),
                        ("makespan", Value::F64(vclock)),
                    ],
                );
            }
            RuntimeRun {
                reports,
                answers,
                stats,
            }
        })
        .expect("executor threads do not panic")
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
        vclock: f64,
        stats: &mut RunStats,
        metrics: &RunMetrics,
    ) -> Vec<Option<SourceAccess>> {
        let Some(memo) = &self.memo else {
            return Vec::new();
        };
        let journal = &self.obs.journal;
        ordered
            .plan
            .iter()
            .enumerate()
            .map(|(bucket, &index)| {
                let pattern = self.eval.access_pattern(&ordered.plan, bucket);
                let Some(hit) = memo.lookup(bucket, index, pattern) else {
                    metrics.memo_misses.inc();
                    return None;
                };
                stats.memo_hits += 1;
                metrics.memo_hits.inc();
                let svc = self.grid.service(bucket, index);
                if journal.is_enabled() {
                    journal.record_at(
                        vclock,
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
                Some(replay_access(svc, hit))
            })
            .collect()
    }

    /// Folds one completion into the run, reporting the outcome back to
    /// the orderer, mirroring counters onto the registry, journalling the
    /// plan's lifecycle, and advancing the serial virtual clock.
    fn merge(
        &self,
        completion: Completion,
        orderer: &mut dyn PlanOrderer,
        answers: &mut BTreeSet<Tuple>,
        stats: &mut RunStats,
        metrics: &RunMetrics,
        vclock: &mut f64,
    ) -> PlanExecution {
        let Completion {
            seq,
            ordered,
            sound,
            tuples,
            accesses,
            failure,
            trace,
            backend_errors,
        } = completion;
        let journal = &self.obs.journal;
        let latency = plan_latency(&accesses);
        let fees: f64 = accesses.iter().map(|a| a.fee).sum();
        let backend_kind = self.backend.kind();
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
            self.obs
                .registry
                .histogram(
                    "qpo_runtime_access_latency",
                    &[("source", &a.name), ("backend", backend_kind)],
                )
                .record(a.latency);
        }
        for (class, &count) in metrics.backend_errors.iter().zip(&backend_errors) {
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
        // catalog says those sources should be retried by later plans.
        if let Some(memo) = &self.memo {
            if accesses.iter().any(|a| a.attempts > 0 && !a.ok) {
                memo.invalidate();
            }
            for a in accesses.iter().filter(|a| a.attempts > 0) {
                let outcome = if a.ok {
                    MemoOutcome::Success
                } else if a.permanently_down {
                    MemoOutcome::PermanentFailure
                } else {
                    continue;
                };
                let pattern = self.eval.access_pattern(&ordered.plan, a.bucket);
                memo.store(a.bucket, a.index, pattern, outcome);
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
            if journal.is_enabled() {
                journal.record_at(done, "plan_retracted", vec![("plan_seq", Value::U64(seq))]);
            }
            PlanStatus::Failed(reason)
        } else {
            let total = tuples.len();
            let mut new_tuples = 0;
            for t in tuples {
                if answers.insert(t) {
                    new_tuples += 1;
                }
            }
            metrics.plans_executed.inc();
            metrics.emission_delay.record(done);
            if journal.is_enabled() {
                journal.record_at(
                    done,
                    "plan_completed",
                    vec![
                        ("plan_seq", Value::U64(seq)),
                        ("tuples", Value::U64(total as u64)),
                        ("new_tuples", Value::U64(new_tuples as u64)),
                        ("cumulative", Value::U64(answers.len() as u64)),
                        ("latency", Value::F64(latency)),
                    ],
                );
            }
            orderer.observe(&PlanOutcome::succeeded(&ordered.plan, total));
            PlanStatus::Executed {
                tuples: total,
                new_tuples,
                cumulative: answers.len(),
            }
        };
        *vclock += latency;
        journal.set_clock(*vclock);
        PlanExecution {
            seq,
            ordered,
            status,
            accesses,
            latency,
            fees,
        }
    }

    /// Runs on a worker thread: perform the plan's source accesses
    /// through the backend, then evaluate it if everything succeeded.
    /// Attempt-level trace events are collected here (relative to the
    /// plan's start) and carried back to the coordinator, which is the
    /// only thread that writes the journal.
    fn execute_job(&self, job: Job) -> Completion {
        let Job {
            seq,
            run,
            ordered,
            resolved,
        } = job;
        let tracing = self.obs.journal.is_enabled();
        let mut trace: Vec<AttemptEvent> = Vec::new();
        let sound = self.eval.is_sound(&ordered.plan);
        if !sound {
            return Completion {
                seq,
                ordered,
                sound,
                tuples: Vec::new(),
                accesses: Vec::new(),
                failure: None,
                trace,
                backend_errors: [0, 0],
            };
        }
        let services = self.grid.plan_services(&ordered.plan);
        let mut accesses: Vec<SourceAccess> = Vec::with_capacity(services.len());
        let mut fetched: Vec<Option<Arc<Vec<Tuple>>>> = Vec::with_capacity(accesses.capacity());
        let mut backend_errors = [0u64; 2];
        for (bucket, svc) in services.enumerate() {
            // Slots the coordinator resolved from the memo are replayed
            // as-is: zero attempts, zero latency, zero fee. The memo only
            // vouches for the *outcome*; backend data for the bucket is
            // re-fetched by the evaluator's own cache if it needs rows.
            if let Some(Some(access)) = resolved.get(bucket) {
                accesses.push(access.clone());
                fetched.push(None);
                continue;
            }
            let events = tracing.then_some(&mut trace);
            let outcome = access_with_retries(
                self.backend.as_ref(),
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
        if self.policy.latency_scale > 0.0 {
            let secs = plan_latency(&accesses) * self.policy.latency_scale;
            std::thread::sleep(Duration::from_secs_f64(secs));
        }
        let failure = accesses.iter().find(|a| !a.ok).map(|a| {
            if a.permanently_down {
                FailureReason::PermanentlyDown {
                    source: a.name.clone(),
                }
            } else {
                FailureReason::RetriesExhausted {
                    source: a.name.clone(),
                }
            }
        });
        let tuples = if failure.is_none() {
            self.eval.evaluate(&ordered.plan, &fetched)
        } else {
            Vec::new()
        };
        Completion {
            seq,
            ordered,
            sound,
            tuples,
            accesses,
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

/// The access record a memo hit replays: the terminal outcome with zero
/// attempts, zero latency, and zero fee — the whole point of the memo.
fn replay_access(svc: &SourceService, hit: MemoHit) -> SourceAccess {
    SourceAccess {
        bucket: svc.bucket,
        index: svc.index,
        name: svc.name.to_string(),
        attempts: 0,
        transient_failures: 0,
        latency: 0.0,
        fee: 0.0,
        ok: hit.outcome == MemoOutcome::Success,
        permanently_down: hit.outcome == MemoOutcome::PermanentFailure,
        remote_server: None,
        remote_network: None,
    }
}

/// Reorders one speculation window for memo overlap. Groups are maximal
/// descending-utility prefixes whose members lie within `eps` of the
/// group's best utility; inside a group, plans with a larger `overlap` —
/// the number of their accesses the memo already holds — come first
/// (stable, so exact ties keep the orderer's emission order). Group
/// boundaries — strict dominances — are never crossed.
fn reorder_for_reuse(window: &mut [OrderedPlan], eps: f64, overlap: impl Fn(&[usize]) -> usize) {
    let mut start = 0;
    while start < window.len() {
        let best = window[start].utility;
        let mut end = start + 1;
        while end < window.len() && (best - window[end].utility).abs() <= eps {
            end += 1;
        }
        if end - start > 1 {
            window[start..end].sort_by_key(|p| std::cmp::Reverse(overlap(&p.plan)));
        }
        start = end;
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
        let lane = lanes
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one lane");
        *lane += lat;
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
/// policy's retry discipline, accumulating backoffs and attempt latencies into one
/// virtual-time charge. When `events` is given, every resolved attempt is
/// appended with its plan-relative virtual-time offset and outcome
/// (`ok`/`timeout`/`transient`/`permanent`); attempts behind a typed
/// [`crate::backend::BackendError`] additionally carry its class and
/// message. Backend errors never panic the retry loop: transient ones
/// consume an attempt and back off like simulated transient faults,
/// permanent ones fail the access like a permanently-down source.
fn access_with_retries(
    backend: &dyn SourceBackend,
    svc: &SourceService,
    pattern: &str,
    policy: &RuntimePolicy,
    run: u64,
    seq: u64,
    mut events: Option<&mut Vec<AttemptEvent>>,
) -> ResolvedAccess {
    let retry: &RetryPolicy = &policy.retry;
    let mut latency = 0.0;
    let mut transient_failures = 0u32;
    let mut backend_errors = [0u64; 2];
    let report = |attempts,
                  ok,
                  permanently_down,
                  latency,
                  transient_failures,
                  remote: Option<(f64, f64)>| SourceAccess {
        bucket: svc.bucket,
        index: svc.index,
        name: svc.name.to_string(),
        attempts,
        transient_failures,
        latency,
        fee: if ok { svc.behavior.fee_per_access } else { 0.0 },
        ok,
        permanently_down,
        remote_server: remote.map(|(server, _)| server),
        remote_network: remote.map(|(_, network)| network),
    };
    let mut record = |attempt: u32,
                      offset: f64,
                      backoff: f64,
                      charge: f64,
                      outcome: &'static str,
                      error: Option<(&'static str, String)>,
                      remote: Option<RemoteSpan>| {
        if let Some(events) = events.as_deref_mut() {
            events.push(AttemptEvent {
                source: svc.name.to_string(),
                attempt,
                offset,
                backoff,
                latency: charge,
                outcome,
                error,
                remote,
            });
        }
    };
    for attempt in 0..retry.max_attempts.max(1) {
        let backoff = retry.backoff_before(attempt);
        latency += backoff;
        let ctx = AccessContext {
            pattern,
            run,
            plan_seq: seq,
            attempt,
            faults: &policy.faults,
        };
        let access = match backend.access(svc, &ctx) {
            Ok(reply) => {
                if reply.access.outcome == AccessOutcome::Success
                    && reply.access.latency <= retry.access_timeout
                {
                    let charge = reply.access.latency;
                    latency += charge;
                    record(
                        attempt + 1,
                        latency,
                        backoff,
                        charge,
                        "ok",
                        None,
                        reply.remote,
                    );
                    return ResolvedAccess {
                        access: report(
                            attempt + 1,
                            true,
                            false,
                            latency,
                            transient_failures,
                            reply.remote.map(|r| (r.total, charge - r.total)),
                        ),
                        tuples: reply.tuples,
                        backend_errors,
                    };
                }
                reply.access
            }
            Err(err) => {
                // An infrastructure failure maps onto the simulator's
                // outcome vocabulary — transient consumes an attempt and
                // retries, permanent fails the access — with the typed
                // classification preserved on the attempt event.
                let class = err.class;
                backend_errors[match class {
                    BackendErrorClass::Transient => 0,
                    BackendErrorClass::Permanent => 1,
                }] += 1;
                let charge = err.latency.min(retry.access_timeout);
                let detail = Some((class.label(), err.message));
                match class {
                    BackendErrorClass::Permanent => {
                        latency += charge;
                        record(
                            attempt + 1,
                            latency,
                            backoff,
                            charge,
                            "permanent",
                            detail,
                            None,
                        );
                        return ResolvedAccess {
                            access: report(
                                attempt + 1,
                                false,
                                true,
                                latency,
                                transient_failures,
                                None,
                            ),
                            tuples: None,
                            backend_errors,
                        };
                    }
                    BackendErrorClass::Transient => {
                        latency += charge;
                        record(
                            attempt + 1,
                            latency,
                            backoff,
                            charge,
                            "transient",
                            detail,
                            None,
                        );
                        transient_failures += 1;
                        continue;
                    }
                }
            }
        };
        match access.outcome {
            AccessOutcome::PermanentFailure => {
                record(attempt + 1, latency, backoff, 0.0, "permanent", None, None);
                return ResolvedAccess {
                    access: report(attempt + 1, false, true, latency, transient_failures, None),
                    tuples: None,
                    backend_errors,
                };
            }
            // A success slower than the timeout is indistinguishable from
            // a transient failure to the caller: charge the timeout, retry.
            AccessOutcome::Success | AccessOutcome::TransientFailure => {
                let timed_out = matches!(access.outcome, AccessOutcome::Success);
                let charge = access.latency.min(retry.access_timeout);
                latency += charge;
                record(
                    attempt + 1,
                    latency,
                    backoff,
                    charge,
                    if timed_out { "timeout" } else { "transient" },
                    None,
                    None,
                );
                transient_failures += 1;
            }
        }
    }
    ResolvedAccess {
        access: report(
            retry.max_attempts.max(1),
            false,
            false,
            latency,
            transient_failures,
            None,
        ),
        tuples: None,
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

    /// A toy integration system: a plan's answers are the items in the
    /// intersection of its sources' extents (the join of the coverage
    /// model), one tuple per item.
    struct ToyEval {
        inst: ProblemInstance,
    }

    impl PlanEvaluator for ToyEval {
        fn is_sound(&self, _plan: &[usize]) -> bool {
            true
        }

        fn evaluate(&self, plan: &[usize], _: &[Option<Arc<Vec<Tuple>>>]) -> Vec<Tuple> {
            let stats = self.inst.plan_stats(plan);
            let start = stats.iter().map(|s| s.extent.start).max().unwrap_or(0);
            let end = stats.iter().map(|s| s.extent.end()).min().unwrap_or(0);
            (start..end)
                .map(|x| vec![Constant::Int(x as i64)])
                .collect()
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
        Executor::new(&grid, &eval, policy).run(&mut orderer, budget)
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
                .with_retry(RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::standard()
                })
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
                .with_retry(RetryPolicy {
                    max_attempts: 8,
                    ..RetryPolicy::standard()
                }),
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
        let run = Executor::new(&grid, &eval, policy).run(&mut probe, RunBudget::unbounded());
        assert_eq!(run.failed(), 2, "plans through w1 fail");
        assert_eq!(probe.failures_seen.get(), 2, "each failure observed once");
    }

    fn run_memoized(policy: RuntimePolicy, budget: RunBudget, memo: &SourceMemo) -> RuntimeRun {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let eval = ToyEval { inst: inst.clone() };
        let mut orderer = Pi::new(&inst, &Coverage);
        Executor::new(&grid, &eval, policy)
            .with_source_memo(memo)
            .run(&mut orderer, budget)
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
        // The live failure bumped the epoch, so earlier successes were
        // re-verified at least once afterwards.
        assert!(memo.epoch() >= 1);
    }

    #[test]
    fn exhausted_retries_are_not_memoized() {
        // A transient retries-exhausted failure must not be served from
        // the memo: later plans through the same source retry fresh.
        let faults = FaultConfig::with_seed(99).with_extra_transient_rate(0.3);
        let policy = RuntimePolicy::serial()
            .with_faults(faults)
            .with_retry(RetryPolicy::none());
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
    fn reuse_reordering_stays_within_epsilon_groups() {
        let mk = |plan: Vec<usize>, utility: f64| OrderedPlan { plan, utility };
        let memo = SourceMemo::new();
        memo.store(0, 2, SCAN_PATTERN, MemoOutcome::Success);
        memo.store(1, 1, SCAN_PATTERN, MemoOutcome::Success);
        let mut window = vec![
            mk(vec![0, 0], -1.0),
            mk(vec![2, 1], -1.05), // full overlap, near-tied with the head
            mk(vec![2, 0], -1.08), // half overlap, near-tied with the head
            mk(vec![1, 1], -5.0),  // strictly dominated: must stay last
        ];
        let overlap = |plan: &[usize]| {
            plan.iter()
                .enumerate()
                .filter(|&(b, &i)| memo.contains(b, i, SCAN_PATTERN))
                .count()
        };
        reorder_for_reuse(&mut window, 0.1, overlap);
        let plans: Vec<_> = window.iter().map(|p| p.plan.clone()).collect();
        assert_eq!(
            plans,
            vec![vec![2, 1], vec![2, 0], vec![0, 0], vec![1, 1]],
            "overlap decides within the ε group; dominance is never crossed"
        );
        // Without a tie, order is untouched.
        let mut window = vec![mk(vec![0, 0], -1.0), mk(vec![2, 1], -2.0)];
        reorder_for_reuse(&mut window, 0.1, overlap);
        assert_eq!(window[0].plan, vec![0, 0]);
    }

    #[test]
    fn makespan_schedules_onto_lanes() {
        assert_eq!(makespan([4.0, 3.0, 2.0, 1.0].into_iter(), 1), 10.0);
        assert_eq!(makespan([4.0, 3.0, 2.0, 1.0].into_iter(), 2), 5.0);
        assert_eq!(makespan([4.0, 3.0, 2.0, 1.0].into_iter(), 4), 4.0);
        assert_eq!(makespan(std::iter::empty(), 3), 0.0);
    }

    #[test]
    fn timeout_turns_slow_successes_into_retries() {
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let svc = grid.service(0, 0);
        let policy = RuntimePolicy::serial()
            .with_faults(FaultConfig::with_seed(4))
            .with_retry(RetryPolicy {
                access_timeout: svc.behavior.expected_latency() * 0.9,
                ..RetryPolicy::standard()
            });
        // With the timeout below the expected latency, roughly half of the
        // jittered draws exceed it; over many sequences some access must
        // record a timeout-induced retry.
        let timed_out = (0..50).any(|seq| {
            let a = access_with_retries(&SimBackend, svc, SCAN_PATTERN, &policy, 0, seq, None);
            a.access.transient_failures > 0
        });
        assert!(timed_out);
        // And an infinite timeout on a reliable source never retries.
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
        let expected = policy.retry.backoff_before(1) + policy.retry.backoff_before(2) + 2.0;
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
            .run(&mut orderer, RunBudget::unbounded());
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
