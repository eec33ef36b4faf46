//! Every call into the system under test lives in this file, so a later
//! benchmark change that follows an API change edits one file.
//!
//! Two families: the *driver path* (`serve_plans`, `stream_tuples`,
//! `run_on_backend`, `run_memoized`) is what a client of the mediator
//! calls and what every end-to-end metric is measured on; the *stepwise*
//! functions (`step_*`) replay the same query through the public
//! functions of each layer, one span per call, for the traced pass.

use crate::spans::Spans;
use qpo_anyk::{plan_bound, AnyKMerge};
use qpo_catalog::{Catalog, ProblemInstance, SourceRef};
use qpo_core::{
    utility_cmp, verify_ordering, ByExpectedTuples, Greedy, IDrips, KernelStats, OrderedPlan,
    PlanOrderer, PlanOutcome, Streamer,
};
use qpo_datalog::{
    canonicalize, is_sound_plan, parse_query, ConjunctiveQuery, Constant, Database,
    SourceDescription, Term, Tuple,
};
use qpo_exec::{
    offline_ranked_answers, ranked_join_for_plan, snapshot_relations, BackendRegistry,
    CatalogScorer, ConcurrentRun, ExecutionMemo, Mediator, PlanReport, QuerySession, RankedTuple,
    StopCondition, Strategy,
};
use qpo_interval::Interval;
use qpo_obs::{Obs, ProfileIndex};
use qpo_reformulation::{CacheStats, PreparedQuery, Reformulation};
use qpo_runtime::{
    wire, AccessContext, FaultConfig, MemoOutcome, RuntimePolicy, SimBackend, SourceBackend,
    SourceGrid, StoreBackend, TcpBackend, SCAN_PATTERN,
};
use qpo_utility::{Coverage, ExecutionContext, FailureCost, LinearCost, UtilityMeasure};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

/// The (ordering algorithm, utility measure) pairs the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combo {
    GreedyLinear,
    IDripsFailure,
    StreamerCoverage,
    IDripsCoverage,
}

/// Calls `$body` with `$m` bound to the combo's measure and `$s` to its
/// strategy — the one place the pairs are spelled out.
macro_rules! with_combo {
    ($combo:expr, |$m:ident, $s:ident| $body:expr) => {
        match $combo {
            Combo::GreedyLinear => {
                let ($m, $s) = (&LinearCost, Strategy::Greedy);
                $body
            }
            Combo::IDripsFailure => {
                let ($m, $s) = (&FailureCost::without_caching(), Strategy::IDrips);
                $body
            }
            Combo::StreamerCoverage => {
                let ($m, $s) = (&Coverage, Strategy::Streamer);
                $body
            }
            Combo::IDripsCoverage => {
                let ($m, $s) = (&Coverage, Strategy::IDrips);
                $body
            }
        }
    };
}

/// What the harness measured on one query through the driver path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    /// Text in → stop condition met.
    pub query_ns: u64,
    /// Text in → the caller holds its first answer tuple.
    pub first_answer_ns: u64,
    /// Live source accesses the query made.
    pub accesses: u64,
}

pub fn new_mediator(catalog: Catalog, universe: u64, pool: &[&str]) -> Mediator {
    Mediator::new(catalog, universe, pool)
}

pub fn cache_stats(mediator: &Mediator) -> CacheStats {
    mediator.cache_stats()
}

// ── driver path ────────────────────────────────────────────────────────

/// The serving path: parse, prepare, open a session, pull reports until
/// `max_plans`. `verify` runs after the clock stops.
pub fn serve_plans(
    mediator: &Mediator,
    text: &str,
    combo: Combo,
    max_plans: usize,
    verify: impl FnOnce(&[PlanReport], &BTreeSet<Tuple>) -> Result<(), String>,
) -> Result<Served, String> {
    let start = Instant::now();
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let prepared = mediator.prepare(&query).map_err(|e| e.to_string())?;
    with_combo!(combo, |measure, strategy| {
        let mut session =
            QuerySession::new(mediator, &prepared, measure, strategy).map_err(|e| e.to_string())?;
        let mut reports = Vec::with_capacity(max_plans);
        let mut first_answer_ns = None;
        while reports.len() < max_plans {
            let Some(report) = session.next_report() else {
                break;
            };
            if first_answer_ns.is_none() && report.new_tuples > 0 {
                first_answer_ns = Some(start.elapsed().as_nanos() as u64);
            }
            reports.push(report);
        }
        let query_ns = start.elapsed().as_nanos() as u64;
        let accesses = reports
            .iter()
            .filter(|r| r.sound)
            .map(|r| r.sources.len() as u64)
            .sum::<u64>()
            - session.memo_hits();
        if reports.iter().any(|r| r.soundness_error.is_some()) {
            return Err("a soundness test errored".into());
        }
        verify(&reports, session.answers())?;
        Ok(Served {
            query_ns,
            first_answer_ns: first_answer_ns.ok_or("no plan produced an answer")?,
            accesses,
        })
    })
}

/// The any-k path: pull the globally ranked tuple stream to the `k`-th
/// tuple. Returns the timing plus how many plans the release gate made
/// the session pull.
pub fn stream_tuples(
    mediator: &Mediator,
    text: &str,
    k: usize,
    jitter: f64,
    universe: u64,
    verify: impl FnOnce(&[RankedTuple]) -> Result<(), String>,
) -> Result<(Served, usize), String> {
    let start = Instant::now();
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let prepared = mediator.prepare(&query).map_err(|e| e.to_string())?;
    let mut session = QuerySession::new(mediator, &prepared, &Coverage, Strategy::IDrips)
        .map_err(|e| e.to_string())?
        .with_tuple_scorer(CatalogScorer::new(universe).with_jitter(jitter));
    let mut tuples = Vec::with_capacity(k);
    let mut first_answer_ns = 0;
    while tuples.len() < k {
        let Some(t) = session.next_tuple() else {
            break;
        };
        if tuples.is_empty() {
            first_answer_ns = start.elapsed().as_nanos() as u64;
        }
        tuples.push(t);
    }
    let query_ns = start.elapsed().as_nanos() as u64;
    let plans = session.plans_emitted();
    // Every pulled plan of the star workloads is sound and reads one
    // source per subgoal.
    let accesses = (plans * prepared.instance.query_len()) as u64 - session.memo_hits();
    verify(&tuples)?;
    Ok((
        Served {
            query_ns,
            first_answer_ns,
            accesses,
        },
        plans,
    ))
}

fn checked_run(run: ConcurrentRun) -> Result<ConcurrentRun, String> {
    if run.failed() > 0 || run.runtime.stats.transient_failures > 0 {
        return Err(format!(
            "{} failed plans, {} transient failures",
            run.failed(),
            run.runtime.stats.transient_failures
        ));
    }
    Ok(run)
}

/// The wave-executor path against a registered backend, unbounded.
pub fn run_on_backend(
    mediator: &Mediator,
    label: &str,
    text: &str,
    workers: usize,
    obs: Option<&Obs>,
) -> Result<(Served, ConcurrentRun), String> {
    let start = Instant::now();
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let policy = RuntimePolicy::parallel(workers);
    let stop = StopCondition::unbounded();
    let run = match obs {
        Some(obs) => mediator.run_concurrent_on_observed(
            label,
            &query,
            &LinearCost,
            Strategy::Greedy,
            stop,
            policy,
            obs,
        ),
        None => {
            mediator.run_concurrent_on(label, &query, &LinearCost, Strategy::Greedy, stop, policy)
        }
    }
    .map_err(|e| e.to_string())?;
    let query_ns = start.elapsed().as_nanos() as u64;
    let run = checked_run(run)?;
    let served = Served {
        query_ns,
        first_answer_ns: query_ns,
        accesses: run.runtime.stats.attempts,
    };
    Ok((served, run))
}

/// The wave-executor path with a shared-execution memo on the simulator.
pub fn run_memoized(
    mediator: &Mediator,
    text: &str,
    workers: usize,
    memo: &ExecutionMemo,
    obs: &Obs,
) -> Result<(Served, ConcurrentRun), String> {
    let start = Instant::now();
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let run = mediator
        .run_concurrent_memoized(
            &query,
            &Coverage,
            Strategy::Streamer,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(workers),
            memo,
            obs,
        )
        .map_err(|e| e.to_string())?;
    let query_ns = start.elapsed().as_nanos() as u64;
    let run = checked_run(run)?;
    let served = Served {
        query_ns,
        first_answer_ns: query_ns,
        accesses: run.runtime.stats.attempts,
    };
    Ok((served, run))
}

pub fn fresh_memo(subplan_byte_budget: usize) -> ExecutionMemo {
    let memo = ExecutionMemo::new();
    memo.subplans.set_byte_budget(subplan_byte_budget);
    memo
}

/// `(source-memo hits, source-memo misses, subplan bytes resident)`.
pub fn memo_counters(memo: &ExecutionMemo) -> (u64, u64, usize) {
    (
        memo.sources.hits(),
        memo.sources.misses(),
        memo.subplans.approx_bytes(),
    )
}

pub fn plain_obs() -> Obs {
    Obs::new()
}

pub fn tracing_obs() -> Obs {
    Obs::with_trace()
}

pub fn with_obs(mediator: Mediator, obs: &Obs) -> Mediator {
    mediator.with_obs(obs)
}

/// `(journal events retained, events dropped, ms to rebuild the profile
/// index from the journal)`.
pub fn journal_digest(obs: &Obs) -> (usize, u64, f64) {
    let events = obs.journal.len();
    let start = Instant::now();
    let index = ProfileIndex::from_journal(&obs.journal);
    std::hint::black_box(index.runs().len());
    (
        events,
        obs.journal.dropped(),
        start.elapsed().as_secs_f64() * 1e3,
    )
}

// ── backends ───────────────────────────────────────────────────────────

/// Seeds a fresh store directory with the mediator's extensions — the
/// directory an out-of-process `qpo-source-server --dir` then serves.
pub fn seed_store(mediator: &Mediator, dir: &Path) -> Result<(), String> {
    let store = StoreBackend::open(dir).map_err(|e| format!("open store: {e}"))?;
    for (name, rows) in snapshot_relations(mediator.database()) {
        store
            .put_relation(&name, &rows)
            .map_err(|e| format!("seed {name}: {e}"))?;
    }
    store.flush().map_err(|e| format!("flush store: {e}"))
}

/// Registers a TCP backend for `addr` under `"tcp"`, returning the handle
/// the stepwise replay accesses directly.
pub fn with_tcp_backend(mediator: Mediator, addr: &str) -> (Mediator, Arc<TcpBackend>) {
    let backend = Arc::new(TcpBackend::new(addr));
    let mediator = mediator.with_backends(BackendRegistry::new().with("tcp", backend.clone()));
    (mediator, backend)
}

// ── oracles ────────────────────────────────────────────────────────────

/// The pre-session reference loop on the same query: its emitted
/// ordering and its answers.
pub fn reference_answers(
    mediator: &Mediator,
    text: &str,
    combo: Combo,
    max_plans: Option<usize>,
) -> Result<(Vec<OrderedPlan>, BTreeSet<Tuple>), String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let stop = StopCondition {
        max_plans,
        ..StopCondition::unbounded()
    };
    let run = with_combo!(combo, |measure, strategy| mediator
        .reference_answer_until(&query, measure, strategy, stop))
    .map_err(|e| e.to_string())?;
    let plans = run.reports.into_iter().map(|r| r.ordered).collect();
    Ok((plans, run.answers))
}

/// Definition 2.1 on an emitted coverage ordering.
pub fn check_coverage_ordering(
    mediator: &Mediator,
    text: &str,
    emitted: &[OrderedPlan],
) -> Result<(), String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let prepared = mediator.prepare(&query).map_err(|e| e.to_string())?;
    verify_ordering(&prepared.instance, &Coverage, emitted, 1e-9)
}

/// The exact offline ranked answer list of the query.
pub fn offline_ranked(
    mediator: &Mediator,
    text: &str,
    jitter: f64,
    universe: u64,
) -> Result<Vec<(f64, Tuple)>, String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let prepared = mediator.prepare(&query).map_err(|e| e.to_string())?;
    let scorer = CatalogScorer::new(universe).with_jitter(jitter);
    Ok(offline_ranked_answers(
        mediator.database(),
        &prepared.reformulation,
        &mediator.catalog().view_map(),
        &prepared.instance,
        &scorer,
    ))
}

// ── stepwise replay (traced pass) ──────────────────────────────────────

/// Wall time and call counts of the utility measure under the orderer —
/// the `utility.*` metrics. A counter, not a span: the kernel may
/// evaluate intervals on several threads at once.
#[derive(Debug, Default)]
pub struct MeasureTimes {
    pub interval_ns: AtomicU64,
    pub interval_calls: AtomicU64,
    pub concrete_ns: AtomicU64,
    pub concrete_calls: AtomicU64,
}

struct TimedMeasure<'a, M> {
    inner: &'a M,
    times: &'a MeasureTimes,
}

impl<M: UtilityMeasure> UtilityMeasure for TimedMeasure<'_, M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        let start = Instant::now();
        let u = self.inner.utility(inst, plan, ctx);
        let ns = start.elapsed().as_nanos() as u64;
        self.times
            .concrete_ns
            .fetch_add(ns, AtomicOrdering::Relaxed);
        self.times
            .concrete_calls
            .fetch_add(1, AtomicOrdering::Relaxed);
        u
    }
    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        let start = Instant::now();
        let i = self.inner.utility_interval(inst, candidates, ctx);
        let ns = start.elapsed().as_nanos() as u64;
        self.times
            .interval_ns
            .fetch_add(ns, AtomicOrdering::Relaxed);
        self.times
            .interval_calls
            .fetch_add(1, AtomicOrdering::Relaxed);
        i
    }
    fn diminishing_returns(&self) -> bool {
        self.inner.diminishing_returns()
    }
    fn context_free(&self) -> bool {
        self.inner.context_free()
    }
    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        self.inner.monotone_subgoals(inst)
    }
    fn source_preference(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        self.inner.source_preference(inst, source)
    }
    fn independent(&self, inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        self.inner.independent(inst, p, q)
    }
    fn all_independent(&self, inst: &ProblemInstance, c: &[Vec<usize>], d: &[usize]) -> bool {
        self.inner.all_independent(inst, c, d)
    }
    fn exists_independent(
        &self,
        inst: &ProblemInstance,
        c: &[Vec<usize>],
        executed: &[Vec<usize>],
    ) -> bool {
        self.inner.exists_independent(inst, c, executed)
    }
}

/// The orderer a strategy prescribes, kept concrete so the kernel's
/// counters stay readable (the mediator's own `build_orderer` boxes it).
enum StepOrderer<'a, M: UtilityMeasure> {
    Greedy(Greedy<'a, M>),
    IDrips(IDrips<'a, M, ByExpectedTuples>),
    Streamer(Streamer<'a, M>),
}

impl<'a, M: UtilityMeasure> StepOrderer<'a, M> {
    fn build(
        inst: &'a ProblemInstance,
        measure: &'a M,
        strategy: Strategy,
    ) -> Result<Self, String> {
        Ok(match strategy {
            Strategy::Greedy => {
                StepOrderer::Greedy(Greedy::new(inst, measure).map_err(|e| e.to_string())?)
            }
            Strategy::IDrips => StepOrderer::IDrips(IDrips::new(inst, measure, ByExpectedTuples)),
            Strategy::Streamer => StepOrderer::Streamer(
                Streamer::new(inst, measure, &ByExpectedTuples).map_err(|e| e.to_string())?,
            ),
            Strategy::Pi => return Err("the benchmark does not drive Pi".into()),
        })
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        match self {
            StepOrderer::Greedy(o) => o.next_plan(),
            StepOrderer::IDrips(o) => o.next_plan(),
            StepOrderer::Streamer(o) => o.next_plan(),
        }
    }

    fn observe(&mut self, outcome: &PlanOutcome) {
        match self {
            StepOrderer::Greedy(o) => o.observe(outcome),
            StepOrderer::IDrips(o) => o.observe(outcome),
            StepOrderer::Streamer(o) => o.observe(outcome),
        }
    }

    fn kernel_stats(&self) -> KernelStats {
        match self {
            StepOrderer::IDrips(o) => o.kernel_stats(),
            _ => KernelStats::default(),
        }
    }
}

/// Counts the stepwise replay takes at the layer boundaries, summed over
/// the traced pass.
#[derive(Debug, Default)]
pub struct StepTotals {
    pub measure: MeasureTimes,
    pub plans: u64,
    pub plan_space: u64,
    pub soundness_checks: u64,
    pub evaluated_plans: u64,
    /// Source rows fed into plan joins / tuples the joins returned.
    pub rows_in: u64,
    pub rows_out: u64,
    pub kernel: KernelStats,
    /// Backend accesses: rows and useful rows (matching the subgoal's
    /// constants) shipped, reply sizes on the wire, last server sequence.
    pub accesses: u64,
    pub access_rows: u64,
    pub access_useful_rows: u64,
    pub wire_bytes: u64,
    pub wire_encode_ns: u64,
    pub wire_decode_ns: u64,
    pub server_requests: u64,
    pub memo_lookups: u64,
    pub memo_hits: u64,
    pub subplans_reused: u64,
    pub canonical_ns: u64,
    /// Any-k: plans attached when the first / the last tuple came out.
    pub plans_before_first_tuple: u64,
    pub plans_attached: u64,
}

impl StepTotals {
    fn add_kernel(&mut self, k: KernelStats) {
        let t = &mut self.kernel;
        t.rounds += k.rounds;
        t.refinements += k.refinements;
        t.dominance_checks += k.dominance_checks;
        t.eliminations += k.eliminations;
        t.champion_sweeps += k.champion_sweeps;
        t.interval_evals += k.interval_evals;
        t.interval_cache_hits += k.interval_cache_hits;
        t.tree_builds += k.tree_builds;
        t.tree_cache_hits += k.tree_cache_hits;
        t.parallel_batches += k.parallel_batches;
    }
}

/// Parse, canonicalisation probe and prepare — the shared head of every
/// stepwise query. The probe runs before the root span opens (prepare
/// canonicalises again internally, inside its own span).
fn step_prepare(
    spans: &mut Spans,
    mediator: &Mediator,
    text: &str,
    totals: &mut StepTotals,
) -> Result<Arc<PreparedQuery>, String> {
    let query = spans
        .time("datalog", "parse", || parse_query(text))
        .map_err(|e| e.to_string())?;
    let misses = mediator.cache_stats().misses;
    let prepared = spans
        .time("reformulation", "prepare_warm", || mediator.prepare(&query))
        .map_err(|e| e.to_string())?;
    if mediator.cache_stats().misses > misses {
        spans.rename_last("prepare_cold");
    }
    totals.plan_space += prepared.plan_count() as u64;
    Ok(prepared)
}

/// Times `canonicalize` on the query text's parse, outside any query
/// root.
pub fn probe_canonical(text: &str, totals: &mut StepTotals) -> Result<(), String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let start = Instant::now();
    std::hint::black_box(canonicalize(&query));
    totals.canonical_ns += start.elapsed().as_nanos() as u64;
    Ok(())
}

/// Materialises an emitted plan and runs the soundness test on it: the
/// plan's query, its source names in bucket order, and whether it is
/// sound.
fn step_materialize(
    spans: &mut Spans,
    reform: &Reformulation,
    view_map: &BTreeMap<Arc<str>, SourceDescription>,
    plan: &[usize],
) -> Result<(ConjunctiveQuery, Vec<String>, bool), String> {
    let (plan_query, sources) = spans.time("reformulation", "plan_query", || {
        (reform.plan_query(plan), reform.plan_sources(plan))
    });
    let sound = spans
        .time("datalog", "soundness", || {
            is_sound_plan(&plan_query, view_map, &reform.query)
        })
        .map_err(|e| e.to_string())?;
    Ok((plan_query, sources, sound))
}

fn source_rows(db: &Database, sources: &[String]) -> u64 {
    sources.iter().map(|s| db.cardinality(s) as u64).sum()
}

/// What [`step_plans`] hands back: the emitted ordering, the answers and
/// the first plan's sources.
pub type SteppedPlans = (Vec<OrderedPlan>, BTreeSet<Tuple>, Vec<String>);

/// The session path, call by call: orderer construction, `next_plan`,
/// plan materialisation, the soundness test, plan evaluation, feedback.
pub fn step_plans(
    spans: &mut Spans,
    mediator: &Mediator,
    text: &str,
    combo: Combo,
    max_plans: usize,
    totals: &mut StepTotals,
) -> Result<SteppedPlans, String> {
    probe_canonical(text, totals)?;
    spans.begin_query();
    let out = (|| {
        let prepared = step_prepare(spans, mediator, text, totals)?;
        let reform = &prepared.reformulation;
        let db = mediator.database();
        with_combo!(combo, |measure, strategy| {
            let timed = TimedMeasure {
                inner: measure,
                times: &totals.measure,
            };
            let mut orderer = spans.time("core", "orderer_build", || {
                StepOrderer::build(&prepared.instance, &timed, strategy)
            })?;
            let view_map = spans.time("catalog", "view_map", || mediator.catalog().view_map());
            let mut emitted = Vec::with_capacity(max_plans);
            let mut answers = BTreeSet::new();
            let mut first_sources = Vec::new();
            let (mut evaluated, mut rows_in, mut rows_out) = (0, 0, 0);
            while emitted.len() < max_plans {
                let Some(ordered) = spans.time("core", "next_plan", || orderer.next_plan()) else {
                    break;
                };
                let (plan_query, sources, sound) =
                    step_materialize(spans, reform, &view_map, &ordered.plan)?;
                if sound {
                    let tuples = spans.time("datalog", "eval", || db.evaluate(&plan_query));
                    evaluated += 1;
                    rows_in += source_rows(db, &sources);
                    rows_out += tuples.len() as u64;
                    let produced = tuples.len();
                    spans.time("exec", "union", || answers.extend(tuples));
                    spans.time("core", "observe", || {
                        orderer.observe(&PlanOutcome::succeeded(&ordered.plan, produced))
                    });
                }
                if emitted.is_empty() {
                    first_sources = sources;
                }
                emitted.push(ordered);
            }
            let kernel = orderer.kernel_stats();
            Ok::<_, String>((
                emitted,
                answers,
                first_sources,
                kernel,
                evaluated,
                rows_in,
                rows_out,
            ))
        })
    })();
    spans.end_query();
    let (emitted, answers, first_sources, kernel, evaluated, rows_in, rows_out) = out?;
    totals.add_kernel(kernel);
    totals.plans += emitted.len() as u64;
    totals.soundness_checks += emitted.len() as u64;
    totals.evaluated_plans += evaluated;
    totals.rows_in += rows_in;
    totals.rows_out += rows_out;
    Ok((emitted, answers, first_sources))
}

/// The any-k path, call by call: the release gate of
/// `QuerySession::next_tuple` rebuilt from `plan_bound`, `AnyKMerge` and
/// `ranked_join_for_plan`.
pub fn step_tuples(
    spans: &mut Spans,
    mediator: &Mediator,
    text: &str,
    k: usize,
    jitter: f64,
    universe: u64,
    totals: &mut StepTotals,
) -> Result<Vec<RankedTuple>, String> {
    probe_canonical(text, totals)?;
    spans.begin_query();
    let out = (|| {
        let prepared = step_prepare(spans, mediator, text, totals)?;
        let reform = &prepared.reformulation;
        let inst = &prepared.instance;
        let db = mediator.database();
        let timed = TimedMeasure {
            inner: &Coverage,
            times: &totals.measure,
        };
        let mut orderer = spans.time("core", "orderer_build", || {
            StepOrderer::build(inst, &timed, Strategy::IDrips)
        })?;
        let view_map = spans.time("catalog", "view_map", || mediator.catalog().view_map());
        let scorer = CatalogScorer::new(universe).with_jitter(jitter);
        let mut remaining: BTreeMap<Vec<usize>, f64> = spans.time("anyk", "plan_bounds", || {
            inst.all_plans()
                .into_iter()
                .map(|p| {
                    let b = plan_bound(&scorer, inst, &p);
                    (p, b)
                })
                .collect()
        });
        let mut merge = AnyKMerge::new();
        let mut delivered: Vec<RankedTuple> = Vec::with_capacity(k);
        let (mut attached, mut before_first) = (0u64, 0u64);
        let (mut evaluated, mut rows_in, mut rows_out) = (0, 0, 0);
        while delivered.len() < k {
            let bound = spans.time("anyk", "gate_bound", || {
                remaining.values().copied().reduce(|a, b| {
                    if utility_cmp(b, a) == Ordering::Greater {
                        b
                    } else {
                        a
                    }
                })
            });
            if let Some(t) = spans.time("anyk", "next_tuple", || merge.next_within(bound)) {
                if delivered.is_empty() {
                    before_first = attached;
                }
                delivered.push(t);
                continue;
            }
            if bound.is_none() {
                break;
            }
            let Some(ordered) = spans.time("core", "next_plan", || orderer.next_plan()) else {
                remaining.clear();
                continue;
            };
            let (plan_query, sources, sound) =
                step_materialize(spans, reform, &view_map, &ordered.plan)?;
            let mut produced = 0;
            if sound {
                let tuples = spans.time("datalog", "eval", || db.evaluate(&plan_query));
                evaluated += 1;
                rows_in += source_rows(db, &sources);
                rows_out += tuples.len() as u64;
                produced = tuples.len();
            }
            remaining.remove(&ordered.plan);
            let stream = spans.time("anyk", "ranked_join_build", || {
                ranked_join_for_plan(db, reform, inst, &scorer, &ordered.plan)
            });
            spans.time("anyk", "attach", || {
                merge.attach(attached, ordered.plan.clone(), Box::new(stream))
            });
            if sound {
                spans.time("core", "observe", || {
                    orderer.observe(&PlanOutcome::succeeded(&ordered.plan, produced))
                });
            } else {
                merge.evict(attached);
            }
            attached += 1;
        }
        let kernel = orderer.kernel_stats();
        Ok::<_, String>((
            delivered,
            attached,
            before_first,
            kernel,
            evaluated,
            rows_in,
            rows_out,
        ))
    })();
    spans.end_query();
    let (delivered, attached, before_first, kernel, evaluated, rows_in, rows_out) = out?;
    totals.add_kernel(kernel);
    totals.plans += attached;
    totals.soundness_checks += attached;
    totals.evaluated_plans += evaluated;
    totals.rows_in += rows_in;
    totals.rows_out += rows_out;
    totals.plans_attached += attached;
    totals.plans_before_first_tuple += before_first;
    Ok(delivered)
}

/// Rows of `rows` that satisfy the constants of subgoal `atom`.
fn useful_rows(atom: &qpo_datalog::Atom, rows: &[Tuple]) -> u64 {
    let constants: Vec<(usize, &Constant)> = atom
        .terms
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match t {
            Term::Const(c) => Some((i, c)),
            Term::Var(_) => None,
        })
        .collect();
    rows.iter()
        .filter(|row| constants.iter().all(|(i, c)| row.get(*i) == Some(*c)))
        .count() as u64
}

/// The executor path against a data-serving backend, call by call at one
/// worker: one `SourceBackend::access` per source of every sound plan,
/// the overlay the evaluator joins, and the join itself.
pub fn step_backend(
    spans: &mut Spans,
    mediator: &Mediator,
    backend: &dyn SourceBackend,
    text: &str,
    totals: &mut StepTotals,
) -> Result<BTreeSet<Tuple>, String> {
    probe_canonical(text, totals)?;
    let faults = FaultConfig::disabled();
    let mut shipped: Vec<(qpo_datalog::Atom, String, Arc<Vec<Tuple>>)> = Vec::new();
    spans.begin_query();
    let out = (|| {
        let prepared = step_prepare(spans, mediator, text, totals)?;
        let reform = &prepared.reformulation;
        let timed = TimedMeasure {
            inner: &LinearCost,
            times: &totals.measure,
        };
        let mut orderer = spans.time("core", "orderer_build", || {
            StepOrderer::build(&prepared.instance, &timed, Strategy::Greedy)
        })?;
        let view_map = spans.time("catalog", "view_map", || mediator.catalog().view_map());
        let grid = spans.time("runtime", "source_grid", || {
            SourceGrid::from_instance(&prepared.instance)
        });
        let mut answers = BTreeSet::new();
        let (mut plans, mut evaluated, mut rows_in, mut rows_out) = (0u64, 0, 0, 0);
        let mut last_server_seq = 0;
        while let Some(ordered) = spans.time("core", "next_plan", || orderer.next_plan()) {
            let (plan_query, sources, sound) =
                step_materialize(spans, reform, &view_map, &ordered.plan)?;
            plans += 1;
            if !sound {
                continue;
            }
            let mut fetched = Vec::with_capacity(ordered.plan.len());
            for (bucket, &index) in ordered.plan.iter().enumerate() {
                let ctx = AccessContext {
                    pattern: SCAN_PATTERN,
                    run: 0,
                    plan_seq: plans - 1,
                    attempt: 0,
                    faults: &faults,
                };
                let reply = spans
                    .time("runtime", "backend_access", || {
                        backend.access(grid.service(bucket, index), &ctx)
                    })
                    .map_err(|e| e.to_string())?;
                if let Some(remote) = reply.remote {
                    last_server_seq = remote.server_seq;
                }
                fetched.push(reply.tuples.ok_or("backend served no rows")?);
            }
            let overlay = spans.time("exec", "overlay", || {
                let mut overlay = Database::new();
                for (name, rows) in sources.iter().zip(&fetched) {
                    for t in rows.iter() {
                        overlay.insert(name, t.clone());
                    }
                }
                overlay
            });
            let tuples = spans.time("datalog", "eval", || overlay.evaluate(&plan_query));
            evaluated += 1;
            rows_in += fetched.iter().map(|r| r.len() as u64).sum::<u64>();
            rows_out += tuples.len() as u64;
            let produced = tuples.len();
            spans.time("exec", "union", || answers.extend(tuples));
            spans.time("core", "observe", || {
                orderer.observe(&PlanOutcome::succeeded(&ordered.plan, produced))
            });
            for ((atom, name), rows) in plan_query.body.iter().zip(&sources).zip(fetched) {
                shipped.push((atom.clone(), name.clone(), rows));
            }
        }
        Ok::<_, String>((
            answers,
            plans,
            evaluated,
            rows_in,
            rows_out,
            last_server_seq,
        ))
    })();
    spans.end_query();
    let (answers, plans, evaluated, rows_in, rows_out, last_server_seq) = out?;
    totals.plans += plans;
    totals.soundness_checks += plans;
    totals.evaluated_plans += evaluated;
    totals.rows_in += rows_in;
    totals.rows_out += rows_out;
    totals.server_requests = totals.server_requests.max(last_server_seq);
    // Bookkeeping on the shipped rows happens after the root span closed.
    for (atom, name, rows) in &shipped {
        totals.accesses += 1;
        totals.access_rows += rows.len() as u64;
        totals.access_useful_rows += useful_rows(atom, rows);
        let start = Instant::now();
        let bytes = wire::encode_relation(name, rows).map_err(|e| e.to_string())?;
        let encoded = Instant::now();
        std::hint::black_box(wire::decode_relation(&bytes).map_err(|e| e.to_string())?);
        totals.wire_bytes += bytes.len() as u64;
        totals.wire_encode_ns += (encoded - start).as_nanos() as u64;
        totals.wire_decode_ns += encoded.elapsed().as_nanos() as u64;
    }
    Ok(answers)
}

/// The memoized executor path on the simulator, call by call at one
/// worker: source-memo lookups and stores around each access, subplan
/// lookup, seeded evaluation, prefix promotion.
pub fn step_memoized(
    spans: &mut Spans,
    mediator: &Mediator,
    text: &str,
    memo: &ExecutionMemo,
    totals: &mut StepTotals,
) -> Result<BTreeSet<Tuple>, String> {
    probe_canonical(text, totals)?;
    let faults = FaultConfig::disabled();
    spans.begin_query();
    let out = (|| {
        let prepared = step_prepare(spans, mediator, text, totals)?;
        let reform = &prepared.reformulation;
        let db = mediator.database();
        let timed = TimedMeasure {
            inner: &Coverage,
            times: &totals.measure,
        };
        let mut orderer = spans.time("core", "orderer_build", || {
            StepOrderer::build(&prepared.instance, &timed, Strategy::Streamer)
        })?;
        let view_map = spans.time("catalog", "view_map", || mediator.catalog().view_map());
        let grid = spans.time("runtime", "source_grid", || {
            SourceGrid::from_instance(&prepared.instance)
        });
        spans.time("runtime", "memo_begin_run", || {
            memo.sources.begin_run();
            memo.sources.sync_backend_epoch(SimBackend.epoch());
        });
        let mut answers = BTreeSet::new();
        let (mut plans, mut evaluated, mut rows_in, mut rows_out) = (0u64, 0, 0, 0);
        let (mut accesses, mut lookups, mut hits, mut reused) = (0, 0, 0, 0);
        while let Some(ordered) = spans.time("core", "next_plan", || orderer.next_plan()) {
            let (plan_query, sources, sound) =
                step_materialize(spans, reform, &view_map, &ordered.plan)?;
            plans += 1;
            if !sound {
                continue;
            }
            for (bucket, &index) in ordered.plan.iter().enumerate() {
                lookups += 1;
                let hit = spans.time("runtime", "memo_lookup", || {
                    memo.sources.lookup(bucket, index, SCAN_PATTERN)
                });
                if hit.is_some() {
                    hits += 1;
                    continue;
                }
                let ctx = AccessContext {
                    pattern: SCAN_PATTERN,
                    run: 0,
                    plan_seq: plans - 1,
                    attempt: 0,
                    faults: &faults,
                };
                spans
                    .time("runtime", "backend_access", || {
                        SimBackend.access(grid.service(bucket, index), &ctx)
                    })
                    .map_err(|e| e.to_string())?;
                accesses += 1;
                spans.time("runtime", "memo_store", || {
                    memo.sources
                        .store(bucket, index, SCAN_PATTERN, MemoOutcome::Success)
                });
            }
            let seed = spans.time("exec", "subplan_lookup", || {
                memo.subplans.longest_prefix(&plan_query)
            });
            reused += u64::from(seed.is_some());
            let (tuples, captured) = spans.time("datalog", "eval", || {
                db.evaluate_seeded(&plan_query, seed.as_ref())
            });
            spans.time("exec", "subplan_store", || {
                memo.subplans.store_all(&plan_query, &captured)
            });
            evaluated += 1;
            rows_in += source_rows(db, &sources);
            rows_out += tuples.len() as u64;
            let produced = tuples.len();
            spans.time("exec", "union", || answers.extend(tuples));
            spans.time("core", "observe", || {
                orderer.observe(&PlanOutcome::succeeded(&ordered.plan, produced))
            });
        }
        Ok::<_, String>((
            answers, plans, evaluated, rows_in, rows_out, accesses, lookups, hits, reused,
        ))
    })();
    spans.end_query();
    let (answers, plans, evaluated, rows_in, rows_out, accesses, lookups, hits, reused) = out?;
    totals.plans += plans;
    totals.soundness_checks += plans;
    totals.evaluated_plans += evaluated;
    totals.rows_in += rows_in;
    totals.rows_out += rows_out;
    totals.accesses += accesses;
    totals.memo_lookups += lookups;
    totals.memo_hits += hits;
    totals.subplans_reused += reused;
    Ok(answers)
}
