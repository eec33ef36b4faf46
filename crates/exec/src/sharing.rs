//! Cross-plan shared execution: the session-scoped [`ExecutionMemo`]
//! bundling the runtime's source-access memo, a partial-join (subplan)
//! memo, and the any-k level cache.
//!
//! Reformulated plans overlap heavily: plans agree on a prefix of bucket
//! choices whenever they pick the same sources for the leading buckets,
//! and every plan touching source `(b, i)` repeats the same simulated
//! remote access. A memoized run exploits all three kinds of overlap:
//!
//! - **source accesses** — [`qpo_runtime::SourceMemo`] replays each
//!   `(bucket, index, pattern)` outcome after its first live access
//!   (including deterministic permanent failures; transient exhaustion is
//!   never cached, so retryable plans are never masked);
//! - **partial joins** — [`SubplanMemo`] keys materialized intermediate
//!   rows by the *canonicalized atom prefix* of the plan's conjunctive
//!   query (bucket-entry atoms carry unique variable prefixes, so the
//!   rendered prefix is a faithful hash-consed identity). A later plan
//!   sharing a prefix seeds its pipelined join from the longest match via
//!   [`qpo_datalog::Database::evaluate_seeded`], which is bit-identical
//!   to the unseeded evaluation;
//! - **ranked levels** — [`qpo_anyk::LevelCache`] shares the per-atom
//!   scored levels of any-k enumerators across plans choosing the same
//!   source for a bucket.
//!
//! All memo consultation and promotion happens on the executor's
//! coordinator thread — lookups at `plan_scheduled` (pop order),
//! promotions at `plan_merged` (emission order) — so memoized runs remain
//! bit-identical across worker counts, and the journal events
//! (`memo_hit`, `memo_store`, `subplan_reused`) land on the serial
//! virtual clock inside their plan's span.

use crate::concurrent::{ConcurrentRun, MediatorEvaluator};
use crate::mediator::{
    build_orderer_observed, Mediator, MediatorError, PlanReport, StopCondition, Strategy,
};
use qpo_anyk::LevelCache;
use qpo_core::OrderedPlan;
use qpo_datalog::{
    is_sound_plan, ConjunctiveQuery, Database, JoinPrefix, SourceDescription, Tuple,
};
use qpo_obs::{Counter, Gauge, Obs, Value};
use qpo_reformulation::Reformulation;
use qpo_runtime::{
    Executor, PlanEvaluator, PlanExecution, RuntimePolicy, SourceHealth, SourceMemo, WaveObserver,
};
use qpo_utility::UtilityMeasure;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// The canonical identity of a plan-query prefix: the first `len` body
/// atoms rendered in order. Bucket-entry atoms embed a unique
/// `_B{bucket}n{entry}a{pos}_` variable prefix, so two plans share a
/// rendered prefix exactly when they made the same source choices for
/// those buckets — the hash-consing invariant the memo relies on.
fn prefix_key(query: &ConjunctiveQuery, len: usize) -> String {
    let mut key = String::new();
    for (i, atom) in query.body.iter().take(len).enumerate() {
        if i > 0 {
            key.push('&');
        }
        let _ = std::fmt::Write::write_fmt(&mut key, format_args!("{atom}"));
    }
    key
}

#[derive(Debug)]
struct SubplanInner {
    entries: BTreeMap<Arc<str>, JoinPrefix>,
    hits: u64,
    misses: u64,
    stores: u64,
    /// Running byte total, maintained at store time so [`SubplanMemo::approx_bytes`]
    /// is O(1) — it is polled after every plan merge for the gauge.
    bytes: usize,
    /// Retention cap: stores that would push `bytes` past this are
    /// refused (the lookup side just misses). Promotion happens in
    /// emission order on the coordinator, so which prefixes land under
    /// the budget is deterministic.
    byte_budget: usize,
    /// Backend data version the cached prefixes were joined from; see
    /// [`SubplanMemo::sync_backend_epoch`].
    backend_epoch: u64,
}

impl Default for SubplanInner {
    fn default() -> Self {
        SubplanInner {
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            stores: 0,
            bytes: 0,
            byte_budget: SubplanMemo::DEFAULT_BYTE_BUDGET,
            backend_epoch: 0,
        }
    }
}

/// A session-scoped memo of materialized partial-join results, keyed by
/// the hash-consed atom-prefix of the plan's conjunctive query. Cloning
/// shares the store ([`Arc`] internals).
#[derive(Debug, Clone, Default)]
pub struct SubplanMemo {
    inner: Arc<Mutex<SubplanInner>>,
}

impl SubplanMemo {
    /// Default retention cap: generous enough that realistic mediator
    /// sessions never hit it, small enough that a join-heavy workload
    /// cannot pin an unbounded share of the heap (materialized prefixes
    /// are only ever a cache — refusing a store costs a future seed, not
    /// correctness).
    pub const DEFAULT_BYTE_BUDGET: usize = 256 * 1024 * 1024;

    /// Creates an empty memo.
    pub fn new() -> Self {
        SubplanMemo::default()
    }

    /// Caps the approximate bytes of retained rows. Stores that would
    /// exceed the cap are refused; existing entries are kept. Applies to
    /// every clone (the store is shared).
    pub fn set_byte_budget(&self, bytes: usize) {
        self.lock().byte_budget = bytes;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SubplanInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Declares the data version
    /// ([`SourceBackend::epoch`](qpo_runtime::SourceBackend::epoch)) of
    /// the backend whose rows the prefixes are joined from. A changed
    /// epoch drops every cached prefix: it materializes rows of a world
    /// the backend no longer serves, and seeding from it would answer
    /// from that world.
    pub fn sync_backend_epoch(&self, epoch: u64) {
        let mut inner = self.lock();
        if inner.backend_epoch != epoch {
            inner.backend_epoch = epoch;
            inner.entries.clear();
            inner.bytes = 0;
        }
    }

    /// The longest already-computed prefix of `query`'s body, if any.
    /// Counts one hit or one miss per call (lookup granularity, not
    /// per-length probes). The returned [`JoinPrefix`] shares its rows
    /// with the memo ([`Arc`]), so the clone is cheap.
    pub fn longest_prefix(&self, query: &ConjunctiveQuery) -> Option<JoinPrefix> {
        let mut inner = self.lock();
        for len in (1..=query.body.len()).rev() {
            let key = prefix_key(query, len);
            if let Some(p) = inner.entries.get(key.as_str()) {
                let found = p.clone();
                inner.hits += 1;
                return Some(found);
            }
        }
        inner.misses += 1;
        None
    }

    /// Promotes every captured prefix of one evaluated plan into the
    /// memo. Existing entries are kept (first write wins — all writers
    /// compute identical rows for a given key, so this is only an
    /// allocation-reuse choice), and stores past the byte budget are
    /// refused.
    pub fn store_all(&self, query: &ConjunctiveQuery, prefixes: &[JoinPrefix]) {
        let mut inner = self.lock();
        for p in prefixes {
            let key: Arc<str> = prefix_key(query, p.len).into();
            if inner.entries.contains_key(&key) {
                continue;
            }
            let cost = key.len() + p.approx_bytes();
            if inner.bytes + cost > inner.byte_budget {
                continue;
            }
            inner.bytes += cost;
            inner.entries.insert(key, p.clone());
            inner.stores += 1;
        }
    }

    /// Prefix lookups that found a match.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Prefix lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Prefixes promoted into the memo.
    pub fn stores(&self) -> u64 {
        self.lock().stores
    }

    /// Number of cached prefixes.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Approximate resident bytes (keys plus materialized rows).
    /// Maintained incrementally at store time, so polling it per plan
    /// merge costs nothing.
    pub fn approx_bytes(&self) -> usize {
        self.lock().bytes
    }
}

/// The session-scoped shared-execution state: one memo per layer, all
/// cheap to clone (clones share the stores). Scope one `ExecutionMemo`
/// to one mediator and one tuple-scoring configuration — the level cache
/// assumes every run sharing it scores tuples identically, and the
/// source memo assumes one source grid and fault seed.
#[derive(Debug, Clone, Default)]
pub struct ExecutionMemo {
    /// Source-access outcomes, consulted by the concurrent runtime.
    pub sources: SourceMemo,
    /// Materialized partial-join results, keyed by atom prefix.
    pub subplans: SubplanMemo,
    /// Scored any-k levels, shared across plans and runs.
    pub levels: LevelCache,
}

impl ExecutionMemo {
    /// Creates an empty memo bundle.
    pub fn new() -> Self {
        ExecutionMemo::default()
    }

    /// Approximate resident bytes across all three layers.
    pub fn approx_bytes(&self) -> usize {
        self.sources.approx_bytes() + self.subplans.approx_bytes() + self.levels.approx_bytes()
    }

    /// Declares the data version of the backend the memoized work came
    /// from: when it moved, the source memo drops outcomes observed under
    /// the old one and the subplan memo drops its prefixes. (The level
    /// cache ranks over the static extensions, which have no epoch.)
    pub fn sync_backend_epoch(&self, epoch: u64) {
        self.sources.sync_backend_epoch(epoch);
        self.subplans.sync_backend_epoch(epoch);
    }
}

/// [`crate::mediator::execute_plan`] with partial-join reuse: sound plans
/// seed their pipelined join from the longest memoized atom-prefix and
/// promote every newly materialized prefix back into the memo. Returns
/// the report plus the reused prefix length (`None` on a memo miss or an
/// unsound plan). Seeded evaluation is bit-identical to unseeded, so the
/// report matches the unmemoized step exactly.
pub(crate) fn execute_plan_memoized(
    reform: &Reformulation,
    view_map: &BTreeMap<Arc<str>, SourceDescription>,
    db: &Database,
    answers: &mut BTreeSet<Tuple>,
    ordered: OrderedPlan,
    memo: &ExecutionMemo,
) -> (PlanReport, Option<usize>) {
    let plan_query = reform.plan_query(&ordered.plan);
    let sources = reform.plan_sources(&ordered.plan);
    let (sound, soundness_error) = match is_sound_plan(&plan_query, view_map, &reform.query) {
        Ok(verdict) => (verdict, None),
        Err(e) => (false, Some(e)),
    };
    let mut new_tuples = 0;
    let mut reused = None;
    if sound {
        let seed = memo.subplans.longest_prefix(&plan_query);
        reused = seed.as_ref().map(|p| p.len);
        let (tuples, captured) = db.evaluate_seeded(&plan_query, seed.as_ref());
        memo.subplans.store_all(&plan_query, &captured);
        for t in tuples {
            if answers.insert(t) {
                new_tuples += 1;
            }
        }
    }
    (
        PlanReport {
            ordered,
            sources,
            query: plan_query,
            sound,
            soundness_error,
            new_tuples,
            cumulative: answers.len(),
        },
        reused,
    )
}

/// Coordinator↔worker handoff for the concurrent memoized path: seeds
/// are stashed at `plan_scheduled` (coordinator, pop order) and consumed
/// by the worker's `evaluate`; captured prefixes travel back and are
/// promoted at `plan_merged` (coordinator, emission order). Workers only
/// ever touch their own plan's slots, so the maps never race on a key.
#[derive(Default)]
pub(crate) struct SharingState {
    seeds: Mutex<BTreeMap<Vec<usize>, JoinPrefix>>,
    computed: Mutex<BTreeMap<Vec<usize>, Vec<JoinPrefix>>>,
}

/// A [`PlanEvaluator`] that evaluates through the subplan memo's seeds:
/// identical verdicts and answers to [`MediatorEvaluator`], plus prefix
/// capture for promotion.
pub(crate) struct SharedEvaluator<'a> {
    pub(crate) inner: MediatorEvaluator<'a>,
    pub(crate) state: Arc<SharingState>,
}

impl PlanEvaluator for SharedEvaluator<'_> {
    fn is_sound(&self, plan: &[usize]) -> bool {
        self.inner.is_sound(plan)
    }

    fn evaluate(&self, plan: &[usize]) -> Vec<Tuple> {
        let plan_query = self.inner.reform.plan_query(plan);
        let seed = {
            let mut seeds = self.state.seeds.lock().unwrap_or_else(|e| e.into_inner());
            seeds.remove(plan)
        };
        let (answers, captured) = self.inner.db.evaluate_seeded(&plan_query, seed.as_ref());
        self.state
            .computed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(plan.to_vec(), captured);
        answers.into_iter().collect()
    }
}

/// The [`WaveObserver`] wiring the subplan memo into the wave executor.
/// Both callbacks run on the coordinator thread, so lookup order (pop
/// order) and promotion order (emission order) are worker-count
/// independent — the property the differential tests pin down.
pub(crate) struct SharingObserver<'a> {
    reform: &'a Reformulation,
    memo: &'a ExecutionMemo,
    state: Arc<SharingState>,
    obs: &'a Obs,
    hits: Counter,
    misses: Counter,
    bytes: Gauge,
    /// Plans seeded from a memoized prefix this run.
    pub(crate) reused: u64,
}

impl<'a> SharingObserver<'a> {
    pub(crate) fn new(
        reform: &'a Reformulation,
        memo: &'a ExecutionMemo,
        state: Arc<SharingState>,
        obs: &'a Obs,
    ) -> Self {
        let labels = [("layer", "subplan")];
        SharingObserver {
            reform,
            memo,
            state,
            obs,
            hits: obs.registry.counter("qpo_memo_hits_total", &labels),
            misses: obs.registry.counter("qpo_memo_misses_total", &labels),
            bytes: obs.registry.gauge("qpo_memo_bytes", &labels),
            reused: 0,
        }
    }
}

impl WaveObserver for SharingObserver<'_> {
    fn plan_scheduled(&mut self, seq: u64, ordered: &OrderedPlan, vclock: f64) {
        let plan_query = self.reform.plan_query(&ordered.plan);
        match self.memo.subplans.longest_prefix(&plan_query) {
            Some(prefix) => {
                self.hits.inc();
                self.reused += 1;
                if self.obs.journal.is_enabled() {
                    self.obs.journal.record_at(
                        vclock,
                        "subplan_reused",
                        vec![
                            ("plan_seq", Value::U64(seq)),
                            ("prefix_len", Value::U64(prefix.len as u64)),
                        ],
                    );
                }
                self.state
                    .seeds
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(ordered.plan.clone(), prefix);
            }
            None => self.misses.inc(),
        }
    }

    fn plan_merged(&mut self, report: &PlanExecution, _vclock: f64) {
        let captured = {
            let mut computed = self
                .state
                .computed
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            computed.remove(&report.ordered.plan)
        };
        if let Some(captured) = captured {
            let plan_query = self.reform.plan_query(&report.ordered.plan);
            self.memo.subplans.store_all(&plan_query, &captured);
            self.bytes.set(self.memo.subplans.approx_bytes() as f64);
        }
    }
}

/// Forwards every callback to two observers, first then second — the
/// composition the memoized any-k run uses (sharing bookkeeping, then
/// stream attachment) so both see the same serial virtual clock.
pub(crate) struct PairedObserver<'a> {
    pub(crate) first: &'a mut dyn WaveObserver,
    pub(crate) second: &'a mut dyn WaveObserver,
}

impl WaveObserver for PairedObserver<'_> {
    fn plan_scheduled(&mut self, seq: u64, ordered: &OrderedPlan, vclock: f64) {
        self.first.plan_scheduled(seq, ordered, vclock);
        self.second.plan_scheduled(seq, ordered, vclock);
    }

    fn plan_merged(&mut self, report: &PlanExecution, vclock: f64) {
        self.first.plan_merged(report, vclock);
        self.second.plan_merged(report, vclock);
    }
}

impl Mediator {
    /// The shared-execution variant of [`Mediator::run_concurrent`]: same
    /// ordering, same wave execution, but source accesses are served from
    /// `memo.sources` after their first live outcome and sound plans seed
    /// their joins from `memo.subplans`. With the memo empty ("cold") the
    /// run is bit-identical to the unmemoized one except that repeated
    /// source coordinates skip their simulated latency and fees; a warm
    /// memo additionally serves across runs. Plan emission order,
    /// statuses, utilities, and answers always match the unmemoized run —
    /// the `memo_equivalence` differential tests pin this bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub fn run_concurrent_memoized<M: UtilityMeasure>(
        &self,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
        policy: RuntimePolicy,
        memo: &ExecutionMemo,
        obs: &Obs,
    ) -> Result<ConcurrentRun, MediatorError> {
        let prepared = self.prepare(query)?;
        let mut orderer = build_orderer_observed(&prepared.instance, measure, strategy, obs)?;
        obs.registry
            .counter(
                "qpo_mediator_runs_total",
                &[("orderer", orderer.algorithm_name())],
            )
            .inc();
        let grid = qpo_runtime::SourceGrid::from_instance(&prepared.instance);
        let state = Arc::new(SharingState::default());
        let eval = SharedEvaluator {
            inner: MediatorEvaluator {
                reform: &prepared.reformulation,
                db: self.database(),
                view_map: self.catalog().view_map(),
                soundness_errors: obs.registry.counter("qpo_soundness_test_errors_total", &[]),
            },
            state: Arc::clone(&state),
        };
        let mut observer =
            SharingObserver::new(&prepared.reformulation, memo, Arc::clone(&state), obs);
        let runtime = Executor::new(&grid, &eval, policy)
            .with_obs(obs)
            .with_source_memo(&memo.sources)
            .run_observed(orderer.as_mut(), stop.into(), &mut observer);
        let mut health = SourceHealth::new();
        health.record_run(&runtime.reports);
        // Drift estimation sees only fresh access chains: memo replays
        // carry `attempts == 0` and are skipped by `observe_divergence`,
        // mirroring the trace (replays journal no `source_attempt`s).
        let mut divergence = qpo_obs::DivergenceMonitor::new(obs);
        qpo_runtime::declare_sources(&mut divergence, &grid);
        for report in &runtime.reports {
            qpo_runtime::observe_divergence(&mut divergence, report);
        }
        Ok(ConcurrentRun {
            runtime,
            health,
            divergence,
        })
    }
}
