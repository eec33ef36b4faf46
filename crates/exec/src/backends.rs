//! Backend-aware mediation: the concurrent mediator loop re-run against
//! *real* source backends instead of (only) the deterministic simulator.
//!
//! A [`BackendRegistry`] maps stable labels to [`SourceBackend`]
//! implementations — `"sim"` (the default, always present), an
//! in-process persistent [`StoreBackend`](qpo_runtime::StoreBackend),
//! an out-of-process [`TcpBackend`](qpo_runtime::TcpBackend), or
//! anything else implementing the trait. [`Mediator::run_concurrent_on`]
//! resolves a label and runs the exact concurrent pipeline of
//! [`Mediator::run_concurrent`](crate::concurrent) on it: same
//! reformulation, same ordering, same retry/feedback/divergence stack —
//! only the access path changes. Each access goes out under the binding
//! pattern of its subgoal ([`qpo_runtime::pattern`]: the constants the
//! plan atom fixes), so a remote source ships only rows the plan can use.
//! When the backend returns tuples (store and TCP do), the join reads
//! *those* rows in place, slot `i` feeding body atom `i` — slots a memo
//! shortcut skipped fetching are refilled from a per-run fetch cache
//! backed by the same backend, never from the extensions; when the
//! backend returns none for every slot (the simulator), evaluation falls
//! back to the static extensions, which keeps every sim run
//! bit-identical to [`Mediator::run_concurrent`].
//!
//! [`snapshot_relations`] exports the mediator's materialized extensions
//! keyed by catalog source name — the seeding bridge that lets a store or
//! a source server answer with exactly the tuples the simulated world
//! would have, so the cross-backend equivalence suites can demand
//! bit-identical answer sets.

use crate::concurrent::{ConcurrentRun, MediatorEvaluator};
use crate::mediator::{build_orderer_observed, Mediator, MediatorError, StopCondition, Strategy};
use qpo_datalog::{evaluate_slots, ConjunctiveQuery, Database, Tuple};
use qpo_obs::{DivergenceMonitor, Obs};
use qpo_runtime::{
    declare_sources, observe_divergence, AccessContext, BackendError, BindingPattern, Executor,
    FaultConfig, PlanEvaluator, SimBackend, SourceBackend, SourceGrid, SourceHealth,
};
use qpo_utility::UtilityMeasure;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// A labeled set of [`SourceBackend`]s a mediator can execute against.
///
/// The registry always contains `"sim"` — the deterministic simulator the
/// equivalence and determinism suites are pinned to. Additional backends
/// are registered under caller-chosen labels and selected per run via
/// [`Mediator::run_concurrent_on`] or per session via
/// [`QuerySession::with_backend`](crate::QuerySession::with_backend).
#[derive(Clone)]
pub struct BackendRegistry {
    entries: BTreeMap<String, Arc<dyn SourceBackend>>,
}

impl Default for BackendRegistry {
    fn default() -> Self {
        let mut entries: BTreeMap<String, Arc<dyn SourceBackend>> = BTreeMap::new();
        entries.insert("sim".to_string(), Arc::new(SimBackend));
        BackendRegistry { entries }
    }
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (label, backend) in &self.entries {
            map.entry(label, &backend.kind());
        }
        map.finish()
    }
}

impl BackendRegistry {
    /// The default registry: just the simulator under `"sim"`.
    pub fn new() -> Self {
        BackendRegistry::default()
    }

    /// Builder-style registration; later entries win on label collision.
    pub fn with(mut self, label: impl Into<String>, backend: Arc<dyn SourceBackend>) -> Self {
        self.register(label, backend);
        self
    }

    /// Registers `backend` under `label`, replacing any previous entry.
    pub fn register(&mut self, label: impl Into<String>, backend: Arc<dyn SourceBackend>) {
        self.entries.insert(label.into(), backend);
    }

    /// The backend registered under `label`.
    pub fn get(&self, label: &str) -> Option<Arc<dyn SourceBackend>> {
        self.entries.get(label).cloned()
    }

    /// Registered labels, sorted.
    pub fn labels(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Whether `label` is registered.
    pub fn contains(&self, label: &str) -> bool {
        self.entries.contains_key(label)
    }
}

/// Exports `db`'s relations as `(source name, rows)` pairs, sorted by
/// name — the seeding bridge from the mediator's materialized extensions
/// to a [`StoreBackend`](qpo_runtime::StoreBackend) or a
/// [`SourceServer`](qpo_runtime::SourceServer) provider. Rows come out in
/// the extensions' canonical (BTreeSet) order, so two backends seeded
/// from the same database serve byte-identical relations.
pub fn snapshot_relations(db: &Database) -> Vec<(String, Vec<Tuple>)> {
    db.predicates()
        .map(|name| {
            (
                name.to_string(),
                db.tuples(name).cloned().collect::<Vec<Tuple>>(),
            )
        })
        .collect()
}

/// Rows by `(source, pattern)`.
type FetchCache = BTreeMap<(Arc<str>, Arc<str>), Arc<Vec<Tuple>>>;

/// The backend-aware [`PlanEvaluator`]: soundness and the simulated
/// evaluation path delegate to the plain [`MediatorEvaluator`]; when the
/// backend returned tuples for at least one bucket, evaluation joins
/// *those* tuples, in place, instead of the static database. Slots with
/// no rows attached (memo-resolved accesses) are served from a per-run
/// fetch cache — refilled from the backend on a miss — never from the
/// static extensions: a data-serving backend may hold different data, and
/// joining extension rows for some buckets against backend rows for
/// others would produce answers from a mixed world.
pub(crate) struct BackendEvaluator<'a> {
    base: MediatorEvaluator<'a>,
    /// The backend the run's accesses go through — also the authority
    /// for rows the memo shortcut skipped fetching.
    backend: Arc<dyn SourceBackend>,
    grid: &'a SourceGrid,
    faults: FaultConfig,
    /// `patterns[bucket][index]`: the binding pattern of that bucket
    /// entry's plan atom — what its access ships and is memoized under.
    patterns: Vec<Vec<Arc<str>>>,
    /// Rows seen (or re-fetched) this run, by `(source, pattern)`: one
    /// source serving two subgoals with different constants is two
    /// different row sets.
    fetch_cache: Mutex<FetchCache>,
}

impl<'a> BackendEvaluator<'a> {
    pub(crate) fn new(
        base: MediatorEvaluator<'a>,
        backend: Arc<dyn SourceBackend>,
        grid: &'a SourceGrid,
    ) -> Self {
        let patterns = base
            .reform
            .buckets
            .iter()
            .map(|bucket| {
                bucket
                    .iter()
                    .map(|entry| BindingPattern::of_atom(&entry.atom).to_string().into())
                    .collect()
            })
            .collect();
        BackendEvaluator {
            base,
            backend,
            grid,
            faults: FaultConfig::disabled(),
            patterns,
            fetch_cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// `(source, pattern)` of the access for `bucket` of `plan`.
    fn cache_key(&self, plan: &[usize], bucket: usize) -> (Arc<str>, Arc<str>) {
        let index = plan[bucket];
        (
            self.grid.service(bucket, index).name.clone(),
            self.patterns[bucket][index].clone(),
        )
    }

    fn cache(&self) -> MutexGuard<'_, FetchCache> {
        // Poison recovery: the cache only ever holds complete fetches.
        self.fetch_cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Rows for a slot the backend served no data for in this plan (a
    /// memo-resolved access): the run's fetch cache, or a direct backend
    /// re-fetch — under the same pattern the memoized access used — on a
    /// miss (warm memos span runs; the cache does not). A backend that
    /// cannot serve the relation right now degrades to the empty relation
    /// — no answers from this plan — rather than resurrecting extension
    /// rows the backend never held.
    fn backend_rows(&self, plan: &[usize], bucket: usize) -> Arc<Vec<Tuple>> {
        let svc = self.grid.service(bucket, plan[bucket]);
        let key = self.cache_key(plan, bucket);
        if let Some(rows) = self.cache().get(&key) {
            return rows.clone();
        }
        let ctx = AccessContext {
            pattern: &key.1,
            run: 0,
            plan_seq: 0,
            attempt: 0,
            faults: &self.faults,
        };
        match self.backend.access(svc, &ctx) {
            Ok(reply) => {
                let rows = reply.tuples.unwrap_or_default();
                self.cache().insert(key, rows.clone());
                rows
            }
            Err(_) => Arc::default(),
        }
    }
}

impl PlanEvaluator for BackendEvaluator<'_> {
    fn is_sound(&self, plan: &[usize]) -> bool {
        self.base.is_sound(plan)
    }

    fn evaluate(&self, plan: &[usize]) -> Vec<Tuple> {
        self.base.evaluate(plan)
    }

    fn access_pattern(&self, plan: &[usize], bucket: usize) -> &str {
        &self.patterns[bucket][plan[bucket]]
    }

    fn evaluate_fetched(&self, plan: &[usize], fetched: &[Option<Arc<Vec<Tuple>>>]) -> Vec<Tuple> {
        if fetched.iter().all(Option::is_none) {
            // The simulator (and fully memo-resolved plans): the static
            // extensions are the world. This arm keeps sim runs
            // bit-identical to the pre-backend pipeline.
            return self.base.evaluate(plan);
        }
        let slots: Vec<Arc<Vec<Tuple>>> = (0..plan.len())
            .map(
                |bucket| match fetched.get(bucket).and_then(Option::as_ref) {
                    Some(rows) => {
                        self.cache()
                            .entry(self.cache_key(plan, bucket))
                            .or_insert_with(|| rows.clone());
                        rows.clone()
                    }
                    // Memo-resolved slot: the terminal outcome was cached but
                    // no live rows rode along. The backend (via the run's
                    // fetch cache) is the only authority for this world's
                    // rows — the static extensions may disagree with it.
                    None => self.backend_rows(plan, bucket),
                },
            )
            .collect();
        // Slot `i` feeds body atom `i`, which applies its own constants
        // to whatever superset of matching rows the backend shipped.
        let slices: Vec<&[Tuple]> = slots.iter().map(|rows| rows.as_slice()).collect();
        evaluate_slots(&self.base.reform.plan_query(plan), &slices)
            .into_iter()
            .collect()
    }
}

impl Mediator {
    /// [`Mediator::run_concurrent`](crate::concurrent) against the
    /// backend registered under `label` (see
    /// [`Mediator::with_backends`]). `"sim"` reproduces
    /// `run_concurrent` bit for bit; other labels execute every source
    /// access through the named backend — real I/O, measured wall latency
    /// mapped onto the virtual clock, and typed
    /// [`BackendError`](qpo_runtime::BackendError)s classified
    /// transient/permanent and fed to the same retry, feedback, and
    /// divergence machinery as simulated faults.
    pub fn run_concurrent_on<M: UtilityMeasure>(
        &self,
        label: &str,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
        policy: qpo_runtime::RuntimePolicy,
    ) -> Result<ConcurrentRun, MediatorError> {
        self.run_concurrent_on_observed(label, query, measure, strategy, stop, policy, &Obs::new())
    }

    /// [`Mediator::run_concurrent_on`] with a shared observability
    /// bundle; the run's metrics and journal events carry a
    /// `backend` label with the backend's kind.
    #[allow(clippy::too_many_arguments)]
    pub fn run_concurrent_on_observed<M: UtilityMeasure>(
        &self,
        label: &str,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
        policy: qpo_runtime::RuntimePolicy,
        obs: &Obs,
    ) -> Result<ConcurrentRun, MediatorError> {
        let backend = self.backends().get(label).ok_or_else(|| {
            MediatorError::Backend(BackendError::permanent(format!(
                "no backend registered under label {label:?} (have {:?})",
                self.backends().labels()
            )))
        })?;
        self.run_concurrent_with(backend, query, measure, strategy, stop, policy, obs)
    }

    /// The shared concurrent pipeline, parameterized by the backend every
    /// source access dispatches through. `run_concurrent_observed`
    /// passes [`SimBackend`]; `run_concurrent_on_observed` passes a
    /// registry entry.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_concurrent_with<M: UtilityMeasure>(
        &self,
        backend: Arc<dyn SourceBackend>,
        query: &ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        stop: StopCondition,
        policy: qpo_runtime::RuntimePolicy,
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
        let grid = SourceGrid::from_instance(&prepared.instance);
        let eval = BackendEvaluator::new(
            MediatorEvaluator {
                reform: &prepared.reformulation,
                db: self.database(),
                view_map: self.catalog().view_map(),
                soundness_errors: obs.registry.counter("qpo_soundness_test_errors_total", &[]),
            },
            Arc::clone(&backend),
            &grid,
        );
        let runtime = Executor::new(&grid, &eval, policy)
            .with_backend(backend)
            .with_obs(obs)
            .run(orderer.as_mut(), stop.into());
        let mut health = SourceHealth::new();
        health.record_run(&runtime.reports);
        // Same replay discipline as `run_concurrent_observed`: the drift
        // monitor consumes the reports in emission order, so its gauges
        // are recomputable bit-for-bit from the journal — for real
        // backends included, whose failures ride the same
        // transient/permanent outcome labels.
        let mut divergence = DivergenceMonitor::new(obs);
        declare_sources(&mut divergence, &grid);
        for report in &runtime.reports {
            observe_divergence(&mut divergence, report);
        }
        Ok(ConcurrentRun {
            runtime,
            health,
            divergence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
    use qpo_runtime::{MemProvider, RuntimePolicy, StoreBackend};
    use qpo_utility::LinearCost;

    fn mediator() -> Mediator {
        Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
    }

    #[test]
    fn registry_defaults_to_sim_and_replaces_on_collision() {
        let reg = BackendRegistry::new();
        assert!(reg.contains("sim"));
        assert_eq!(reg.labels(), vec!["sim"]);
        assert_eq!(reg.get("sim").unwrap().kind(), "sim");
        assert!(reg.get("tcp").is_none());
        let reg = reg.with("x", Arc::new(SimBackend)).with(
            "x",
            Arc::new(SimBackend), // replaces, no duplicate
        );
        assert_eq!(reg.labels(), vec!["sim", "x"]);
        assert!(format!("{reg:?}").contains("\"sim\""));
    }

    #[test]
    fn unknown_label_is_a_typed_backend_error() {
        let m = mediator();
        let err = m
            .run_concurrent_on(
                "nope",
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::serial(),
            )
            .err()
            .unwrap();
        assert!(matches!(err, MediatorError::Backend(_)), "{err}");
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn sim_label_matches_run_concurrent_bit_for_bit() {
        let m = mediator();
        let a = m
            .run_concurrent(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(3),
            )
            .unwrap();
        let b = m
            .run_concurrent_on(
                "sim",
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(3),
            )
            .unwrap();
        assert_eq!(a.runtime.answers, b.runtime.answers);
        assert_eq!(a.emitted_plans(), b.emitted_plans());
        assert_eq!(
            a.runtime.stats.virtual_time.to_bits(),
            b.runtime.stats.virtual_time.to_bits()
        );
    }

    #[test]
    fn store_backend_answers_match_the_simulator() {
        let m = mediator();
        let dir = std::env::temp_dir().join(format!(
            "qpo-exec-backends-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StoreBackend::open(&dir).unwrap();
        for (name, rows) in snapshot_relations(m.database()) {
            store.put_relation(&name, &rows).unwrap();
        }
        store.flush().unwrap();
        let m = m.with_backends(BackendRegistry::new().with("store", Arc::new(store)));
        let sim = m
            .run_concurrent(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(2),
            )
            .unwrap();
        let real = m
            .run_concurrent_on(
                "store",
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(2),
            )
            .unwrap();
        assert_eq!(sim.runtime.answers, real.runtime.answers);
        assert_eq!(sim.emitted_plans(), real.emitted_plans());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_resolved_slots_join_backend_rows_not_extensions() {
        use qpo_runtime::PlanStatus;
        let m = mediator();
        let q = movie_query();
        // A plan the simulated world answers, to make the negative case
        // meaningful below.
        let sim = m
            .run_concurrent(
                &q,
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::serial(),
            )
            .unwrap();
        let plan = sim
            .runtime
            .reports
            .iter()
            .find(|r| matches!(r.status, PlanStatus::Executed { tuples, .. } if tuples > 0))
            .expect("some plan answers")
            .ordered
            .plan
            .clone();
        assert!(plan.len() >= 2, "needs a mixed fetched/memo-resolved plan");
        let prepared = m.prepare(&q).unwrap();
        let grid = SourceGrid::from_instance(&prepared.instance);
        let dir = std::env::temp_dir().join(format!(
            "qpo-exec-memoslot-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(StoreBackend::open(&dir).unwrap());
        for (name, rows) in snapshot_relations(m.database()) {
            store.put_relation(&name, &rows).unwrap();
        }
        // The backend's world diverges from the extensions: the plan's
        // first source is emptied on the store only.
        let sources = prepared.reformulation.plan_sources(&plan);
        store.put_relation(&sources[0], &[]).unwrap();
        let obs = Obs::new();
        let eval = BackendEvaluator::new(
            MediatorEvaluator {
                reform: &prepared.reformulation,
                db: m.database(),
                view_map: m.catalog().view_map(),
                soundness_errors: obs.registry.counter("qpo_soundness_test_errors_total", &[]),
            },
            store.clone(),
            &grid,
        );
        // Slot 0 is memo-resolved (no rows rode along); the last slot
        // carries live backend rows.
        let mut fetched: Vec<Option<Arc<Vec<Tuple>>>> = vec![None; plan.len()];
        let last = plan.len() - 1;
        fetched[last] = Some(store.relation(&sources[last]).unwrap());
        let answers = eval.evaluate_fetched(&plan, &fetched);
        assert!(
            answers.is_empty(),
            "memo-resolved slot must join the backend's (empty) rows, \
             not the extensions'"
        );
        // The extensions still answer — proving the empty result above
        // came from the backend re-fetch, not a broken join.
        assert!(!eval.evaluate(&plan).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_round_trips_through_a_provider() {
        let m = mediator();
        let snap = snapshot_relations(m.database());
        assert!(!snap.is_empty());
        let provider = MemProvider::new();
        let mut total = 0usize;
        for (name, rows) in &snap {
            total += rows.len();
            provider.insert(name.clone(), rows.clone());
        }
        assert_eq!(total, m.database().total_facts());
    }
}
