//! Backend-aware mediation: the mediator loop against *real* source
//! backends instead of (only) the deterministic simulator.
//!
//! A [`BackendRegistry`] maps stable labels to [`SourceBackend`]
//! implementations — `"sim"` (the default, always present), an
//! in-process persistent [`StoreBackend`](qpo_runtime::StoreBackend),
//! an out-of-process [`TcpBackend`](qpo_runtime::TcpBackend), or
//! anything else implementing the trait. A run selects one by label
//! ([`RunOptions::backend`](crate::RunOptions::backend)), a session with
//! [`QuerySession::with_backend`](crate::QuerySession::with_backend);
//! either way the same loop and the same per-plan core (the `core` module)
//! do the work: same reformulation, same ordering, same retries — only
//! the rows change. Each access goes out under the binding pattern of its
//! subgoal ([`qpo_runtime::pattern`]: the constants the plan atom fixes),
//! so a remote source ships only rows the plan can use, and the join
//! reads *those* rows in place, slot `i` feeding body atom `i` — rows no
//! live access of this plan carried (a memo shortcut skips the fetch)
//! come from one fetch cache backed by the same backend, never from the
//! extensions. The simulator holds no data:
//! under it evaluation stays on the static extensions, which keeps every
//! sim run bit-identical to an unbackended one.
//!
//! [`snapshot_relations`] exports the mediator's materialized extensions
//! keyed by catalog source name — the seeding bridge that lets a store or
//! a source server answer with exactly the tuples the simulated world
//! would have, so the cross-backend equivalence suites can demand
//! bit-identical answer sets.

use qpo_datalog::{Database, Tuple};
use qpo_runtime::{SimBackend, SourceBackend};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A labeled set of [`SourceBackend`]s a mediator can execute against.
///
/// The registry always contains `"sim"` — the deterministic simulator the
/// equivalence and determinism suites are pinned to. Additional backends
/// are registered under caller-chosen labels and selected per run via
/// [`RunOptions::backend`](crate::RunOptions::backend) or per session via
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mediator, MediatorError, RunOptions, StopCondition, Strategy};
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
            .run(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::serial(),
                &RunOptions {
                    backend: Some("nope"),
                    ..RunOptions::default()
                },
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
            .run(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(3),
                &RunOptions::default(),
            )
            .unwrap();
        let b = m
            .run(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(3),
                &RunOptions {
                    backend: Some("sim"),
                    ..RunOptions::default()
                },
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
            .run(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(2),
                &RunOptions::default(),
            )
            .unwrap();
        let real = m
            .run(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(2),
                &RunOptions {
                    backend: Some("store"),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(sim.runtime.answers, real.runtime.answers);
        assert_eq!(sim.emitted_plans(), real.emitted_plans());
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
