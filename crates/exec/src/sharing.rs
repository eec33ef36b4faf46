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
//!   sharing a prefix seeds its pipelined join from the longest match,
//!   which is bit-identical to the unseeded evaluation;
//! - **ranked levels** — [`qpo_anyk::LevelCache`] shares the positional
//!   scored levels of any-k enumerators across plans choosing the same
//!   source for a bucket; without a memo, a stream keeps its own cache.
//!
//! The memo is only the store. Consultation and promotion are the sharing
//! part of the `core` module's hooks, on the coordinating thread: lookups at
//! schedule (pop order), promotions at merge (emission order), each on the
//! source memo's data version, which only the loop syncs. So memoized runs
//! stay bit-identical across worker counts, and the journal events
//! (`memo_hit`, `memo_store`, `subplan_reused`) land on the serial virtual
//! clock inside their plan's span.

use qpo_anyk::LevelCache;
use qpo_datalog::{ConjunctiveQuery, JoinPrefix};
use qpo_runtime::SourceMemo;
use std::collections::BTreeMap;
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

#[derive(Debug, Default)]
struct SubplanInner {
    entries: BTreeMap<Arc<str>, JoinPrefix>,
    /// Running byte total, maintained at store time so [`SubplanMemo::approx_bytes`]
    /// is O(1) — it is polled after every plan merge for the gauge.
    bytes: usize,
    /// Retention cap (`None` = [`SubplanMemo::DEFAULT_BYTE_BUDGET`]):
    /// stores that would push `bytes` past this are refused (the lookup
    /// side just misses). Promotion happens in emission order on the
    /// coordinator, so which prefixes land under the budget is
    /// deterministic.
    byte_budget: Option<usize>,
    /// Backend data version the cached prefixes were joined from; see
    /// [`SubplanMemo::sync_backend_epoch`].
    backend_epoch: u64,
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
        self.lock().byte_budget = Some(bytes);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SubplanInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Declares the data version
    /// ([`SourceBackend::epoch`](qpo_runtime::SourceBackend::epoch)) of
    /// the rows the prefixes are joined from — the hooks pass the source
    /// memo's. A changed epoch drops every cached prefix: seeding from a
    /// world the backend no longer serves would answer from that world.
    pub fn sync_backend_epoch(&self, epoch: u64) {
        let mut inner = self.lock();
        if inner.backend_epoch != epoch {
            inner.backend_epoch = epoch;
            inner.entries.clear();
            inner.bytes = 0;
        }
    }

    /// The longest already-computed prefix of `query`'s body, if any.
    /// The returned [`JoinPrefix`] shares its rows with the memo
    /// ([`Arc`]), so the clone is cheap.
    pub fn longest_prefix(&self, query: &ConjunctiveQuery) -> Option<JoinPrefix> {
        let inner = self.lock();
        (1..=query.body.len())
            .rev()
            .find_map(|len| inner.entries.get(prefix_key(query, len).as_str()).cloned())
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
            if inner.bytes + cost > inner.byte_budget.unwrap_or(Self::DEFAULT_BYTE_BUDGET) {
                continue;
            }
            inner.bytes += cost;
            inner.entries.insert(key, p.clone());
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mediator;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};

    /// `approx_bytes()` is the sum, over the retained entries, of the key
    /// and the prefix's exact bytes — and stays under a set budget.
    #[test]
    fn approx_bytes_is_the_exact_sum_over_retained_entries() {
        let m = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"]);
        let prepared = m.prepare(&movie_query()).unwrap();
        // Every plan's captured prefixes, in a fixed promotion order.
        let runs: Vec<(ConjunctiveQuery, Vec<JoinPrefix>)> = (prepared.instance.all_plans().iter())
            .map(|plan| {
                let query = prepared.reformulation.plan_query(plan);
                let (_, captured) = m.database().evaluate_seeded(&query, None);
                (query, captured)
            })
            .collect();
        let promote = |memo: &SubplanMemo| {
            for (query, captured) in &runs {
                memo.store_all(query, captured);
            }
        };
        // What the memo holds, priced independently: an entry is retained
        // iff a lookup of exactly that prefix finds that length.
        let retained = |memo: &SubplanMemo| -> (usize, usize) {
            let mut keys = std::collections::BTreeSet::new();
            let mut bytes = 0;
            for (query, captured) in &runs {
                for p in captured {
                    let mut prefix = query.clone();
                    prefix.body.truncate(p.len);
                    let found = memo.longest_prefix(&prefix).is_some_and(|f| f.len == p.len);
                    let key = prefix_key(query, p.len);
                    if found && keys.insert(key.clone()) {
                        bytes += key.len() + p.approx_bytes();
                    }
                }
            }
            (keys.len(), bytes)
        };
        let unbounded = SubplanMemo::new();
        promote(&unbounded);
        let total = unbounded.approx_bytes();
        assert_eq!(retained(&unbounded), (unbounded.len(), total));
        assert!(total > 0);
        // Half the room: some stores land, some are refused, and the
        // running total is still exact and never over the cap.
        let capped = SubplanMemo::new();
        capped.set_byte_budget(total / 2);
        promote(&capped);
        assert!(!capped.is_empty() && capped.len() < unbounded.len());
        assert_eq!(retained(&capped), (capped.len(), capped.approx_bytes()));
        assert!(capped.approx_bytes() <= total / 2);
        // A version bump empties it, bytes included.
        capped.sync_backend_epoch(7);
        assert_eq!((capped.len(), capped.approx_bytes()), (0, 0));
    }
}
