//! Session-scoped source-access memo: cross-plan reuse of resolved
//! access outcomes.
//!
//! The paper's failure+cache utility measure already *believes* repeated
//! accesses are near-free (§cache measure); this module makes that true
//! at the physical layer. A [`SourceMemo`] caches the *terminal* outcome
//! of each source access — success, or permanent failure — and, beside a
//! success, the rows it returned, keyed on `(bucket, source index, binding
//! pattern)`. When a later plan touches the same source, the wave executor
//! serves the access — rows included — from the memo without re-paying
//! latency, retries, backoff, or fees.
//!
//! ## What is (and is not) memoized
//!
//! Only *terminal* outcomes are cached:
//!
//! - **Success** — the source answered; later plans reuse it for free.
//!   When the backend serves data (the simulator holds none), the entry
//!   also holds the rows the access returned, [`Arc`]-shared with what
//!   the backend handed back. The memo is their only owner between plans:
//!   a hit's rows reach the evaluator exactly as a live access's do, so
//!   no second row cache can disagree with the outcome. An entry holds at
//!   most one row set and dies — rows included — with its outcome.
//! - **Permanent failure** — the source is down; later plans fail the
//!   access instantly instead of re-discovering the outage. It carries no
//!   rows: the plan fails before it joins.
//!
//! A retries-exhausted *transient* failure is deliberately never cached:
//! the catalog says such a source should be retried, and a memoized
//! transient failure would mask plans that could have succeeded. Later
//! plans through that source roll fresh attempts.
//!
//! ## Invalidation
//!
//! The memo follows the feedback discipline of `ExecutionContext`
//! (qpo-core), whose epoch bumps whenever observed outcomes retract
//! assumed state. When a plan fails from *live* (non-memoized) accesses
//! the executor calls [`SourceMemo::invalidate`], which clears the memo,
//! so post-failure plans re-verify sources instead of trusting stale
//! successes. Outcomes of the failing plan itself are stored *after* the
//! clear, which is why a permanently-down source costs exactly one real
//! access per clear. Plans that fail purely from memoized outcomes clear
//! nothing — nothing new was observed. The registry's
//! `qpo_memo_{hits,misses}_total{layer}` count lookups; the memo keeps
//! only the hit and miss counts the benchmark harness reads.
//!
//! A move of the backend's data version clears the memo the same way
//! ([`SourceMemo::sync_backend_epoch`]); only the executor's loop reads
//! that version, at the top of every wave, so no memo serves rows across
//! a move, even inside one run. Whatever the memo holds is current.
//!
//! ## Determinism
//!
//! All lookups and stores happen on the executor's coordinator thread at
//! fixed points of the wave loop (lookup at dispatch, store at merge, in
//! emission order), so hit/miss counts, journal events, and replayed
//! outcomes are pure functions of `(seed, sources, plan order)` —
//! byte-identical traces under any worker count.

use qpo_datalog::{Constant, Tuple};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

pub use crate::pattern::SCAN_PATTERN;

/// A terminal access outcome worth remembering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoOutcome {
    /// The access succeeded; repeats are free.
    Success,
    /// The source is permanently down; repeats fail instantly.
    PermanentFailure,
}

/// A memo lookup that hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoHit {
    /// The cached terminal outcome.
    pub outcome: MemoOutcome,
    /// The rows stored beside a success; `None` when the backend served
    /// none (the simulator) and for a permanent failure.
    pub rows: Option<Arc<Vec<Tuple>>>,
    /// True when the entry was stored by an *earlier* run sharing this
    /// memo (a warm session). Journal consumers use this to distinguish
    /// hits that cannot be paired with a `memo_store` in the same trace
    /// run.
    pub warm: bool,
}

/// One memoized outcome; no epoch, as a clear of either kind drops all.
#[derive(Debug)]
struct MemoEntry {
    outcome: MemoOutcome,
    rows: Option<Arc<Vec<Tuple>>>,
    run_token: u64,
    /// What [`SourceMemo::approx_bytes`] charges this entry.
    bytes: usize,
}

/// What [`SourceMemo::approx_bytes`] charges one entry: key, record, and
/// its rows (every value plus string payloads), once however shared.
fn entry_bytes(pattern: &str, rows: Option<&Arc<Vec<Tuple>>>) -> usize {
    let payload = |c: &Constant| match c {
        Constant::Int(_) => 0,
        Constant::Str(s) => s.len(),
    };
    let row = |t: &Tuple| {
        std::mem::size_of::<Tuple>()
            + std::mem::size_of_val(t.as_slice())
            + t.iter().map(payload).sum::<usize>()
    };
    std::mem::size_of::<(usize, usize, Arc<str>)>()
        + pattern.len()
        + std::mem::size_of::<MemoEntry>()
        + rows.map_or(0, |rows| rows.iter().map(row).sum())
}

#[derive(Debug, Default)]
struct MemoInner {
    /// `(bucket, index) → pattern → entry`, so a probe borrows its
    /// pattern instead of allocating a key.
    entries: BTreeMap<(usize, usize), BTreeMap<Arc<str>, MemoEntry>>,
    /// Running total of the entries' `bytes`.
    bytes: usize,
    run_token: u64,
    backend_epoch: u64,
    hits: u64,
    misses: u64,
}

/// Cross-plan source-access memo, cheaply cloneable (shared interior).
///
/// One memo is scoped to one *session* — a sequence of runs over the same
/// source grid and fault seed. Sharing it across unrelated grids would
/// alias `(bucket, index)` coordinates.
#[derive(Debug, Clone, Default)]
pub struct SourceMemo {
    inner: Arc<Mutex<MemoInner>>,
}

impl SourceMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        SourceMemo::default()
    }

    /// Marks the start of a new executor run. Entries stored by earlier
    /// runs remain valid but report as *warm* on hit.
    pub fn begin_run(&self) {
        self.lock().run_token += 1;
    }

    /// Declares the backend's current data version
    /// ([`crate::backend::SourceBackend::epoch`]). A changed epoch clears
    /// the memo — a store write or a restarted server invalidates terminal
    /// outcomes the same way a live failure does. The executor calls this
    /// at the top of every wave; `SimBackend`'s epoch is constant `0`, so
    /// purely simulated sessions are unaffected.
    pub fn sync_backend_epoch(&self, epoch: u64) {
        let mut inner = self.lock();
        if inner.backend_epoch != epoch {
            inner.backend_epoch = epoch;
            inner.entries.clear();
            inner.bytes = 0;
        }
    }

    /// The backend data version the memo's entries were observed under.
    pub fn backend_epoch(&self) -> u64 {
        self.lock().backend_epoch
    }

    /// Looks up the cached outcome for `(bucket, index, pattern)`,
    /// counting a hit or miss.
    pub fn lookup(&self, bucket: usize, index: usize, pattern: &str) -> Option<MemoHit> {
        let mut inner = self.lock();
        let patterns = inner.entries.get(&(bucket, index));
        let hit = patterns.and_then(|p| p.get(pattern)).map(|e| MemoHit {
            outcome: e.outcome,
            rows: e.rows.clone(),
            warm: e.run_token != inner.run_token,
        });
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Stores a terminal outcome, no rows beside it.
    pub fn store(&self, bucket: usize, index: usize, pattern: &str, outcome: MemoOutcome) {
        self.store_rows(bucket, index, pattern, outcome, None);
    }

    /// Stores a terminal outcome and, beside a success, the `rows` the
    /// access returned (shared, not copied).
    pub fn store_rows(
        &self,
        bucket: usize,
        index: usize,
        pattern: &str,
        outcome: MemoOutcome,
        rows: Option<Arc<Vec<Tuple>>>,
    ) {
        let mut inner = self.lock();
        let rows = rows.filter(|_| outcome == MemoOutcome::Success);
        let entry = MemoEntry {
            outcome,
            run_token: inner.run_token,
            bytes: entry_bytes(pattern, rows.as_ref()),
            rows,
        };
        inner.bytes += entry.bytes;
        let patterns = inner.entries.entry((bucket, index)).or_default();
        let replaced = match patterns.get_mut(pattern) {
            Some(stored) => Some(std::mem::replace(stored, entry)),
            None => patterns.insert(Arc::from(pattern), entry),
        };
        inner.bytes -= replaced.map_or(0, |old| old.bytes);
    }

    /// Clears the memo. Called by the executor when a plan fails from
    /// live accesses, mirroring the `ExecutionContext` retract feedback.
    pub fn invalidate(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.bytes = 0;
    }

    /// Lookups served from the memo so far.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that found nothing so far.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().entries.values().map(BTreeMap::len).sum()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the memo (keys, entries and the rows
    /// they hold), for the `qpo_memo_bytes` gauge.
    pub fn approx_bytes(&self) -> usize {
        self.lock().bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoInner> {
        // Poison recovery (the qpo-obs registry/journal idiom): every
        // critical section here is a plain field update that leaves the
        // map consistent, so a worker panicking mid-section cannot wedge
        // the shared memo for the rest of the session.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_then_store_then_hit() {
        let memo = SourceMemo::new();
        memo.begin_run();
        assert!(memo.lookup(0, 1, SCAN_PATTERN).is_none());
        memo.store(0, 1, SCAN_PATTERN, MemoOutcome::Success);
        let hit = memo.lookup(0, 1, SCAN_PATTERN).expect("stored");
        assert_eq!(hit.outcome, MemoOutcome::Success);
        assert!(!hit.warm, "same-run entry is cold");
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert_eq!(memo.len(), 1);
        assert!(memo.approx_bytes() > 0);
    }

    #[test]
    fn entries_from_earlier_runs_are_warm() {
        let memo = SourceMemo::new();
        memo.begin_run();
        memo.store(2, 0, SCAN_PATTERN, MemoOutcome::PermanentFailure);
        memo.begin_run();
        let hit = memo
            .lookup(2, 0, SCAN_PATTERN)
            .expect("persists across runs");
        assert_eq!(hit.outcome, MemoOutcome::PermanentFailure);
        assert!(hit.warm);
    }

    #[test]
    fn invalidate_drops_every_entry() {
        let memo = SourceMemo::new();
        memo.store(0, 0, SCAN_PATTERN, MemoOutcome::Success);
        assert!(memo.lookup(0, 0, SCAN_PATTERN).is_some());
        memo.invalidate();
        assert!(memo.lookup(0, 0, SCAN_PATTERN).is_none());
        assert!(memo.is_empty());
        // Stores after the clear survive.
        memo.store(0, 0, SCAN_PATTERN, MemoOutcome::PermanentFailure);
        assert!(memo.lookup(0, 0, SCAN_PATTERN).is_some());
    }

    #[test]
    fn backend_epoch_change_drops_stale_entries() {
        let memo = SourceMemo::new();
        memo.sync_backend_epoch(0); // no-op: already at 0
        memo.store(0, 0, SCAN_PATTERN, MemoOutcome::Success);
        memo.sync_backend_epoch(1);
        assert!(
            memo.lookup(0, 0, SCAN_PATTERN).is_none(),
            "outcomes from the old data version are gone"
        );
        memo.store(0, 0, SCAN_PATTERN, MemoOutcome::Success);
        memo.sync_backend_epoch(1); // same version: entries survive
        assert!(memo.lookup(0, 0, SCAN_PATTERN).is_some());
    }

    fn rows() -> Arc<Vec<Tuple>> {
        let row = |k, name| vec![Constant::Int(k), Constant::str(name)];
        Arc::new(vec![row(1, "ford"), row(2, "hamill")])
    }

    #[test]
    fn rows_ride_beside_a_success_shared_and_survive_begin_run() {
        let memo = SourceMemo::new();
        memo.begin_run();
        let (bound, fetched) = ("bind;0=s4:ford", rows());
        memo.store_rows(0, 0, bound, MemoOutcome::Success, Some(fetched.clone()));
        memo.store(0, 1, SCAN_PATTERN, MemoOutcome::Success);
        memo.begin_run();
        let hit = memo.lookup(0, 0, bound).expect("stored");
        assert!(hit.warm);
        assert!(Arc::ptr_eq(hit.rows.as_ref().unwrap(), &fetched), "no copy");
        assert_eq!(memo.lookup(0, 1, SCAN_PATTERN).unwrap().rows, None);
        // A permanent failure vouches for no rows, whatever rode in.
        memo.store_rows(1, 0, bound, MemoOutcome::PermanentFailure, Some(fetched));
        assert_eq!(memo.lookup(1, 0, bound).unwrap().rows, None);
    }

    #[test]
    fn rows_die_with_their_outcome_and_the_bytes_return() {
        let bare = SourceMemo::new();
        bare.store(0, 0, SCAN_PATTERN, MemoOutcome::Success);
        let bare = bare.approx_bytes();
        for kill in [SourceMemo::invalidate, |m: &SourceMemo| {
            m.sync_backend_epoch(7)
        }] {
            let memo = SourceMemo::new();
            let store = || memo.store_rows(0, 0, SCAN_PATTERN, MemoOutcome::Success, Some(rows()));
            store();
            let held = memo.approx_bytes();
            let strings = "ford".len() + "hamill".len();
            let values = 4 * std::mem::size_of::<Constant>();
            let payload = 2 * std::mem::size_of::<Tuple>() + values + strings;
            assert_eq!(held, bare + payload, "rows are charged, once");
            // Overwriting the entry replaces its charge, not adds to it.
            store();
            assert_eq!(memo.approx_bytes(), held);
            memo.store(0, 0, SCAN_PATTERN, MemoOutcome::Success);
            assert_eq!(memo.approx_bytes(), bare);
            store();
            kill(&memo);
            assert!(memo.lookup(0, 0, SCAN_PATTERN).is_none());
            assert_eq!(memo.approx_bytes(), 0, "nothing left to charge");
        }
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging() {
        let memo = SourceMemo::new();
        memo.store(0, 0, SCAN_PATTERN, MemoOutcome::Success);
        // Poison the mutex: panic while holding the raw guard.
        let inner = Arc::clone(&memo.inner);
        let _ = std::thread::spawn(move || {
            let _guard = inner.lock().unwrap();
            panic!("poison the memo lock");
        })
        .join();
        assert!(memo.inner.is_poisoned(), "the panic actually poisoned it");
        // Every entry point still works on the recovered state.
        let hit = memo.lookup(0, 0, SCAN_PATTERN).expect("state survives");
        assert_eq!(hit.outcome, MemoOutcome::Success);
        memo.store(1, 0, SCAN_PATTERN, MemoOutcome::PermanentFailure);
        assert_eq!(memo.len(), 2);
        memo.invalidate();
        assert!(memo.is_empty());
    }

    #[test]
    fn patterns_key_distinct_entries() {
        let memo = SourceMemo::new();
        memo.store(0, 0, SCAN_PATTERN, MemoOutcome::Success);
        assert!(memo.lookup(0, 0, "bound:bf").is_none());
        memo.store(0, 0, "bound:bf", MemoOutcome::PermanentFailure);
        assert_eq!(
            memo.lookup(0, 0, SCAN_PATTERN).map(|h| h.outcome),
            Some(MemoOutcome::Success)
        );
        assert_eq!(memo.len(), 2);
    }
}
