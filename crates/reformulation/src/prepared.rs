//! Prepared queries and the canonicalized reformulation cache.
//!
//! Reformulation is pure: for a fixed catalog (and universe/overhead
//! configuration), the buckets and the numeric [`ProblemInstance`] depend
//! only on the query's structure — not on its variable names, and not on
//! the order of its body atoms. A serving mediator therefore computes the
//! [`CanonicalQuery`] key of each incoming query and looks it up in a
//! bounded LRU [`ReformulationCache`]; a hit returns a shared
//! [`Arc<PreparedQuery>`] and **skips bucket generation and instance
//! assembly entirely**. Misses run [`prepare`] once and publish the result
//! for every later structurally-identical query.
//!
//! The cached artifact keeps the *representative* query — the first
//! concrete query that produced the entry — so materialized plans
//! ([`Reformulation::plan_query`]) are rendered with that representative's
//! variable names. Answers are tuples of constants and do not depend on
//! variable names, so a hit serves the same answer sets (and the same
//! plan-index/utility sequence) a cold run would have produced.

use crate::assemble::{reformulate, Reformulation, ReformulationError};
use qpo_catalog::{Catalog, ProblemInstance};
use qpo_datalog::{CanonicalQuery, ConjunctiveQuery, ExpansionError};
use qpo_obs::{Counter, Obs};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// By the plan's mixed-radix number: sound or not — a byte an entry — and
/// the error of the rare test that itself failed.
type Verdicts = (BTreeMap<u64, bool>, BTreeMap<u64, ExpansionError>);

/// Everything the serving layer needs to order and execute plans for one
/// query shape: the symbolic reformulation plus the numeric instance.
/// Pure, and immutable but for a memo of another pure function — the
/// verdicts of the plans tested so far ([`PreparedQuery::verdict`]) —
/// so share it freely across sessions and threads.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The representative query this entry was prepared from.
    pub query: ConjunctiveQuery,
    /// The canonical key the entry is filed under.
    pub canonical: CanonicalQuery,
    /// Buckets + plan materialization for the representative query.
    pub reformulation: Reformulation,
    /// The numeric instance the plan orderers consume.
    pub instance: ProblemInstance,
    /// Per-subgoal universe the instance was assembled with.
    pub universe: u64,
    /// Access overhead `h` the instance was assembled with.
    pub overhead: f64,
    /// For the plans tested so far only.
    verdicts: Arc<Mutex<Verdicts>>,
}

impl PreparedQuery {
    /// Number of candidate plans in the instance's Cartesian product.
    pub fn plan_count(&self) -> usize {
        self.instance.plan_count()
    }

    /// The soundness verdict of `plan`: `test`ed — a pure function of the
    /// entry and the plan — the first time a run or session over this
    /// entry asks, answered from memory thereafter, the test's own error
    /// included. (A plan space beyond 64 bits is tested every time.)
    pub fn verdict(
        &self,
        plan: &[usize],
        test: impl FnOnce() -> Result<bool, ExpansionError>,
    ) -> Result<bool, ExpansionError> {
        let sizes = self.instance.buckets.iter().map(|b| b.len() as u64);
        let number = plan.iter().zip(sizes).try_fold(0u64, |n, (&i, size)| {
            n.checked_mul(size)?.checked_add(i as u64)
        });
        let Some(number) = number else {
            return test();
        };
        // Poison recovery: an update is whole-entry inserts, error first.
        let verdicts = || self.verdicts.lock().unwrap_or_else(|e| e.into_inner());
        let known = {
            let (sound, errors) = &*verdicts();
            let error = || errors.get(&number).cloned();
            sound.get(&number).map(|&s| error().map_or(Ok(s), Err))
        };
        // Tested outside the lock; a racing thread stores the same verdict.
        known.unwrap_or_else(|| {
            let verdict = test();
            let (sound, errors) = &mut *verdicts();
            errors.extend(verdict.clone().err().map(|e| (number, e)));
            sound.insert(number, matches!(verdict, Ok(true)));
            verdict
        })
    }
}

/// Reformulates `query` against `catalog` and assembles the numeric
/// instance — the full (cacheable) plan-generation pipeline.
pub fn prepare(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    universe: u64,
    overhead: f64,
) -> Result<PreparedQuery, ReformulationError> {
    let reformulation = reformulate(catalog, query)?;
    let instance = reformulation.problem_instance(catalog, universe, overhead)?;
    Ok(PreparedQuery {
        query: query.clone(),
        canonical: CanonicalQuery::of(query),
        reformulation,
        instance,
        universe,
        overhead,
        verdicts: Arc::default(),
    })
}

/// Aggregate cache counters, snapshotted by [`ReformulationCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (plan generation skipped).
    pub hits: u64,
    /// Lookups that had to prepare the query.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Calls into the plan-generation pipeline ([`prepare`]). On a
    /// single-threaded workload this equals `misses`; under concurrency
    /// two racing misses for one key may both generate (the loser's entry
    /// is discarded), so `generations >= misses` in general.
    pub generations: u64,
    /// Entries currently resident.
    pub len: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Slot {
    prepared: Arc<PreparedQuery>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: BTreeMap<CanonicalQuery, Slot>,
    tick: u64,
}

/// A bounded LRU cache of [`PreparedQuery`] entries keyed on
/// [`CanonicalQuery`], bound to one `(universe, overhead)` configuration.
///
/// Interior-mutable and `Sync`: lookups take a short mutex; the expensive
/// prepare work on a miss runs *outside* the lock, so concurrent sessions
/// never serialize on plan generation. Counters are `qpo-obs` handles —
/// detached by default, re-homed onto a registry by
/// [`ReformulationCache::with_obs`].
#[derive(Debug)]
pub struct ReformulationCache {
    capacity: usize,
    universe: u64,
    overhead: f64,
    inner: Mutex<CacheInner>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    generations: Counter,
}

impl ReformulationCache {
    /// An empty cache holding at most `capacity` entries (min 1), for
    /// instances assembled with the given universe and overhead.
    pub fn new(capacity: usize, universe: u64, overhead: f64) -> Self {
        ReformulationCache {
            capacity: capacity.max(1),
            universe,
            overhead,
            inner: Mutex::new(CacheInner::default()),
            hits: Counter::detached(),
            misses: Counter::detached(),
            evictions: Counter::detached(),
            generations: Counter::detached(),
        }
    }

    /// Re-homes the cache's counters onto `obs.registry` under the
    /// `qpo_reformulation_cache_*` / `qpo_reformulation_generations_total`
    /// names. Call before first use — prior counts stay on the detached
    /// handles.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.hits = obs
            .registry
            .counter("qpo_reformulation_cache_hits_total", &[]);
        self.misses = obs
            .registry
            .counter("qpo_reformulation_cache_misses_total", &[]);
        self.evictions = obs
            .registry
            .counter("qpo_reformulation_cache_evictions_total", &[]);
        self.generations = obs
            .registry
            .counter("qpo_reformulation_generations_total", &[]);
        self
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The universe the cache's instances are assembled with.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The access overhead the cache's instances are assembled with.
    pub fn overhead(&self) -> f64 {
        self.overhead
    }

    /// Current counter values and occupancy.
    pub fn stats(&self) -> CacheStats {
        let len = self.lock().map.len();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            generations: self.generations.get(),
            len,
        }
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Looks up the canonical key of `query`, preparing and inserting on a
    /// miss. A hit returns the shared entry without touching the
    /// plan-generation pipeline.
    pub fn get_or_prepare(
        &self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
    ) -> Result<Arc<PreparedQuery>, ReformulationError> {
        let key = CanonicalQuery::of(query);
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.map.get_mut(&key) {
                slot.last_used = tick;
                self.hits.inc();
                return Ok(Arc::clone(&slot.prepared));
            }
        }
        // Miss: generate outside the lock so other sessions keep serving.
        self.misses.inc();
        self.generations.inc();
        let prepared = Arc::new(prepare(catalog, query, self.universe, self.overhead)?);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.map.get_mut(&key) {
            // A racing thread published first; keep its entry so every
            // later hit serves one representative.
            slot.last_used = tick;
            return Ok(Arc::clone(&slot.prepared));
        }
        inner.map.insert(
            key,
            Slot {
                prepared: Arc::clone(&prepared),
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            // Evict the least-recently-used key (ties broken by key order,
            // deterministically, courtesy of the BTreeMap walk).
            let lru = inner.map.iter().min_by_key(|(_, slot)| slot.last_used);
            let Some(lru) = lru.map(|(k, _)| k.clone()) else {
                break;
            };
            inner.map.remove(&lru);
            self.evictions.inc();
        }
        Ok(prepared)
    }

    /// The cache's map. Every update under the lock inserts or removes a
    /// whole entry, so a guard poisoned by a panicking holder still holds
    /// a consistent map, and the cache goes on serving from it.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
    use qpo_datalog::parse_query;

    fn cache(capacity: usize) -> ReformulationCache {
        ReformulationCache::new(capacity, MOVIE_UNIVERSE, 5.0)
    }

    #[test]
    fn miss_then_hit_shares_the_entry() {
        let catalog = movie_domain();
        let c = cache(8);
        let a = c.get_or_prepare(&catalog, &movie_query()).unwrap();
        let b = c.get_or_prepare(&catalog, &movie_query()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the prepared entry");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.generations, s.len), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn renamed_query_hits_without_generation() {
        let catalog = movie_domain();
        let c = cache(8);
        let a = c.get_or_prepare(&catalog, &movie_query()).unwrap();
        let renamed =
            parse_query("q(Movie, Rev) :- play_in(ford, Movie), review_of(Rev, Movie)").unwrap();
        let b = c.get_or_prepare(&catalog, &renamed).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(c.stats().generations, 1, "hit skipped plan generation");
        // The shared entry renders plans with the representative's names.
        assert_eq!(b.query, movie_query());
    }

    #[test]
    fn different_constants_do_not_share() {
        let catalog = movie_domain();
        let c = cache(8);
        let q1 = parse_query("q(M, R) :- play_in(ford, M), review_of(R, M)").unwrap();
        let q2 = parse_query("q(M, R) :- play_in(hanks, M), review_of(R, M)").unwrap();
        let a = c.get_or_prepare(&catalog, &q1).unwrap();
        let b = c.get_or_prepare(&catalog, &q2).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(c.stats().generations, 2);
    }

    #[test]
    fn lru_bound_evicts_the_coldest_entry() {
        let catalog = movie_domain();
        let c = cache(2);
        let q = |actor: &str| {
            parse_query(&format!("q(M, R) :- play_in({actor}, M), review_of(R, M)")).unwrap()
        };
        c.get_or_prepare(&catalog, &q("a1")).unwrap();
        c.get_or_prepare(&catalog, &q("a2")).unwrap();
        c.get_or_prepare(&catalog, &q("a1")).unwrap(); // refresh a1
        c.get_or_prepare(&catalog, &q("a3")).unwrap(); // evicts a2
        let s = c.stats();
        assert_eq!((s.evictions, s.len), (1, 2));
        c.get_or_prepare(&catalog, &q("a1")).unwrap(); // still resident
        assert_eq!(c.stats().hits, 2);
        c.get_or_prepare(&catalog, &q("a2")).unwrap(); // was evicted: miss
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn an_evicted_shape_is_tested_again() {
        // Verdicts live on the entry: the one the LRU bound evicts takes
        // them along, and its shape's next entry tests every plan again.
        let catalog = movie_domain();
        let views = catalog.view_map();
        let c = cache(1);
        let tests = std::cell::Cell::new(0);
        let serve = |q: &ConjunctiveQuery| {
            let p = c.get_or_prepare(&catalog, q).unwrap();
            for plan in p.instance.all_plans() {
                let plan_query = p.reformulation.plan_query(&plan);
                let verdict = p.verdict(&plan, || {
                    tests.set(tests.get() + 1);
                    qpo_datalog::is_sound_plan(&plan_query, &views, &p.reformulation.query)
                });
                verdict.unwrap();
            }
        };
        serve(&movie_query());
        let once = tests.get();
        serve(&movie_query());
        assert_eq!((once, tests.get()), (9, 9), "remembered while cached");
        // Another shape takes the only slot; the first entry's verdicts
        // go with it.
        serve(&parse_query("q(M, R) :- play_in(hanks, M), review_of(R, M)").unwrap());
        serve(&movie_query());
        assert_eq!(tests.get(), 3 * once);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let catalog = movie_domain();
        let c = cache(8);
        let bad = parse_query("q(D) :- directs(D, M)").unwrap();
        assert!(c.get_or_prepare(&catalog, &bad).is_err());
        assert!(c.get_or_prepare(&catalog, &bad).is_err());
        let s = c.stats();
        assert_eq!(s.len, 0);
        assert_eq!(s.misses, 2, "each failing lookup re-runs reformulation");
    }

    #[test]
    fn prepare_matches_direct_reformulation() {
        let catalog = movie_domain();
        let p = prepare(&catalog, &movie_query(), MOVIE_UNIVERSE, 5.0).unwrap();
        let r = reformulate(&catalog, &movie_query()).unwrap();
        let inst = r.problem_instance(&catalog, MOVIE_UNIVERSE, 5.0).unwrap();
        assert_eq!(p.reformulation.buckets, r.buckets);
        assert_eq!(p.instance.buckets, inst.buckets);
        assert_eq!(p.plan_count(), 9);
    }

    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let catalog = movie_domain();
        let c = cache(1);
        c.get_or_prepare(&catalog, &movie_query()).unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = c.inner.lock();
                panic!("poison the cache lock");
            })
            .join()
        });
        assert!(poisoner.is_err() && c.inner.is_poisoned());
        let a = c.get_or_prepare(&catalog, &movie_query()).unwrap();
        assert_eq!(c.stats().hits, 1, "the entry survived the poisoning");
        let other = parse_query("q(M, R) :- play_in(hanks, M), review_of(R, M)").unwrap();
        let b = c.get_or_prepare(&catalog, &other).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((c.stats().evictions, c.stats().len), (1, 1));
        c.clear();
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn with_obs_lands_counters_on_the_registry() {
        let catalog = movie_domain();
        let obs = Obs::new();
        let c = cache(8).with_obs(&obs);
        c.get_or_prepare(&catalog, &movie_query()).unwrap();
        c.get_or_prepare(&catalog, &movie_query()).unwrap();
        assert_eq!(
            obs.registry
                .counter_value("qpo_reformulation_cache_hits_total", &[]),
            1
        );
        assert_eq!(
            obs.registry
                .counter_value("qpo_reformulation_generations_total", &[]),
            1
        );
    }
}
