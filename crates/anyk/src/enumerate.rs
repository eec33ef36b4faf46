//! Rank-aware intra-plan enumeration: a lazy, best-first join.
//!
//! [`RankedJoin`] evaluates one plan's conjunctive query and yields its
//! answer tuples in non-increasing score order **without materializing
//! the full join first** — the Tziavelis-style any-k frontier mapped onto
//! this repo's hash-join decomposition. Per body atom ("level") it builds
//! the same scored binding lists `Database::evaluate` would join, grouped
//! by the variables shared with the prefix and sorted best-first; a
//! priority queue then runs A\*/Lawler successor expansion over partial
//! joins. An entry's priority is its prefix score plus an admissible
//! bound on the best completion (the sum of the remaining levels' best
//! binding scores), so a full assignment pops only once nothing pending
//! can beat it — the first emission needs one root push and one
//! heap-descent per level, not the whole join.
//!
//! Determinism: binding lists sort by (score, binding) under the
//! normalized [`qpo_core::utility_cmp`] total order, and heap ties break
//! on the lexicographically smallest candidate-index path, so the
//! emission sequence is a pure function of the database, query, and
//! scorer — bit-stable across runs and worker counts.

use qpo_core::utility_cmp;
use qpo_datalog::{Atom, ConjunctiveQuery, Constant, Database, Term, Tuple};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::{Arc, Mutex};

type Row = BTreeMap<Arc<str>, Constant>;

/// One scored candidate binding at a level.
#[derive(Debug)]
struct Cand {
    score: f64,
    binding: Row,
}

/// One body atom's scored, grouped, best-first-sorted binding lists.
#[derive(Debug)]
struct Level {
    /// Variables this atom shares with the atoms before it (the join key).
    shared: Vec<Arc<str>>,
    /// Candidate bindings per join-key value, each sorted best-first.
    groups: Vec<Vec<Cand>>,
    /// Join-key value → index into `groups`.
    index: BTreeMap<Vec<Constant>, usize>,
    /// Best candidate score across every group (admissible completion
    /// bound ingredient).
    max_score: f64,
}

impl Level {
    /// Approximate resident bytes (candidates dominate).
    fn approx_bytes(&self) -> usize {
        let cands: usize = self
            .groups
            .iter()
            .flatten()
            .map(|c| {
                std::mem::size_of::<Cand>()
                    + c.binding
                        .iter()
                        .map(|(k, v)| k.len() + std::mem::size_of_val(v) + 16)
                        .sum::<usize>()
            })
            .sum();
        cands + self.index.len() * 32 + std::mem::size_of::<Self>()
    }
}

/// Scans, scores, groups, and sorts one atom's binding lists — the
/// expensive part of [`RankedJoin`] construction, and a pure function of
/// `(database, atom, shared variables, that atom's scorer)`: exactly what
/// [`LevelCache`] shares across plans.
fn build_level(
    db: &Database,
    atom: &Atom,
    ai: usize,
    shared: &[Arc<str>],
    atom_score: &mut dyn FnMut(usize, &Tuple) -> f64,
) -> Level {
    let mut cands: Vec<Cand> = Vec::new();
    'tuples: for tuple in db.tuples(&atom.predicate) {
        if tuple.len() != atom.arity() {
            continue;
        }
        let mut binding = Row::new();
        for (term, value) in atom.terms.iter().zip(tuple) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        continue 'tuples;
                    }
                }
                Term::Var(v) => match binding.get(v.as_ref()) {
                    Some(prev) if prev != value => continue 'tuples,
                    Some(_) => {}
                    None => {
                        binding.insert(v.clone(), value.clone());
                    }
                },
            }
        }
        let score = atom_score(ai, tuple) + 0.0;
        cands.push(Cand { score, binding });
    }
    let max_score = cands
        .iter()
        .map(|c| c.score)
        .fold(f64::NEG_INFINITY, |a, s| {
            if utility_cmp(s, a) == Ordering::Greater {
                s
            } else {
                a
            }
        });
    let mut index: BTreeMap<Vec<Constant>, usize> = BTreeMap::new();
    let mut groups: Vec<Vec<Cand>> = Vec::new();
    for cand in cands {
        let key: Vec<Constant> = shared
            .iter()
            .map(|v| cand.binding[v.as_ref()].clone())
            .collect();
        let next_id = groups.len();
        let gid = *index.entry(key).or_insert(next_id);
        if gid == groups.len() {
            groups.push(Vec::new());
        }
        groups[gid].push(cand);
    }
    for group in &mut groups {
        group.sort_by(|a, b| utility_cmp(b.score, a.score).then_with(|| a.binding.cmp(&b.binding)));
    }
    Level {
        shared: shared.to_vec(),
        groups,
        index,
        max_score,
    }
}

#[derive(Debug, Default)]
struct LevelCacheInner {
    levels: BTreeMap<String, Arc<Level>>,
    hits: u64,
    misses: u64,
}

/// Cross-plan cache of constructed [`RankedJoin`] levels, cheaply
/// cloneable (shared interior).
///
/// Overlapping plans of one reformulation repeat atoms (with the same
/// chosen source) at the same body positions; their scored, grouped,
/// sorted binding lists are identical, and building them is the dominant
/// cost of `RankedJoin::new`. The cache shares them as [`Arc`]s.
///
/// ## Key contract
///
/// The caller's per-level key must determine the atom *and* its scoring
/// function (for plan enumeration: the atom's rendered form plus the
/// chosen source); the cache appends the shared-variable join key itself.
/// One cache must only ever be used with a single `(database, scorer)`
/// pairing — scope it to a session, as `qpo-exec`'s execution memo does.
#[derive(Debug, Clone, Default)]
pub struct LevelCache {
    inner: Arc<Mutex<LevelCacheInner>>,
}

impl LevelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        LevelCache::default()
    }

    /// Levels served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Levels built fresh so far.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Number of cached levels.
    pub fn len(&self) -> usize {
        self.lock().levels.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().levels.is_empty()
    }

    /// Approximate resident bytes of every cached level.
    pub fn approx_bytes(&self) -> usize {
        self.lock()
            .levels
            .iter()
            .map(|(k, l)| k.len() + l.approx_bytes())
            .sum()
    }

    fn get_or_build(&self, key: String, build: impl FnOnce() -> Level) -> Arc<Level> {
        if let Some(level) = {
            let mut inner = self.lock();
            let found = inner.levels.get(&key).cloned();
            if found.is_some() {
                inner.hits += 1;
            }
            found
        } {
            return level;
        }
        // Built outside the lock: construction scans the database.
        let level = Arc::new(build());
        let mut inner = self.lock();
        inner.misses += 1;
        inner
            .levels
            .entry(key)
            .or_insert_with(|| Arc::clone(&level));
        level
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LevelCacheInner> {
        self.inner
            .lock()
            .expect("level cache lock is never poisoned")
    }
}

/// A frontier entry: the choice of candidate `idx` (within `group`) at
/// `level`, extending the prefix `row` whose score is `prefix_score`.
struct Entry {
    /// `prefix_score + cand.score + rest_bound[level]` — an upper bound
    /// on the best full answer under this entry, exact at the last level.
    priority: f64,
    level: usize,
    group: usize,
    idx: usize,
    /// Prefix score *before* this entry's candidate.
    prefix_score: f64,
    /// Prefix bindings *before* this entry's candidate (shared with
    /// siblings).
    row: Arc<Row>,
    /// Candidate indices chosen at levels `0..=level` (this entry's `idx`
    /// last) — the deterministic tie-break.
    path: Vec<usize>,
}

heap_order!(Entry, |a, b| utility_cmp(a.priority, b.priority)
    .then_with(|| b.path.cmp(&a.path)));

/// Lazy best-first enumeration of one conjunctive query's answers.
///
/// Yields `(score, tuple)` pairs in non-increasing score order, each
/// distinct projected head tuple exactly once (at its maximum score).
pub struct RankedJoin {
    head: Vec<Term>,
    levels: Vec<Arc<Level>>,
    /// `rest_bound[i]` = sum of `levels[i+1..]` best scores.
    rest_bound: Vec<f64>,
    heap: BinaryHeap<Entry>,
    emitted: BTreeSet<Tuple>,
    /// Empty-body queries emit their (all-constant) head once.
    trivial: Option<Tuple>,
}

impl RankedJoin {
    /// Builds the enumerator for `query` over `db`, scoring each stored
    /// fact with `atom_score(atom_index, fact)`.
    ///
    /// # Panics
    /// Panics if the query is unsafe (same contract as
    /// [`Database::evaluate`]).
    pub fn new(
        db: &Database,
        query: &ConjunctiveQuery,
        atom_score: impl FnMut(usize, &Tuple) -> f64,
    ) -> Self {
        Self::build(
            db,
            query,
            atom_score,
            None::<(&LevelCache, fn(usize) -> String)>,
        )
    }

    /// [`RankedJoin::new`] with level construction shared through a
    /// [`LevelCache`]: each level is fetched by `level_key(atom_index)`
    /// (see the cache's key contract) and built only on a miss. The
    /// emitted stream is bit-identical to the uncached constructor —
    /// levels are pure functions of their key.
    ///
    /// # Panics
    /// Panics if the query is unsafe.
    pub fn with_cache(
        db: &Database,
        query: &ConjunctiveQuery,
        atom_score: impl FnMut(usize, &Tuple) -> f64,
        cache: &LevelCache,
        level_key: impl FnMut(usize) -> String,
    ) -> Self {
        Self::build(db, query, atom_score, Some((cache, level_key)))
    }

    fn build(
        db: &Database,
        query: &ConjunctiveQuery,
        mut atom_score: impl FnMut(usize, &Tuple) -> f64,
        mut cache: Option<(&LevelCache, impl FnMut(usize) -> String)>,
    ) -> Self {
        assert!(query.is_safe(), "cannot enumerate unsafe query {query}");
        let mut levels = Vec::with_capacity(query.body.len());
        let mut bound_vars: BTreeSet<Arc<str>> = BTreeSet::new();
        for (ai, atom) in query.body.iter().enumerate() {
            let shared: Vec<Arc<str>> = atom
                .variables()
                .into_iter()
                .filter(|v| bound_vars.contains(v))
                .collect();
            let mut build = || build_level(db, atom, ai, &shared, &mut atom_score);
            levels.push(match &mut cache {
                Some((cache, level_key)) => {
                    let mut key = level_key(ai);
                    key.push('|');
                    for v in &shared {
                        key.push_str(v);
                        key.push(',');
                    }
                    cache.get_or_build(key, build)
                }
                None => Arc::new(build()),
            });
            bound_vars.extend(atom.variables());
        }
        Self::assemble(query, levels)
    }

    /// Shared tail of the constructors: completion bounds, the trivial
    /// empty-body answer, and the root frontier entry.
    fn assemble(query: &ConjunctiveQuery, levels: Vec<Arc<Level>>) -> Self {
        let mut rest_bound = vec![0.0; levels.len()];
        for i in (0..levels.len().saturating_sub(1)).rev() {
            rest_bound[i] = levels[i + 1].max_score + rest_bound[i + 1] + 0.0;
        }
        let trivial = query.body.is_empty().then(|| {
            query
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => unreachable!("safe empty-body query binds {v}"),
                })
                .collect()
        });
        let mut join = RankedJoin {
            head: query.head.terms.clone(),
            levels,
            rest_bound,
            heap: BinaryHeap::new(),
            emitted: BTreeSet::new(),
            trivial,
        };
        join.seed();
        join
    }

    /// Pushes the root frontier entry (best candidate of level 0).
    fn seed(&mut self) {
        let Some(level0) = self.levels.first() else {
            return;
        };
        // Level 0 shares no variables with an (empty) prefix, so all its
        // candidates live in the single empty-key group.
        if let Some(&gid) = level0.index.get(&Vec::new()) {
            let priority = level0.groups[gid][0].score + self.rest_bound[0] + 0.0;
            self.heap.push(Entry {
                priority,
                level: 0,
                group: gid,
                idx: 0,
                prefix_score: 0.0,
                row: Arc::new(Row::new()),
                path: vec![0],
            });
        }
    }

    /// Per body atom, the best fact score actually present at that level
    /// (`-inf` for an empty one): what the release gate tightens to.
    pub fn level_bounds(&self) -> impl Iterator<Item = f64> + '_ {
        self.levels.iter().map(|l| l.max_score)
    }

    /// Drains the remaining stream into a vector (ranked order).
    pub fn drain(&mut self) -> Vec<(f64, Tuple)> {
        self.by_ref().collect()
    }
}

/// Emits each distinct answer tuple lazily, best score first.
impl Iterator for RankedJoin {
    type Item = (f64, Tuple);

    fn next(&mut self) -> Option<(f64, Tuple)> {
        if let Some(tuple) = self.trivial.take() {
            return Some((0.0, tuple));
        }
        while let Some(entry) = self.heap.pop() {
            let group = &self.levels[entry.level].groups[entry.group];
            let cand = &group[entry.idx];
            // Lawler successor: the same prefix with this level's next-best
            // candidate stays on the frontier.
            if entry.idx + 1 < group.len() {
                let sibling = &group[entry.idx + 1];
                let mut path = entry.path.clone();
                *path.last_mut().expect("path covers levels 0..=level") = entry.idx + 1;
                self.heap.push(Entry {
                    priority: entry.prefix_score
                        + sibling.score
                        + self.rest_bound[entry.level]
                        + 0.0,
                    level: entry.level,
                    group: entry.group,
                    idx: entry.idx + 1,
                    prefix_score: entry.prefix_score,
                    row: Arc::clone(&entry.row),
                    path,
                });
            }
            let score = entry.prefix_score + cand.score + 0.0;
            let mut row = (*entry.row).clone();
            for (k, v) in &cand.binding {
                row.insert(k.clone(), v.clone());
            }
            if entry.level + 1 == self.levels.len() {
                let tuple = project(&self.head, &row);
                if self.emitted.insert(tuple.clone()) {
                    return Some((score, tuple));
                }
                continue;
            }
            // Descend: best candidate of the next level's matching group.
            let next_level = &self.levels[entry.level + 1];
            let key: Vec<Constant> = next_level
                .shared
                .iter()
                .map(|v| row[v.as_ref()].clone())
                .collect();
            if let Some(&gid) = next_level.index.get(&key) {
                let child = &next_level.groups[gid][0];
                let mut path = entry.path.clone();
                path.push(0);
                self.heap.push(Entry {
                    priority: score + child.score + self.rest_bound[entry.level + 1] + 0.0,
                    level: entry.level + 1,
                    group: gid,
                    idx: 0,
                    prefix_score: score,
                    row: Arc::new(row),
                    path,
                });
            }
        }
        None
    }
}

fn project(head: &[Term], row: &Row) -> Tuple {
    head.iter()
        .map(|t| match t {
            Term::Const(c) => c.clone(),
            Term::Var(v) => row
                .get(v.as_ref())
                .cloned()
                .expect("safe query binds every head variable"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_datalog::parse_query;

    fn movie_db() -> Database {
        let mut db = Database::new();
        for (a, m) in [
            ("ford", "blade_runner"),
            ("ford", "witness"),
            ("hanks", "big"),
        ] {
            db.insert("play_in", vec![Constant::str(a), Constant::str(m)]);
        }
        for (r, m) in [("rev1", "blade_runner"), ("rev2", "big")] {
            db.insert("review_of", vec![Constant::str(r), Constant::str(m)]);
        }
        db
    }

    fn flat_score(_: usize, _: &Tuple) -> f64 {
        1.0
    }

    #[test]
    fn ranked_join_matches_evaluate() {
        let db = movie_db();
        for text in [
            "q(M) :- play_in(ford, M)",
            "q(M, R) :- play_in(ford, M), review_of(R, M)",
            "q(A, M, R) :- play_in(A, M), review_of(R, M)",
            "q(M) :- play_in(nobody, M)",
            "q(X, Y) :- play_in(X, Y), play_in(X, Y)",
        ] {
            let q = parse_query(text).unwrap();
            let mut join = RankedJoin::new(&db, &q, flat_score);
            let got: BTreeSet<Tuple> = join.drain().into_iter().map(|(_, t)| t).collect();
            assert_eq!(got, db.evaluate(&q), "{text}");
        }
    }

    #[test]
    fn emission_is_lazy_and_non_increasing() {
        let mut db = Database::new();
        for i in 0..20 {
            db.insert("a", vec![Constant::int(i)]);
            db.insert("b", vec![Constant::int(i)]);
        }
        let q = parse_query("q(X, Y) :- a(X), b(Y)").unwrap();
        // Score favours large ints; the top answer must arrive first
        // without draining the 400-tuple product.
        let mut join = RankedJoin::new(&db, &q, |_, t| match t[0] {
            Constant::Int(i) => i as f64,
            _ => 0.0,
        });
        let (score, tuple) = join.next().unwrap();
        assert_eq!(score, 38.0);
        assert_eq!(tuple, vec![Constant::int(19), Constant::int(19)]);
        assert!(
            join.heap.len() < 10,
            "frontier stays small after the first pop (got {})",
            join.heap.len()
        );
        let rest = join.drain();
        assert_eq!(rest.len() + 1, 400);
        let mut last = score;
        for (s, _) in rest {
            assert!(utility_cmp(last, s) != Ordering::Less, "{last} then {s}");
            last = s;
        }
    }

    #[test]
    fn join_key_respects_shared_variables() {
        let db = movie_db();
        let q = parse_query("q(M, R) :- play_in(ford, M), review_of(R, M)").unwrap();
        let mut join = RankedJoin::new(&db, &q, flat_score);
        let all = join.drain();
        assert_eq!(all.len(), 1);
        assert_eq!(
            all[0].1,
            vec![Constant::str("blade_runner"), Constant::str("rev1")]
        );
    }

    #[test]
    fn duplicate_projections_emit_once_at_max_score() {
        let mut db = Database::new();
        db.insert("r", vec![Constant::int(1), Constant::int(10)]);
        db.insert("r", vec![Constant::int(1), Constant::int(20)]);
        let q = parse_query("q(X) :- r(X, Y)").unwrap();
        let mut join = RankedJoin::new(&db, &q, |_, t| match t[1] {
            Constant::Int(i) => i as f64,
            _ => 0.0,
        });
        let all = join.drain();
        assert_eq!(all.len(), 1, "projection dedup");
        assert_eq!(all[0].0, 20.0, "kept at its best score");
    }

    #[test]
    fn cached_levels_reproduce_the_stream_bit_for_bit() {
        let db = movie_db();
        let cache = LevelCache::new();
        let score = |ai: usize, t: &Tuple| ai as f64 + t.len() as f64;
        for text in [
            "q(M, R) :- play_in(ford, M), review_of(R, M)",
            "q(A, M, R) :- play_in(A, M), review_of(R, M)",
        ] {
            let q = parse_query(text).unwrap();
            let reference = RankedJoin::new(&db, &q, score).drain();
            // Two cached constructions: the second hits every level.
            for _ in 0..2 {
                let cached =
                    RankedJoin::with_cache(&db, &q, score, &cache, |ai| format!("{text}#{ai}"))
                        .drain();
                assert_eq!(cached.len(), reference.len(), "{text}");
                for ((s1, t1), (s2, t2)) in cached.iter().zip(&reference) {
                    assert_eq!(s1.to_bits(), s2.to_bits(), "{text}");
                    assert_eq!(t1, t2, "{text}");
                }
            }
        }
        assert_eq!(cache.hits(), 4, "second runs hit every level");
        assert_eq!(cache.misses(), 4, "2 + 2 distinct levels built once");
        assert!(cache.approx_bytes() > 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cache_keys_isolate_different_scorers() {
        // Same atoms, different per-position scoring: distinct keys must
        // keep the streams honest.
        let db = movie_db();
        let cache = LevelCache::new();
        let q = parse_query("q(M) :- play_in(ford, M)").unwrap();
        let low =
            RankedJoin::with_cache(&db, &q, |_, _| 1.0, &cache, |ai| format!("low#{ai}")).drain();
        let high =
            RankedJoin::with_cache(&db, &q, |_, _| 9.0, &cache, |ai| format!("high#{ai}")).drain();
        assert_eq!(low.len(), high.len());
        assert!(low.iter().all(|(s, _)| *s == 1.0));
        assert!(high.iter().all(|(s, _)| *s == 9.0));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn empty_body_emits_the_constant_head_once() {
        let db = Database::new();
        let q = parse_query("q() :-").unwrap();
        let mut join = RankedJoin::new(&db, &q, flat_score);
        assert_eq!(join.next(), Some((0.0, Vec::new())));
        assert_eq!(join.next(), None);
    }
}
