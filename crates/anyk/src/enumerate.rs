//! Rank-aware intra-plan enumeration: a lazy, best-first join.
//!
//! [`RankedJoin`] evaluates one plan's conjunctive query and yields its
//! answer tuples in non-increasing score order **without materializing
//! the full join first** — the Tziavelis-style any-k frontier mapped onto
//! this repo's hash-join decomposition. Per body atom ("level") it admits
//! the facts `Database::evaluate` would join, through the join's own
//! compiled [`Slot`]s, scores them, groups them by the values of the
//! variables shared with the prefix and sorts each group best-first; a
//! priority queue then runs A\*/Lawler successor expansion over partial
//! joins. Rows are positional, as in the join: a frontier entry's prefix
//! is each chosen fact's fresh values, level after level. Entries are
//! `Copy` records: a prefix row lives in the join's row arena and its
//! fact-index path in its path arena, written once per descent and shared
//! by every sibling, so a pop allocates nothing. An entry's
//! priority is its prefix score plus an admissible bound on the best
//! completion (the sum of the remaining levels' best fact scores), so a
//! full assignment pops only once nothing pending can beat it — the first
//! emission needs one root push and one heap-descent per level, not the
//! whole join.
//!
//! Determinism: a group sorts by score under the normalized
//! [`qpo_core::utility_cmp`] total order, then by the fact's fresh values
//! in the name order of their variables, and heap ties break on the
//! lexicographically smallest fact-index path, so the emission sequence
//! is a pure function of the database, query, and scorer — bit-stable
//! across runs and worker counts.

use qpo_core::utility_cmp;
use qpo_datalog::eval::{admits, compile, project, Slot};
use qpo_datalog::{Atom, ConjunctiveQuery, Constant, Database, RowHasher, Tuple};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex};

use crate::heap;

/// One body atom's admitted facts, scored, grouped by join key and sorted
/// best-first within each group. A fact is an id: its fresh values sit in
/// one flat row-major table, in the name order of the variables they bind.
#[derive(Debug)]
struct Level {
    /// Fresh values per fact, `width` a fact.
    values: Vec<Constant>,
    width: usize,
    /// Score per fact.
    scores: Vec<f64>,
    /// Fact ids per join-key value, best first.
    groups: Vec<Vec<usize>>,
    /// Join-key value (shared variable `k`'s value at `k`) → index into
    /// `groups`.
    index: HashMap<Tuple, usize, BuildHasherDefault<RowHasher>>,
    /// Best fact score across every group (admissible completion bound
    /// ingredient).
    max_score: f64,
}

impl Level {
    /// The fresh values of fact `id`.
    fn fresh(&self, id: usize) -> &[Constant] {
        &self.values[id * self.width..(id + 1) * self.width]
    }

    /// Approximate resident bytes: the tables, the groups and the index.
    fn approx_bytes(&self) -> usize {
        let group = |g: &Vec<usize>| std::mem::size_of_val(g) + std::mem::size_of_val(&g[..]);
        let key = |k: &Tuple| std::mem::size_of::<(Tuple, usize)>() + std::mem::size_of_val(&k[..]);
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(&self.values[..])
            + std::mem::size_of_val(&self.scores[..])
            + self.groups.iter().map(group).sum::<usize>()
            + self.index.keys().map(key).sum::<usize>()
    }
}

/// Scans, scores, groups, and sorts one atom's facts — the expensive part
/// of [`RankedJoin`] construction, and a pure function of `(database,
/// atom, shared variables, that atom's scorer)`: exactly what
/// [`LevelCache`] shares across plans. The atom is compiled with the
/// shared variables as its columns, so `Key(k)` reads shared variable `k`.
fn build_level(
    db: &Database,
    atom: &Atom,
    shared: &[&str],
    mut score: impl FnMut(&Tuple) -> f64,
) -> Level {
    let mut columns = shared.to_vec();
    let slots = compile(atom, &mut columns);
    let key_at: Vec<usize> = (0..slots.len())
        .filter(|&p| matches!(slots[p], Slot::Key(_)))
        .collect();
    // Fresh positions in the name order of their variables: a group's
    // facts agree on the shared values, so a tie then breaks on the fact's
    // binding as a name-ordered map would, by a slice compare.
    let mut fresh: Vec<(&str, usize)> = columns[shared.len()..]
        .iter()
        .copied()
        .zip((0..slots.len()).filter(|&p| matches!(slots[p], Slot::New)))
        .collect();
    fresh.sort_unstable();
    let mut level = Level {
        values: Vec::new(),
        width: fresh.len(),
        scores: Vec::new(),
        groups: Vec::new(),
        index: HashMap::default(),
        max_score: f64::NEG_INFINITY,
    };
    for tuple in db.tuples(&atom.predicate).filter(|t| admits(&slots, t)) {
        let id = level.scores.len();
        let s = score(tuple) + 0.0;
        if utility_cmp(s, level.max_score) == Ordering::Greater {
            level.max_score = s;
        }
        level.scores.push(s);
        level
            .values
            .extend(fresh.iter().map(|&(_, p)| tuple[p].clone()));
        let key: Tuple = key_at.iter().map(|&p| tuple[p].clone()).collect();
        let next = level.groups.len();
        let gid = *level.index.entry(key).or_insert(next);
        if gid == next {
            level.groups.push(Vec::new());
        }
        level.groups[gid].push(id);
    }
    let mut groups = std::mem::take(&mut level.groups);
    for group in &mut groups {
        group.sort_by(|&a, &b| {
            utility_cmp(level.scores[b], level.scores[a])
                .then_with(|| level.fresh(a).cmp(level.fresh(b)))
        });
    }
    level.groups = groups;
    level
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
/// sorted facts are identical, and building them is the dominant cost of
/// [`RankedJoin::new`]. The cache shares them as [`Arc`]s.
///
/// ## Key contract
///
/// The caller's per-level key must determine the atom *and* its scoring
/// function (for plan enumeration: the atom's rendered form plus the
/// chosen source); the cache appends the shared-variable join key itself.
/// One cache must only ever be used with a single `(database, scorer)`
/// pairing — scope it to a session, as `qpo-exec`'s execution memo does,
/// or to one call.
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
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A frontier entry: the choice of fact `idx` (within `group`) at
/// `level`, extending a prefix whose score is `prefix_score`.
#[derive(Clone, Copy)]
struct Entry {
    /// `prefix_score + fact score + rest_bound[level]` — an upper bound on
    /// the best full answer under this entry, exact at the last level.
    priority: f64,
    level: usize,
    group: usize,
    idx: usize,
    /// Prefix score *before* this entry's fact.
    prefix_score: f64,
    /// Row arena offset of the fresh values chosen at levels `0..level`.
    row: usize,
    /// Path arena offset of the fact indices chosen at levels `0..level`;
    /// with `idx` appended, the entry's path: the deterministic tie-break.
    path: usize,
}

/// Whether `a` pops before `b`: the higher priority, then the smaller
/// path.
fn first(paths: &[usize], a: &Entry, b: &Entry) -> bool {
    let path = |e: &Entry| (paths[e.path..e.path + e.level].iter().copied()).chain([e.idx]);
    let order = utility_cmp(a.priority, b.priority).then_with(|| path(b).cmp(path(a)));
    order == Ordering::Greater
}

/// Lazy best-first enumeration of one conjunctive query's answers.
///
/// Yields `(score, tuple)` pairs in non-increasing score order, each
/// distinct projected head tuple exactly once (at its maximum score).
pub struct RankedJoin {
    /// The head, compiled against the prefix row's columns.
    head: Vec<Slot>,
    /// Per level, the prefix columns holding its join key.
    keys: Vec<Vec<usize>>,
    levels: Vec<Arc<Level>>,
    /// `rest_bound[i]` = sum of `levels[i+1..]` best scores.
    rest_bound: Vec<f64>,
    /// The frontier, a heap under [`first`].
    heap: Vec<Entry>,
    /// Row arena: every descent appends its prefix row.
    rows: Vec<Constant>,
    /// Path arena: every descent appends its prefix path.
    paths: Vec<usize>,
    /// A descent's join key, or a full row's projected head.
    scratch: Vec<Constant>,
    emitted: HashSet<Tuple, BuildHasherDefault<RowHasher>>,
    /// Empty-body queries emit their (all-constant) head once.
    trivial: Option<Tuple>,
}

impl RankedJoin {
    /// Builds the enumerator for `query` over `db`, scoring each stored
    /// fact with `atom_score(atom_index, fact)`. Each level is fetched
    /// from `cache` under `level_key(atom_index)` (see the cache's key
    /// contract) and built only on a miss; levels are pure functions of
    /// their key, so a hit changes no bit of the stream.
    ///
    /// # Panics
    /// Panics if the query is unsafe (same contract as
    /// [`Database::evaluate`]).
    pub fn new(
        db: &Database,
        query: &ConjunctiveQuery,
        mut atom_score: impl FnMut(usize, &Tuple) -> f64,
        cache: &LevelCache,
        mut level_key: impl FnMut(usize) -> String,
    ) -> Self {
        assert!(query.is_safe(), "cannot enumerate unsafe query {query}");
        // The prefix row's columns: each level's fresh variables, in name
        // order, level after level.
        let mut columns: Vec<&str> = Vec::new();
        let (mut keys, mut levels) = (Vec::new(), Vec::new());
        for (ai, atom) in query.body.iter().enumerate() {
            let bound = columns.len();
            let key: Vec<usize> = (compile(atom, &mut columns).into_iter())
                .filter_map(|slot| match slot {
                    Slot::Key(column) => Some(column),
                    _ => None,
                })
                .collect();
            columns[bound..].sort_unstable();
            let shared: Vec<&str> = key.iter().map(|&c| columns[c]).collect();
            let mut name = level_key(ai);
            name.push('|');
            name.extend(shared.iter().flat_map(|v| [*v, ","]));
            let score = |fact: &Tuple| atom_score(ai, fact);
            levels.push(cache.get_or_build(name, || build_level(db, atom, &shared, score)));
            keys.push(key);
        }
        let head = compile(&query.head, &mut columns);
        let mut rest_bound = vec![0.0; levels.len()];
        for i in (0..levels.len().saturating_sub(1)).rev() {
            rest_bound[i] = levels[i + 1].max_score + rest_bound[i + 1] + 0.0;
        }
        let trivial = query.body.is_empty().then(|| {
            let mut tuple = Vec::new();
            project(&head, &[], &mut tuple);
            tuple
        });
        let mut join = RankedJoin {
            head,
            keys,
            levels,
            rest_bound,
            heap: Vec::new(),
            rows: Vec::new(),
            paths: Vec::new(),
            scratch: Vec::new(),
            emitted: HashSet::default(),
            trivial,
        };
        join.seed();
        join
    }

    /// Pushes the root frontier entry (best fact of level 0).
    fn seed(&mut self) {
        let Some(level0) = self.levels.first() else {
            return;
        };
        // Level 0 shares no variables with an (empty) prefix, so all its
        // facts live in the single empty-key group.
        if let Some(&gid) = level0.index.get::<[Constant]>(&[]) {
            let priority = level0.scores[level0.groups[gid][0]] + self.rest_bound[0] + 0.0;
            self.heap.push(Entry {
                priority,
                level: 0,
                group: gid,
                idx: 0,
                prefix_score: 0.0,
                row: 0,
                path: 0,
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
        while let Some(&entry) = self.heap.first() {
            let level = &self.levels[entry.level];
            let group = &level.groups[entry.group];
            let fact = group[entry.idx];
            // Lawler successor: the same prefix with this level's next-best
            // fact takes the entry's place on the frontier.
            let sibling = group.get(entry.idx + 1);
            if let Some(&sibling) = sibling {
                self.heap[0] = Entry {
                    priority: entry.prefix_score
                        + level.scores[sibling]
                        + self.rest_bound[entry.level]
                        + 0.0,
                    idx: entry.idx + 1,
                    ..entry
                };
            }
            let order = |a: &Entry, b: &Entry| first(&self.paths, a, b);
            heap::settle(&mut self.heap, sibling.is_some(), order);
            let score = entry.prefix_score + level.scores[fact] + 0.0;
            // The full row, at the row arena's end: kept only as the prefix
            // of a descent.
            let start = self.rows.len();
            let width: usize = self.levels[..entry.level].iter().map(|l| l.width).sum();
            self.rows.extend_from_within(entry.row..entry.row + width);
            self.rows.extend_from_slice(level.fresh(fact));
            let row = &self.rows[start..];
            self.scratch.clear();
            if entry.level + 1 == self.levels.len() {
                project(&self.head, row, &mut self.scratch);
                self.rows.truncate(start);
                if self.emitted.contains(&self.scratch[..]) {
                    continue;
                }
                self.emitted.insert(self.scratch.clone());
                return Some((score, self.scratch.clone()));
            }
            // Descend: best fact of the next level's matching group.
            let next_level = &self.levels[entry.level + 1];
            let key = self.keys[entry.level + 1].iter().map(|&c| row[c].clone());
            self.scratch.extend(key);
            let Some(&gid) = next_level.index.get(&self.scratch[..]) else {
                self.rows.truncate(start);
                continue;
            };
            let child = next_level.groups[gid][0];
            let path = self.paths.len();
            self.paths
                .extend_from_within(entry.path..entry.path + entry.level);
            self.paths.push(entry.idx);
            let child = Entry {
                priority: score + next_level.scores[child] + self.rest_bound[entry.level + 1] + 0.0,
                level: entry.level + 1,
                group: gid,
                idx: 0,
                prefix_score: score,
                row: start,
                path,
            };
            heap::push(&mut self.heap, child, |a, b| first(&self.paths, a, b));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_datalog::parse_query;
    use std::collections::BTreeSet;

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

    /// A join through a cache of its own.
    fn uncached(
        db: &Database,
        q: &ConjunctiveQuery,
        score: impl FnMut(usize, &Tuple) -> f64,
    ) -> RankedJoin {
        RankedJoin::new(db, q, score, &LevelCache::new(), |ai| ai.to_string())
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
            let mut join = uncached(&db, &q, flat_score);
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
        let mut join = uncached(&db, &q, |_, t| match t[0] {
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
        let mut join = uncached(&db, &q, flat_score);
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
        let mut join = uncached(&db, &q, |_, t| match t[1] {
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
            let reference = uncached(&db, &q, score).drain();
            // Two cached constructions: the second hits every level.
            for _ in 0..2 {
                let cached =
                    RankedJoin::new(&db, &q, score, &cache, |ai| format!("{text}#{ai}")).drain();
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
    }

    #[test]
    fn cache_keys_isolate_different_scorers() {
        // Same atoms, different per-position scoring: distinct keys must
        // keep the streams honest.
        let db = movie_db();
        let cache = LevelCache::new();
        let q = parse_query("q(M) :- play_in(ford, M)").unwrap();
        let low = RankedJoin::new(&db, &q, |_, _| 1.0, &cache, |ai| format!("low#{ai}")).drain();
        let high = RankedJoin::new(&db, &q, |_, _| 9.0, &cache, |ai| format!("high#{ai}")).drain();
        assert_eq!(low.len(), high.len());
        assert!(low.iter().all(|(s, _)| *s == 1.0));
        assert!(high.iter().all(|(s, _)| *s == 9.0));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn empty_body_emits_the_constant_head_once() {
        let db = Database::new();
        let q = parse_query("q() :-").unwrap();
        let mut join = uncached(&db, &q, flat_score);
        assert_eq!(join.next(), Some((0.0, Vec::new())));
        assert_eq!(join.next(), None);
    }
}
