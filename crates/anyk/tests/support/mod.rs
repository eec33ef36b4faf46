//! Test support for `qpo-anyk`: the oracle the shipped enumerator is
//! differentially tested against. None of this ships.
//!
//! [`ReferenceJoin`] is the named-row any-k join [`qpo_anyk::RankedJoin`]
//! replaced, uncached: every candidate fact becomes a map from variable
//! name to value, groups are keyed in a `BTreeMap`, a group sorts by
//! (score, binding) with the binding compared as a name-ordered map, and
//! every frontier pop clones and extends its prefix map.

use qpo_core::utility_cmp;
use qpo_datalog::{Atom, ConjunctiveQuery, Constant, Database, Term, Tuple};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

type Row = BTreeMap<Arc<str>, Constant>;

/// One scored candidate binding at a level.
struct Cand {
    score: f64,
    binding: Row,
}

/// One body atom's scored, grouped, best-first-sorted binding lists.
struct Level {
    /// Variables this atom shares with the atoms before it (the join key).
    shared: Vec<Arc<str>>,
    /// Candidate bindings per join-key value, each sorted best-first.
    groups: Vec<Vec<Cand>>,
    /// Join-key value → index into `groups`.
    index: BTreeMap<Vec<Constant>, usize>,
    /// Best candidate score across every group.
    max_score: f64,
}

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

/// A frontier entry: candidate `idx` of `group` at `level`, extending
/// the prefix `row` whose score is `prefix_score`.
struct Entry {
    priority: f64,
    level: usize,
    group: usize,
    idx: usize,
    prefix_score: f64,
    row: Arc<Row>,
    /// Candidate indices chosen at levels `0..=level`: the tie-break.
    path: Vec<usize>,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        utility_cmp(self.priority, other.priority).then_with(|| other.path.cmp(&self.path))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// The named-row enumerator: the same stream as
/// [`qpo_anyk::RankedJoin`], bit for bit.
pub struct ReferenceJoin {
    head: Vec<Term>,
    levels: Vec<Level>,
    rest_bound: Vec<f64>,
    heap: BinaryHeap<Entry>,
    emitted: BTreeSet<Tuple>,
    trivial: Option<Tuple>,
}

impl ReferenceJoin {
    /// Builds the enumerator for a safe `query` over `db`, scoring each
    /// stored fact with `atom_score(atom_index, fact)`.
    pub fn new(
        db: &Database,
        query: &ConjunctiveQuery,
        mut atom_score: impl FnMut(usize, &Tuple) -> f64,
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
            levels.push(build_level(db, atom, ai, &shared, &mut atom_score));
            bound_vars.extend(atom.variables());
        }
        let mut rest_bound = vec![0.0; levels.len()];
        for i in (0..levels.len().saturating_sub(1)).rev() {
            rest_bound[i] = levels[i + 1].max_score + rest_bound[i + 1] + 0.0;
        }
        let trivial = query.body.is_empty().then(|| {
            let constant = |t: &Term| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => unreachable!("safe empty-body query binds {v}"),
            };
            query.head.terms.iter().map(constant).collect()
        });
        let mut heap = BinaryHeap::new();
        if let Some(level0) = levels.first() {
            if let Some(&gid) = level0.index.get(&Vec::new()) {
                heap.push(Entry {
                    priority: level0.groups[gid][0].score + rest_bound[0] + 0.0,
                    level: 0,
                    group: gid,
                    idx: 0,
                    prefix_score: 0.0,
                    row: Arc::new(Row::new()),
                    path: vec![0],
                });
            }
        }
        ReferenceJoin {
            head: query.head.terms.clone(),
            levels,
            rest_bound,
            heap,
            emitted: BTreeSet::new(),
            trivial,
        }
    }

    /// Per body atom, the best fact score present at that level.
    pub fn level_bounds(&self) -> Vec<f64> {
        self.levels.iter().map(|l| l.max_score).collect()
    }
}

impl Iterator for ReferenceJoin {
    type Item = (f64, Tuple);

    fn next(&mut self) -> Option<(f64, Tuple)> {
        if let Some(tuple) = self.trivial.take() {
            return Some((0.0, tuple));
        }
        while let Some(entry) = self.heap.pop() {
            let group = &self.levels[entry.level].groups[entry.group];
            let cand = &group[entry.idx];
            if entry.idx + 1 < group.len() {
                let sibling = &group[entry.idx + 1];
                let mut path = entry.path.clone();
                path[entry.level] = entry.idx + 1;
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
                let value = |t: &Term| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => row[v.as_ref()].clone(),
                };
                let tuple: Tuple = self.head.iter().map(value).collect();
                if self.emitted.insert(tuple.clone()) {
                    return Some((score, tuple));
                }
                continue;
            }
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
