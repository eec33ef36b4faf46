//! Evaluation of conjunctive queries over ground databases.
//!
//! Used by tests (to cross-check containment decisions against actual
//! semantics) and by the `qpo-exec` mediator (to execute expanded plans over
//! in-memory source extensions).

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::term::{Constant, Term};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A ground tuple.
pub type Tuple = Vec<Constant>;

/// The one hasher of rows, under the join's bucket index and the executor's
/// answer union: multiply-rotate over 8-byte words, under half SipHash's
/// cost on a short row. Keyed once per process, as rows arrive from remote
/// sources; `finish` folds the high half into the low bits `join_atom` masks.
#[derive(Debug, Clone, Copy)]
pub struct RowHasher(u64);

impl Default for RowHasher {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        RowHasher(*KEY.get_or_init(|| RandomState::new().hash_one(0u8)))
    }
}

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        // A short last word is padded with its length: `ab` is not `ab\0`.
        for chunk in bytes.chunks(8) {
            let mut word = [chunk.len() as u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * 0x9e37_79b9_7f4a_7c15_u128;
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

/// Sorts `tuples` as `sort_unstable()` does: in [`packed_order`] when the
/// rows pack, else by `sort_unstable()` itself.
pub fn sort_tuples(tuples: &mut [Tuple]) {
    let Some(order) = packed_order(tuples.iter().map(Vec::as_slice)) else {
        return tuples.sort_unstable();
    };
    let take = |i: usize| std::mem::take(&mut tuples[i]);
    let mut sorted: Vec<Tuple> = order.into_iter().map(take).collect();
    tuples.swap_with_slice(&mut sorted);
}

/// The one packed-key sort: the positions of `rows` in `sort_unstable()`'s
/// order (equal rows by position) if they are of one width, all `Int`, and
/// their column spans `max − min` fit in 64 bits with the position; else
/// `None`. A row's key is one `u64`: the columns left to right, each
/// `v − min` in its span's bit length, then the position — order-preserving
/// and injective, so one integer sort orders the rows; low bits say which.
pub fn packed_order<'r>(rows: impl Iterator<Item = &'r [Constant]> + Clone) -> Option<Vec<usize>> {
    let (columns, at) = packing(rows.clone())?;
    let pack = |key: u64, (c, &(lo, bits)): (&Constant, &(i64, u32))| match *c {
        Constant::Int(v) => key.checked_shl(bits).unwrap_or(0) | v.wrapping_sub(lo) as u64,
        Constant::Str(_) => key, // `packing` refused strings
    };
    let key = |(i, row): (usize, &[Constant])| {
        let key = row.iter().zip(&columns).fold(0, pack);
        pack(key, (&Constant::Int(i as i64), &(0, at)))
    };
    let mut keys: Vec<u64> = rows.enumerate().map(key).collect();
    keys.sort_unstable();
    let position = |key: u64| (u128::from(key) & ((1 << at) - 1)) as usize;
    Some(keys.into_iter().map(position).collect())
}

/// Each column's `(min, bit length of max − min)` and the bit length of
/// the last position, if the rows pack.
fn packing<'r>(mut rows: impl Iterator<Item = &'r [Constant]>) -> Option<(Vec<(i64, u32)>, u32)> {
    let first = rows.next()?;
    let mut spans = vec![(i64::MAX, i64::MIN); first.len()];
    let mut last = 0;
    for (i, row) in std::iter::once(first).chain(rows).enumerate() {
        if row.len() != spans.len() {
            return None;
        }
        for (c, (lo, hi)) in row.iter().zip(&mut spans) {
            let Constant::Int(v) = *c else { return None };
            (*lo, *hi) = ((*lo).min(v), (*hi).max(v));
        }
        last = i as i64;
    }
    let bits = |(lo, hi): (i64, i64)| u64::BITS - (hi.wrapping_sub(lo) as u64).leading_zeros();
    let columns: Vec<_> = spans.into_iter().map(|s| (s.0, bits(s))).collect();
    let at = bits((0, last));
    (columns.iter().map(|c| c.1).sum::<u32>() + at <= u64::BITS).then_some((columns, at))
}

/// The intermediate rows of the hash-join pipeline after a body-atom
/// prefix, as one flat row-major table: column `i` holds the `i`-th
/// variable of the prefix in first-occurrence order, so a row needs no
/// names and no allocation of its own. The prefix with no atoms is the
/// single empty row (`width == 0`, `len() == 1`). A plan's answers leave
/// the pipeline in the same shape: one row per match, duplicates kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixRows {
    width: usize,
    count: usize,
    /// `count` rows of `width` values each.
    values: Vec<Constant>,
}

impl PrefixRows {
    /// `count` rows of `width` values each, row-major; panics unless
    /// `values` holds exactly that many.
    pub fn new(width: usize, count: usize, values: Vec<Constant>) -> Self {
        assert_eq!(values.len(), width * count, "not {count} rows of {width}");
        PrefixRows {
            width,
            count,
            values,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The rows, in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = &[Constant]> {
        // Not `chunks_exact`: a zero-width table still has `count` rows.
        (0..self.count).map(|i| &self.values[i * self.width..(i + 1) * self.width])
    }
}

/// Materialized state of the hash-join pipeline after folding in a prefix
/// of a query's body atoms. Captured by [`Database::evaluate_seeded`] and
/// reusable as the seed of any later query sharing the same atom prefix
/// (same atoms, same order, same database): seeding is bit-identical to
/// recomputing the prefix, because the pipeline is a deterministic
/// function of `(database, atom prefix)` — row *order* included, which is
/// why the join below emits rows in order and matches in slot order and
/// only ever probes its hash index.
///
/// Rows are behind an [`Arc`], so cloning a prefix — and keeping many of
/// them in a memo — is cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPrefix {
    /// Number of body atoms folded into `rows`.
    pub len: usize,
    /// The intermediate rows after those atoms.
    pub rows: Arc<PrefixRows>,
}

impl JoinPrefix {
    /// Resident bytes of the materialized rows, for memo byte accounting:
    /// the two headers, every stored value, and the payload of every
    /// string value (counted per reference — strings are shared with the
    /// source rows, so this is the most dropping the prefix can free).
    /// One pass over the values; a prefix is measured once, when stored.
    pub fn approx_bytes(&self) -> usize {
        let payload = |c: &Constant| match c {
            Constant::Int(_) => 0,
            Constant::Str(s) => s.len(),
        };
        std::mem::size_of::<Self>()
            + std::mem::size_of::<PrefixRows>()
            + std::mem::size_of_val(self.rows.values.as_slice())
            + self.rows.values.iter().map(payload).sum::<usize>()
    }
}

/// Evaluates `query` over per-atom row slices instead of a [`Database`]:
/// body atom `i` reads exactly `slots[i]` (a missing slot reads as
/// empty), whatever its predicate — so rows a source backend returned for
/// one access join in place, uncopied, and one source feeding two atoms
/// may hand each the rows its own constants selected. Each atom still
/// applies its constants and repeated variables to every row it reads,
/// so a slot may hold any superset of the matching rows, duplicates
/// included. Runs the same pipeline as [`Database::evaluate_rows`],
/// `seed` and captured prefixes included (slots the seed covers are never
/// read): when every slot holds a superset of the rows a database stores
/// under that atom's predicate that match it, the two return the same
/// answer *set* — and, when each slot lists those rows once and in the
/// database's order, the same rows and the same prefixes.
///
/// # Panics
/// Panics if the query is unsafe.
pub fn evaluate_slots(
    query: &ConjunctiveQuery,
    seed: Option<&JoinPrefix>,
    slots: &[&[Tuple]],
) -> (PrefixRows, Vec<JoinPrefix>) {
    join_pipeline(query, seed, |i| slots.get(i).copied().unwrap_or_default())
}

/// How a body atom reads one position of a stored tuple. An atom is
/// compiled into one slot per position, once per call, so matching a
/// tuple is positional compares — no variable names, no map per tuple.
/// The join and `qpo-anyk`'s ranked levels both read facts through it.
pub enum Slot {
    /// The value must equal this constant.
    Const(Constant),
    /// The value must equal the tuple's own earlier position (a variable
    /// repeated within the atom).
    Repeat(usize),
    /// The value joins this column of the rows so far (a variable an
    /// earlier atom bound).
    Key(usize),
    /// The value becomes the next new column.
    New,
}

/// Compiles `atom` against the variables bound so far (`columns`, one per
/// column), appending the variables it binds to `columns`.
pub fn compile<'q>(atom: &'q Atom, columns: &mut Vec<&'q str>) -> Vec<Slot> {
    let bound = columns.len();
    let slot = |(position, term): (usize, &'q Term)| match term {
        Term::Const(c) => Slot::Const(c.clone()),
        Term::Var(v) => {
            if let Some(earlier) = atom.terms[..position].iter().position(|t| t == term) {
                Slot::Repeat(earlier)
            } else if let Some(column) = columns[..bound].iter().position(|c| *c == &**v) {
                Slot::Key(column)
            } else {
                columns.push(v);
                Slot::New
            }
        }
    };
    atom.terms.iter().enumerate().map(slot).collect()
}

/// Whether `tuple` fits an atom compiled to `slots`: arity, constants, repeats.
pub fn admits(slots: &[Slot], tuple: &[Constant]) -> bool {
    let holds = |(slot, value): (&Slot, &Constant)| match slot {
        Slot::Const(c) => c == value,
        Slot::Repeat(earlier) => tuple[*earlier] == *value,
        Slot::Key(_) | Slot::New => true,
    };
    tuple.len() == slots.len() && slots.iter().zip(tuple).all(holds)
}

/// Appends to `out` a compiled `head`'s values for one `row` of its columns.
pub fn project(head: &[Slot], row: &[Constant], out: &mut Vec<Constant>) {
    let base = out.len();
    for slot in head {
        out.push(match slot {
            Slot::Const(c) => c.clone(),
            Slot::Key(column) => row[*column].clone(),
            Slot::Repeat(earlier) => out[base + earlier].clone(),
            Slot::New => unreachable!("safe query binds every head variable"),
        });
    }
}

fn key_hash<'c>(mut state: RowHasher, key: impl Iterator<Item = &'c Constant>) -> usize {
    key.for_each(|c| c.hash(&mut state));
    state.finish() as usize
}

/// Hash-joins `rows` with the tuples of `source` the atom's `slots`
/// admit: rows in order, each with its matches in `source` order. The
/// index is bucket chains threaded through `next` in that order and keyed
/// by hash alone — a probe walks one chain comparing positions, so
/// neither side builds a key, and the index is never iterated.
fn join_atom<'t>(
    rows: &PrefixRows,
    slots: &[Slot],
    source: impl Iterator<Item = &'t Tuple>,
    hasher: RowHasher,
) -> PrefixRows {
    const END: usize = usize::MAX;
    let admitted: Vec<&Tuple> = source.filter(|tuple| admits(slots, tuple)).collect();
    let (mut keys, mut fresh) = (Vec::new(), Vec::new());
    for (position, slot) in slots.iter().enumerate() {
        match slot {
            Slot::Key(column) => keys.push((position, *column)),
            Slot::New => fresh.push(position),
            Slot::Const(_) | Slot::Repeat(_) => {}
        }
    }
    let mask = (2 * admitted.len()).next_power_of_two() - 1;
    let mut heads = vec![END; mask + 1];
    let mut next = vec![END; admitted.len()];
    for (i, tuple) in admitted.iter().enumerate().rev() {
        let bucket = key_hash(hasher, keys.iter().map(|&(p, _)| &tuple[p])) & mask;
        next[i] = std::mem::replace(&mut heads[bucket], i);
    }
    let mut out = PrefixRows::new(rows.width + fresh.len(), 0, Vec::new());
    for row in rows.iter() {
        let mut i = heads[key_hash(hasher, keys.iter().map(|&(_, c)| &row[c])) & mask];
        while i != END {
            let tuple = admitted[i];
            if keys.iter().all(|&(p, c)| tuple[p] == row[c]) {
                out.values.extend_from_slice(row);
                out.values.extend(fresh.iter().map(|&p| tuple[p].clone()));
                out.count += 1;
            }
            i = next[i];
        }
    }
    out.values.shrink_to_fit();
    out
}

/// The hash-join pipeline behind [`Database::evaluate_rows`] and
/// [`evaluate_slots`], generic over where body atom `i` reads its rows
/// (monomorphised per caller: the database probes its predicate map, the
/// slot-fed path indexes a slice). The answers are the head projected
/// from every row the last atom left, in that order: nothing here sorts,
/// compares for order or drops a duplicate.
fn join_pipeline<'t, I>(
    query: &ConjunctiveQuery,
    seed: Option<&JoinPrefix>,
    rows_of: impl Fn(usize) -> I,
) -> (PrefixRows, Vec<JoinPrefix>)
where
    I: IntoIterator<Item = &'t Tuple>,
{
    assert!(query.is_safe(), "cannot evaluate unsafe query {query}");
    let start = seed.map_or(0, |s| s.len.min(query.body.len()));
    // The variable each column holds: those of the atoms folded in so
    // far, in first-occurrence order.
    let mut columns: Vec<&str> = Vec::new();
    for atom in &query.body[..start] {
        compile(atom, &mut columns);
    }
    let mut rows = match seed {
        Some(s) if start > 0 => Arc::clone(&s.rows),
        _ => Arc::new(PrefixRows::new(0, 1, Vec::new())),
    };
    assert_eq!(rows.width, columns.len(), "seed of another atom prefix");
    let hasher = RowHasher::default();
    let mut captured: Vec<JoinPrefix> = Vec::new();
    for (i, atom) in query.body.iter().enumerate().skip(start) {
        // Short-circuit: an empty intermediate set stays empty, and
        // stopping *before* the atom keeps the captured-prefix list
        // identical whether or not this evaluation was seeded.
        if rows.is_empty() {
            break;
        }
        let slots = compile(atom, &mut columns);
        rows = Arc::new(join_atom(&rows, &slots, rows_of(i).into_iter(), hasher));
        captured.push(JoinPrefix {
            len: i + 1,
            rows: Arc::clone(&rows),
        });
    }
    // Compiled like a body atom, the head reads columns: safety makes
    // every variable of it a `Key` (or the loop left no row to project).
    let head = compile(&query.head, &mut columns);
    let mut values: Vec<Constant> = Vec::with_capacity(head.len() * rows.count);
    rows.iter().for_each(|row| project(&head, row, &mut values));
    (PrefixRows::new(head.len(), rows.count, values), captured)
}

/// An in-memory database: a set of ground facts per predicate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<Arc<str>, BTreeSet<Tuple>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts a fact; returns `true` if it was not already present.
    pub fn insert(&mut self, predicate: impl AsRef<str>, tuple: Tuple) -> bool {
        self.relations
            .entry(Arc::from(predicate.as_ref()))
            .or_default()
            .insert(tuple)
    }

    /// All tuples of `predicate` (empty slice view if absent).
    pub fn tuples(&self, predicate: &str) -> impl Iterator<Item = &Tuple> {
        self.relations.get(predicate).into_iter().flatten()
    }

    /// Number of tuples stored for `predicate`.
    pub fn cardinality(&self, predicate: &str) -> usize {
        self.relations.get(predicate).map_or(0, BTreeSet::len)
    }

    /// Total number of facts.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(BTreeSet::len).sum()
    }

    /// Predicates with at least one fact, in deterministic order.
    pub fn predicates(&self) -> impl Iterator<Item = &Arc<str>> {
        self.relations.keys()
    }

    /// Evaluates a conjunctive query, returning the set of answer tuples.
    ///
    /// Implemented as a pipeline of hash joins: body atoms are processed in
    /// order, each joined against the intermediate binding set on the
    /// variables they share with it — `O(rows + tuples)` per atom instead
    /// of the backtracking search's worst-case product, which
    /// `crates/datalog/tests/support` keeps as the property-tested oracle.
    ///
    /// # Panics
    /// Panics if the query is unsafe (an unbound head variable would make an
    /// answer non-ground).
    pub fn evaluate(&self, query: &ConjunctiveQuery) -> BTreeSet<Tuple> {
        self.evaluate_seeded(query, None).0.into_iter().collect()
    }

    /// [`Database::evaluate`], optionally seeded with the materialized
    /// state of a body-atom prefix, and returning the [`JoinPrefix`]
    /// captured after each processed atom (so callers can memoize them
    /// for later plans sharing the prefix). The answers are a sorted
    /// vector of distinct tuples — the order a `BTreeSet` would iterate
    /// them in: [`Database::evaluate_rows`] plus one sort at this edge,
    /// for callers that compare or replay answer lists.
    ///
    /// A seed is only sound when it was captured — by this method, on
    /// this database — for a query whose first `seed.len` body atoms are
    /// identical to this query's. Under that contract the result is
    /// bit-identical to the unseeded evaluation: the pipeline below is a
    /// deterministic function of `(database, atom prefix)`, so starting
    /// from the materialized rows is indistinguishable from recomputing
    /// them. Seeds longer than the body are truncated.
    ///
    /// The captured prefixes cover atoms `seed.len+1 ..= body.len` (the
    /// pipeline short-circuits once the intermediate row set is empty, so
    /// capture stops there too).
    ///
    /// # Panics
    /// Panics if the query is unsafe (an unbound head variable would make
    /// an answer non-ground).
    pub fn evaluate_seeded(
        &self,
        query: &ConjunctiveQuery,
        seed: Option<&JoinPrefix>,
    ) -> (Vec<Tuple>, Vec<JoinPrefix>) {
        let (rows, captured) = self.evaluate_rows(query, seed);
        let mut rows: Vec<&[Constant]> = rows.iter().collect();
        match packed_order(rows.iter().copied()) {
            Some(order) => rows = order.into_iter().map(|i| rows[i]).collect(),
            None => rows.sort_unstable(),
        }
        // Sorted, so a duplicate sits beside its twin and is not copied.
        rows.dedup();
        let answers = rows.into_iter().map(<[Constant]>::to_vec).collect();
        (answers, captured)
    }

    /// [`Database::evaluate_seeded`] before its sort — same seeds, same
    /// prefixes: the head's rows as they leave the join, one per match in
    /// pipeline order, in one flat table. What the executor's merge hashes.
    pub fn evaluate_rows(
        &self,
        query: &ConjunctiveQuery,
        seed: Option<&JoinPrefix>,
    ) -> (PrefixRows, Vec<JoinPrefix>) {
        join_pipeline(query, seed, |i| self.tuples(&query.body[i].predicate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;

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
        db.insert("american", vec![Constant::str("witness")]);
        db
    }

    #[test]
    fn insert_and_cardinality() {
        let mut db = Database::new();
        assert!(db.insert("r", vec![Constant::int(1)]));
        assert!(!db.insert("r", vec![Constant::int(1)]), "duplicate ignored");
        assert_eq!(db.cardinality("r"), 1);
        assert_eq!(db.cardinality("absent"), 0);
        assert_eq!(db.total_facts(), 1);
        assert_eq!(db.predicates().count(), 1);
    }

    #[test]
    fn single_atom_selection() {
        let db = movie_db();
        let q = parse_query("q(M) :- play_in(ford, M)").unwrap();
        let ans = db.evaluate(&q);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&vec![Constant::str("blade_runner")]));
        assert!(ans.contains(&vec![Constant::str("witness")]));
    }

    #[test]
    fn join_across_atoms() {
        let db = movie_db();
        let q = parse_query("q(M, R) :- play_in(ford, M), review_of(R, M)").unwrap();
        let ans = db.evaluate(&q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Constant::str("blade_runner"), Constant::str("rev1")]));
    }

    #[test]
    fn repeated_variable_enforces_equality() {
        let mut db = Database::new();
        db.insert("r", vec![Constant::int(1), Constant::int(1)]);
        db.insert("r", vec![Constant::int(1), Constant::int(2)]);
        let q = parse_query("q(X) :- r(X, X)").unwrap();
        let ans = db.evaluate(&q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Constant::int(1)]));
    }

    #[test]
    fn empty_body_yields_single_empty_answer() {
        let db = Database::new();
        let q = parse_query("q() :-").unwrap();
        assert_eq!(db.evaluate(&q).len(), 1, "q() :- true has the empty tuple");
    }

    #[test]
    fn no_matching_facts_yields_empty() {
        let db = movie_db();
        let q = parse_query("q(M) :- play_in(nobody, M)").unwrap();
        assert!(db.evaluate(&q).is_empty());
    }

    #[test]
    fn arity_mismatched_facts_are_skipped() {
        let mut db = Database::new();
        db.insert("r", vec![Constant::int(1)]);
        db.insert("r", vec![Constant::int(1), Constant::int(2)]);
        let q = parse_query("q(X, Y) :- r(X, Y)").unwrap();
        assert_eq!(db.evaluate(&q).len(), 1);
    }

    #[test]
    #[should_panic(expected = "unsafe query")]
    fn unsafe_query_panics() {
        let db = Database::new();
        let q = parse_query("q(Z) :- r(X)").unwrap();
        db.evaluate(&q);
    }

    #[test]
    fn hash_join_handles_cartesian_products() {
        // Atoms sharing no variables degenerate to a cross product.
        let mut db = Database::new();
        db.insert("a", vec![Constant::Int(1)]);
        db.insert("a", vec![Constant::Int(2)]);
        db.insert("b", vec![Constant::Int(7)]);
        let q = parse_query("q(X, Y) :- a(X), b(Y)").unwrap();
        let ans = db.evaluate(&q);
        let want = |x| vec![Constant::Int(x), Constant::Int(7)];
        assert_eq!(ans, BTreeSet::from([want(1), want(2)]));
    }

    #[test]
    fn hash_join_constant_in_head() {
        let mut db = Database::new();
        db.insert("r", vec![Constant::Int(1)]);
        let q = parse_query("q(X, tag) :- r(X)").unwrap();
        let ans = db.evaluate(&q);
        assert_eq!(
            ans,
            BTreeSet::from([vec![Constant::Int(1), Constant::str("tag")]])
        );
    }

    #[test]
    fn seeded_evaluation_is_bit_identical_at_every_prefix_length() {
        let db = movie_db();
        for text in [
            "q(M) :- play_in(ford, M)",
            "q(M, R) :- play_in(ford, M), review_of(R, M)",
            "q(A, M, R) :- play_in(A, M), review_of(R, M), american(M)",
            "q(M) :- play_in(nobody, M), review_of(R, M)",
        ] {
            let q = parse_query(text).unwrap();
            let (reference, captured) = db.evaluate_seeded(&q, None);
            assert!(
                reference.iter().eq(&db.evaluate(&q)),
                "{text}: sorted, distinct"
            );
            // The flat rows under it: one per match, in pipeline order.
            let (flat, _) = db.evaluate_rows(&q, None);
            assert_eq!(flat.len(), captured.last().map_or(0, |p| p.rows.len()));
            for prefix in &captured {
                let (seeded, rest) = db.evaluate_seeded(&q, Some(prefix));
                assert_eq!(seeded, reference, "{text} seeded at {}", prefix.len);
                assert_eq!(db.evaluate_rows(&q, Some(prefix)).0, flat, "{text}");
                // The re-captured suffix matches the original's tail.
                let tail: Vec<_> = captured.iter().filter(|p| p.len > prefix.len).collect();
                assert_eq!(rest.len(), tail.len());
                for (a, b) in rest.iter().zip(tail) {
                    assert_eq!((a.len, &a.rows), (b.len, &b.rows), "{text}");
                }
            }
        }
    }

    #[test]
    fn capture_covers_each_atom_and_prefixes_share_rows_cheaply() {
        let db = movie_db();
        let q = parse_query("q(A, M, R) :- play_in(A, M), review_of(R, M), american(M)").unwrap();
        let (_, captured) = db.evaluate_seeded(&q, None);
        assert_eq!(captured.len(), 3);
        assert_eq!(
            captured.iter().map(|p| p.len).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Cloning shares the Arc'd rows instead of copying them.
        let clone = captured[1].clone();
        assert!(Arc::ptr_eq(&clone.rows, &captured[1].rows));
    }

    /// Row order is part of the contract (seeds and memoized prefixes
    /// are compared and reused bit for bit): rows in order, each with its
    /// matches in slot order, columns in first-occurrence order.
    #[test]
    fn rows_keep_row_order_then_slot_order() {
        let int = |rows: &[&[i64]]| -> Vec<Tuple> {
            rows.iter()
                .map(|r| r.iter().copied().map(Constant::Int).collect())
                .collect()
        };
        let q = parse_query("q(X, Z) :- a(X, Y), b(Y, Z, Y), c(7)").unwrap();
        let a = int(&[&[3, 1], &[1, 2], &[2, 1]]);
        // Unsorted, with a duplicate, a repeat violation and a wrong arity.
        let b = int(&[
            &[1, 9, 1],
            &[2, 5, 2],
            &[1, 9, 2],
            &[1, 4, 1],
            &[1, 9, 1],
            &[1, 4],
        ]);
        let c = int(&[&[7]]);
        let (answers, captured) = evaluate_slots(&q, None, &[&a, &b, &c]);
        let rows =
            |p: &JoinPrefix| -> Vec<Tuple> { p.rows.iter().map(<[Constant]>::to_vec).collect() };
        assert_eq!(rows(&captured[0]), a);
        let joined = int(&[
            &[3, 1, 9],
            &[3, 1, 4],
            &[3, 1, 9],
            &[1, 2, 5],
            &[2, 1, 9],
            &[2, 1, 4],
            &[2, 1, 9],
        ]);
        assert_eq!(rows(&captured[1]), joined);
        assert_eq!(captured[1].rows.len(), 7);
        // A ground atom adds no column and keeps every row.
        assert_eq!(rows(&captured[2]), joined);
        // The head's rows leave as the join left them: rows in order,
        // matches in slot order, duplicates kept.
        let flat = int(&[
            &[3, 9],
            &[3, 4],
            &[3, 9],
            &[1, 5],
            &[2, 9],
            &[2, 4],
            &[2, 9],
        ]);
        assert_eq!(answers, PrefixRows::new(2, 7, flat.concat()));
        // The order is enforced at `evaluate_seeded`'s edge, once.
        let mut db = Database::new();
        for (predicate, tuples) in [("a", a), ("b", b), ("c", c)] {
            for tuple in tuples {
                db.insert(predicate, tuple);
            }
        }
        assert_eq!(
            db.evaluate_seeded(&q, None).0,
            int(&[&[1, 5], &[2, 4], &[2, 9], &[3, 4], &[3, 9]]),
            "sorted and distinct"
        );
    }

    /// Keys of the shapes remote rows take, `n` distinct of each.
    fn key_families(n: usize) -> Vec<(String, Vec<Tuple>)> {
        let ints = |f: &dyn Fn(i64) -> Tuple| (0..n as i64).map(f).collect::<Vec<Tuple>>();
        let mut families = vec![("ints".to_string(), ints(&|i| vec![Constant::Int(i)]))];
        for k in [1, 3, 8, 12, 16, 20] {
            let strided = ints(&|i| vec![Constant::Int(i << k)]);
            families.push((format!("stride 2^{k}"), strided));
        }
        for prefix in ["m", "movie_", "a_shared_prefix_of_three_words_"] {
            let named = ints(&|i| vec![Constant::str(format!("{prefix}{i}"))]);
            families.push((format!("strings {prefix}*"), named));
        }
        let mixed = ints(&|i| {
            let name = Constant::str(format!("s{}", i / 64));
            vec![Constant::Int(i % 64), name, Constant::Int(i << 16)]
        });
        families.push(("mixed rows".to_string(), mixed));
        families
    }

    /// The longest chain `join_atom` threads over `tuples` keyed on every
    /// position (a bucket is `key_hash` under its mask), and the most keys
    /// sharing one of a `HashMap`'s 128 tags (the hash's top seven bits;
    /// its low bits pick the bucket, as the chains' do).
    fn spread(tuples: &[Tuple], hasher: RowHasher) -> (usize, usize) {
        let mask = (2 * tuples.len()).next_power_of_two() - 1;
        let (mut chains, mut tags) = (vec![0usize; mask + 1], [0usize; 128]);
        for tuple in tuples {
            chains[key_hash(hasher, tuple.iter()) & mask] += 1;
            let mut state = hasher;
            tuple.hash(&mut state);
            tags[(state.finish() >> 57) as usize] += 1;
        }
        let most = |loads: &[usize]| loads.iter().copied().max().unwrap();
        (most(&chains), most(&tags))
    }

    /// Rows arrive from remote sources, so the hasher meets keys nobody
    /// here chose: sequential ids, ids strided by a power of two, names
    /// sharing a prefix, mixed rows. Under each, `join_atom`'s chains
    /// (which mask the *low* bits) and a `HashMap`'s tags stay within a
    /// small constant of what a random function gives, and the union map
    /// finds every row under its borrowed form.
    #[test]
    fn row_hasher_spreads_the_keys_sources_send() {
        let n = 4096;
        for (family, tuples) in key_families(n) {
            // A random function: 4096 keys in 8192 buckets chain 5 or 6
            // deep, and put 32 keys under a tag on average.
            let (longest, crowded) = spread(&tuples, RowHasher::default());
            assert!(longest <= 12, "{family}: a chain of {longest}");
            assert!(crowded <= 3 * n / 128, "{family}: {crowded} keys a tag");
            let mut union: HashMap<Tuple, u64, BuildHasherDefault<RowHasher>> = HashMap::default();
            union.extend(tuples.iter().map(|t| (t.clone(), 0)));
            assert_eq!(union.len(), n, "{family}");
            assert!(tuples.iter().all(|t| union.contains_key(t.as_slice())));
        }
    }

    #[test]
    fn zero_width_prefixes_still_count_their_rows() {
        let mut db = Database::new();
        db.insert("r", vec![Constant::Int(1)]);
        db.insert("s", vec![Constant::Int(2)]);
        let q = parse_query("q(ok) :- r(1), s(2)").unwrap();
        let (answers, captured) = db.evaluate_seeded(&q, None);
        assert_eq!(answers, vec![vec![Constant::str("ok")]]);
        for p in &captured {
            assert_eq!(p.rows.len(), 1);
            assert!(p.rows.iter().eq([&[][..]]), "one empty row");
        }
        let miss = parse_query("q(ok) :- r(1), s(3)").unwrap();
        assert!(db.evaluate(&miss).is_empty());
    }

    #[test]
    fn approx_bytes_counts_every_value_and_string_payload() {
        let headers = std::mem::size_of::<JoinPrefix>() + std::mem::size_of::<PrefixRows>();
        let value = std::mem::size_of::<Constant>();
        let mut db = Database::new();
        for (k, name) in [(1, "a"), (2, "bcd"), (3, "ef")] {
            db.insert("r", vec![Constant::Int(k), Constant::str(name)]);
        }
        let q = parse_query("q(K, N) :- r(K, N)").unwrap();
        let (_, captured) = db.evaluate_seeded(&q, None);
        assert_eq!(captured[0].approx_bytes(), headers + 6 * value + 6);
        // Not an extrapolation from the first row: an empty prefix is its
        // headers, and growing one string grows the total by that much.
        let none = parse_query("q(K) :- r(K, zzz)").unwrap();
        assert_eq!(db.evaluate_seeded(&none, None).1[0].approx_bytes(), headers);
        db.insert("r", vec![Constant::Int(4), Constant::str("0123456789")]);
        let (_, grown) = db.evaluate_seeded(&q, None);
        assert_eq!(grown[0].approx_bytes(), headers + 8 * value + 16);
    }

    #[test]
    fn oversized_seed_is_truncated_to_the_body() {
        let db = movie_db();
        let q = parse_query("q(M) :- play_in(ford, M)").unwrap();
        let (reference, captured) = db.evaluate_seeded(&q, None);
        let mut seed = captured.last().unwrap().clone();
        seed.len = 10;
        let (seeded, rest) = db.evaluate_seeded(&q, Some(&seed));
        assert_eq!(seeded, reference);
        assert!(rest.is_empty());
    }

    /// Containment must agree with evaluation: if q1 ⊑ q2 then on every
    /// database the answers of q1 are a subset of the answers of q2.
    #[test]
    fn containment_agrees_with_evaluation_on_movie_db() {
        let db = movie_db();
        let q1 = parse_query("q(M) :- play_in(ford, M), american(M)").unwrap();
        let q2 = parse_query("q(M) :- play_in(ford, M)").unwrap();
        assert!(crate::containment::contains(&q1, &q2));
        let a1 = db.evaluate(&q1);
        let a2 = db.evaluate(&q2);
        assert!(a1.is_subset(&a2));
        assert!(a1.len() < a2.len());
    }
}
