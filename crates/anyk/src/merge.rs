//! Lazy cross-plan k-way merge: one globally ranked answer stream.
//!
//! [`AnyKMerge`] owns one ranked tuple stream per attached plan and a
//! binary heap keyed on each stream's current head score. Streams attach
//! as plans come live (in the executor's emission order) and detach by
//! [`AnyKMerge::evict`] when a plan turns out unsound or failed — eviction
//! drops the stream's pending tuples. The caller releases only between
//! plans, once every attached plan's outcome is in, so an evicted stream
//! has delivered nothing and a delivered tuple is final.
//!
//! Emission is bound-gated: [`AnyKMerge::next_within`] delivers the best
//! live head only when its score strictly clears the caller's bound on
//! everything not yet attached (plans still queued or in flight). Because
//! each per-plan stream is non-increasing and bounds dominate the scores
//! of everything they stand for, the delivered sequence is globally
//! non-increasing — including across later attaches and the final drain.
//!
//! The slots live in a `Vec`, and the heap holds slot indices: it
//! compares the slots' buffered heads in place, so a pull clones no key.
//! An evicted slot drops its stream at once and its head when the heap
//! pops it; a stream that runs dry is dropped as its last tuple leaves.
//!
//! Determinism: heap ties break on the score under the normalized
//! [`qpo_core::utility_cmp`] total order, then the smaller plan encoding,
//! then the smaller tuple, then the smaller `plan_seq` — never on attach
//! order or wall-clock — so the emitted sequence is bit-stable across
//! worker counts.

use qpo_core::utility_cmp;
use qpo_datalog::{Constant, RowHasher, Tuple};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;

use crate::{heap, RankedJoin};

/// A pull-based stream of `(score, tuple)` pairs in non-increasing score
/// order — the unit the cross-plan merge operates on.
pub trait TupleStream {
    /// The next best tuple of this stream, or `None` when exhausted.
    fn next(&mut self) -> Option<(f64, Tuple)>;
}

impl TupleStream for RankedJoin {
    fn next(&mut self) -> Option<(f64, Tuple)> {
        Iterator::next(self)
    }
}

/// An in-memory stream, ranked at construction. Mostly for tests and the
/// offline oracle; plan execution feeds [`RankedJoin`]s in directly.
#[derive(Debug, Clone, Default)]
pub struct VecStream {
    items: Vec<(f64, Tuple)>,
    pos: usize,
}

impl VecStream {
    /// Ranks `items` (score descending, tuple ascending on ties) and
    /// streams them.
    pub fn ranked(mut items: Vec<(f64, Tuple)>) -> Self {
        items.sort_by(|a, b| utility_cmp(b.0, a.0).then_with(|| a.1.cmp(&b.1)));
        VecStream { items, pos: 0 }
    }
}

impl TupleStream for VecStream {
    fn next(&mut self) -> Option<(f64, Tuple)> {
        let item = self.items.get(self.pos).cloned();
        self.pos += item.is_some() as usize;
        item
    }
}

/// One delivered answer of the globally ranked stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTuple {
    /// The tuple's score under the session's [`TupleScorer`](crate::TupleScorer).
    pub score: f64,
    /// Emission sequence number of the plan that delivered it.
    pub plan_seq: u64,
    /// That plan, in bucket-index form.
    pub plan: Vec<usize>,
    /// The answer tuple itself.
    pub tuple: Tuple,
}

/// Deterministic string encoding of a ground tuple, used for journal
/// events and tie-breaking documentation: `(v1,v2,...)`, an integer as
/// its digits and a string double-quoted with `Debug`'s escapes (`"` as
/// `\"`, `\` as `\\`, control characters escaped), so a string holding
/// a quote, comma or parenthesis cannot be read as a different tuple.
/// `Constant`'s `Display` quotes the raw characters instead.
pub fn encode_tuple(tuple: &Tuple) -> String {
    let mut out = String::from("(");
    for (i, c) in tuple.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match c {
            Constant::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Constant::Str(s) => {
                let _ = write!(out, "{s:?}");
            }
        }
    }
    out.push(')');
    out
}

struct Slot {
    plan_seq: u64,
    plan: Vec<usize>,
    /// `None` once evicted (the tuples still inside are dropped) or dry.
    stream: Option<Box<dyn TupleStream>>,
    /// Buffered head (the stream's next undelivered tuple); a slot is in
    /// the heap exactly while it has one.
    head: Option<(f64, Tuple)>,
}

/// Whether slot `a`'s head is delivered before slot `b`'s: the better
/// score, then the smaller plan, then the smaller tuple, then the smaller
/// `plan_seq`.
fn first(slots: &[Slot], a: usize, b: usize) -> bool {
    let (a, b) = (&slots[a], &slots[b]);
    let order = match (&a.head, &b.head) {
        (Some((sa, ta)), Some((sb, tb))) => utility_cmp(*sa, *sb)
            .then_with(|| b.plan.cmp(&a.plan))
            .then_with(|| tb.cmp(ta))
            .then_with(|| b.plan_seq.cmp(&a.plan_seq)),
        (ha, hb) => ha.is_some().cmp(&hb.is_some()),
    };
    order == Ordering::Greater
}

/// The k-way merge of per-plan ranked streams.
#[derive(Default)]
pub struct AnyKMerge {
    slots: Vec<Slot>,
    /// `plan_seq` → index into `slots`, while attached.
    attached: BTreeMap<u64, usize>,
    /// Indices of the slots with a head, a heap under [`first`].
    heap: Vec<usize>,
    /// Global projection dedup: a tuple is delivered once, by the
    /// best-ranked stream that reaches it first.
    delivered: HashSet<Tuple, BuildHasherDefault<RowHasher>>,
    delivered_count: u64,
}

impl AnyKMerge {
    /// An empty merge.
    pub fn new() -> Self {
        AnyKMerge::default()
    }

    /// Attaches a plan's ranked stream under `plan_seq` (which must be
    /// fresh). The stream is live immediately: its head competes in the
    /// heap from the next [`AnyKMerge::next_within`] call on.
    pub fn attach(&mut self, plan_seq: u64, plan: Vec<usize>, mut stream: Box<dyn TupleStream>) {
        let at = self.slots.len();
        let fresh = self.attached.insert(plan_seq, at).is_none();
        debug_assert!(fresh, "plan_seq reused");
        let head = stream.next().map(|(s, t)| (s + 0.0, t));
        let live = head.is_some();
        self.slots.push(Slot {
            plan_seq,
            plan,
            stream: live.then_some(stream),
            head,
        });
        if live {
            heap::push(&mut self.heap, at, |&a, &b| first(&self.slots, a, b));
        }
    }

    /// Evicts the stream attached under `plan_seq`: its pending tuples
    /// (head and everything still inside the stream) are dropped. No-op
    /// for unknown sequence numbers.
    pub fn evict(&mut self, plan_seq: u64) {
        if let Some(at) = self.attached.remove(&plan_seq) {
            self.slots[at].stream = None;
        }
    }

    /// Tuples delivered so far across all streams.
    pub fn delivered(&self) -> u64 {
        self.delivered_count
    }

    /// Delivers the best live head if its score strictly clears `bound`
    /// (`None` = nothing outstanding, always deliver). Returns `None`
    /// when every attached stream is exhausted or the bound holds the
    /// stream back.
    pub fn next_within(&mut self, bound: Option<f64>) -> Option<RankedTuple> {
        loop {
            let &top = self.heap.first()?;
            let slot = &mut self.slots[top];
            let (Some(stream), Some((score, _))) = (&mut slot.stream, &slot.head) else {
                slot.head = None; // evicted: its head leaves with its heap entry
                heap::settle(&mut self.heap, false, |&a, &b| first(&self.slots, a, b));
                continue;
            };
            let score = *score;
            if bound.is_some_and(|b| utility_cmp(score, b) != Ordering::Greater) {
                return None;
            }
            // Advance the stream; its new head sifts down from the top.
            let next = stream.next().map(|(s, t)| (s + 0.0, t));
            debug_assert!(
                (next.as_ref()).is_none_or(|(s, _)| utility_cmp(*s, score) != Ordering::Greater),
                "per-plan stream must be non-increasing"
            );
            let head = std::mem::replace(&mut slot.head, next);
            let (live, plan_seq) = (slot.head.is_some(), slot.plan_seq);
            if !live {
                slot.stream = None; // dry: nothing more to deliver
            }
            heap::settle(&mut self.heap, live, |&a, &b| first(&self.slots, a, b));
            let (_, tuple) = head?;
            if self.delivered.contains(&tuple) {
                continue; // another plan already delivered this answer
            }
            self.delivered.insert(tuple.clone());
            self.delivered_count += 1;
            let plan = self.slots[top].plan.clone();
            return Some(RankedTuple {
                score,
                plan_seq,
                plan,
                tuple,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn t(v: i64) -> Tuple {
        vec![Constant::int(v)]
    }

    fn stream(items: &[(f64, i64)]) -> Box<dyn TupleStream> {
        Box::new(VecStream::ranked(
            items.iter().map(|&(s, v)| (s, t(v))).collect(),
        ))
    }

    #[test]
    fn merge_delivers_globally_best_first() {
        let mut m = AnyKMerge::new();
        m.attach(0, vec![0], stream(&[(5.0, 1), (1.0, 2)]));
        m.attach(1, vec![1], stream(&[(4.0, 3), (2.0, 4)]));
        let scores: Vec<f64> = std::iter::from_fn(|| m.next_within(None))
            .map(|r| r.score)
            .collect();
        assert_eq!(scores, vec![5.0, 4.0, 2.0, 1.0]);
    }

    #[test]
    fn bound_holds_the_stream_back_until_cleared() {
        let mut m = AnyKMerge::new();
        m.attach(0, vec![0], stream(&[(5.0, 1)]));
        assert!(m.next_within(Some(5.0)).is_none(), "5.0 does not clear 5.0");
        assert!(m.next_within(Some(6.0)).is_none());
        let r = m.next_within(Some(4.5)).unwrap();
        assert_eq!(r.score, 5.0);
    }

    #[test]
    fn ties_break_on_plan_then_tuple_not_attach_order() {
        let build = |order: &[usize]| {
            let mut m = AnyKMerge::new();
            for &i in order {
                match i {
                    0 => m.attach(0, vec![2, 0], stream(&[(3.0, 7)])),
                    _ => m.attach(1, vec![1, 9], stream(&[(3.0, 8)])),
                }
            }
            std::iter::from_fn(move || m.next_within(None))
                .map(|r| (r.score, r.plan, r.tuple))
                .collect::<Vec<_>>()
        };
        let a = build(&[0, 1]);
        let b = build(&[1, 0]);
        assert_eq!(a, b);
        assert_eq!(a[0].1, vec![1, 9], "smaller plan encoding wins the tie");
    }

    #[test]
    fn eviction_drops_pending() {
        let mut m = AnyKMerge::new();
        m.attach(0, vec![0], stream(&[(5.0, 1), (3.0, 2), (1.0, 3)]));
        m.attach(1, vec![1], stream(&[(4.0, 4)]));
        m.evict(0);
        // An unknown seq is a no-op; the evicted stream's tuples (5.0,
        // 3.0, 1.0) never surface.
        m.evict(42);
        let rest: Vec<RankedTuple> = std::iter::from_fn(|| m.next_within(None)).collect();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].tuple, t(4));
    }

    #[test]
    fn duplicate_answers_deliver_once_from_the_better_ranked_stream() {
        let mut m = AnyKMerge::new();
        m.attach(0, vec![0], stream(&[(5.0, 1)]));
        m.attach(1, vec![1], stream(&[(4.0, 1), (2.0, 9)]));
        let all: Vec<RankedTuple> = std::iter::from_fn(|| m.next_within(None)).collect();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].plan_seq, all[0].score), (0, 5.0));
        assert_eq!(all[1].tuple, t(9));
        assert_eq!(m.delivered(), 2);
    }

    /// A stream that marks its drop.
    struct Marked(VecStream, Rc<Cell<bool>>);

    impl TupleStream for Marked {
        fn next(&mut self) -> Option<(f64, Tuple)> {
            self.0.next()
        }
    }

    impl Drop for Marked {
        fn drop(&mut self) {
            self.1.set(true);
        }
    }

    #[test]
    fn a_dry_stream_is_dropped_as_its_last_tuple_leaves() {
        let marked = |items: &[(f64, i64)]| {
            let dropped = Rc::new(Cell::new(false));
            let ranked = VecStream::ranked(items.iter().map(|&(s, v)| (s, t(v))).collect());
            let stream: Box<dyn TupleStream> = Box::new(Marked(ranked, Rc::clone(&dropped)));
            (stream, dropped)
        };
        let (a, a_dropped) = marked(&[(5.0, 1), (3.0, 2)]);
        let (b, b_dropped) = marked(&[(4.0, 3)]);
        let (empty, empty_dropped) = marked(&[]);
        let mut m = AnyKMerge::new();
        m.attach(0, vec![0], a);
        m.attach(1, vec![1], b);
        m.attach(2, vec![2], empty);
        assert!(
            empty_dropped.get(),
            "empty from the start: dropped at attach"
        );
        assert_eq!(m.next_within(None).map(|r| r.tuple), Some(t(1)));
        assert!(!a_dropped.get() && !b_dropped.get());
        assert_eq!(m.next_within(None).map(|r| r.tuple), Some(t(3)));
        assert!(b_dropped.get(), "b delivered its last tuple");
        assert!(!a_dropped.get(), "a still holds 3.0");
        // Evicting a dry slot is a no-op.
        m.evict(1);
        m.evict(2);
        assert_eq!(m.next_within(None).map(|r| r.tuple), Some(t(2)));
        assert!(a_dropped.get());
        assert!(m.next_within(None).is_none());
        assert_eq!(m.delivered(), 3);
    }

    #[test]
    fn encode_tuple_is_stable() {
        assert_eq!(
            encode_tuple(&vec![Constant::int(3), Constant::str("x")]),
            "(3,\"x\")"
        );
        assert_eq!(encode_tuple(&Vec::new()), "()");
    }

    #[test]
    fn encode_tuple_escapes_quotes_and_backslashes() {
        let tuple = vec![Constant::str(r#"a"b\c"#), Constant::int(-1)];
        assert_eq!(encode_tuple(&tuple), r#"("a\"b\\c",-1)"#);
        assert_eq!(
            tuple[0].to_string(),
            r#""a"b\c""#,
            "Display does not escape"
        );
    }
}
