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
//! Determinism: heap ties break on the score under the normalized
//! [`qpo_core::utility_cmp`] total order, then the smaller plan encoding,
//! then the smaller tuple — never on attach order or wall-clock — so the
//! emitted sequence is bit-stable across worker counts.

use qpo_core::utility_cmp;
use qpo_datalog::{Constant, Tuple};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt::Write as _;

use crate::RankedJoin;

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
/// events and tie-breaking documentation: `(v1,v2,...)` with strings
/// quoted exactly as `Constant`'s `Display` renders them.
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
    plan: Vec<usize>,
    stream: Box<dyn TupleStream>,
    /// Buffered head (the stream's next undelivered tuple).
    head: Option<(f64, Tuple)>,
}

/// Heap key for one stream's current head. `Ord` is "greater = delivered
/// first": best score, then smaller plan, then smaller tuple.
struct HeadKey {
    score: f64,
    plan: Vec<usize>,
    tuple: Tuple,
    plan_seq: u64,
}

heap_order!(HeadKey, |a, b| utility_cmp(a.score, b.score)
    .then_with(|| b.plan.cmp(&a.plan))
    .then_with(|| b.tuple.cmp(&a.tuple))
    .then_with(|| b.plan_seq.cmp(&a.plan_seq)));

/// The k-way merge of per-plan ranked streams.
#[derive(Default)]
pub struct AnyKMerge {
    slots: BTreeMap<u64, Slot>,
    heap: BinaryHeap<HeadKey>,
    /// Global projection dedup: a tuple is delivered once, by the
    /// best-ranked stream that reaches it first.
    delivered: BTreeSet<Tuple>,
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
        debug_assert!(!self.slots.contains_key(&plan_seq), "plan_seq reused");
        let head = stream.next().map(|(s, t)| (s + 0.0, t));
        if let Some((score, tuple)) = &head {
            self.heap.push(HeadKey {
                score: *score,
                plan: plan.clone(),
                tuple: tuple.clone(),
                plan_seq,
            });
        }
        self.slots.insert(plan_seq, Slot { plan, stream, head });
    }

    /// Evicts the stream attached under `plan_seq`: its pending tuples
    /// (head and everything still inside the stream) are dropped. No-op
    /// for unknown sequence numbers.
    pub fn evict(&mut self, plan_seq: u64) {
        // Stale heap keys for the removed slot are skipped lazily on pop.
        self.slots.remove(&plan_seq);
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
            let (top, slot) = skim(&mut self.heap, &mut self.slots)?;
            if bound.is_some_and(|b| utility_cmp(top.score, b) != Ordering::Greater) {
                return None;
            }
            let top = PeekMut::pop(top);
            // Advance the stream and re-key its new head.
            slot.head = slot.stream.next().map(|(s, t)| (s + 0.0, t));
            if let Some((score, tuple)) = &slot.head {
                debug_assert!(
                    utility_cmp(*score, top.score) != Ordering::Greater,
                    "per-plan stream must be non-increasing"
                );
                self.heap.push(HeadKey {
                    score: *score,
                    plan: slot.plan.clone(),
                    tuple: tuple.clone(),
                    plan_seq: top.plan_seq,
                });
            }
            if !self.delivered.insert(top.tuple.clone()) {
                continue; // another plan already delivered this answer
            }
            self.delivered_count += 1;
            return Some(RankedTuple {
                score: top.score,
                plan_seq: top.plan_seq,
                plan: slot.plan.clone(),
                tuple: top.tuple,
            });
        }
    }
}

/// Drops heap keys whose slot was evicted or whose head moved on; the live
/// top, if any, with its slot.
fn skim<'h, 's>(
    heap: &'h mut BinaryHeap<HeadKey>,
    slots: &'s mut BTreeMap<u64, Slot>,
) -> Option<(PeekMut<'h, HeadKey>, &'s mut Slot)> {
    while let Some(top) = heap.peek() {
        let live = slots.get(&top.plan_seq).is_some_and(|slot| {
            slot.head
                .as_ref()
                .is_some_and(|(s, t)| s.to_bits() == top.score.to_bits() && *t == top.tuple)
        });
        if live {
            break;
        }
        heap.pop();
    }
    let top = heap.peek_mut()?;
    slots.get_mut(&top.plan_seq).map(|slot| (top, slot))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn encode_tuple_is_stable() {
        assert_eq!(
            encode_tuple(&vec![Constant::int(3), Constant::str("x")]),
            "(3,\"x\")"
        );
        assert_eq!(encode_tuple(&Vec::new()), "()");
    }
}
