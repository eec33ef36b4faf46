//! The cross-plan merge [`qpo_anyk::AnyKMerge`] replaced, kept as its
//! reference twin. None of this ships.
//!
//! [`ReferenceMerge`] keeps its slots in a `BTreeMap` by `plan_seq` and a
//! `BinaryHeap` of keys that each own a clone of their slot's plan and
//! head tuple. Eviction removes the slot at once; keys left behind for it
//! are skimmed off the top lazily, on the next pull.

use qpo_anyk::{RankedTuple, TupleStream};
use qpo_core::utility_cmp;
use qpo_datalog::Tuple;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

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

impl Ord for HeadKey {
    fn cmp(&self, other: &Self) -> Ordering {
        utility_cmp(self.score, other.score)
            .then_with(|| other.plan.cmp(&self.plan))
            .then_with(|| other.tuple.cmp(&self.tuple))
            .then_with(|| other.plan_seq.cmp(&self.plan_seq))
    }
}

impl PartialOrd for HeadKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeadKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeadKey {}

/// The k-way merge of per-plan ranked streams, as `AnyKMerge` was.
#[derive(Default)]
pub struct ReferenceMerge {
    slots: BTreeMap<u64, Slot>,
    heap: BinaryHeap<HeadKey>,
    delivered: BTreeSet<Tuple>,
    delivered_count: u64,
}

impl ReferenceMerge {
    /// Attaches a plan's ranked stream under a fresh `plan_seq`.
    pub fn attach(&mut self, plan_seq: u64, plan: Vec<usize>, mut stream: Box<dyn TupleStream>) {
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

    /// Drops the stream attached under `plan_seq`, if any.
    pub fn evict(&mut self, plan_seq: u64) {
        self.slots.remove(&plan_seq);
    }

    /// Tuples delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered_count
    }

    /// The best live head, if its score strictly clears `bound`.
    pub fn next_within(&mut self, bound: Option<f64>) -> Option<RankedTuple> {
        loop {
            let (top, slot) = skim(&mut self.heap, &mut self.slots)?;
            if bound.is_some_and(|b| utility_cmp(top.score, b) != Ordering::Greater) {
                return None;
            }
            let top = PeekMut::pop(top);
            slot.head = slot.stream.next().map(|(s, t)| (s + 0.0, t));
            if let Some((score, tuple)) = &slot.head {
                self.heap.push(HeadKey {
                    score: *score,
                    plan: slot.plan.clone(),
                    tuple: tuple.clone(),
                    plan_seq: top.plan_seq,
                });
            }
            if !self.delivered.insert(top.tuple.clone()) {
                continue;
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
