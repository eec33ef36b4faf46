//! # qpo-anyk — tuple-level ranked (any-k) answer streaming
//!
//! The paper orders *plans*; users consume *answers*. This crate pushes
//! the ranking down one level: it enumerates each plan's answer tuples in
//! non-increasing score order without materializing the join
//! ([`RankedJoin`], the Tziavelis-style any-k frontier), and lazily
//! merges the per-plan streams into one globally ranked anytime stream
//! ([`AnyKMerge`]) that plans join as they are scheduled and leave,
//! before delivering anything, when unsound or failed. Scores come from a
//! pluggable [`TupleScorer`]; the default [`CatalogScorer`] derives
//! per-source weights from the catalog statistics the orderers consume.
//!
//! The serving integration — `QuerySession::next_tuple`, the executor
//! hooks, tuple-quality telemetry, and journal events — lives in
//! `qpo-exec` and `qpo-obs`; this crate is the dependency-light kernel
//! (datalog + catalog + the core comparison helper and orderer trait)
//! those layers build on. The release gate's walk doubles as a tuple
//! stream's plan schedule ([`ScoreBoundOrder`]). Everything here is
//! deterministic by construction: all float comparisons run through
//! [`qpo_core::utility_cmp`] and all ties break on encodings, never on
//! attach order, wall-clock, or worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `Ord`, and what it requires, from one comparison of two heap entries
/// (greater = popped first): floats by `utility_cmp`, ties by encodings.
macro_rules! heap_order {
    ($entry:ty, |$a:ident, $b:ident| $cmp:expr) => {
        impl Ord for $entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                let ($a, $b) = (self, other);
                $cmp
            }
        }
        impl PartialOrd for $entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl PartialEq for $entry {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for $entry {}
    };
}

/// A binary max-heap in a `Vec` under the caller's order, `first(a, b)`
/// = `a` pops before `b`. Entries are `Copy` handles (arena offsets, slot
/// indices) the order reads through state an `Ord` on them cannot see.
/// Under a total order the pops are those of any binary heap.
mod heap {
    pub(crate) fn push<T>(heap: &mut Vec<T>, item: T, first: impl Fn(&T, &T) -> bool) {
        heap.push(item);
        let mut at = heap.len() - 1;
        while at > 0 && first(&heap[at], &heap[(at - 1) / 2]) {
            heap.swap(at, (at - 1) / 2);
            at = (at - 1) / 2;
        }
    }

    /// Restores the order once the top changed in place (`kept`) or left.
    pub(crate) fn settle<T>(heap: &mut Vec<T>, kept: bool, first: impl Fn(&T, &T) -> bool) {
        if !kept && !heap.is_empty() {
            heap.swap_remove(0);
        }
        let mut at = 0;
        loop {
            let mut best = at;
            for child in [2 * at + 1, 2 * at + 2] {
                if child < heap.len() && first(&heap[child], &heap[best]) {
                    best = child;
                }
            }
            if best == at {
                return;
            }
            heap.swap(at, best);
            at = best;
        }
    }
}

mod enumerate;
mod gate;
mod merge;
mod scorer;

pub use enumerate::{LevelCache, RankedJoin};
pub use gate::{ReleaseGate, ScoreBoundOrder};
pub use merge::{encode_tuple, AnyKMerge, RankedTuple, TupleStream, VecStream};
pub use scorer::{plan_bound, CatalogScorer, TupleScorer};
