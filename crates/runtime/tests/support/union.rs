//! The answer union [`qpo_runtime::RunState`] replaced, kept as its
//! reference twin. None of this ships.
//!
//! [`ReferenceUnion`] is a hash map from each distinct answer, one
//! allocated `Tuple` apiece, to the `seq` of the last plan that derived
//! it; its sorted view drains the keys into a vector, sorts it with
//! [`sort_tuples`] and collects the public tree.

use qpo_datalog::{sort_tuples, RowHasher, Tuple};
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;

#[derive(Default)]
pub struct ReferenceUnion(HashMap<Tuple, u64, BuildHasherDefault<RowHasher>>);

impl ReferenceUnion {
    /// Plan `seq`'s `(tuples, new_tuples)`: each row is stamped with the
    /// last plan that derived it, so a row the plan derives twice counts
    /// once.
    pub fn insert_answers(&mut self, seq: u64, rows: &[Tuple]) -> (usize, usize) {
        let (mut total, mut new_tuples) = (0, 0);
        for row in rows {
            let seen = match self.0.get_mut(row.as_slice()) {
                Some(stamp) => Some(std::mem::replace(stamp, seq)),
                None => self.0.insert(row.clone(), seq),
            };
            total += usize::from(seen != Some(seq));
            new_tuples += usize::from(seen.is_none());
        }
        (total, new_tuples)
    }

    pub fn answer_count(&self) -> usize {
        self.0.len()
    }

    pub fn answers(&self) -> BTreeSet<Tuple> {
        let mut answers: Vec<Tuple> = self.0.keys().cloned().collect();
        sort_tuples(&mut answers);
        answers.into_iter().collect()
    }
}
