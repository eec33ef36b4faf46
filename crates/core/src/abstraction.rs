//! Source abstraction (§5.1): grouping similar sources into hierarchies.
//!
//! Drips, iDrips and Streamer reason over *abstract sources* — groups of
//! concrete sources treated as one — arranged in a binary hierarchy built
//! agglomeratively from sources sorted by a heuristic key. The paper's
//! default heuristic groups sources "based on their similarity wrt the
//! number of expected output tuples" (§6); alternatives are provided for
//! the ablation experiment.

use qpo_catalog::{ProblemInstance, SourceRef};
use std::ops::Deref;

/// Orders sources within a bucket so that neighbours are "similar"; the
/// hierarchy then merges neighbours.
pub trait AbstractionHeuristic {
    /// Heuristic name, for experiment tables.
    fn name(&self) -> &'static str;

    /// Sort key; sources with close keys are grouped together.
    fn key(&self, inst: &ProblemInstance, source: SourceRef) -> f64;
}

/// Every pointer to a heuristic forwards to it.
impl<P> AbstractionHeuristic for P
where
    P: Deref,
    P::Target: AbstractionHeuristic,
{
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn key(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        (**self).key(inst, source)
    }
}

/// The paper's default: group by expected output tuples `n_i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByExpectedTuples;

impl AbstractionHeuristic for ByExpectedTuples {
    fn name(&self) -> &'static str {
        "by-tuples"
    }
    fn key(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        inst.stat(source).tuples
    }
}

/// Group by extent midpoint — clusters sources covering nearby data, which
/// tightens coverage intervals.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByExtentMidpoint;

impl AbstractionHeuristic for ByExtentMidpoint {
    fn name(&self) -> &'static str {
        "by-extent"
    }
    fn key(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        let e = inst.stat(source).extent;
        e.start as f64 + e.len as f64 / 2.0
    }
}

/// Group by per-item transmission cost — tightens cost intervals.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByTransmissionCost;

impl AbstractionHeuristic for ByTransmissionCost {
    fn name(&self) -> &'static str {
        "by-alpha"
    }
    fn key(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        inst.stat(source).transmission_cost
    }
}

/// A deliberately uninformative heuristic (ablation baseline): a seeded
/// hash of the source reference.
#[derive(Debug, Clone, Copy)]
pub struct RandomKey {
    /// Hash seed.
    pub seed: u64,
}

impl AbstractionHeuristic for RandomKey {
    fn name(&self) -> &'static str {
        "random"
    }
    fn key(&self, _inst: &ProblemInstance, source: SourceRef) -> f64 {
        // splitmix64 over (seed, bucket, index).
        let mut x = self
            .seed
            .wrapping_add(source.bucket as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(source.index as u64);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) as f64
    }
}

/// Node handle within an [`AbstractionTree`].
pub type NodeId = usize;

/// A binary (agglomerative) abstraction hierarchy over one bucket's
/// candidate source indices. Leaves are concrete sources; each internal
/// node's indices are the union of its children's.
#[derive(Debug, Clone)]
pub struct AbstractionTree {
    nodes: Vec<Node>,
    root: NodeId,
}

#[derive(Debug, Clone)]
struct Node {
    /// Sorted concrete source indices covered by this node.
    indices: Vec<usize>,
    /// Child node ids; empty for leaves.
    children: Vec<NodeId>,
}

impl AbstractionTree {
    /// Builds the hierarchy for `candidates` of `bucket`, pairing
    /// neighbours in heuristic-key order level by level until one root
    /// remains.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn build<H: AbstractionHeuristic + ?Sized>(
        inst: &ProblemInstance,
        bucket: usize,
        candidates: &[usize],
        heuristic: &H,
    ) -> Self {
        assert!(!candidates.is_empty(), "cannot abstract an empty bucket");
        let mut order: Vec<usize> = candidates.to_vec();
        order.sort_by(|&a, &b| {
            let ka = heuristic.key(inst, SourceRef::new(bucket, a));
            let kb = heuristic.key(inst, SourceRef::new(bucket, b));
            crate::utility_cmp(ka, kb).then(a.cmp(&b))
        });

        let mut nodes: Vec<Node> = order
            .iter()
            .map(|&i| Node {
                indices: vec![i],
                children: Vec::new(),
            })
            .collect();
        let mut level: Vec<NodeId> = (0..nodes.len()).collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                match pair {
                    [single] => next.push(*single),
                    [a, b] => {
                        let mut indices =
                            [nodes[*a].indices.as_slice(), nodes[*b].indices.as_slice()].concat();
                        indices.sort_unstable();
                        nodes.push(Node {
                            indices,
                            children: vec![*a, *b],
                        });
                        next.push(nodes.len() - 1);
                    }
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                }
            }
            level = next;
        }
        AbstractionTree {
            root: level[0],
            nodes,
        }
    }

    /// The root node (covering every candidate).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Sorted concrete indices covered by a node.
    pub fn indices(&self, id: NodeId) -> &[usize] {
        &self.nodes[id].indices
    }

    /// Child node ids (empty for leaves).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id].children
    }

    /// True iff the node is a single concrete source.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id].children.is_empty()
    }

    /// Number of concrete sources under the node.
    pub fn width(&self, id: NodeId) -> usize {
        self.nodes[id].indices.len()
    }

    /// Number of nodes; node ids are `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::{Extent, SourceStats};

    struct Probe;

    impl AbstractionHeuristic for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn key(&self, _: &ProblemInstance, source: SourceRef) -> f64 {
            1.5 + source.index as f64
        }
    }

    #[test]
    fn pointers_forward_every_method() {
        fn answers<H: AbstractionHeuristic + ?Sized>(h: &H) -> (&'static str, f64) {
            (h.name(), h.key(&inst(&[1.0, 2.0]), SourceRef::new(0, 1)))
        }
        let want = answers(&Probe);
        let boxed: Box<dyn AbstractionHeuristic> = Box::new(Probe);
        assert_eq!(answers(&&Probe), want, "&P");
        assert_eq!(answers(&&&Probe), want, "&&P");
        assert_eq!(answers(&Box::new(Probe)), want, "Box<P>");
        assert_eq!(answers(&boxed), want, "Box<dyn AbstractionHeuristic>");
        assert_eq!(answers(&std::sync::Arc::new(Probe)), want, "Arc<P>");
    }

    fn inst(tuples: &[f64]) -> ProblemInstance {
        let bucket = tuples
            .iter()
            .map(|&n| {
                SourceStats::new()
                    .with_extent(Extent::new(0, 1))
                    .with_tuples(n)
            })
            .collect();
        ProblemInstance::new(0.0, vec![100], vec![bucket]).unwrap()
    }

    #[test]
    fn groups_similar_tuple_counts_first() {
        // Keys: 10, 1000, 12, 990 → sorted: s0(10), s2(12), s3(990), s1(1000).
        let inst = inst(&[10.0, 1000.0, 12.0, 990.0]);
        let t = AbstractionTree::build(&inst, 0, &[0, 1, 2, 3], &ByExpectedTuples);
        assert_eq!(t.indices(t.root()), &[0, 1, 2, 3]);
        let kids = t.children(t.root());
        assert_eq!(kids.len(), 2);
        let mut groups: Vec<Vec<usize>> = kids.iter().map(|&c| t.indices(c).to_vec()).collect();
        groups.sort();
        assert_eq!(
            groups,
            vec![vec![0, 2], vec![1, 3]],
            "similar sizes grouped"
        );
    }

    #[test]
    fn single_candidate_is_a_leaf_root() {
        let inst = inst(&[5.0, 6.0]);
        let t = AbstractionTree::build(&inst, 0, &[1], &ByExpectedTuples);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.indices(t.root()), &[1]);
        assert_eq!(t.width(t.root()), 1);
    }

    #[test]
    fn odd_counts_carry_the_straggler_up() {
        let inst = inst(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let t = AbstractionTree::build(&inst, 0, &[0, 1, 2, 3, 4], &ByExpectedTuples);
        assert_eq!(t.width(t.root()), 5);
        // Every concrete index appears exactly once among the leaves.
        fn leaves(t: &AbstractionTree, id: NodeId, out: &mut Vec<usize>) {
            if t.is_leaf(id) {
                out.extend_from_slice(t.indices(id));
            } else {
                for &c in t.children(id) {
                    leaves(t, c, out);
                }
            }
        }
        let mut ls = Vec::new();
        leaves(&t, t.root(), &mut ls);
        ls.sort_unstable();
        assert_eq!(ls, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn children_partition_parent() {
        let inst = inst(&[4.0, 3.0, 2.0, 1.0, 8.0, 9.0, 7.0]);
        let t = AbstractionTree::build(&inst, 0, &[0, 1, 2, 3, 4, 5, 6], &ByExtentMidpoint);
        let mut stack = vec![t.root()];
        while let Some(id) = stack.pop() {
            if t.is_leaf(id) {
                continue;
            }
            let mut union: Vec<usize> = t
                .children(id)
                .iter()
                .flat_map(|&c| t.indices(c).iter().copied())
                .collect();
            union.sort_unstable();
            assert_eq!(union, t.indices(id), "children partition node {id}");
            stack.extend_from_slice(t.children(id));
        }
    }

    #[test]
    fn heuristics_have_names_and_keys() {
        let inst = inst(&[3.0]);
        let r = SourceRef::new(0, 0);
        assert_eq!(ByExpectedTuples.name(), "by-tuples");
        assert_eq!(ByExpectedTuples.key(&inst, r), 3.0);
        assert_eq!(ByExtentMidpoint.name(), "by-extent");
        assert_eq!(ByExtentMidpoint.key(&inst, r), 0.5);
        assert_eq!(ByTransmissionCost.name(), "by-alpha");
        assert_eq!(ByTransmissionCost.key(&inst, r), 0.0);
        let rk = RandomKey { seed: 1 };
        assert_eq!(rk.name(), "random");
        // Deterministic per seed, differs across seeds (overwhelmingly).
        assert_eq!(rk.key(&inst, r), RandomKey { seed: 1 }.key(&inst, r));
        assert_ne!(rk.key(&inst, r), RandomKey { seed: 2 }.key(&inst, r));
    }

    #[test]
    fn random_heuristic_still_builds_valid_trees() {
        let inst = inst(&[1.0, 2.0, 3.0, 4.0]);
        let t = AbstractionTree::build(&inst, 0, &[0, 1, 2, 3], &RandomKey { seed: 9 });
        assert_eq!(t.indices(t.root()), &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "empty bucket")]
    fn empty_candidates_panic() {
        let inst = inst(&[1.0]);
        let _ = AbstractionTree::build(&inst, 0, &[], &ByExpectedTuples);
    }
}
