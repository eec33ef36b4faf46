//! Axis-aligned box geometry over source extents.
//!
//! A concrete plan covers the product box of its sources' extents; the
//! coverage of a plan given executed plans `E` is the volume of its box
//! minus the volume already covered: `vol(box_p \ ∪_{e∈E} box_e)`. We
//! compute this exactly by maintaining a disjoint-fragment decomposition:
//! subtracting a box from a box yields at most `2·d` disjoint fragments.
//!
//! Volumes use `u128`: with universes up to ~10⁴ and query lengths up to 7,
//! products stay far below `2¹²⁷`.

use qpo_catalog::Extent;

/// An axis-aligned box: one extent per query subgoal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoxN {
    extents: Vec<Extent>,
}

impl BoxN {
    /// Creates a box from per-axis extents.
    pub fn new(extents: Vec<Extent>) -> Self {
        BoxN { extents }
    }

    /// Number of axes.
    pub fn dims(&self) -> usize {
        self.extents.len()
    }

    /// Per-axis extents.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Product of extent lengths. The empty product (zero axes) is 1.
    pub fn volume(&self) -> u128 {
        volume_of(&self.extents)
    }

    /// True iff some axis is empty (volume zero).
    pub fn is_empty(&self) -> bool {
        self.extents.iter().any(|e| e.is_empty())
    }

    /// Axis-wise intersection; empty on any axis makes the box empty.
    pub fn intersect(&self, other: &BoxN) -> BoxN {
        debug_assert_eq!(self.dims(), other.dims());
        BoxN::new(
            self.extents
                .iter()
                .zip(&other.extents)
                .map(|(a, b)| a.intersect(*b))
                .collect(),
        )
    }

    /// True iff the boxes share volume.
    pub fn overlaps(&self, other: &BoxN) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        let mut pairs = self.extents.iter().zip(&other.extents);
        pairs.all(|(a, b)| a.overlaps(*b))
    }

    /// Subtracts `other`, returning disjoint fragments that exactly cover
    /// `self \ other`. Produces at most `2·dims` fragments.
    pub fn subtract(&self, other: &BoxN) -> Vec<BoxN> {
        debug_assert_eq!(self.dims(), other.dims());
        let mut residual = Residual::new(self.extents.iter().copied());
        residual.subtract(|axis| other.extents[axis]);
        let fragments = residual.fragments.chunks(self.dims().max(1));
        fragments.map(|f| BoxN::new(f.to_vec())).collect()
    }
}

/// Appends to `fragments` disjoint fragments that exactly cover the
/// fragment at `fragments[at..at + dims]` minus the box `other` yields the
/// extents of, leaving the fragment itself in place. The fragment must be
/// non-empty on every axis and overlap that box.
fn cut_into(fragments: &mut Vec<Extent>, at: usize, dims: usize, other: impl Fn(usize) -> Extent) {
    // Peel the region outside the intersection one axis at a time: a
    // piece cut on `axis` matches the intersection on the axes before it
    // and the fragment on the axes after it.
    for axis in 0..dims {
        let extent = fragments[at + axis];
        for piece in extent.subtract(other(axis)) {
            if !piece.is_empty() {
                for before in 0..axis {
                    let inter = fragments[at + before].intersect(other(before));
                    fragments.push(inter);
                }
                fragments.push(piece);
                fragments.extend_from_within(at + axis + 1..at + dims);
            }
        }
    }
}

/// The disjoint-fragment worklist of a target box minus the boxes
/// subtracted from it so far — the state [`residual_volume`] folds over
/// its subtrahends, kept as a value so the fold can stop and resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Residual {
    dims: usize,
    /// The fragments, flat: `dims` extents each. A zero-dimensional target
    /// (the empty product, volume 1) is held as one unit extent.
    fragments: Vec<Extent>,
}

impl Residual {
    /// The worklist holding `target` alone (nothing, if it is empty).
    pub(crate) fn new(target: impl IntoIterator<Item = Extent>) -> Self {
        let mut fragments: Vec<Extent> = target.into_iter().collect();
        let dims = fragments.len();
        if dims == 0 {
            fragments.push(Extent::new(0, 1));
        } else if fragments.iter().any(|e| e.is_empty()) {
            fragments.clear();
        }
        Residual { dims, fragments }
    }

    /// The fold step: removes the box whose extent on each axis `other`
    /// yields. Callers that know the box misses the whole target skip the
    /// call (it would test every fragment and keep each one).
    pub(crate) fn subtract(&mut self, other: impl Fn(usize) -> Extent) {
        if self.dims == 0 {
            self.fragments.clear(); // the point minus the point
            return;
        }
        // In place: the fragments `other` misses are compacted to the
        // front, the pieces of the ones it cuts are appended behind the
        // old fragments, and the cut originals are then dropped.
        let (dims, old) = (self.dims, self.fragments.len());
        let mut kept = 0;
        for at in (0..old).step_by(dims) {
            let frag = &self.fragments[at..at + dims];
            if frag
                .iter()
                .enumerate()
                .any(|(axis, e)| !e.overlaps(other(axis)))
            {
                self.fragments.copy_within(at..at + dims, kept);
                kept += dims;
            } else {
                cut_into(&mut self.fragments, at, dims, &other);
            }
        }
        self.fragments.drain(kept..old);
    }

    /// Volume still uncovered.
    pub(crate) fn volume(&self) -> u128 {
        self.fragments.chunks(self.dims.max(1)).map(volume_of).sum()
    }
}

/// Product of extent lengths; the empty product is 1.
fn volume_of(extents: &[Extent]) -> u128 {
    extents.iter().map(|e| e.len as u128).product()
}

/// Volume of `target \ ∪ others`, computed by iterated subtraction over a
/// disjoint-fragment worklist.
pub fn residual_volume(target: &BoxN, others: &[BoxN]) -> u128 {
    let mut residual = Residual::new(target.extents.iter().copied());
    for other in others.iter().filter(|o| target.overlaps(o)) {
        residual.subtract(|axis| other.extents[axis]);
    }
    residual.volume()
}

/// Volume of `∪ boxes` (inclusion-free: computed by summing residuals of
/// each box against its predecessors).
pub fn union_volume(boxes: &[BoxN]) -> u128 {
    boxes
        .iter()
        .enumerate()
        .map(|(i, b)| residual_volume(b, &boxes[..i]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(extents: &[(u64, u64)]) -> BoxN {
        BoxN::new(extents.iter().map(|&(s, l)| Extent::new(s, l)).collect())
    }

    #[test]
    fn volume_and_empty() {
        assert_eq!(bx(&[(0, 3), (0, 4)]).volume(), 12);
        assert_eq!(bx(&[(0, 3), (5, 0)]).volume(), 0);
        assert!(bx(&[(0, 3), (5, 0)]).is_empty());
        assert!(!bx(&[(0, 1)]).is_empty());
        assert_eq!(BoxN::new(vec![]).volume(), 1, "zero-dim box has volume 1");
    }

    #[test]
    fn intersect_and_overlap() {
        let a = bx(&[(0, 10), (0, 10)]);
        let b = bx(&[(5, 10), (8, 10)]);
        let i = a.intersect(&b);
        assert_eq!(i, bx(&[(5, 5), (8, 2)]));
        assert!(a.overlaps(&b));
        assert!(
            !a.overlaps(&bx(&[(10, 2), (0, 10)])),
            "touching axes don't overlap"
        );
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = bx(&[(0, 5), (0, 5)]);
        let frags = a.subtract(&bx(&[(9, 2), (0, 5)]));
        assert_eq!(frags, vec![a]);
    }

    #[test]
    fn subtract_covering_returns_nothing() {
        let a = bx(&[(2, 3), (2, 3)]);
        assert!(a.subtract(&bx(&[(0, 10), (0, 10)])).is_empty());
    }

    #[test]
    fn subtract_fragments_are_disjoint_and_conserve_volume() {
        let a = bx(&[(0, 10), (0, 10), (0, 10)]);
        let b = bx(&[(3, 4), (5, 10), (0, 2)]);
        let frags = a.subtract(&b);
        let inter = a.intersect(&b);
        let total: u128 = frags.iter().map(BoxN::volume).sum();
        assert_eq!(total + inter.volume(), a.volume());
        for (i, f) in frags.iter().enumerate() {
            assert!(!f.overlaps(&inter), "fragment {i} overlaps removed region");
            for g in &frags[i + 1..] {
                assert!(!f.overlaps(g), "fragments overlap each other");
            }
        }
    }

    /// Brute-force volume on small grids for cross-checking.
    fn grid_residual(target: &BoxN, others: &[BoxN]) -> u128 {
        fn points(b: &BoxN) -> Vec<Vec<u64>> {
            let mut pts = vec![vec![]];
            for e in b.extents() {
                let mut next = Vec::new();
                for p in &pts {
                    for v in e.start..e.end() {
                        let mut q = p.clone();
                        q.push(v);
                        next.push(q);
                    }
                }
                pts = next;
            }
            pts
        }
        let inside = |b: &BoxN, p: &[u64]| b.extents().iter().zip(p).all(|(e, &v)| e.contains(v));
        points(target)
            .iter()
            .filter(|p| !others.iter().any(|o| inside(o, p)))
            .count() as u128
    }

    #[test]
    fn residual_matches_grid_bruteforce() {
        let target = bx(&[(0, 6), (2, 5)]);
        let others = [
            bx(&[(1, 3), (0, 4)]),
            bx(&[(4, 4), (3, 9)]),
            bx(&[(0, 1), (0, 20)]),
        ];
        assert_eq!(
            residual_volume(&target, &others),
            grid_residual(&target, &others)
        );
    }

    #[test]
    fn residual_matches_grid_bruteforce_3d() {
        let target = bx(&[(0, 4), (0, 4), (0, 4)]);
        let others = [
            bx(&[(0, 2), (0, 2), (0, 2)]),
            bx(&[(1, 3), (1, 3), (1, 3)]),
            bx(&[(3, 1), (0, 4), (2, 2)]),
        ];
        assert_eq!(
            residual_volume(&target, &others),
            grid_residual(&target, &others)
        );
    }

    #[test]
    fn residual_corner_cases() {
        let t = bx(&[(0, 5)]);
        assert_eq!(residual_volume(&t, &[]), 5);
        assert_eq!(residual_volume(&t, std::slice::from_ref(&t)), 0);
        assert_eq!(residual_volume(&bx(&[(0, 0)]), &[]), 0, "empty target");
        // Duplicated subtrahends change nothing.
        let o = bx(&[(0, 2)]);
        assert_eq!(residual_volume(&t, &[o.clone(), o.clone(), o]), 3);
    }

    #[test]
    fn union_volume_examples() {
        assert_eq!(union_volume(&[]), 0);
        assert_eq!(union_volume(&[bx(&[(0, 4)]), bx(&[(2, 4)])]), 6);
        assert_eq!(
            union_volume(&[
                bx(&[(0, 2), (0, 2)]),
                bx(&[(1, 2), (1, 2)]),
                bx(&[(0, 3), (0, 3)])
            ]),
            9
        );
    }
}
