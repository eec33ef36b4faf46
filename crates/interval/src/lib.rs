//! Closed-interval arithmetic over `f64`.
//!
//! Abstract plans in the Drips family of algorithms (Doan & Halevy, ICDE
//! 2002, §5.1) carry a *real-valued interval* that must contain the utility
//! of every concrete plan they represent. This crate provides the interval
//! type and the operations utility measures need to evaluate abstract plans:
//! total arithmetic, hulls, and the dominance test `l_p ≥ h_q` that lets the
//! planner eliminate an abstract plan without enumerating its members.
//!
//! Invariants: an [`Interval`] always satisfies `lo ≤ hi` and both bounds are
//! finite. Every operation preserves these invariants and is *conservative*:
//! for any `x ∈ a` and `y ∈ b`, `x ⊕ y ∈ a ⊕ b`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A non-empty closed interval `[lo, hi]` with finite bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The degenerate interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };
    /// The degenerate interval `[1, 1]`.
    pub const ONE: Interval = Interval { lo: 1.0, hi: 1.0 };

    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is not finite.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid interval [{lo}, {hi}]"
        );
        Interval { lo, hi }
    }

    /// Creates `[min(a,b), max(a,b)]` — the order of endpoints is irrelevant.
    #[inline]
    pub fn between(a: f64, b: f64) -> Self {
        if a <= b {
            Interval::new(a, b)
        } else {
            Interval::new(b, a)
        }
    }

    /// Creates the degenerate (point) interval `[v, v]`.
    ///
    /// # Panics
    /// Panics if `v` is not finite.
    #[inline]
    pub fn point(v: f64) -> Self {
        Interval::new(v, v)
    }

    /// Lower bound.
    #[inline]
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper bound.
    #[inline]
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// `hi - lo`.
    #[inline]
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// Arithmetic midpoint.
    #[inline]
    pub fn midpoint(self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// True iff `lo == hi`.
    #[inline]
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }

    /// True iff `v ∈ [lo, hi]`.
    #[inline]
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// The intersection, or `None` if the intervals are disjoint.
    #[inline]
    pub fn intersection(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// The smallest interval containing both inputs (convex hull).
    #[inline]
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Dominance in the Drips sense: every value in `self` is ≥ every value
    /// in `other`, i.e. `self.lo ≥ other.hi`.
    ///
    /// A plan whose utility interval dominates another plan's interval is at
    /// least as good as *every* concrete plan the other represents, so the
    /// dominated plan can be pruned (or, in Streamer, linked).
    #[inline]
    pub fn dominates(self, other: Interval) -> bool {
        self.lo >= other.hi
    }

    /// Pointwise minimum: `[min(a.lo,b.lo), min(a.hi,b.hi)]`.
    ///
    /// Conservative for `min(x, y)` with `x ∈ a`, `y ∈ b`.
    #[inline]
    pub fn min(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Pointwise maximum: `[max(a.lo,b.lo), max(a.hi,b.hi)]`.
    #[inline]
    pub fn max(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Clamps both bounds into `[lo, hi]`.
    ///
    /// Conservative for `clamp(x)` with `x ∈ self`.
    #[inline]
    pub fn clamp(self, lo: f64, hi: f64) -> Interval {
        Interval {
            lo: self.lo.clamp(lo, hi),
            hi: self.hi.clamp(lo, hi),
        }
    }

    /// Multiplicative inverse for intervals that do not contain zero.
    ///
    /// # Panics
    /// Panics if `self` contains zero.
    #[inline]
    pub fn recip(self) -> Interval {
        assert!(
            !self.contains(0.0),
            "cannot invert an interval containing zero: {self}"
        );
        Interval::between(1.0 / self.lo, 1.0 / self.hi)
    }

    /// Scales by a (possibly negative) scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Interval {
        Interval::between(self.lo * s, self.hi * s)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_point() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

impl From<f64> for Interval {
    fn from(v: f64) -> Self {
        Interval::point(v)
    }
}

impl Add for Interval {
    type Output = Interval;
    #[inline]
    fn add(self, rhs: Interval) -> Interval {
        Interval::new(self.lo + rhs.lo, self.hi + rhs.hi)
    }
}

impl Sub for Interval {
    type Output = Interval;
    #[inline]
    fn sub(self, rhs: Interval) -> Interval {
        Interval::new(self.lo - rhs.hi, self.hi - rhs.lo)
    }
}

impl Neg for Interval {
    type Output = Interval;
    #[inline]
    fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }
}

impl Mul for Interval {
    type Output = Interval;
    #[inline]
    fn mul(self, rhs: Interval) -> Interval {
        let c = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval::new(lo, hi)
    }
}

impl Div for Interval {
    type Output = Interval;
    /// Interval division; the divisor must not contain zero.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a·(1/b) is the definition
    fn div(self, rhs: Interval) -> Interval {
        self * rhs.recip()
    }
}

impl Sum for Interval {
    fn sum<I: Iterator<Item = Interval>>(iter: I) -> Interval {
        iter.fold(Interval::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn constructors() {
        assert_eq!(iv(1.0, 2.0).lo(), 1.0);
        assert_eq!(iv(1.0, 2.0).hi(), 2.0);
        assert_eq!(Interval::point(3.0), iv(3.0, 3.0));
        assert_eq!(Interval::between(5.0, 2.0), iv(2.0, 5.0));
        assert_eq!(Interval::from(4.0), iv(4.0, 4.0));
        assert!(Interval::point(3.0).is_point());
        assert!(!iv(0.0, 1.0).is_point());
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_inverted_bounds() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_nan() {
        let _ = Interval::new(f64::NAN, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_infinite() {
        let _ = Interval::new(0.0, f64::INFINITY);
    }

    #[test]
    fn width_and_midpoint() {
        assert_eq!(iv(1.0, 5.0).width(), 4.0);
        assert_eq!(iv(1.0, 5.0).midpoint(), 3.0);
        assert_eq!(Interval::ZERO.width(), 0.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = iv(0.0, 2.0);
        assert!(a.contains(0.0) && a.contains(2.0) && a.contains(1.0));
        assert!(!a.contains(-0.1) && !a.contains(2.1));
        assert_eq!(a.intersection(iv(1.0, 3.0)), Some(iv(1.0, 2.0)));
        assert_eq!(a.intersection(iv(3.0, 4.0)), None);
    }

    #[test]
    fn hull_ops() {
        assert_eq!(iv(0.0, 1.0).hull(iv(2.0, 3.0)), iv(0.0, 3.0));
    }

    #[test]
    fn dominance() {
        assert!(iv(3.0, 4.0).dominates(iv(1.0, 3.0)), "l_p == h_q dominates");
        assert!(
            !iv(2.0, 4.0).dominates(iv(1.0, 3.0)),
            "overlap: no dominance"
        );
        // A point dominates itself (ties are dominance, not strict dominance).
        assert!(Interval::point(1.0).dominates(Interval::point(1.0)));
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(iv(1.0, 2.0) + iv(10.0, 20.0), iv(11.0, 22.0));
        assert_eq!(iv(1.0, 2.0) - iv(10.0, 20.0), iv(-19.0, -8.0));
        assert_eq!(-iv(1.0, 2.0), iv(-2.0, -1.0));
        assert_eq!(iv(1.0, 2.0) * iv(3.0, 4.0), iv(3.0, 8.0));
        assert_eq!(iv(-1.0, 2.0) * iv(-3.0, 4.0), iv(-6.0, 8.0));
        assert_eq!(iv(4.0, 8.0) / iv(2.0, 4.0), iv(1.0, 4.0));
        assert_eq!(iv(1.0, 2.0).scale(-2.0), iv(-4.0, -2.0));
        let s: Interval = [iv(1.0, 2.0), iv(3.0, 5.0)].into_iter().sum();
        assert_eq!(s, iv(4.0, 7.0));
    }

    #[test]
    fn min_max_clamp() {
        assert_eq!(iv(0.0, 3.0).min(iv(1.0, 2.0)), iv(0.0, 2.0));
        assert_eq!(iv(0.0, 3.0).max(iv(1.0, 2.0)), iv(1.0, 3.0));
        assert_eq!(iv(-1.0, 5.0).clamp(0.0, 1.0), iv(0.0, 1.0));
        assert_eq!(iv(0.2, 0.8).clamp(0.0, 1.0), iv(0.2, 0.8));
    }

    #[test]
    #[should_panic(expected = "cannot invert")]
    fn recip_rejects_zero_spanning() {
        let _ = iv(-1.0, 1.0).recip();
    }

    #[test]
    fn display() {
        assert_eq!(iv(1.0, 2.0).to_string(), "[1, 2]");
        assert_eq!(Interval::point(1.5).to_string(), "1.5");
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (-1e6..1e6f64, 0.0..1e6f64).prop_map(|(lo, w)| Interval::new(lo, lo + w))
    }

    /// A member of the interval, parameterized by a fraction in [0,1].
    fn member(i: Interval, t: f64) -> f64 {
        i.lo() + t * i.width()
    }

    proptest! {
        #[test]
        fn add_is_conservative(a in arb_interval(), b in arb_interval(),
                               ta in 0.0..=1.0f64, tb in 0.0..=1.0f64) {
            let (x, y) = (member(a, ta), member(b, tb));
            prop_assert!((a + b).contains(x + y));
        }

        #[test]
        fn sub_is_conservative(a in arb_interval(), b in arb_interval(),
                               ta in 0.0..=1.0f64, tb in 0.0..=1.0f64) {
            let (x, y) = (member(a, ta), member(b, tb));
            prop_assert!((a - b).contains(x - y));
        }

        #[test]
        fn mul_is_conservative(a in arb_interval(), b in arb_interval(),
                               ta in 0.0..=1.0f64, tb in 0.0..=1.0f64) {
            let (x, y) = (member(a, ta), member(b, tb));
            // Allow for floating-point rounding at the extremes.
            let p = a * b;
            let slack = 1e-6 * (1.0 + p.lo().abs().max(p.hi().abs()));
            prop_assert!(p.lo() - slack <= x * y && x * y <= p.hi() + slack,
                         "{x}*{y} = {} not in {p}", x * y);
        }

        #[test]
        fn hull_contains_both(a in arb_interval(), b in arb_interval()) {
            let h = a.hull(b);
            let ends = [a.lo(), a.hi(), b.lo(), b.hi()];
            prop_assert!(ends.iter().all(|&x| h.contains(x)));
        }

        #[test]
        fn dominance_is_sound(a in arb_interval(), b in arb_interval(),
                              ta in 0.0..=1.0f64, tb in 0.0..=1.0f64) {
            if a.dominates(b) {
                prop_assert!(member(a, ta) >= member(b, tb));
            }
        }

        #[test]
        fn intersection_symmetric(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(a.intersection(b), b.intersection(a));
        }

        #[test]
        fn neg_involution(a in arb_interval()) {
            prop_assert_eq!(-(-a), a);
        }
    }
}
