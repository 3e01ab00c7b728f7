use crate::GeomError;

/// Whether an interval endpoint is included in the interval.
///
/// The paper's §3 distinguishes between objects that start *at* a grid line
/// (`[i, j)`) and objects that start strictly after it (`(i, j)`), because
/// the two stand in different Level 2 relations to a grid-aligned query.
/// Making the topology explicit lets the snapping step (§4.2's "shrink an
/// object a little bit") be expressed and tested exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Endpoint belongs to the interval (`[` / `]`).
    Closed,
    /// Endpoint does not belong to the interval (`(` / `)`).
    Open,
}

/// A 1-D interval with explicit endpoint topology.
///
/// Degenerate intervals (`lo == hi`) are allowed only when both endpoints
/// are closed (a single point); an open degenerate interval would be empty
/// and is rejected by [`Interval::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
    lo_end: Endpoint,
    hi_end: Endpoint,
}

impl Interval {
    /// Creates an interval, validating orientation and finiteness.
    pub fn new(lo: f64, hi: f64, lo_end: Endpoint, hi_end: Endpoint) -> Result<Self, GeomError> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(GeomError::NonFiniteCoordinate);
        }
        if lo > hi {
            return Err(GeomError::InvertedBounds {
                detail: format!("interval lo={lo} > hi={hi}"),
            });
        }
        if lo == hi && (lo_end == Endpoint::Open || hi_end == Endpoint::Open) {
            return Err(GeomError::InvertedBounds {
                detail: format!("degenerate interval at {lo} must be closed on both ends"),
            });
        }
        Ok(Interval {
            lo,
            hi,
            lo_end,
            hi_end,
        })
    }

    /// Open interval `(lo, hi)`. Requires `lo < hi`.
    pub fn open(lo: f64, hi: f64) -> Result<Self, GeomError> {
        if lo >= hi {
            return Err(GeomError::InvertedBounds {
                detail: format!("open interval needs lo < hi, got [{lo}, {hi}]"),
            });
        }
        Interval::new(lo, hi, Endpoint::Open, Endpoint::Open)
    }

    /// Closed interval `[lo, hi]`. Allows the degenerate point case.
    pub fn closed(lo: f64, hi: f64) -> Result<Self, GeomError> {
        Interval::new(lo, hi, Endpoint::Closed, Endpoint::Closed)
    }

    /// Lower bound value.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound value.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Topology of the lower endpoint.
    #[inline]
    pub fn lo_end(&self) -> Endpoint {
        self.lo_end
    }

    /// Topology of the upper endpoint.
    #[inline]
    pub fn hi_end(&self) -> Endpoint {
        self.hi_end
    }

    /// Length of the interval (`hi - lo`).
    #[inline]
    pub fn len(&self) -> f64 {
        self.hi - self.lo
    }

    /// A single point, or a zero-length interval.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.lo == self.hi
    }

    /// The *interior* of the interval as an open interval, or `None` when
    /// the interior is empty (degenerate intervals have no interior).
    pub fn interior(&self) -> Option<Interval> {
        if self.lo < self.hi {
            Some(Interval {
                lo: self.lo,
                hi: self.hi,
                lo_end: Endpoint::Open,
                hi_end: Endpoint::Open,
            })
        } else {
            None
        }
    }

    /// Does the interval contain the value `x` (respecting topology)?
    pub fn contains_value(&self, x: f64) -> bool {
        let above_lo = match self.lo_end {
            Endpoint::Closed => x >= self.lo,
            Endpoint::Open => x > self.lo,
        };
        let below_hi = match self.hi_end {
            Endpoint::Closed => x <= self.hi,
            Endpoint::Open => x < self.hi,
        };
        above_lo && below_hi
    }

    /// Do the two intervals share at least one point (respecting topology)?
    pub fn intersects(&self, other: &Interval) -> bool {
        // A nonempty intersection requires lo_max <= hi_min, with strictness
        // when the binding endpoint on either side is open.
        let (lo, lo_open) = if self.lo > other.lo {
            (self.lo, self.lo_end == Endpoint::Open)
        } else if other.lo > self.lo {
            (other.lo, other.lo_end == Endpoint::Open)
        } else {
            (
                self.lo,
                self.lo_end == Endpoint::Open || other.lo_end == Endpoint::Open,
            )
        };
        let (hi, hi_open) = if self.hi < other.hi {
            (self.hi, self.hi_end == Endpoint::Open)
        } else if other.hi < self.hi {
            (other.hi, other.hi_end == Endpoint::Open)
        } else {
            (
                self.hi,
                self.hi_end == Endpoint::Open || other.hi_end == Endpoint::Open,
            )
        };
        if lo < hi {
            true
        } else if lo == hi {
            !lo_open && !hi_open
        } else {
            false
        }
    }

    /// Is `self` a subset of `other` (every point of `self` lies in `other`)?
    pub fn subset_of(&self, other: &Interval) -> bool {
        let lo_ok = if self.lo > other.lo {
            true
        } else if self.lo == other.lo {
            // Equal bound: ok unless self includes the endpoint and other excludes it.
            !(self.lo_end == Endpoint::Closed && other.lo_end == Endpoint::Open)
        } else {
            false
        };
        let hi_ok = if self.hi < other.hi {
            true
        } else if self.hi == other.hi {
            !(self.hi_end == Endpoint::Closed && other.hi_end == Endpoint::Open)
        } else {
            false
        };
        lo_ok && hi_ok
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let l = match self.lo_end {
            Endpoint::Closed => '[',
            Endpoint::Open => '(',
        };
        let r = match self.hi_end {
            Endpoint::Closed => ']',
            Endpoint::Open => ')',
        };
        write!(f, "{l}{}, {}{r}", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(lo: f64, hi: f64) -> Interval {
        Interval::open(lo, hi).unwrap()
    }
    fn cl(lo: f64, hi: f64) -> Interval {
        Interval::closed(lo, hi).unwrap()
    }

    #[test]
    fn rejects_inverted_and_nonfinite() {
        assert!(Interval::open(2.0, 1.0).is_err());
        assert!(Interval::closed(f64::NAN, 1.0).is_err());
        assert!(Interval::open(1.0, 1.0).is_err());
        assert!(Interval::closed(1.0, 1.0).is_ok());
    }

    #[test]
    fn paper_example_open_vs_halfopen() {
        // §3: object [1,3) contains the range [1,2] while (1,3) only overlaps it.
        let q = cl(1.0, 2.0);
        let half_open = Interval::new(1.0, 3.0, Endpoint::Closed, Endpoint::Open).unwrap();
        let open = op(1.0, 3.0);
        assert!(q.subset_of(&half_open));
        assert!(!q.subset_of(&open)); // (1,3) does not contain the point 1
        assert!(q.intersects(&open));
    }

    #[test]
    fn contains_value_respects_topology() {
        let i = op(1.0, 3.0);
        assert!(!i.contains_value(1.0));
        assert!(i.contains_value(2.0));
        assert!(!i.contains_value(3.0));
        let c = cl(1.0, 3.0);
        assert!(c.contains_value(1.0));
        assert!(c.contains_value(3.0));
    }

    #[test]
    fn touching_intervals_intersect_only_when_both_closed() {
        assert!(cl(0.0, 1.0).intersects(&cl(1.0, 2.0)));
        assert!(!op(0.0, 1.0).intersects(&cl(1.0, 2.0)));
        assert!(!cl(0.0, 1.0).intersects(&op(1.0, 2.0)));
        assert!(!op(0.0, 1.0).intersects(&op(1.0, 2.0)));
    }

    #[test]
    fn disjoint_intervals_do_not_intersect() {
        assert!(!cl(0.0, 1.0).intersects(&cl(2.0, 3.0)));
        assert!(!cl(2.0, 3.0).intersects(&cl(0.0, 1.0)));
    }

    #[test]
    fn subset_topology_edge_cases() {
        assert!(op(1.0, 2.0).subset_of(&cl(1.0, 2.0)));
        assert!(!cl(1.0, 2.0).subset_of(&op(1.0, 2.0)));
        assert!(op(1.0, 2.0).subset_of(&op(1.0, 2.0)));
        assert!(cl(1.5, 1.5).subset_of(&op(1.0, 2.0)));
        assert!(!cl(1.0, 1.0).subset_of(&op(1.0, 2.0)));
    }

    #[test]
    fn interior_of_degenerate_is_empty() {
        assert!(cl(1.0, 1.0).interior().is_none());
        let i = cl(1.0, 2.0).interior().unwrap();
        assert_eq!(i.lo_end(), Endpoint::Open);
        assert_eq!(i.hi_end(), Endpoint::Open);
    }

    #[test]
    fn display_renders_topology() {
        assert_eq!(
            Interval::new(1.0, 3.0, Endpoint::Closed, Endpoint::Open)
                .unwrap()
                .to_string(),
            "[1, 3)"
        );
    }
}
