//! The query interface shared by Euler-histogram backends.
//!
//! The S-EulerApprox algebra only needs a few signed-sum primitives;
//! abstracting them lets [`s_euler_counts`] run on both the static
//! [`crate::FrozenEulerHistogram`] and a pinned [`crate::LiveSnapshot`]
//! (a frozen cube plus a delta of signed ops).

use euler_grid::{Grid, GridRect};

use crate::RelationCounts;

/// A queryable Euler histogram backend.
pub trait EulerSource {
    /// The grid summarized.
    fn grid(&self) -> &Grid;

    /// Number of objects summarized (`|S|`).
    fn object_count(&self) -> u64;

    /// Signed sum of buckets strictly inside the aligned region
    /// `[x0, x1] × [y0, y1]` (grid-line coordinates).
    fn inside_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64;

    /// Signed sum over the closed Euler region of an aligned region
    /// (inside buckets plus its boundary-line buckets).
    fn closed_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64;

    /// Sum of all buckets. Every object's footprint has Euler
    /// characteristic 1, so this equals `|S|`.
    fn total(&self) -> i64 {
        self.object_count() as i64
    }

    /// `n_ii` — exact intersect count (Equation 12).
    fn intersect_count(&self, q: &GridRect) -> i64 {
        self.inside_sum(q.x0, q.y0, q.x1, q.y1)
    }

    /// `n'_ei` — the outside sum (Equation 15/19, loophole included).
    fn outside_sum(&self, q: &GridRect) -> i64 {
        self.total() - self.closed_sum(q.x0, q.y0, q.x1, q.y1)
    }

    /// `(n_ii, closed_sum)` of one aligned region: both estimator windows
    /// in a single call so backends can batch the corner lookups. A
    /// frozen backend resolves all eight corners through one
    /// [`crate::FrozenEulerHistogram::inside_closed_sums`] gather; a
    /// [`crate::LiveSnapshot`] adds one delta walk shared by both windows.
    fn inside_closed_sums(&self, q: &GridRect) -> (i64, i64);
}

/// The S-EulerApprox algebra (Equations 14–17) on any backend.
///
/// Both estimator windows resolve through one
/// [`EulerSource::inside_closed_sums`] call instead of two independent
/// four-corner lookups.
pub fn s_euler_counts<H: EulerSource + ?Sized>(h: &H, q: &GridRect) -> RelationCounts {
    let (n_ii, closed) = h.inside_closed_sums(q);
    s_euler_finish(h.object_count() as i64, h.total(), n_ii, closed)
}

/// The S-EulerApprox finish (Equations 14–17): one window's relation
/// counts from its inside sum `n_ii` and closed sum, over `size` objects
/// whose buckets sum to `total`. The per-query path and the tiling sweep
/// both end here.
#[inline(always)]
pub(crate) fn s_euler_finish(size: i64, total: i64, n_ii: i64, closed: i64) -> RelationCounts {
    let n_ei = total - closed;
    let disjoint = size - n_ii;
    RelationCounts {
        disjoint,
        contains: size - n_ei,
        contained: 0,
        overlaps: n_ei - disjoint,
    }
}
