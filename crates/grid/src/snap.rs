//! Canonical snapping of raw MBRs into open rectangles in grid units.
//!
//! The paper's analysis rests on two modelling assumptions:
//!
//! 1. **no object aligns with the grid** (§3's simplification that every
//!    object is of type `(i, j)`), and
//! 2. **`N_eq ≡ 0`** — realized by "shrinking an object a little bit if
//!    its boundary completely aligns with a given grid" (§4.2).
//!
//! [`Snapper`] makes both assumptions true *by construction*: every raw
//! MBR — including degenerate points and segments, which occur in ADL- and
//! TIGER-like data — is deterministically mapped to an open rectangle
//! `(a, b) × (c, d)` in grid units whose endpoints are non-integer and lie
//! strictly inside `(0, nx) × (0, ny)`. Estimators *and* the exact
//! ground-truth counter both consume [`SnappedRect`], so approximation
//! error is never confused with semantic mismatch.

use euler_geom::{Level2Relation, Rect};

use crate::{Grid, GridRect};

/// The snapping displacement, in cell widths: 2⁻²⁰ of a cell.
///
/// Small enough that no snapped object changes which cells it overlaps
/// (unless it was exactly on a line, where the paper's shrink rule applies)
/// and large enough to be exactly representable and robust in `f64` for
/// grids up to millions of cells per axis.
pub const SNAP_EPSILON: f64 = 1.0 / (1u64 << 20) as f64;

/// An object MBR in canonical snapped form: the open rectangle
/// `(a, b) × (c, d)` in grid units, with non-integer bounds strictly inside
/// the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnappedRect {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
}

impl SnappedRect {
    /// Rebuilds a snapped rect from stored bounds — the decode path of
    /// the write-ahead log and other persistence layers, where the four
    /// `f64`s round-trip bit-exactly. The bounds must have come from a
    /// [`Snapper`] (debug-checked: ordered open intervals).
    #[inline]
    pub fn from_bounds(a: f64, b: f64, c: f64, d: f64) -> SnappedRect {
        debug_assert!(a < b && c < d, "snapped bounds must be ordered");
        SnappedRect { a, b, c, d }
    }

    /// Lower x bound (grid units, exclusive).
    #[inline]
    pub fn a(&self) -> f64 {
        self.a
    }
    /// Upper x bound (grid units, exclusive).
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }
    /// Lower y bound (grid units, exclusive).
    #[inline]
    pub fn c(&self) -> f64 {
        self.c
    }
    /// Upper y bound (grid units, exclusive).
    #[inline]
    pub fn d(&self) -> f64 {
        self.d
    }

    /// First (leftmost) cell column whose interior the object intersects.
    #[inline]
    pub fn cx0(&self) -> usize {
        self.a as usize
    }

    /// Last cell column whose interior the object intersects.
    #[inline]
    pub fn cx1(&self) -> usize {
        self.b as usize
    }

    /// First (bottom) cell row whose interior the object intersects.
    #[inline]
    pub fn cy0(&self) -> usize {
        self.c as usize
    }

    /// Last cell row whose interior the object intersects.
    #[inline]
    pub fn cy1(&self) -> usize {
        self.d as usize
    }

    /// Object area in cell units, the grouping key of M-EulerApprox (§5.4).
    #[inline]
    pub fn area_cells(&self) -> f64 {
        (self.b - self.a) * (self.d - self.c)
    }

    /// Does the object's interior intersect the open interior of the
    /// aligned query? (Level 1 `intersect`.)
    #[inline]
    pub fn intersects(&self, q: &GridRect) -> bool {
        self.a < q.x1 as f64 && self.b > q.x0 as f64 && self.c < q.y1 as f64 && self.d > q.y0 as f64
    }

    /// Is the object contained in the query (the paper's `contains`
    /// relation with the query as `p` — counted by `N_cs`)?
    #[inline]
    pub fn contained_in_query(&self, q: &GridRect) -> bool {
        self.a > q.x0 as f64 && self.b < q.x1 as f64 && self.c > q.y0 as f64 && self.d < q.y1 as f64
    }

    /// Does the object contain the query (the paper's `contained` relation
    /// — counted by `N_cd`)?
    #[inline]
    pub fn contains_query(&self, q: &GridRect) -> bool {
        self.a < q.x0 as f64 && self.b > q.x1 as f64 && self.c < q.y0 as f64 && self.d > q.y1 as f64
    }

    /// Classify the Level 2 relation of this object with respect to the
    /// aligned query. `Equals` can never occur for snapped objects.
    pub fn level2(&self, q: &GridRect) -> Level2Relation {
        if !self.intersects(q) {
            Level2Relation::Disjoint
        } else if self.contained_in_query(q) {
            Level2Relation::Contains
        } else if self.contains_query(q) {
            Level2Relation::Contained
        } else {
            Level2Relation::Overlap
        }
    }

    /// Is this a "crossover" object for the query (§5.2): the object's
    /// interior crosses the query so that `object ∩ exterior(query)` splits
    /// into **two** components? For axis-aligned rectangles this happens
    /// exactly when the object spans the query's full extent in one
    /// dimension while staying strictly inside the query's band in the
    /// other (if it poked out of the band, the two side pieces would stay
    /// connected around the query corner).
    pub fn crosses(&self, q: &GridRect) -> bool {
        let spans_x = self.a < q.x0 as f64 && self.b > q.x1 as f64;
        let within_y = self.c > q.y0 as f64 && self.d < q.y1 as f64;
        let spans_y = self.c < q.y0 as f64 && self.d > q.y1 as f64;
        let within_x = self.a > q.x0 as f64 && self.b < q.x1 as f64;
        (spans_x && within_y) || (spans_y && within_x)
    }
}

/// Deterministic snapping of raw data-space MBRs into [`SnappedRect`]s for
/// a particular [`Grid`].
#[derive(Debug, Clone, Copy)]
pub struct Snapper {
    grid: Grid,
    eps: f64,
}

impl Snapper {
    /// A snapper for `grid` using [`SNAP_EPSILON`].
    pub fn new(grid: Grid) -> Snapper {
        Snapper {
            grid,
            eps: SNAP_EPSILON,
        }
    }

    /// The grid this snapper targets.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Snap one axis extent (already in grid units) into a canonical open
    /// interval strictly inside `(0, n)` with non-integer endpoints.
    fn snap_axis(&self, lo: f64, hi: f64, n: usize) -> (f64, f64) {
        let nf = n as f64;
        let eps = self.eps;
        let lo = lo.clamp(0.0, nf);
        let hi = hi.clamp(lo, nf);
        let (mut a, mut b) = if lo == hi {
            // Degenerate extent: inflate to a tiny interval around it.
            (lo - eps, hi + eps)
        } else {
            let mut a = lo;
            let mut b = hi;
            // The paper's shrink rule: endpoints on a grid line move inward.
            if a == a.floor() {
                a += eps;
            }
            if b == b.floor() {
                b -= eps;
            }
            (a, b)
        };
        if a >= b {
            // The object was thinner than 2ε across a line; re-center it.
            let mut mid = (lo + hi) / 2.0;
            if mid == mid.floor() {
                mid += 2.0 * eps;
            }
            a = mid - eps;
            b = mid + eps;
        }
        // Keep strictly inside the grid.
        if a <= 0.0 {
            a = eps * 0.5;
        }
        if b >= nf {
            b = nf - eps * 0.5;
        }
        if a >= b {
            // Only reachable for degenerate extents hugging the boundary of
            // a 1-cell-wide grid; produce a minimal valid interval.
            a = (b - eps).max(eps * 0.25);
        }
        debug_assert!(a > 0.0 && b < nf && a < b, "snap invariant: 0<{a}<{b}<{nf}");
        debug_assert!(a != a.floor() && b != b.floor(), "non-integer endpoints");
        (a, b)
    }

    /// Snap a raw data-space MBR.
    pub fn snap(&self, r: &Rect) -> SnappedRect {
        let (a, b) = self.snap_axis(
            self.grid.to_grid_x(r.xlo()),
            self.grid.to_grid_x(r.xhi()),
            self.grid.nx(),
        );
        let (c, d) = self.snap_axis(
            self.grid.to_grid_y(r.ylo()),
            self.grid.to_grid_y(r.yhi()),
            self.grid.ny(),
        );
        SnappedRect { a, b, c, d }
    }

    /// Snap a whole slice of MBRs.
    pub fn snap_all(&self, rects: &[Rect]) -> Vec<SnappedRect> {
        rects.iter().map(|r| self.snap(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataSpace;
    use proptest::prelude::*;

    fn grid_36x18() -> Grid {
        Grid::new(DataSpace::paper_world(), 36, 18).unwrap()
    }

    fn q(x0: usize, y0: usize, x1: usize, y1: usize) -> GridRect {
        GridRect::unchecked(x0, y0, x1, y1)
    }

    #[test]
    fn aligned_object_shrinks_inward() {
        let s = Snapper::new(grid_36x18());
        // Object exactly covering cells [1,3)x[2,4) in grid units = data
        // units ×10: [10,30]x[20,40].
        let o = s.snap(&Rect::new(10.0, 20.0, 30.0, 40.0).unwrap());
        assert!(o.a() > 1.0 && o.a() < 1.0 + 1e-5);
        assert!(o.b() < 3.0 && o.b() > 3.0 - 1e-5);
        // After shrinking, the aligned query [1,3)x[2,4) *contains* it.
        assert_eq!(o.level2(&q(1, 2, 3, 4)), Level2Relation::Contains);
        // N_eq is impossible: the identical query contains, not equals.
        assert_ne!(o.level2(&q(1, 2, 3, 4)), Level2Relation::Equals);
    }

    #[test]
    fn point_objects_survive_snapping() {
        let s = Snapper::new(grid_36x18());
        let p = s.snap(&Rect::new(15.0, 25.0, 15.0, 25.0).unwrap());
        assert!(p.area_cells() > 0.0);
        assert_eq!(p.cx0(), p.cx1());
        assert_eq!(p.level2(&q(1, 2, 2, 3)), Level2Relation::Contains);
    }

    #[test]
    fn segment_objects_survive_snapping() {
        let s = Snapper::new(grid_36x18());
        // Horizontal segment from x=12 to x=28 at y=25 (grid y=2.5).
        let seg = s.snap(&Rect::new(12.0, 25.0, 28.0, 25.0).unwrap());
        assert!(seg.area_cells() > 0.0);
        assert_eq!((seg.cx0(), seg.cx1()), (1, 2));
        assert_eq!((seg.cy0(), seg.cy1()), (2, 2));
        assert_eq!(seg.level2(&q(0, 0, 36, 18)), Level2Relation::Contains);
    }

    #[test]
    fn boundary_objects_move_inside() {
        let s = Snapper::new(grid_36x18());
        let world = s.snap(&Rect::new(0.0, 0.0, 360.0, 180.0).unwrap());
        assert!(world.a() > 0.0 && world.b() < 36.0);
        assert!(world.c() > 0.0 && world.d() < 18.0);
        // The full-space query contains the world map after shrinking.
        assert_eq!(world.level2(&q(0, 0, 36, 18)), Level2Relation::Contains);
        // But it *contains* any strictly interior query.
        assert_eq!(world.level2(&q(10, 5, 12, 7)), Level2Relation::Contained);
    }

    #[test]
    fn out_of_space_coordinates_clamp() {
        let s = Snapper::new(grid_36x18());
        let o = s.snap(&Rect::new(-50.0, -10.0, 500.0, 300.0).unwrap());
        assert!(o.a() > 0.0 && o.b() < 36.0 && o.c() > 0.0 && o.d() < 18.0);
    }

    #[test]
    fn level2_classification_cases() {
        let s = Snapper::new(grid_36x18());
        // An object spanning grid coords [5.4, 6.2]² pokes out of cell (5,5).
        let o = s.snap(&Rect::new(54.0, 54.0, 62.0, 62.0).unwrap());
        assert_eq!(o.level2(&q(5, 5, 6, 6)), Level2Relation::Overlap); // pokes out
        assert_eq!(o.level2(&q(4, 4, 7, 7)), Level2Relation::Contains);
        // And an object strictly inside a single cell is contained by it.
        let tiny = s.snap(&Rect::new(54.0, 54.0, 56.0, 56.0).unwrap());
        assert_eq!(tiny.level2(&q(5, 5, 6, 6)), Level2Relation::Contains);
        assert_eq!(o.level2(&q(10, 10, 12, 12)), Level2Relation::Disjoint);
        // A big object containing a small query.
        let big = s.snap(&Rect::new(10.0, 10.0, 170.0, 170.0).unwrap());
        assert_eq!(big.level2(&q(5, 5, 6, 6)), Level2Relation::Contained);
    }

    #[test]
    fn crossover_detection_matches_figure_9b() {
        let s = Snapper::new(grid_36x18());
        // Wide flat object crossing a tall query horizontally.
        let bar = s.snap(&Rect::new(10.0, 52.0, 350.0, 58.0).unwrap());
        let tall_q = q(10, 3, 14, 9);
        assert!(bar.crosses(&tall_q));
        assert_eq!(bar.level2(&tall_q), Level2Relation::Overlap);
        // Squares can never cross squares (§6.2's sz_skew observation).
        let sq = s.snap(&Rect::new(100.0, 80.0, 140.0, 120.0).unwrap());
        assert!(!sq.crosses(&q(11, 9, 13, 11)));
    }

    #[test]
    fn degenerate_grids_still_snap_validly() {
        // 1×1 and Nx1 grids exercise the last-resort guards: every snap
        // must still produce a valid open rect strictly inside the grid.
        for (nx, ny) in [(1usize, 1usize), (4, 1), (1, 3)] {
            let g = Grid::new(
                DataSpace::new(euler_geom::Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
                nx,
                ny,
            )
            .unwrap();
            let s = Snapper::new(g);
            for r in [
                Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap(), // full space
                Rect::new(0.0, 0.0, 0.0, 0.0).unwrap(),             // corner point
                Rect::new(nx as f64, ny as f64, nx as f64, ny as f64).unwrap(),
                Rect::new(0.0, 0.0, 0.5, 0.5).unwrap(),
            ] {
                let o = s.snap(&r);
                assert!(
                    o.a() > 0.0 && o.b() < nx as f64 && o.a() < o.b(),
                    "{nx}x{ny} {r}"
                );
                assert!(
                    o.c() > 0.0 && o.d() < ny as f64 && o.c() < o.d(),
                    "{nx}x{ny} {r}"
                );
                assert!(o.cx1() < nx && o.cy1() < ny);
            }
        }
    }

    proptest! {
        /// Snapping invariant: endpoints non-integer, strictly inside grid.
        #[test]
        fn snap_invariants(xlo in 0.0..360.0f64, w in 0.0..360.0f64,
                           ylo in 0.0..180.0f64, h in 0.0..180.0f64) {
            let s = Snapper::new(Grid::paper_default());
            let r = Rect::new(xlo, ylo, (xlo + w).min(360.0), (ylo + h).min(180.0)).unwrap();
            let o = s.snap(&r);
            prop_assert!(o.a() > 0.0 && o.b() < 360.0 && o.a() < o.b());
            prop_assert!(o.c() > 0.0 && o.d() < 180.0 && o.c() < o.d());
            prop_assert!(o.a().floor() != o.a() && o.b().floor() != o.b());
            prop_assert!(o.c().floor() != o.c() && o.d().floor() != o.d());
            prop_assert!(o.cx0() <= o.cx1() && o.cx1() < 360);
            prop_assert!(o.cy0() <= o.cy1() && o.cy1() < 180);
        }

        /// Cells reported by cx/cy spans are exactly the cells whose open
        /// interior the snapped object intersects.
        #[test]
        fn cell_span_matches_intersection(xlo in 0.0..360.0f64, w in 0.01..100.0f64,
                                          ylo in 0.0..180.0f64, h in 0.01..50.0f64) {
            let s = Snapper::new(Grid::paper_default());
            let r = Rect::new(xlo, ylo, (xlo + w).min(360.0), (ylo + h).min(180.0)).unwrap();
            let o = s.snap(&r);
            for cx in o.cx0().saturating_sub(1)..=(o.cx1() + 1).min(359) {
                let in_span = cx >= o.cx0() && cx <= o.cx1();
                let hits = o.a() < (cx + 1) as f64 && o.b() > cx as f64;
                prop_assert_eq!(in_span, hits);
            }
        }

        /// Level 2 relations vs a query are mutually exclusive & exhaustive.
        #[test]
        fn level2_partition(xlo in 0.0..360.0f64, w in 0.0..200.0f64,
                            ylo in 0.0..180.0f64, h in 0.0..100.0f64,
                            qx in 0usize..35, qy in 0usize..17,
                            qw in 1usize..20, qh in 1usize..20) {
            let s = Snapper::new(Grid::paper_default());
            let r = Rect::new(xlo, ylo, (xlo + w).min(360.0), (ylo + h).min(180.0)).unwrap();
            let o = s.snap(&r);
            let query = q(qx, qy, (qx + qw).min(360), (qy + qh).min(180));
            let flags = [
                o.level2(&query) == Level2Relation::Disjoint,
                o.level2(&query) == Level2Relation::Contains,
                o.level2(&query) == Level2Relation::Contained,
                o.level2(&query) == Level2Relation::Overlap,
            ];
            prop_assert_eq!(flags.iter().filter(|&&f| f).count(), 1);
            // Consistency with the primitive predicates.
            if o.contained_in_query(&query) {
                prop_assert!(o.intersects(&query));
                prop_assert!(!o.contains_query(&query));
            }
            if o.contains_query(&query) {
                prop_assert!(o.intersects(&query));
            }
        }
    }
}
