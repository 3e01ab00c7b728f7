use crate::{GeomError, Point};

/// An axis-aligned rectangle (MBR) with `f64` coordinates.
///
/// `Rect` is a *closed* rectangle `[xlo, xhi] × [ylo, yhi]`; the open/closed
/// endpoint subtleties of the paper are handled by the snapping layer in
/// `euler-grid`, which converts raw MBRs into canonical open rectangles in
/// grid units. Degenerate rectangles (points, horizontal/vertical segments)
/// are valid — real datasets such as ADL and TIGER contain them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    xlo: f64,
    ylo: f64,
    xhi: f64,
    yhi: f64,
}

impl Rect {
    /// Creates a rectangle from its bounds, validating orientation and
    /// finiteness.
    pub fn new(xlo: f64, ylo: f64, xhi: f64, yhi: f64) -> Result<Self, GeomError> {
        if ![xlo, ylo, xhi, yhi].iter().all(|v| v.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        if xlo > xhi || ylo > yhi {
            return Err(GeomError::InvertedBounds {
                detail: format!("rect [{xlo},{xhi}]x[{ylo},{yhi}]"),
            });
        }
        Ok(Rect { xlo, ylo, xhi, yhi })
    }

    /// Rectangle from two opposite corner points (any orientation).
    pub fn from_corners(a: Point, b: Point) -> Result<Self, GeomError> {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Rectangle from a center point and full width/height.
    pub fn from_center(center: Point, width: f64, height: f64) -> Result<Self, GeomError> {
        Rect::new(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )
    }

    /// Degenerate rectangle covering a single point.
    pub fn point(p: Point) -> Result<Self, GeomError> {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// Lower x bound.
    #[inline]
    pub fn xlo(&self) -> f64 {
        self.xlo
    }
    /// Lower y bound.
    #[inline]
    pub fn ylo(&self) -> f64 {
        self.ylo
    }
    /// Upper x bound.
    #[inline]
    pub fn xhi(&self) -> f64 {
        self.xhi
    }
    /// Upper y bound.
    #[inline]
    pub fn yhi(&self) -> f64 {
        self.yhi
    }

    /// Width (`xhi - xlo`).
    #[inline]
    pub fn width(&self) -> f64 {
        self.xhi - self.xlo
    }

    /// Height (`yhi - ylo`).
    #[inline]
    pub fn height(&self) -> f64 {
        self.yhi - self.ylo
    }

    /// Area (`width * height`), zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)
    }

    /// True when the rectangle has zero width or zero height.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.xlo == self.xhi || self.ylo == self.yhi
    }

    /// Do the *closed* rectangles share at least one point?
    #[inline]
    pub fn intersects_closed(&self, other: &Rect) -> bool {
        self.xlo <= other.xhi
            && other.xlo <= self.xhi
            && self.ylo <= other.yhi
            && other.ylo <= self.yhi
    }

    /// Do the *open interiors* share at least one point? Degenerate
    /// rectangles have an empty interior, so they never open-intersect.
    #[inline]
    pub fn intersects_open(&self, other: &Rect) -> bool {
        !self.is_degenerate()
            && !other.is_degenerate()
            && self.xlo < other.xhi
            && other.xlo < self.xhi
            && self.ylo < other.yhi
            && other.ylo < self.yhi
    }

    /// Is `self` contained in `other` (closed ⊆ closed)?
    #[inline]
    pub fn inside_closed(&self, other: &Rect) -> bool {
        self.xlo >= other.xlo
            && self.xhi <= other.xhi
            && self.ylo >= other.ylo
            && self.yhi <= other.yhi
    }

    /// Is `self` strictly inside `other` (closure of `self` inside the open
    /// interior of `other`)?
    #[inline]
    pub fn inside_open(&self, other: &Rect) -> bool {
        self.xlo > other.xlo && self.xhi < other.xhi && self.ylo > other.ylo && self.yhi < other.yhi
    }

    /// Does the closed rectangle contain the point?
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.xlo && p.x <= self.xhi && p.y >= self.ylo && p.y <= self.yhi
    }

    /// Intersection of the closed rectangles, or `None` if disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects_closed(other) {
            return None;
        }
        Some(Rect {
            xlo: self.xlo.max(other.xlo),
            ylo: self.ylo.max(other.ylo),
            xhi: self.xhi.min(other.xhi),
            yhi: self.yhi.min(other.yhi),
        })
    }

    /// Minimal rectangle enclosing both rectangles.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            xlo: self.xlo.min(other.xlo),
            ylo: self.ylo.min(other.ylo),
            xhi: self.xhi.max(other.xhi),
            yhi: self.yhi.max(other.yhi),
        }
    }

    /// Margin (half-perimeter), used by R-tree split heuristics.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Area added to `self` if it had to enclose `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Uniformly scales the rectangle about the space origin by `(sx, sy)`.
    pub fn scaled(&self, sx: f64, sy: f64) -> Rect {
        Rect {
            xlo: self.xlo * sx,
            ylo: self.ylo * sy,
            xhi: self.xhi * sx,
            yhi: self.yhi * sy,
        }
    }

    /// Translates the rectangle by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Rect {
        Rect {
            xlo: self.xlo + dx,
            ylo: self.ylo + dy,
            xhi: self.xhi + dx,
            yhi: self.yhi + dy,
        }
    }

    /// Clamps the rectangle into `bounds` (both treated as closed). Returns
    /// `None` when the rectangle lies entirely outside the bounds.
    pub fn clamped_to(&self, bounds: &Rect) -> Option<Rect> {
        self.intersection(bounds)
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}, {}]x[{}, {}]",
            self.xlo, self.xhi, self.ylo, self.yhi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(xlo: f64, ylo: f64, xhi: f64, yhi: f64) -> Rect {
        Rect::new(xlo, ylo, xhi, yhi).unwrap()
    }

    #[test]
    fn rejects_bad_bounds() {
        assert!(Rect::new(1.0, 0.0, 0.0, 1.0).is_err());
        assert!(Rect::new(0.0, 1.0, 1.0, 0.0).is_err());
        assert!(Rect::new(f64::INFINITY, 0.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn area_width_height_center() {
        let a = r(1.0, 2.0, 4.0, 8.0);
        assert_eq!(a.width(), 3.0);
        assert_eq!(a.height(), 6.0);
        assert_eq!(a.area(), 18.0);
        assert_eq!(a.center(), Point::new(2.5, 5.0));
        assert_eq!(a.margin(), 9.0);
    }

    #[test]
    fn from_center_roundtrip() {
        let a = Rect::from_center(Point::new(10.0, 20.0), 3.6, 1.8).unwrap();
        assert!((a.width() - 3.6).abs() < 1e-12);
        assert!((a.height() - 1.8).abs() < 1e-12);
        assert_eq!(a.center(), Point::new(10.0, 20.0));
    }

    #[test]
    fn open_vs_closed_intersection_at_touching_edge() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects_closed(&b));
        assert!(!a.intersects_open(&b));
    }

    #[test]
    fn degenerate_rects_never_open_intersect() {
        let seg = r(0.0, 0.5, 1.0, 0.5); // horizontal segment
        let cell = r(0.0, 0.0, 1.0, 1.0);
        assert!(seg.intersects_closed(&cell));
        assert!(!seg.intersects_open(&cell));
        assert!(seg.is_degenerate());
    }

    #[test]
    fn containment_closed_vs_strict() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(0.0, 1.0, 5.0, 5.0);
        assert!(inner.inside_closed(&outer));
        assert!(!inner.inside_open(&outer)); // shares the x=0 edge
        let strict = r(1.0, 1.0, 5.0, 5.0);
        assert!(strict.inside_open(&outer));
    }

    #[test]
    fn intersection_and_union() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 2.0, 6.0, 6.0);
        assert_eq!(a.intersection(&b).unwrap(), r(2.0, 2.0, 4.0, 4.0));
        assert_eq!(a.union(&b), r(0.0, 0.0, 6.0, 6.0));
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn enlargement_is_union_growth() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(3.0, 0.0, 4.0, 1.0);
        // union is [0,4]x[0,2] area 8, a.area = 4
        assert_eq!(a.enlargement(&b), 4.0);
        assert_eq!(a.enlargement(&r(1.0, 1.0, 2.0, 2.0)), 0.0);
    }

    proptest! {
        #[test]
        fn union_contains_both(ax in -100.0..100.0f64, ay in -100.0..100.0f64,
                               aw in 0.0..50.0f64, ah in 0.0..50.0f64,
                               bx in -100.0..100.0f64, by in -100.0..100.0f64,
                               bw in 0.0..50.0f64, bh in 0.0..50.0f64) {
            let a = r(ax, ay, ax + aw, ay + ah);
            let b = r(bx, by, bx + bw, by + bh);
            let u = a.union(&b);
            prop_assert!(a.inside_closed(&u));
            prop_assert!(b.inside_closed(&u));
        }

        #[test]
        fn intersection_inside_both(ax in -100.0..100.0f64, ay in -100.0..100.0f64,
                                    aw in 0.0..50.0f64, ah in 0.0..50.0f64,
                                    bx in -100.0..100.0f64, by in -100.0..100.0f64,
                                    bw in 0.0..50.0f64, bh in 0.0..50.0f64) {
            let a = r(ax, ay, ax + aw, ay + ah);
            let b = r(bx, by, bx + bw, by + bh);
            if let Some(i) = a.intersection(&b) {
                prop_assert!(i.inside_closed(&a));
                prop_assert!(i.inside_closed(&b));
            } else {
                prop_assert!(!a.intersects_closed(&b));
            }
        }

        #[test]
        fn open_intersection_implies_closed(ax in -100.0..100.0f64, ay in -100.0..100.0f64,
                                            aw in 0.0..50.0f64, ah in 0.0..50.0f64,
                                            bx in -100.0..100.0f64, by in -100.0..100.0f64,
                                            bw in 0.0..50.0f64, bh in 0.0..50.0f64) {
            let a = r(ax, ay, ax + aw, ay + ah);
            let b = r(bx, by, bx + bw, by + bh);
            if a.intersects_open(&b) {
                prop_assert!(a.intersects_closed(&b));
            }
        }
    }
}
