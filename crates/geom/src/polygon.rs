//! Simple polygons, the richer object type whose MBR feeds the
//! histograms ("different types of objects can be represented by their
//! Minimal Bounding Rectangles", §2).
//!
//! The browsing pipeline only needs the MBR, but a production ingest path
//! must *compute* it from real geometries and may want exact area and
//! point-in-polygon tests when refining histogram hits; this module
//! provides those without pulling a geometry dependency.

use crate::{GeomError, Point, Rect};

/// A simple polygon: ≥ 3 finite vertices in order (either winding), with
/// an implicit closing edge from the last vertex to the first.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon, validating vertex count and finiteness.
    /// (Self-intersection is not checked; area/containment semantics below
    /// are those of the even-odd rule.)
    pub fn new(vertices: Vec<Point>) -> Result<Polygon, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::InvertedBounds {
                detail: format!("polygon needs >= 3 vertices, got {}", vertices.len()),
            });
        }
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(Polygon { vertices })
    }

    /// An axis-aligned rectangle as a polygon (counter-clockwise).
    pub fn from_rect(r: &Rect) -> Polygon {
        Polygon {
            vertices: vec![
                Point::new(r.xlo(), r.ylo()),
                Point::new(r.xhi(), r.ylo()),
                Point::new(r.xhi(), r.yhi()),
                Point::new(r.xlo(), r.yhi()),
            ],
        }
    }

    /// The vertices, in input order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// The minimal bounding rectangle — the object the histograms index.
    pub fn mbr(&self) -> Rect {
        let mut lo = self.vertices[0];
        let mut hi = self.vertices[0];
        for v in &self.vertices[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Rect::new(lo.x, lo.y, hi.x, hi.y).expect("min <= max")
    }

    /// Signed area via the shoelace formula: positive for
    /// counter-clockwise winding.
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        acc / 2.0
    }

    /// Absolute enclosed area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Even-odd point-in-polygon test (boundary points may report either
    /// way, like most ray-casting implementations; the histograms' Level 2
    /// semantics never depend on boundary hits after snapping).
    pub fn contains_point(&self, p: &Point) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[j];
            if ((a.y > p.y) != (b.y > p.y)) && (p.x < (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// How much of the MBR the polygon fills (`area / mbr.area`), in
    /// `(0, 1]`; a refinement heuristic — low coverage means many MBR
    /// hits are false positives. Returns 1.0 for degenerate MBRs.
    pub fn mbr_coverage(&self) -> f64 {
        let mbr_area = self.mbr().area();
        if mbr_area == 0.0 {
            1.0
        } else {
            (self.area() / mbr_area).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_err());
        assert!(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(f64::NAN, 1.0),
            Point::new(1.0, 0.0)
        ])
        .is_err());
    }

    #[test]
    fn triangle_area_and_mbr() {
        let t = triangle();
        assert_eq!(t.area(), 6.0);
        assert_eq!(t.signed_area(), 6.0); // CCW
        assert_eq!(t.mbr(), Rect::new(0.0, 0.0, 4.0, 3.0).unwrap());
        assert!((t.mbr_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn winding_flips_sign_not_area() {
        let mut vs = triangle().vertices().to_vec();
        vs.reverse();
        let t = Polygon::new(vs).unwrap();
        assert_eq!(t.signed_area(), -6.0);
        assert_eq!(t.area(), 6.0);
    }

    #[test]
    fn point_in_polygon() {
        let t = triangle();
        assert!(t.contains_point(&Point::new(1.0, 1.0)));
        assert!(!t.contains_point(&Point::new(3.0, 3.0)));
        assert!(!t.contains_point(&Point::new(-0.1, 0.5)));
        // Concave polygon (an L-shape): the notch is outside.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        assert!(l.contains_point(&Point::new(0.5, 3.0)));
        assert!(l.contains_point(&Point::new(3.0, 0.5)));
        assert!(!l.contains_point(&Point::new(3.0, 3.0)), "the notch");
        assert_eq!(l.area(), 7.0);
    }

    #[test]
    fn rect_round_trip() {
        let r = Rect::new(1.0, 2.0, 5.0, 7.0).unwrap();
        let p = Polygon::from_rect(&r);
        assert_eq!(p.mbr(), r);
        assert_eq!(p.area(), r.area());
        assert_eq!(p.mbr_coverage(), 1.0);
        assert!(p.contains_point(&Point::new(3.0, 4.0)));
    }

    proptest! {
        /// The MBR always encloses every vertex and the polygon's area
        /// never exceeds the MBR's.
        #[test]
        fn mbr_bounds_polygon(pts in prop::collection::vec(
            (-50.0..50.0f64, -50.0..50.0f64), 3..12)) {
            let poly = Polygon::new(
                pts.iter().map(|&(x, y)| Point::new(x, y)).collect()
            ).unwrap();
            let mbr = poly.mbr();
            for v in poly.vertices() {
                prop_assert!(mbr.contains_point(v));
            }
            prop_assert!(poly.area() <= mbr.area() + 1e-9);
            // Interior sample points (centroid of consecutive triples that
            // fall inside) are inside the MBR too.
            let c = poly.vertices().iter().fold(Point::new(0.0, 0.0), |acc, v| {
                Point::new(acc.x + v.x, acc.y + v.y)
            });
            let c = Point::new(c.x / poly.vertices().len() as f64,
                               c.y / poly.vertices().len() as f64);
            if poly.contains_point(&c) {
                prop_assert!(mbr.contains_point(&c));
            }
        }
    }
}
