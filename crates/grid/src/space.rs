use euler_geom::{Point, Rect};

/// The rectangle `R²` enclosing all objects of a dataset (§3).
///
/// Coordinates are in arbitrary data units; the paper normalizes every
/// dataset into a `360 × 180` space with origin `(0, 0)` so that one set of
/// query sets applies to all datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataSpace {
    bounds: Rect,
}

impl DataSpace {
    /// A data space from its bounding rectangle.
    pub fn new(bounds: Rect) -> DataSpace {
        DataSpace { bounds }
    }

    /// The paper's normalized world space: `[0, 360] × [0, 180]`.
    pub fn paper_world() -> DataSpace {
        DataSpace {
            bounds: Rect::new(0.0, 0.0, 360.0, 180.0).expect("static bounds"),
        }
    }

    /// A unit square space, convenient for tests.
    pub fn unit() -> DataSpace {
        DataSpace {
            bounds: Rect::new(0.0, 0.0, 1.0, 1.0).expect("static bounds"),
        }
    }

    /// Bounding rectangle.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Width of the space in data units.
    #[inline]
    pub fn width(&self) -> f64 {
        self.bounds.width()
    }

    /// Height of the space in data units.
    #[inline]
    pub fn height(&self) -> f64 {
        self.bounds.height()
    }

    /// Origin (lower-left corner).
    #[inline]
    pub fn origin(&self) -> Point {
        Point::new(self.bounds.xlo(), self.bounds.ylo())
    }

    /// Affinely maps a rectangle from another space into this one
    /// (used to normalize e.g. a road network extent into 360×180, §6.1.1).
    pub fn normalize_from(&self, source: &DataSpace, r: &Rect) -> Rect {
        let sx = self.width() / source.width();
        let sy = self.height() / source.height();
        let x0 = self.bounds.xlo() + (r.xlo() - source.bounds.xlo()) * sx;
        let y0 = self.bounds.ylo() + (r.ylo() - source.bounds.ylo()) * sy;
        let x1 = self.bounds.xlo() + (r.xhi() - source.bounds.xlo()) * sx;
        let y1 = self.bounds.ylo() + (r.yhi() - source.bounds.ylo()) * sy;
        Rect::new(x0, y0, x1, y1).expect("affine map preserves orientation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_world_dimensions() {
        let s = DataSpace::paper_world();
        assert_eq!(s.width(), 360.0);
        assert_eq!(s.height(), 180.0);
        assert_eq!(s.origin(), Point::new(0.0, 0.0));
    }

    #[test]
    fn normalize_maps_corners() {
        let world = DataSpace::paper_world();
        let ca = DataSpace::new(Rect::new(-124.0, 32.0, -114.0, 42.0).unwrap());
        let r = Rect::new(-124.0, 32.0, -114.0, 42.0).unwrap();
        let n = world.normalize_from(&ca, &r);
        assert_eq!(n, Rect::new(0.0, 0.0, 360.0, 180.0).unwrap());

        let mid = Rect::new(-119.0, 37.0, -119.0, 37.0).unwrap();
        let nm = world.normalize_from(&ca, &mid);
        assert_eq!(nm.center(), Point::new(180.0, 90.0));
    }
}
