/// A 2-D point with `f64` coordinates.
///
/// Points are used for object centers in dataset generation and as the
/// degenerate case of an MBR ("point data" in the ADL dataset, §6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (longitude in the paper's 360×180 space).
    pub x: f64,
    /// Vertical coordinate (latitude in the paper's 360×180 space).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Both coordinates are finite (not NaN, not ±∞).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(&self, other: &Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(&self, other: &Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 3.0);
        assert_eq!(a.min(&b), Point::new(1.0, 3.0));
        assert_eq!(a.max(&b), Point::new(2.0, 5.0));
    }

    #[test]
    fn finiteness_detects_nan_and_inf() {
        assert!(Point::new(0.0, 1.0).is_finite());
        assert!(!Point::new(f64::NAN, 1.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn from_tuple() {
        let p: Point = (1.5, -2.5).into();
        assert_eq!(p, Point::new(1.5, -2.5));
    }
}
