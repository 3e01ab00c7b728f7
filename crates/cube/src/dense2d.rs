/// A dense row-major 2-D array of `i64` counters.
///
/// Index convention throughout the workspace: `(x, y)` with `x` the fast
/// axis — `idx = y * width + x`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dense2D {
    width: usize,
    height: usize,
    data: Vec<i64>,
}

impl Dense2D {
    /// A zero-filled `width × height` array.
    pub fn zeros(width: usize, height: usize) -> Dense2D {
        assert!(
            width > 0 && height > 0,
            "Dense2D dimensions must be nonzero"
        );
        Dense2D {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Builds from existing row-major data.
    pub fn from_vec(width: usize, height: usize, data: Vec<i64>) -> Dense2D {
        assert_eq!(data.len(), width * height, "data length mismatch");
        Dense2D {
            width,
            height,
            data,
        }
    }

    /// Array width (x extent).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Array height (y extent).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        y * self.width + x
    }

    /// Value at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> i64 {
        self.data[self.idx(x, y)]
    }

    /// Sets the value at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: i64) {
        let i = self.idx(x, y);
        self.data[i] = v;
    }

    /// Adds `v` to the value at `(x, y)`.
    #[inline]
    pub fn add(&mut self, x: usize, y: usize, v: i64) {
        let i = self.idx(x, y);
        self.data[i] += v;
    }

    /// Raw row-major data.
    #[inline]
    pub fn raw(&self) -> &[i64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Sum of all entries.
    pub fn total(&self) -> i64 {
        self.data.iter().sum()
    }

    /// Applies `f(x, y, value) -> value` to every entry in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(usize, usize, i64) -> i64) {
        for y in 0..self.height {
            let row = &mut self.data[y * self.width..(y + 1) * self.width];
            for (x, v) in row.iter_mut().enumerate() {
                *v = f(x, y, *v);
            }
        }
    }

    /// Naive O(area) sum over the inclusive index range
    /// `[x0, x1] × [y0, y1]` — the reference implementation the prefix-sum
    /// cube is tested against.
    pub fn range_sum_naive(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        assert!(x1 < self.width && y1 < self.height && x0 <= x1 && y0 <= y1);
        let mut s = 0;
        for y in y0..=y1 {
            for x in x0..=x1 {
                s += self.get(x, y);
            }
        }
        s
    }

    /// Bytes of storage held by the array (the metric of Theorem 3.1's
    /// storage discussion).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_add_roundtrip() {
        let mut a = Dense2D::zeros(4, 3);
        a.set(2, 1, 5);
        a.add(2, 1, -2);
        assert_eq!(a.get(2, 1), 3);
        assert_eq!(a.get(0, 0), 0);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)] // the check is a debug_assert; release elides it
    fn debug_bounds_check() {
        let a = Dense2D::zeros(4, 3);
        let _ = a.get(4, 0);
    }

    #[test]
    fn map_in_place_sees_coordinates() {
        let mut a = Dense2D::zeros(3, 2);
        a.map_in_place(|x, y, _| (x + 10 * y) as i64);
        assert_eq!(a.get(2, 1), 12);
        assert_eq!(a.get(0, 0), 0);
    }

    #[test]
    fn naive_range_sum() {
        let a = Dense2D::from_vec(3, 3, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.range_sum_naive(0, 0, 2, 2), 45);
        assert_eq!(a.range_sum_naive(1, 1, 2, 2), 5 + 6 + 8 + 9);
        assert_eq!(a.range_sum_naive(0, 0, 0, 0), 1);
    }

    #[test]
    fn storage_accounting() {
        let a = Dense2D::zeros(10, 10);
        assert_eq!(a.storage_bytes(), 800);
    }
}
