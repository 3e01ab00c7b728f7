use crate::kernels;
use crate::{narrow, narrow_bounded, try_narrow, Cell, CellOverflow, Dense2D};

/// Row stride granularity, in [`Cell`]s: 16 × 4 bytes = one 64-byte
/// cache line, so every row starts at the same line offset and a
/// four-corner lookup touches at most one line per corner pair.
const ROW_BLOCK: usize = 16;

/// The 2-D prefix-sum data cube of \[HAMS97\]: `P(x, y) = Σ_{i≤x, j≤y} A(i, j)`.
///
/// Any inclusive range sum is answered with at most four lookups and three
/// additions (`§5.2`), which is what gives S-EulerApprox, EulerApprox and
/// M-EulerApprox their constant per-query cost.
///
/// # Layout
///
/// Storage is row-blocked: each internal row is padded to a multiple of
/// `ROW_BLOCK` = 16 cells (one cache line), with a zero **guard** row and
/// column in front — `p[(x+1) + (y+1)·stride] = P(x, y)`, and index 0 on
/// either axis is a zero plane. The guard plus a branchless clamp make
/// every clipped lookup a pure load: a signed coordinate maps to
/// `clamp(v, −1, dim − 1) + 1` with no data-dependent branch, which is
/// what the batched kernels ([`Self::signed_sum4`] and the sweep strip
/// fills in `euler-core`) lean on. The padding is
/// invisible to the API and to persistence — `euler-core`'s `to_bytes`
/// serializes raw buckets and rebuilds the cube (this layout) on load.
///
/// Values are stored as [`Cell`]s and widened to `i64` on every read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSum2D {
    width: usize,
    height: usize,
    /// Padded row stride: `width + 1` rounded up to a cache-line
    /// multiple.
    stride: usize,
    p: Vec<Cell>,
}

impl PrefixSum2D {
    /// Builds the cube from a dense array in one pass, or reports the
    /// first array value or prefix sum outside the [`Cell`] range.
    /// Callers whose sums are bounded (say, by an object count that fits
    /// a cell) may `expect` the result, stating that bound.
    ///
    /// A degenerate array (`width` or `height` zero) yields a valid empty
    /// cube: every query method returns 0 and [`Self::row_clipped`]
    /// returns guard (all-zero) rows — callers never index through a
    /// `w·h == 0` grid.
    pub fn build(a: &Dense2D) -> Result<PrefixSum2D, CellOverflow> {
        let cells = a
            .raw()
            .iter()
            .map(|&v| try_narrow(v))
            .collect::<Result<_, _>>()?;
        let cells = CubeBuffer::from_row_major(a.width(), a.height(), cells);
        cells.check_prefix()?;
        Ok(cells.into_prefix())
    }

    /// Width of the summarized array.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the summarized array.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cumulative sum `P(x, y) = Σ_{i≤x, j≤y} A(i, j)`; `x`/`y` may be
    /// `None`-like by passing ranges to [`Self::range_sum`] instead.
    #[inline]
    pub fn prefix(&self, x: usize, y: usize) -> i64 {
        debug_assert!(x < self.width && y < self.height);
        self.at((x + 1) + (y + 1) * self.stride)
    }

    /// The stored value at internal offset `i`, widened.
    #[inline(always)]
    fn at(&self, i: usize) -> i64 {
        i64::from(self.p[i])
    }

    /// Sum over the inclusive index rectangle `[x0, x1] × [y0, y1]`.
    ///
    /// Four lookups, three arithmetic operations — constant time.
    #[inline]
    pub fn range_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        debug_assert!(x0 <= x1 && x1 < self.width, "x range [{x0},{x1}]");
        debug_assert!(y0 <= y1 && y1 < self.height, "y range [{y0},{y1}]");
        let stride = self.stride;
        let br = self.at((x1 + 1) + (y1 + 1) * stride);
        let tl = self.at(x0 + y0 * stride);
        let bl = self.at(x0 + (y1 + 1) * stride);
        let tr = self.at((x1 + 1) + y0 * stride);
        br + tl - bl - tr
    }

    /// Internal (guard-shifted) index of a clipped signed coordinate:
    /// `clamp(v, −1, dim − 1) + 1`, branch-free. 0 is the guard plane.
    #[inline(always)]
    fn clip(v: i64, dim: usize) -> usize {
        (v.min(dim as i64 - 1) + 1).max(0) as usize
    }

    /// Cumulative sum at *clipped* signed coordinates: `P(x, y)` with each
    /// coordinate clamped into the array, and 0 when either is negative.
    ///
    /// This is the shared clamping kernel of every boundary-touching
    /// lookup: clamping high is lossless because the prefix function is
    /// constant past the last row/column, and a negative coordinate
    /// selects the zero guard plane — a branchless clamp-and-load thanks
    /// to the guard layout. For any ordered window (`x0 ≤ x1`, `y0 ≤ y1`)
    /// the four-corner combination of `prefix_clipped` equals
    /// [`Self::range_sum_clipped`] — which lets sweep evaluators hoist
    /// the clamp out of their per-tile loop by materializing whole rows
    /// of clipped prefix values once.
    #[inline]
    pub fn prefix_clipped(&self, x: i64, y: i64) -> i64 {
        self.at(Self::clip(x, self.width) + Self::clip(y, self.height) * self.stride)
    }

    /// Sum over a *clipped* signed index rectangle: bounds may lie outside
    /// the array (negative or too large); the empty intersection sums to 0.
    ///
    /// Estimator code uses this for Euler-index regions like
    /// `[2·qx0 − 1, 2·qx1 − 1]` that extend past the histogram when the
    /// query touches the data-space boundary.
    #[inline]
    pub fn range_sum_clipped(&self, x0: i64, y0: i64, x1: i64, y1: i64) -> i64 {
        // Unlike the kernels (which require ordered windows), this entry
        // point accepts windows that are empty by inversion — several
        // callers build "strictly between" windows that legitimately
        // invert — so the emptiness test stays.
        let lo_x = Self::clip(x0 - 1, self.width);
        let hi_x = Self::clip(x1, self.width);
        let lo_y = Self::clip(y0 - 1, self.height);
        let hi_y = Self::clip(y1, self.height);
        if lo_x >= hi_x || lo_y >= hi_y {
            return 0;
        }
        let (lo_y, hi_y) = (lo_y * self.stride, hi_y * self.stride);
        self.at(hi_x + hi_y) - self.at(lo_x + hi_y) - self.at(hi_x + lo_y) + self.at(lo_x + lo_y)
    }

    /// The internal row at clipped signed row coordinate `y`, including
    /// the leading guard entry: `row[x + 1] = P(x, y)` for `x <
    /// width`, and `row[0] = 0`. A negative `y` selects the all-zero
    /// guard row; a too-large `y` clamps (losslessly) onto the last row.
    ///
    /// This is the strip-fill primitive of the sweep evaluator: one call
    /// pins the row, then [`crate::kernels`] gathers arbitrary clipped
    /// column sets out of it with plain indexing, widening each value.
    #[inline]
    pub fn row_clipped(&self, y: i64) -> &[Cell] {
        self.internal_row(Self::clip(y, self.height))
    }

    /// Internal row `iy` (0 = the guard row, `iy = y + 1` for array row
    /// `y`): `width + 1` prefix values led by the zero guard column.
    #[inline]
    pub(crate) fn internal_row(&self, iy: usize) -> &[Cell] {
        &self.p[iy * self.stride..iy * self.stride + self.width + 1]
    }

    /// Mutable [`Self::internal_row`].
    #[inline]
    pub(crate) fn internal_row_mut(&mut self, iy: usize) -> &mut [Cell] {
        &mut self.p[iy * self.stride..iy * self.stride + self.width + 1]
    }

    /// Four [`Self::range_sum_clipped`] windows in one call, one window
    /// per lane; see [`kernels::signed_sum4`] for the lane-ordering
    /// contract.
    #[inline]
    pub fn signed_sum4(&self, x0: [i64; 4], y0: [i64; 4], x1: [i64; 4], y1: [i64; 4]) -> [i64; 4] {
        kernels::signed_sum4(
            &self.p,
            self.stride,
            self.width,
            self.height,
            x0,
            y0,
            x1,
            y1,
        )
    }

    /// Two *ordered* clipped window sums in one batched call: all eight
    /// corner planes of both windows clamp branchlessly (no emptiness
    /// tests — ordered windows collapse to exactly 0 when clipping
    /// empties them), then the eight prefixes gather and combine. This
    /// is the point-query twin of the sweep strips — an estimator's
    /// inside and closed Euler windows resolve in one call with zero
    /// redundant loads (unlike [`Self::signed_sum4`], which would spend
    /// four lanes on two windows).
    ///
    /// Each window is `(x0, y0, x1, y1)` and must be ordered
    /// (`x0 ≤ x1`, `y0 ≤ y1`); bounds may lie outside the array.
    /// Bit-identical to two [`Self::range_sum_clipped`] calls.
    #[inline]
    pub fn range_sum_pair(&self, a: (i64, i64, i64, i64), b: (i64, i64, i64, i64)) -> (i64, i64) {
        debug_assert!(a.0 <= a.2 && a.1 <= a.3 && b.0 <= b.2 && b.1 <= b.3);
        let (w, h) = (self.width, self.height);
        let (hx_a, lx_a) = (Self::clip(a.2, w), Self::clip(a.0 - 1, w));
        let (hx_b, lx_b) = (Self::clip(b.2, w), Self::clip(b.0 - 1, w));
        let s = self.stride;
        let (hy_a, ly_a) = (Self::clip(a.3, h) * s, Self::clip(a.1 - 1, h) * s);
        let (hy_b, ly_b) = (Self::clip(b.3, h) * s, Self::clip(b.1 - 1, h) * s);
        let p = |i| self.at(i);
        (
            p(hx_a + hy_a) - p(lx_a + hy_a) - p(hx_a + ly_a) + p(lx_a + ly_a),
            p(hx_b + hy_b) - p(lx_b + hy_b) - p(hx_b + ly_b) + p(lx_b + ly_b),
        )
    }

    /// Sum of the whole array.
    #[inline]
    pub fn total(&self) -> i64 {
        self.at(self.width + self.height * self.stride)
    }

    /// The least and greatest stored value (the zero guard included).
    pub fn value_range(&self) -> (i64, i64) {
        let (lo, hi) = crate::min_max(&self.p);
        (lo.into(), hi.into())
    }

    /// Bytes of storage held by the cube (including row padding).
    pub fn storage_bytes(&self) -> usize {
        self.p.len() * std::mem::size_of::<Cell>()
    }

    /// Bytes a dense cube over a `width × height` array *would* occupy,
    /// without building it — the tier-selection heuristic compares the
    /// compressed encoder's running size against this projection.
    pub fn projected_bytes(width: usize, height: usize) -> usize {
        (width + 1).next_multiple_of(ROW_BLOCK) * (height + 1) * std::mem::size_of::<Cell>()
    }
}

/// A dense `width × height` array stored in [`PrefixSum2D`]'s layout —
/// zero guard row and column in front, rows padded to the cube's stride —
/// so [`Self::into_prefix`] sums it into the cube *in place*: building,
/// then freezing, an array never holds a second grid-sized allocation.
///
/// It doubles as a 2-D difference array: [`Self::add_rect_diff`] records
/// a rectangle's four corners and [`Self::integrate`] materializes every
/// recorded rectangle in place.
///
/// Values are [`Cell`]s: reads widen to `i64`, and every write adds in
/// `i64` and narrows on store. [`Self::add`] checks the narrowing; the
/// whole-array passes check it in debug builds only (see [`Cell`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeBuffer {
    width: usize,
    height: usize,
    stride: usize,
    /// Cell `(x, y)` at `(x + 1) + (y + 1) · stride`; the guard row, the
    /// guard column and the row padding stay zero.
    p: Vec<Cell>,
}

impl CubeBuffer {
    /// A zero-filled `width × height` array.
    pub fn zeros(width: usize, height: usize) -> CubeBuffer {
        let stride = (width + 1).next_multiple_of(ROW_BLOCK);
        CubeBuffer {
            width,
            height,
            stride,
            p: vec![0; stride * (height + 1)],
        }
    }

    /// Re-lays out row-major `data` (`width · height` values) in place:
    /// the vector grows to the padded size and each row moves to its
    /// slot, last row first, so nothing is overwritten before it moves.
    pub fn from_row_major(width: usize, height: usize, mut data: Vec<Cell>) -> CubeBuffer {
        assert_eq!(data.len(), width * height, "data length mismatch");
        let stride = (width + 1).next_multiple_of(ROW_BLOCK);
        data.resize(stride * (height + 1), 0);
        for y in (0..height).rev() {
            data.copy_within(y * width..(y + 1) * width, (y + 1) * stride + 1);
        }
        // Row `y`'s old cells may linger in the guard row, a guard
        // column or the padding: zero all three.
        data[..stride].fill(0);
        for iy in 1..=height {
            data[iy * stride] = 0;
            data[iy * stride + width + 1..(iy + 1) * stride].fill(0);
        }
        CubeBuffer {
            width,
            height,
            stride,
            p: data,
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
        (x + 1) + (y + 1) * self.stride
    }

    /// Value at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> i64 {
        i64::from(self.p[self.idx(x, y)])
    }

    /// Adds `v` to the value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// When the sum leaves the [`Cell`] range.
    #[inline]
    pub fn add(&mut self, x: usize, y: usize, v: i64) {
        let i = self.idx(x, y);
        self.p[i] = narrow(i64::from(self.p[i]) + v);
    }

    /// Offset of row `y`'s first cell.
    #[inline]
    fn row_start(&self, y: usize) -> usize {
        debug_assert!(y < self.height, "row {y} out of bounds");
        (y + 1) * self.stride + 1
    }

    /// Row `y`'s `width` values.
    #[inline]
    pub fn row(&self, y: usize) -> &[Cell] {
        let start = self.row_start(y);
        &self.p[start..start + self.width]
    }

    /// Applies `f(x, y, value) -> value` to every cell in place.
    ///
    /// Every stored value must fit a [`Cell`]: debug builds panic on one
    /// that does not, release builds store it truncated.
    pub fn map_in_place(&mut self, mut f: impl FnMut(usize, usize, i64) -> i64) {
        for y in 0..self.height {
            let start = self.row_start(y);
            for (x, v) in self.p[start..start + self.width].iter_mut().enumerate() {
                *v = narrow_bounded(f(x, y, i64::from(*v)));
            }
        }
    }

    /// Difference-array update: after [`Self::integrate`], `v` is added
    /// to every cell of the inclusive rectangle `[x0,x1] × [y0,y1]`.
    /// Closing corners past the last column or row are dropped — they
    /// would only reach cells outside the array.
    #[inline]
    pub fn add_rect_diff(&mut self, x0: usize, y0: usize, x1: usize, y1: usize, v: i64) {
        debug_assert!(x0 <= x1 && x1 < self.width, "x range [{x0},{x1}]");
        debug_assert!(y0 <= y1 && y1 < self.height, "y range [{y0},{y1}]");
        let (x_end, y_end) = (x1 + 1 < self.width, y1 + 1 < self.height);
        self.add(x0, y0, v);
        if x_end {
            self.add(x1 + 1, y0, -v);
        }
        if y_end {
            self.add(x0, y1 + 1, -v);
        }
        if x_end && y_end {
            self.add(x1 + 1, y1 + 1, v);
        }
    }

    /// Replaces every cell by the inclusive 2-D prefix sum of the cells
    /// at or before it, in place: a difference array becomes the values
    /// it records, and a value array becomes its prefix cube.
    ///
    /// Every stored value must fit a [`Cell`]: debug builds panic on one
    /// that does not, release builds store it truncated.
    pub fn integrate(&mut self) {
        let (w, stride) = (self.width, self.stride);
        for iy in 1..=self.height {
            let (prev, cur) = self.p[(iy - 1) * stride..].split_at_mut(stride);
            let mut row_acc = 0i64;
            for x in 1..=w {
                row_acc += i64::from(cur[x]);
                cur[x] = narrow_bounded(row_acc + i64::from(prev[x]));
            }
        }
    }

    /// Checks, without changing the buffer, that every value
    /// [`Self::integrate`] would store fits a [`Cell`]; reports the
    /// first that does not. Sums accumulate in one `i64` row.
    pub fn check_prefix(&self) -> Result<(), CellOverflow> {
        let mut above = vec![0i64; self.width];
        for y in 0..self.height {
            let mut row_acc = 0i64;
            for (&v, up) in self.row(y).iter().zip(&mut above) {
                row_acc += i64::from(v);
                *up += row_acc;
                try_narrow(*up)?;
            }
        }
        Ok(())
    }

    /// Sums the array into its prefix cube in the same allocation.
    ///
    /// Every stored value must fit a [`Cell`]: debug builds panic on one
    /// that does not, release builds store it truncated.
    pub fn into_prefix(mut self) -> PrefixSum2D {
        self.integrate();
        PrefixSum2D {
            width: self.width,
            height: self.height,
            stride: self.stride,
            p: self.p,
        }
    }

    /// Bytes of storage held by the array (padding and guards included):
    /// the same as the cube it sums into.
    pub fn storage_bytes(&self) -> usize {
        self.p.len() * std::mem::size_of::<Cell>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::LANES;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_array(w: usize, h: usize, seed: u64) -> Dense2D {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Dense2D::zeros(w, h);
        a.map_in_place(|_, _, _| rng.gen_range(-100..100));
        a
    }

    #[test]
    fn total_matches_dense() {
        let a = random_array(17, 9, 1);
        let p = PrefixSum2D::build(&a).unwrap();
        assert_eq!(p.total(), a.total());
    }

    #[test]
    fn range_sums_match_naive_exhaustively() {
        let a = random_array(9, 7, 2);
        let p = PrefixSum2D::build(&a).unwrap();
        for y0 in 0..7 {
            for y1 in y0..7 {
                for x0 in 0..9 {
                    for x1 in x0..9 {
                        assert_eq!(
                            p.range_sum(x0, y0, x1, y1),
                            a.range_sum_naive(x0, y0, x1, y1),
                            "[{x0},{x1}]x[{y0},{y1}]"
                        );
                    }
                }
            }
        }
    }

    /// Unaligned-tail coverage: widths around the lane/block size (1, 2,
    /// 3, `LANES ± 1`, `ROW_BLOCK ± 1`) and single-row/column arrays all
    /// produce correct sums despite the padded stride.
    #[test]
    fn narrow_and_ragged_widths_match_naive() {
        for &w in &[1, 2, 3, LANES - 1, LANES + 1, ROW_BLOCK - 1, ROW_BLOCK + 1] {
            for &h in &[1, 2, 5] {
                let a = random_array(w, h, (w * 31 + h) as u64);
                let p = PrefixSum2D::build(&a).unwrap();
                assert_eq!(p.total(), a.total(), "{w}x{h}");
                for y0 in 0..h {
                    for y1 in y0..h {
                        for x0 in 0..w {
                            for x1 in x0..w {
                                assert_eq!(
                                    p.range_sum(x0, y0, x1, y1),
                                    a.range_sum_naive(x0, y0, x1, y1),
                                    "{w}x{h} [{x0},{x1}]x[{y0},{y1}]"
                                );
                            }
                        }
                    }
                }
                // Clipped reads past every edge stay in the guard/clamp
                // regime.
                assert_eq!(
                    p.range_sum_clipped(-3, -3, w as i64 + 2, h as i64 + 2),
                    a.total()
                );
                assert_eq!(p.prefix_clipped(-1, 0), 0);
                assert_eq!(p.prefix_clipped(w as i64 + 5, h as i64 + 5), a.total());
            }
        }
    }

    /// Regression: a `w·h == 0` array builds a *valid* empty cube — no
    /// arithmetic underflow, no out-of-bounds indexing — and every query
    /// surface returns 0 / guard rows.
    #[test]
    fn zero_area_arrays_build_valid_empty_cubes() {
        for (w, h) in [(0usize, 0usize), (0, 5), (5, 0)] {
            let a = Dense2D::from_vec(w, h, vec![]);
            let p = PrefixSum2D::build(&a).unwrap();
            assert_eq!(p.width(), w);
            assert_eq!(p.height(), h);
            assert_eq!(p.total(), 0, "{w}x{h}");
            for v in [-2i64, -1, 0, 1, 7] {
                assert_eq!(p.prefix_clipped(v, v), 0, "{w}x{h} at {v}");
                assert!(p.row_clipped(v).iter().all(|&e| e == 0), "{w}x{h} row {v}");
            }
            assert_eq!(p.range_sum_clipped(-1, -1, 10, 10), 0);
            assert_eq!(
                p.signed_sum4([-1; 4], [-1; 4], [10; 4], [10; 4]),
                [0; 4],
                "{w}x{h}"
            );
        }
    }

    #[test]
    fn row_clipped_matches_prefix_clipped() {
        let a = random_array(11, 6, 4);
        let p = PrefixSum2D::build(&a).unwrap();
        for y in -2i64..8 {
            let row = p.row_clipped(y);
            assert_eq!(row.len(), 12);
            assert_eq!(row[0], 0, "guard at row {y}");
            for x in 0..11i64 {
                assert_eq!(
                    i64::from(row[(x + 1) as usize]),
                    p.prefix_clipped(x, y),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn clipped_sums() {
        let a = random_array(5, 5, 3);
        let p = PrefixSum2D::build(&a).unwrap();
        assert_eq!(p.range_sum_clipped(-3, -3, 10, 10), a.total());
        assert_eq!(p.range_sum_clipped(-3, 0, -1, 4), 0);
        assert_eq!(p.range_sum_clipped(5, 0, 9, 4), 0);
        assert_eq!(
            p.range_sum_clipped(-2, 1, 2, 3),
            a.range_sum_naive(0, 1, 2, 3)
        );
    }

    /// The reference semantics of a clipped window sum: intersect the
    /// signed window with the array and sum naively (0 when empty).
    fn naive_clipped(a: &Dense2D, x0: i64, y0: i64, x1: i64, y1: i64) -> i64 {
        let cx0 = x0.max(0);
        let cy0 = y0.max(0);
        let cx1 = x1.min(a.width() as i64 - 1);
        let cy1 = y1.min(a.height() as i64 - 1);
        if cx0 > cx1 || cy0 > cy1 {
            return 0;
        }
        a.range_sum_naive(cx0 as usize, cy0 as usize, cx1 as usize, cy1 as usize)
    }

    /// Rows survive the in-place re-layout, for widths on both sides of
    /// the row block and for empty arrays.
    #[test]
    fn from_row_major_keeps_every_cell_and_zero_padding() {
        for (w, h) in [(0, 3), (3, 0), (1, 1), (7, 3), (8, 2), (9, 4), (15, 5)] {
            let data: Vec<Cell> = (0..w * h).map(|i| i as Cell * 3 - 7).collect();
            let c = CubeBuffer::from_row_major(w, h, data.clone());
            for y in 0..h {
                assert_eq!(c.row(y), &data[y * w..(y + 1) * w], "{w}x{h} row {y}");
            }
            assert_eq!(c, {
                let mut z = CubeBuffer::zeros(w, h);
                z.map_in_place(|x, y, _| data[y * w + x].into());
                z
            });
        }
    }

    /// Difference updates integrate to the rectangles they record, with
    /// corners on the last row and column dropped.
    #[test]
    fn rect_diffs_integrate_in_place() {
        let (w, h) = (9, 6);
        let mut c = CubeBuffer::zeros(w, h);
        let mut naive = Dense2D::zeros(w, h);
        for (x0, y0, x1, y1, v) in [
            (0, 0, 8, 5, 1),
            (2, 1, 4, 3, -3),
            (8, 5, 8, 5, 7),
            (3, 0, 8, 2, 2),
        ] {
            c.add_rect_diff(x0, y0, x1, y1, v);
            for y in y0..=y1 {
                for x in x0..=x1 {
                    naive.add(x, y, v);
                }
            }
        }
        c.integrate();
        for y in 0..h {
            let row: Vec<i64> = c.row(y).iter().map(|&v| v.into()).collect();
            assert_eq!(row, &naive.raw()[y * w..(y + 1) * w], "row {y}");
        }
        assert_eq!(c.into_prefix(), PrefixSum2D::build(&naive).unwrap());
    }

    #[test]
    fn single_rect_update() {
        let mut c = CubeBuffer::zeros(5, 4);
        c.add_rect_diff(1, 1, 3, 2, 7);
        c.integrate();
        for y in 0..4 {
            for x in 0..5 {
                let inside = (1..=3).contains(&x) && (1..=2).contains(&y);
                assert_eq!(c.get(x, y), if inside { 7 } else { 0 }, "({x},{y})");
            }
        }
    }

    #[test]
    fn edge_touching_rects() {
        let mut c = CubeBuffer::zeros(3, 3);
        c.add_rect_diff(0, 0, 2, 2, 1);
        c.add_rect_diff(2, 2, 2, 2, 5);
        c.integrate();
        assert_eq!(c.get(0, 0), 1);
        assert_eq!(c.get(2, 2), 6);
        assert_eq!(c.into_prefix().total(), 9 + 5);
    }

    /// A cube value is a 4-byte cell: the paper grid's 719-bucket rows
    /// pad to a 720-cell stride (one guard cell, no padding), so its cube
    /// is 720 × 360 × 4 bytes.
    #[test]
    fn cells_are_four_bytes_and_rows_start_on_a_line() {
        assert_eq!(std::mem::size_of::<Cell>(), 4);
        assert_eq!(ROW_BLOCK * std::mem::size_of::<Cell>(), 64);
        assert_eq!(PrefixSum2D::projected_bytes(719, 359), 720 * 360 * 4);
        assert_eq!(CubeBuffer::zeros(719, 359).storage_bytes(), 1_036_800);
    }

    /// The checked build refuses an array value or a prefix sum past the
    /// cell range, and accepts the range's ends.
    #[test]
    fn build_refuses_values_past_the_cell_range() {
        let max = i64::from(Cell::MAX);
        let min = i64::from(Cell::MIN);
        for ok in [[max, 0], [min, 0], [max, min + 1]] {
            let p = PrefixSum2D::build(&Dense2D::from_vec(2, 1, ok.to_vec())).unwrap();
            assert_eq!(p.total(), ok[0] + ok[1]);
            assert_eq!(p.value_range(), (p.total().min(ok[0]).min(0), ok[0].max(0)));
        }
        for (cells, bad) in [
            ([max + 1, 0], max + 1),
            ([min - 1, 0], min - 1),
            ([max, 1], max + 1),
        ] {
            let a = Dense2D::from_vec(2, 1, cells.to_vec());
            assert_eq!(PrefixSum2D::build(&a), Err(CellOverflow(bad)));
        }
    }

    /// A write that leaves the cell range panics instead of wrapping.
    #[test]
    #[should_panic(expected = "outside the 32-bit cell range")]
    fn an_add_past_the_cell_range_panics() {
        let mut c = CubeBuffer::zeros(2, 2);
        c.add(1, 1, i64::from(Cell::MAX));
        c.add(1, 1, 1);
    }

    proptest! {
        /// Difference-array updates integrate to naive accumulation.
        #[test]
        fn rect_diffs_match_naive(rects in prop::collection::vec(
            (0usize..8, 0usize..8, 0usize..8, 0usize..8, -5i64..5), 0..40)) {
            let (w, h) = (8, 8);
            let mut c = CubeBuffer::zeros(w, h);
            let mut naive = Dense2D::zeros(w, h);
            for (x0, y0, x1, y1, v) in rects {
                let (x0, x1) = (x0.min(x1), x0.max(x1));
                let (y0, y1) = (y0.min(y1), y0.max(y1));
                c.add_rect_diff(x0, y0, x1, y1, v);
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        naive.add(x, y, v);
                    }
                }
            }
            c.integrate();
            for y in 0..h {
                for x in 0..w {
                    prop_assert_eq!(c.get(x, y), naive.get(x, y), "({}, {})", x, y);
                }
            }
        }

        #[test]
        fn random_ranges_match_naive(seed in 0u64..50,
                                     x0 in 0usize..12, y0 in 0usize..10,
                                     dx in 0usize..12, dy in 0usize..10) {
            let a = random_array(12, 10, seed);
            let p = PrefixSum2D::build(&a).unwrap();
            let x1 = (x0 + dx).min(11);
            let y1 = (y0 + dy).min(9);
            prop_assert_eq!(p.range_sum(x0, y0, x1, y1), a.range_sum_naive(x0, y0, x1, y1));
        }

        /// Clipped sums agree with the naive dense reference on windows
        /// that hang off every side of the array (negative and
        /// past-the-end bounds) — the edge cases the Euler-index algebra
        /// and the sweep kernels rely on. Width 12 is lane-ragged on
        /// purpose.
        #[test]
        fn clipped_matches_naive_on_out_of_bounds_windows(
            seed in 0u64..50,
            x0 in -6i64..18, y0 in -6i64..16,
            x1 in -6i64..18, y1 in -6i64..16)
        {
            let a = random_array(12, 10, seed);
            let p = PrefixSum2D::build(&a).unwrap();
            let (lo_x, hi_x) = (x0.min(x1), x0.max(x1));
            let (lo_y, hi_y) = (y0.min(y1), y0.max(y1));
            prop_assert_eq!(
                p.range_sum_clipped(lo_x, lo_y, hi_x, hi_y),
                naive_clipped(&a, lo_x, lo_y, hi_x, hi_y)
            );
        }

        /// The four-corner combination of `prefix_clipped` reproduces
        /// `range_sum_clipped` for every ordered signed window — the
        /// identity that lets sweep evaluators materialize rows of
        /// clipped prefixes instead of clamping per tile.
        #[test]
        fn prefix_clipped_corners_equal_clipped_range_sum(
            seed in 0u64..50,
            x0 in -6i64..18, y0 in -6i64..16,
            x1 in -6i64..18, y1 in -6i64..16)
        {
            let a = random_array(12, 10, seed);
            let p = PrefixSum2D::build(&a).unwrap();
            let (lo_x, hi_x) = (x0.min(x1), x0.max(x1));
            let (lo_y, hi_y) = (y0.min(y1), y0.max(y1));
            let corners = p.prefix_clipped(hi_x, hi_y)
                - p.prefix_clipped(lo_x - 1, hi_y)
                - p.prefix_clipped(hi_x, lo_y - 1)
                + p.prefix_clipped(lo_x - 1, lo_y - 1);
            prop_assert_eq!(corners, p.range_sum_clipped(lo_x, lo_y, hi_x, hi_y));
        }

        /// The paired-window kernel equals two independent clipped range
        /// sums on arbitrary ordered (possibly out-of-bounds) windows.
        #[test]
        fn range_sum_pair_matches_two_clipped_sums(
            seed in 0u64..30, w in 1usize..14, h in 1usize..11,
            win in prop::collection::vec((-6i64..18, -6i64..16, 0i64..14, 0i64..12), 2))
        {
            let arr = random_array(w, h, seed);
            let p = PrefixSum2D::build(&arr).unwrap();
            let win: Vec<(i64, i64, i64, i64)> = win
                .iter()
                .map(|&(x0, y0, dw, dh)| (x0, y0, x0 + dw, y0 + dh))
                .collect();
            let (sa, sb) = p.range_sum_pair(win[0], win[1]);
            prop_assert_eq!(sa, p.range_sum_clipped(win[0].0, win[0].1, win[0].2, win[0].3));
            prop_assert_eq!(sb, p.range_sum_clipped(win[1].0, win[1].1, win[1].2, win[1].3));
        }
    }
}
