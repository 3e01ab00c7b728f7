use crate::kernels;
use crate::Dense2D;

/// Row stride granularity, in `i64` elements: 8 × 8 bytes = one 64-byte
/// cache line, so every row starts at the same line offset and a
/// four-corner lookup touches at most one line per corner pair.
const ROW_BLOCK: usize = 8;

/// The 2-D prefix-sum data cube of \[HAMS97\]: `P(x, y) = Σ_{i≤x, j≤y} A(i, j)`.
///
/// Any inclusive range sum is answered with at most four lookups and three
/// additions (`§5.2`), which is what gives S-EulerApprox, EulerApprox and
/// M-EulerApprox their constant per-query cost.
///
/// # Layout
///
/// Storage is row-blocked: each internal row is padded to a multiple of
/// `ROW_BLOCK` = 8 elements (one cache line), with a zero **guard** row and
/// column in front — `p[(x+1) + (y+1)·stride] = P(x, y)`, and index 0 on
/// either axis is a zero plane. The guard plus a branchless clamp make
/// every clipped lookup a pure load: a signed coordinate maps to
/// `clamp(v, −1, dim − 1) + 1` with no data-dependent branch, which is
/// what the batched kernels ([`Self::signed_sum4`] and the sweep strip
/// fills in `euler-core`) lean on. The padding is
/// invisible to the API and to persistence — `euler-core`'s `to_bytes`
/// serializes raw buckets and rebuilds the cube (this layout) on load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSum2D {
    width: usize,
    height: usize,
    /// Padded row stride: `width + 1` rounded up to a cache-line
    /// multiple.
    stride: usize,
    p: Vec<i64>,
}

impl PrefixSum2D {
    /// Builds the cube from a dense array in one pass.
    ///
    /// A degenerate array (`width` or `height` zero) yields a valid empty
    /// cube: every query method returns 0 and [`Self::row_clipped`]
    /// returns guard (all-zero) rows — callers never index through a
    /// `w·h == 0` grid.
    pub fn build(a: &Dense2D) -> PrefixSum2D {
        let (w, h) = (a.width(), a.height());
        let stride = (w + 1).next_multiple_of(ROW_BLOCK);
        let mut p = vec![0i64; stride * (h + 1)];
        for y in 0..h {
            let mut row_acc = 0i64;
            let (prev, cur) = p[y * stride..].split_at_mut(stride);
            for x in 0..w {
                row_acc += a.get(x, y);
                cur[x + 1] = row_acc + prev[x + 1];
            }
        }
        PrefixSum2D {
            width: w,
            height: h,
            stride,
            p,
        }
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
        self.p[(x + 1) + (y + 1) * self.stride]
    }

    /// Sum over the inclusive index rectangle `[x0, x1] × [y0, y1]`.
    ///
    /// Four lookups, three arithmetic operations — constant time.
    #[inline]
    pub fn range_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        debug_assert!(x0 <= x1 && x1 < self.width, "x range [{x0},{x1}]");
        debug_assert!(y0 <= y1 && y1 < self.height, "y range [{y0},{y1}]");
        let stride = self.stride;
        let br = self.p[(x1 + 1) + (y1 + 1) * stride];
        let tl = self.p[x0 + y0 * stride];
        let bl = self.p[x0 + (y1 + 1) * stride];
        let tr = self.p[(x1 + 1) + y0 * stride];
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
        self.p[Self::clip(x, self.width) + Self::clip(y, self.height) * self.stride]
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
        self.p[hi_x + hi_y] - self.p[lo_x + hi_y] - self.p[hi_x + lo_y] + self.p[lo_x + lo_y]
    }

    /// The internal row at clipped signed row coordinate `y`, including
    /// the leading guard entry: `row[x + 1] = P(x, y)` for `x <
    /// width`, and `row[0] = 0`. A negative `y` selects the all-zero
    /// guard row; a too-large `y` clamps (losslessly) onto the last row.
    ///
    /// This is the strip-fill primitive of the sweep evaluator: one call
    /// pins the row, then [`crate::kernels`] gathers arbitrary clipped
    /// column sets out of it with plain indexing.
    #[inline]
    pub fn row_clipped(&self, y: i64) -> &[i64] {
        let off = Self::clip(y, self.height) * self.stride;
        &self.p[off..off + self.width + 1]
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
        let p = &self.p;
        (
            p[hx_a + hy_a] - p[lx_a + hy_a] - p[hx_a + ly_a] + p[lx_a + ly_a],
            p[hx_b + hy_b] - p[lx_b + hy_b] - p[hx_b + ly_b] + p[lx_b + ly_b],
        )
    }

    /// Sum of the whole array.
    #[inline]
    pub fn total(&self) -> i64 {
        self.p[self.width + self.height * self.stride]
    }

    /// Bytes of storage held by the cube (including row padding).
    pub fn storage_bytes(&self) -> usize {
        self.p.len() * std::mem::size_of::<i64>()
    }

    /// Bytes a dense cube over a `width × height` array *would* occupy,
    /// without building it — the tier-selection heuristic compares the
    /// compressed encoder's running size against this projection.
    pub fn projected_bytes(width: usize, height: usize) -> usize {
        (width + 1).next_multiple_of(ROW_BLOCK) * (height + 1) * std::mem::size_of::<i64>()
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
        let p = PrefixSum2D::build(&a);
        assert_eq!(p.total(), a.total());
    }

    #[test]
    fn range_sums_match_naive_exhaustively() {
        let a = random_array(9, 7, 2);
        let p = PrefixSum2D::build(&a);
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
                let p = PrefixSum2D::build(&a);
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
            let p = PrefixSum2D::build(&a);
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
        let p = PrefixSum2D::build(&a);
        for y in -2i64..8 {
            let row = p.row_clipped(y);
            assert_eq!(row.len(), 12);
            assert_eq!(row[0], 0, "guard at row {y}");
            for x in 0..11i64 {
                assert_eq!(row[(x + 1) as usize], p.prefix_clipped(x, y), "({x},{y})");
            }
        }
    }

    #[test]
    fn clipped_sums() {
        let a = random_array(5, 5, 3);
        let p = PrefixSum2D::build(&a);
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

    proptest! {
        #[test]
        fn random_ranges_match_naive(seed in 0u64..50,
                                     x0 in 0usize..12, y0 in 0usize..10,
                                     dx in 0usize..12, dy in 0usize..10) {
            let a = random_array(12, 10, seed);
            let p = PrefixSum2D::build(&a);
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
            let p = PrefixSum2D::build(&a);
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
            let p = PrefixSum2D::build(&a);
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
            let p = PrefixSum2D::build(&arr);
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
