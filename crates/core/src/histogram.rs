//! The Euler histogram `H` of §5.1 and its cumulative (frozen) form.
//!
//! ## Layout
//!
//! For a grid with `n` cells along an axis there are `2n − 1` Euler slots:
//! even slot `2i` is cell `i`, odd slot `2i + 1` is the interior grid line
//! `i + 1`. In 2-D a bucket `(ex, ey)` is a *face* (even, even), an *edge*
//! (mixed parity) or a *vertex* (odd, odd). The §5.1 construction
//! increments every vertex/edge/cell whose locus intersects the object's
//! open interior and then negates edge buckets; equivalently, each snapped
//! object covering cells `[cx0, cx1] × [cy0, cy1]` adds
//! `sign(ex, ey) = (−1)^{parity(ex)+parity(ey)}` over the *contiguous*
//! Euler index rectangle `[2cx0, 2cx1] × [2cy0, 2cy1]` — which is why bulk
//! construction is a 2-D difference array (4 updates per object).
//!
//! ## One buffer
//!
//! The buckets live in a [`CubeBuffer`], laid out exactly as the dense
//! prefix cube: the difference array is scattered and integrated in that
//! buffer, and [`EulerHistogram::into_frozen`] sums the buckets into the
//! cube in the same allocation. A frozen histogram folds later writes as
//! old cube + prefix of the delta ([`FrozenEulerHistogram::with_signed_batch`]),
//! so nothing keeps a bucket array beside the cube.
//!
//! ## Query algebra (on the frozen form)
//!
//! For an aligned query `q = [qx0, qx1] × [qy0, qy1]` (grid lines):
//!
//! * the buckets strictly *inside* `q` occupy `[2qx0, 2qx1−2] × [2qy0, 2qy1−2]`;
//!   their signed sum is `n_ii`, the exact number of intersecting objects,
//!   because each intersecting region contributes `V_i − E_i + F_i = 1`
//!   (Corollary 4.1);
//! * the buckets *on* the query boundary are the odd slots `2qx0−1` /
//!   `2qx1−1` (and y analogues); the *closed* region
//!   `[2qx0−1, 2qx1−1] × [2qy0−1, 2qy1−1]` therefore separates inside from
//!   outside, and `n'_ei = total − closed_sum` is the §5.3 outside sum,
//!   which misses query-containing objects (the *loophole effect*,
//!   Corollary 4.2 with `k = 2` exterior faces).

use std::borrow::Borrow;

use euler_cube::{Cell, CompressedPrefix2D, CubeBuffer, CubeTier, PrefixSum2D};
use euler_grid::{Grid, GridRect, SnappedRect};

use crate::EulerSource;

/// The most objects an Euler histogram may count: `i32::MAX`, the
/// largest value of a cube [`Cell`].
///
/// Every value of a histogram's cube is an object count: a prefix value
/// `P(i, j)` counts the objects that meet the quadrant `[0..i]×[0..j]`,
/// so it lies in `[0, N]`, and each bucket, difference corner and
/// partial sum of a build or fold is bounded by the objects it counts.
/// Front doors refuse input past this bound (a live insert, a CSV
/// preload, a persisted image) instead of letting a cell overflow.
pub const MAX_OBJECTS: u64 = Cell::MAX as u64;

/// Below this projected dense-cube size the freeze heuristic does not
/// even attempt compression: a couple of MiB of prefix rows is already
/// cache-resident and the dense tier's pure loads are unbeatable there.
const COMPRESS_MIN_DENSE_BYTES: usize = 2 << 20;

/// The compressed tier is kept only when it undercuts the dense
/// projection by this factor; the encoder aborts as soon as it can no
/// longer win, so an incompressible freeze pays one early-exit scan,
/// not a full doomed encode.
const COMPRESS_KEEP_DIVISOR: usize = 4;

/// Sign of an Euler bucket: `+1` for faces and vertices, `−1` for edges.
#[inline]
fn bucket_sign(ex: usize, ey: usize) -> i64 {
    if (ex + ey).is_multiple_of(2) {
        1
    } else {
        -1
    }
}

/// The signed buckets of a batch of footprints (`+1` insert, `−1`
/// delete) in one buffer: each op's four difference corners, one
/// in-place integration, then the §5.1 sign pass. `O(|ops| + buckets)`
/// regardless of object sizes. Returns the buckets and the net count.
///
/// # Panics
///
/// Past [`MAX_OBJECTS`] ops: every value the passes store is bounded by
/// the op count, which is what lets them skip per-value checks.
fn signed_buckets(
    grid: &Grid,
    ops: impl IntoIterator<Item = (SnappedRect, i64)>,
) -> (CubeBuffer, i64) {
    let (ew, eh) = grid.euler_dims();
    let mut cells = CubeBuffer::zeros(ew, eh);
    let (mut net, mut count) = (0i64, 0u64);
    for (o, sign) in ops {
        cells.add_rect_diff(2 * o.cx0(), 2 * o.cy0(), 2 * o.cx1(), 2 * o.cy1(), sign);
        net += sign;
        count += 1;
    }
    assert!(count <= MAX_OBJECTS, "{count} ops pass the object bound");
    cells.integrate();
    cells.map_in_place(|x, y, v| v * bucket_sign(x, y));
    (cells, net)
}

/// The freeze heuristic's compressed attempt: small cubes freeze dense
/// unconditionally; past `COMPRESS_MIN_DENSE_BYTES` (2 MiB) `build` runs
/// with a budget of the dense projection over `COMPRESS_KEEP_DIVISOR`
/// (4), and its result is kept only if it stayed inside. The choice
/// depends only on the prefix rows, so it is deterministic in the bucket
/// contents whichever form `build` reads them from.
fn compressed_within_budget(
    width: usize,
    height: usize,
    build: impl FnOnce(usize) -> Option<CompressedPrefix2D>,
) -> Option<CubeTier> {
    let dense_bytes = PrefixSum2D::projected_bytes(width, height);
    if dense_bytes < COMPRESS_MIN_DENSE_BYTES {
        return None;
    }
    build(dense_bytes / COMPRESS_KEEP_DIVISOR).map(CubeTier::Compressed)
}

/// A mutable Euler histogram. Supports bulk construction, incremental
/// insertion and removal; freeze it into a [`FrozenEulerHistogram`] for
/// constant-time queries.
#[derive(Debug, Clone, PartialEq)]
pub struct EulerHistogram {
    grid: Grid,
    buckets: CubeBuffer,
    object_count: u64,
}

impl EulerHistogram {
    /// An empty histogram over `grid`.
    pub fn new(grid: Grid) -> EulerHistogram {
        let (ew, eh) = grid.euler_dims();
        EulerHistogram {
            grid,
            buckets: CubeBuffer::zeros(ew, eh),
            object_count: 0,
        }
    }

    /// Reassembles a histogram from its stored parts (used by the binary
    /// codec in [`crate::persist`]). The caller guarantees the bucket
    /// array matches the grid's Euler dimensions.
    pub(crate) fn from_parts(grid: Grid, buckets: CubeBuffer, object_count: u64) -> EulerHistogram {
        debug_assert_eq!(
            (buckets.width(), buckets.height()),
            grid.euler_dims(),
            "bucket array shape"
        );
        EulerHistogram {
            grid,
            buckets,
            object_count,
        }
    }

    /// Bulk-builds the histogram from snapped objects using a difference
    /// array materialized in place: `O(|S| + buckets)` regardless of
    /// object sizes, in one grid-sized buffer. Takes any iterable (a
    /// slice, or a stream snapped as it is read) and counts the objects
    /// as it folds them in, so a streamed build holds only that buffer,
    /// never the objects.
    ///
    /// # Panics
    ///
    /// When `objects` holds more than [`MAX_OBJECTS`] objects; a front
    /// door streaming untrusted input caps the count first (as
    /// `euler-datagen`'s CSV loader does).
    pub fn build<I>(grid: Grid, objects: I) -> EulerHistogram
    where
        I: IntoIterator,
        I::Item: Borrow<SnappedRect>,
    {
        let ops = objects.into_iter().map(|o| (*o.borrow(), 1));
        let (buckets, count) = signed_buckets(&grid, ops);
        EulerHistogram {
            grid,
            buckets,
            object_count: count as u64,
        }
    }

    /// The grid this histogram summarizes.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of objects inserted.
    #[inline]
    pub fn object_count(&self) -> u64 {
        self.object_count
    }

    /// Inserts one object: `O(footprint)` bucket updates.
    ///
    /// # Panics
    ///
    /// When a bucket leaves the [`Cell`] range — only past
    /// [`MAX_OBJECTS`] objects.
    pub fn insert(&mut self, o: &SnappedRect) {
        self.apply(o, 1);
        self.object_count += 1;
    }

    /// Removes one previously inserted object. The histogram is a linear
    /// sketch, so removal is exact; the caller is responsible for only
    /// removing objects that were inserted.
    pub fn remove(&mut self, o: &SnappedRect) {
        assert!(self.object_count > 0, "remove from empty histogram");
        self.apply(o, -1);
        self.object_count -= 1;
    }

    fn apply(&mut self, o: &SnappedRect, delta: i64) {
        for ey in 2 * o.cy0()..=2 * o.cy1() {
            for ex in 2 * o.cx0()..=2 * o.cx1() {
                self.buckets.add(ex, ey, delta * bucket_sign(ex, ey));
            }
        }
    }

    /// Applies a batch of signed footprints (`+1` insert, `−1` delete)
    /// one bucket update at a time: the same as the matching sequence of
    /// [`insert`] / [`remove`] calls, and the reference that the live
    /// histogram's fold ([`FrozenEulerHistogram::with_signed_batch`]) is
    /// tested against. The net count must not drive the object count
    /// negative.
    ///
    /// [`insert`]: EulerHistogram::insert
    /// [`remove`]: EulerHistogram::remove
    pub fn apply_signed_batch<'a, I>(&mut self, ops: I)
    where
        I: IntoIterator<Item = (&'a SnappedRect, i64)>,
    {
        let mut count = self.object_count as i64;
        for (o, sign) in ops {
            self.apply(o, sign);
            count += sign;
        }
        assert!(count >= 0, "signed batch drives object count negative");
        self.object_count = count as u64;
    }

    /// Signed bucket value at Euler index `(ex, ey)` (for tests and the
    /// worked examples of Figures 6–10).
    #[inline]
    pub fn bucket(&self, ex: usize, ey: usize) -> i64 {
        self.buckets.get(ex, ey)
    }

    /// Row `ey` of the bucket array: buckets `(0..2nx − 1, ey)`.
    #[inline]
    pub(crate) fn bucket_row(&self, ey: usize) -> &[Cell] {
        self.buckets.row(ey)
    }

    /// Bytes of storage held by the bucket array (laid out as the dense
    /// cube, guards and row padding included).
    pub fn storage_bytes(&self) -> usize {
        self.buckets.storage_bytes()
    }

    /// Builds the cumulative (prefix-sum) form for constant-time queries,
    /// leaving this histogram as it is — see [`Self::into_frozen`] for the
    /// tier heuristic. The compressed attempt reads the buckets in place;
    /// a dense freeze sums a copy of them.
    pub fn freeze(&self) -> FrozenEulerHistogram {
        match self.compressed_tier() {
            Some(cum) => self.frozen_with(cum),
            None => self.freeze_dense(),
        }
    }

    /// Freezes in place: the buckets become the prefix cube in the same
    /// allocation, so a histogram and its frozen form never coexist.
    ///
    /// Tier heuristic: small cubes freeze dense unconditionally; past
    /// `COMPRESS_MIN_DENSE_BYTES` (2 MiB) the run-compressed tier is
    /// tried first (straight from the buckets, so the dense cube is
    /// never built) and kept only when it beats the dense projection by
    /// `COMPRESS_KEEP_DIVISOR` (4)×. Both tiers answer bit-identically,
    /// and the choice is deterministic in the bucket contents — freezing
    /// equal histograms yields equal frozen values.
    pub fn into_frozen(self) -> FrozenEulerHistogram {
        let cum = self.compressed_tier();
        FrozenEulerHistogram {
            grid: self.grid,
            cum: cum.unwrap_or_else(|| CubeTier::Dense(self.buckets.into_prefix())),
            object_count: self.object_count,
        }
    }

    fn compressed_tier(&self) -> Option<CubeTier> {
        compressed_within_budget(self.buckets.width(), self.buckets.height(), |max| {
            CompressedPrefix2D::from_cells_capped(&self.buckets, max)
        })
    }

    /// Freezes onto the dense tier unconditionally — the reference side
    /// of the compressed-tier law, and the right call when the caller
    /// knows the cube stays hot (benchmarks, tiny grids).
    pub fn freeze_dense(&self) -> FrozenEulerHistogram {
        self.frozen_with(CubeTier::Dense(self.buckets.clone().into_prefix()))
    }

    /// Freezes onto the compressed tier unconditionally, regardless of
    /// whether it wins — the differential side of the compressed-tier
    /// law and the footprint axis of the `hugegrid` bench.
    pub fn freeze_compressed(&self) -> FrozenEulerHistogram {
        self.frozen_with(CubeTier::Compressed(CompressedPrefix2D::from_cells(
            &self.buckets,
        )))
    }

    fn frozen_with(&self, cum: CubeTier) -> FrozenEulerHistogram {
        FrozenEulerHistogram {
            grid: self.grid,
            cum,
            object_count: self.object_count,
        }
    }
}

/// The cumulative Euler histogram `H_c` of §5.2: all estimator quantities
/// are O(1) signed range sums on this structure.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenEulerHistogram {
    grid: Grid,
    cum: CubeTier,
    object_count: u64,
}

impl FrozenEulerHistogram {
    /// The grid this histogram summarizes.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of objects summarized (`|S|`).
    #[inline]
    pub fn object_count(&self) -> u64 {
        self.object_count
    }

    /// Signed sum over a clipped Euler-index rectangle (`ex0 ≤ ex1`,
    /// `ey0 ≤ ey1`; bounds may hang off the bucket array on any side).
    ///
    /// Evaluated as the four-corner combination of
    /// [`PrefixSum2D::prefix_clipped`] — the one shared, inlined clamp —
    /// instead of re-deriving per-call window clamps: boundary-touching
    /// regions (e.g. a closed region whose upper index is the
    /// out-of-range `2n − 1`) clamp high losslessly because the prefix
    /// function is constant past the last bucket row/column.
    #[inline]
    pub fn signed_sum(&self, ex0: i64, ey0: i64, ex1: i64, ey1: i64) -> i64 {
        debug_assert!(ex0 <= ex1 && ey0 <= ey1);
        self.cum.prefix_clipped(ex1, ey1)
            - self.cum.prefix_clipped(ex0 - 1, ey1)
            - self.cum.prefix_clipped(ex1, ey0 - 1)
            + self.cum.prefix_clipped(ex0 - 1, ey0 - 1)
    }

    /// The underlying prefix-sum cube tier, for the sweep kernels in
    /// [`crate::sweep`] that materialize whole strips of clipped
    /// prefixes (dense rows or compressed run walks, per variant).
    #[inline]
    pub(crate) fn cum(&self) -> &CubeTier {
        &self.cum
    }

    /// True when the freeze heuristic (or a forced
    /// [`EulerHistogram::freeze_compressed`]) put this histogram on the
    /// run-compressed cube tier.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        self.cum.is_compressed()
    }

    /// Bytes of storage held by the cube on its current tier.
    pub fn storage_bytes(&self) -> usize {
        self.cum.storage_bytes()
    }

    /// The frozen histogram after a batch of signed footprints (`+1`
    /// insert, `−1` delete), built from this cube alone: prefix sums are
    /// linear, so the next cube is this one plus the prefix cube of the
    /// batch's signed buckets. The batch is integrated in one scratch
    /// buffer, which then becomes the next dense cube in place; the tier
    /// heuristic of [`EulerHistogram::into_frozen`] then decides, from
    /// that cube, whether to keep it or its compressed twin. Equal to
    /// freezing the bucket array with the batch applied. The net count
    /// must not drive the object count negative.
    pub fn with_signed_batch<'a, I>(&self, ops: I) -> FrozenEulerHistogram
    where
        I: IntoIterator<Item = (&'a SnappedRect, i64)>,
    {
        let (delta, net) = signed_buckets(&self.grid, ops.into_iter().map(|(o, s)| (*o, s)));
        let count = self.object_count as i64 + net;
        assert!(count >= 0, "signed batch drives object count negative");
        let mut cube = delta.into_prefix();
        self.cum.add_to(&mut cube);
        let cum = compressed_within_budget(cube.width(), cube.height(), |max| {
            CompressedPrefix2D::from_prefix_capped(&cube, max)
        });
        FrozenEulerHistogram {
            grid: self.grid,
            cum: cum.unwrap_or(CubeTier::Dense(cube)),
            object_count: count as u64,
        }
    }

    /// Both per-query estimator sums — the inside sum (`n_ii`) and the
    /// closed sum — in one batched kernel call:
    /// [`PrefixSum2D::range_sum_pair`] lane-clips the four x and four y
    /// corner planes of the two Euler windows together and gathers the
    /// eight prefixes with no redundant work. Bit-identical to
    /// [`Self::inside_sum`] + [`Self::closed_sum`].
    #[inline]
    pub fn inside_closed_sums(&self, q: &GridRect) -> (i64, i64) {
        debug_assert!(q.x0 < q.x1 && q.y0 < q.y1);
        let (x0, y0) = (q.x0 as i64, q.y0 as i64);
        let (x1, y1) = (q.x1 as i64, q.y1 as i64);
        self.cum.range_sum_pair(
            (2 * x0, 2 * y0, 2 * x1 - 2, 2 * y1 - 2),
            (2 * x0 - 1, 2 * y0 - 1, 2 * x1 - 1, 2 * y1 - 1),
        )
    }

    /// Sum of all buckets; equals `|S|` (every object's full footprint has
    /// Euler characteristic 1).
    #[inline]
    pub fn total(&self) -> i64 {
        self.cum.total()
    }

    /// `n_ii` — the exact number of objects whose interior intersects the
    /// open query (Equation 12 / \[BT98\]): signed sum of the buckets
    /// strictly inside the query.
    #[inline]
    pub fn intersect_count(&self, q: &GridRect) -> i64 {
        self.inside_sum(q.x0, q.y0, q.x1, q.y1)
    }

    /// Signed sum of buckets strictly inside the aligned region
    /// `[x0, x1] × [y0, y1]` (grid-line coordinates). Used directly for
    /// `n_ii` and for Region A of EulerApprox.
    #[inline]
    pub fn inside_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        debug_assert!(x0 < x1 && y0 < y1);
        self.signed_sum(
            2 * x0 as i64,
            2 * y0 as i64,
            2 * x1 as i64 - 2,
            2 * y1 as i64 - 2,
        )
    }

    /// Signed sum of the *closed* Euler region of an aligned region: the
    /// inside buckets plus the buckets on its boundary grid lines.
    ///
    /// For a full-width (or full-height) slab this equals the number of
    /// objects *contained* in the slab — the quantity `N_cs(B)` of §5.3 —
    /// because a slab admits neither crossover nor containing objects.
    #[inline]
    pub fn closed_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        debug_assert!(x0 < x1 && y0 < y1);
        self.signed_sum(
            2 * x0 as i64 - 1,
            2 * y0 as i64 - 1,
            2 * x1 as i64 - 1,
            2 * y1 as i64 - 1,
        )
    }

    /// `n'_ei` — Equation 15/19: the signed sum of all buckets strictly
    /// *outside* the query. Equals `N_d + N_o` plus crossover error; query-
    /// containing objects are invisible here (the loophole effect of §5.3).
    #[inline]
    pub fn outside_sum(&self, q: &GridRect) -> i64 {
        self.total() - self.closed_sum(q.x0, q.y0, q.x1, q.y1)
    }
}

impl EulerSource for FrozenEulerHistogram {
    fn grid(&self) -> &Grid {
        FrozenEulerHistogram::grid(self)
    }
    fn object_count(&self) -> u64 {
        FrozenEulerHistogram::object_count(self)
    }
    fn inside_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        FrozenEulerHistogram::inside_sum(self, x0, y0, x1, y1)
    }
    fn closed_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        FrozenEulerHistogram::closed_sum(self, x0, y0, x1, y1)
    }
    fn total(&self) -> i64 {
        FrozenEulerHistogram::total(self)
    }
    fn intersect_count(&self, q: &GridRect) -> i64 {
        FrozenEulerHistogram::intersect_count(self, q)
    }
    fn outside_sum(&self, q: &GridRect) -> i64 {
        FrozenEulerHistogram::outside_sum(self, q)
    }
    fn inside_closed_sums(&self, q: &GridRect) -> (i64, i64) {
        FrozenEulerHistogram::inside_closed_sums(self, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Snapper};

    fn grid(nx: usize, ny: usize) -> Grid {
        // 1 data unit = 1 cell, for readable coordinates.
        Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
            nx,
            ny,
        )
        .unwrap()
    }

    fn snap(g: &Grid, xlo: f64, ylo: f64, xhi: f64, yhi: f64) -> SnappedRect {
        Snapper::new(*g).snap(&Rect::new(xlo, ylo, xhi, yhi).unwrap())
    }

    fn q(x0: usize, y0: usize, x1: usize, y1: usize) -> GridRect {
        GridRect::unchecked(x0, y0, x1, y1)
    }

    #[test]
    fn empty_histogram_is_zero() {
        let g = grid(4, 4);
        let h = EulerHistogram::new(g).freeze();
        assert_eq!(h.total(), 0);
        assert_eq!(h.intersect_count(&q(0, 0, 4, 4)), 0);
    }

    #[test]
    fn single_cell_object_histogram_shape() {
        // Figure 6(c)/(d) right case: an object inside one cell touches
        // only that cell's face bucket.
        let g = grid(3, 3);
        let o = snap(&g, 1.2, 1.2, 1.8, 1.8);
        let mut h = EulerHistogram::new(g);
        h.insert(&o);
        for ey in 0..5 {
            for ex in 0..5 {
                let expect = if ex == 2 && ey == 2 { 1 } else { 0 };
                assert_eq!(h.bucket(ex, ey), expect, "bucket ({ex},{ey})");
            }
        }
        assert_eq!(h.freeze().total(), 1);
    }

    #[test]
    fn spanning_object_histogram_shape() {
        // Figure 6: an object spanning 2x2 cells covers 4 faces, 4 edges
        // (negated) and 1 vertex.
        let g = grid(3, 3);
        let o = snap(&g, 0.5, 0.5, 1.5, 1.5); // spans cells (0,0)..(1,1)
        let mut h = EulerHistogram::new(g);
        h.insert(&o);
        let expected = [
            // (ex, ey, value): faces +1 at (0,0),(2,0),(0,2),(2,2);
            // edges -1 at (1,0),(0,1),(2,1),(1,2); vertex +1 at (1,1).
            (0, 0, 1),
            (2, 0, 1),
            (0, 2, 1),
            (2, 2, 1),
            (1, 0, -1),
            (0, 1, -1),
            (2, 1, -1),
            (1, 2, -1),
            (1, 1, 1),
        ];
        let mut sum = 0;
        for (ex, ey, v) in expected {
            assert_eq!(h.bucket(ex, ey), v, "bucket ({ex},{ey})");
            sum += v;
        }
        assert_eq!(sum, 1, "footprint Euler characteristic");
    }

    #[test]
    fn bulk_equals_incremental() {
        let g = grid(8, 6);
        let objs = vec![
            snap(&g, 0.3, 0.3, 2.7, 1.9),
            snap(&g, 4.0, 2.0, 7.0, 5.0), // aligned, will shrink
            snap(&g, 1.5, 1.5, 1.5, 1.5), // point
            snap(&g, 0.1, 5.2, 7.9, 5.8), // wide bar
        ];
        let bulk = EulerHistogram::build(g, &objs);
        let mut inc = EulerHistogram::new(g);
        for o in &objs {
            inc.insert(o);
        }
        assert_eq!(bulk, inc);
        assert_eq!(bulk.object_count(), 4);
        assert_eq!(bulk.freeze().total(), 4);
    }

    #[test]
    fn remove_restores_previous_state() {
        let g = grid(8, 6);
        let a = snap(&g, 0.3, 0.3, 2.7, 1.9);
        let b = snap(&g, 4.2, 2.2, 6.8, 4.8);
        let mut h = EulerHistogram::new(g);
        h.insert(&a);
        let snapshot = h.clone();
        h.insert(&b);
        h.remove(&b);
        assert_eq!(h, snapshot);
    }

    #[test]
    fn intersect_count_figure_7() {
        // Figure 7: two objects, query covering part of the grid; both
        // intersect the query.
        let g = grid(4, 3);
        // Object 1 overlaps the query's top-left; object 2 crosses the
        // query's right column.
        let o1 = snap(&g, 0.5, 1.5, 1.5, 2.5);
        let o2 = snap(&g, 2.3, 0.5, 2.7, 2.5);
        let h = EulerHistogram::build(g, [o1, o2]).freeze();
        let query = q(0, 0, 3, 3);
        assert_eq!(h.intersect_count(&query), 2);
        // And a query that misses both.
        assert_eq!(h.intersect_count(&q(3, 0, 4, 1)), 0);
    }

    #[test]
    fn intersect_count_is_exact_vs_classification() {
        let g = grid(10, 8);
        let objs: Vec<SnappedRect> = (0..40)
            .map(|i| {
                let x = (i * 7 % 50) as f64 / 5.0;
                let y = (i * 13 % 40) as f64 / 5.0;
                snap(&g, x, y, (x + 1.7).min(10.0), (y + 2.3).min(8.0))
            })
            .collect();
        let h = EulerHistogram::build(g, &objs).freeze();
        for (qx, qy, qw, qh) in [(0, 0, 10, 8), (2, 1, 3, 4), (5, 5, 2, 2), (0, 0, 1, 1)] {
            let query = q(qx, qy, qx + qw, qy + qh);
            let expect = objs.iter().filter(|o| o.intersects(&query)).count() as i64;
            assert_eq!(h.intersect_count(&query), expect, "query {query}");
        }
    }

    #[test]
    fn outside_sum_counts_disjoint_plus_overlap() {
        // Figure 9(a): an object overlapping the query from outside
        // contributes 1 to the outside sum.
        let g = grid(4, 4);
        let o = snap(&g, 0.5, 0.5, 2.5, 2.5);
        let h = EulerHistogram::build(g, [o]).freeze();
        let query = q(0, 0, 2, 2);
        assert_eq!(h.outside_sum(&query), 1);
        // Fully contained object: invisible outside.
        let inner = snap(&g, 0.3, 0.3, 1.7, 1.7);
        let h2 = EulerHistogram::build(g, [inner]).freeze();
        assert_eq!(h2.outside_sum(&query), 0);
    }

    #[test]
    fn loophole_effect_figure_10() {
        // An object that CONTAINS the query vanishes from the outside sum:
        // its intersection with the query exterior is an annulus, whose
        // Euler characteristic is 0 (Corollary 4.2, k = 2).
        let g = grid(6, 6);
        let big = snap(&g, 0.5, 0.5, 5.5, 5.5);
        let h = EulerHistogram::build(g, [big]).freeze();
        let query = q(2, 2, 4, 4);
        assert!(big.contains_query(&query));
        assert_eq!(h.intersect_count(&query), 1);
        assert_eq!(
            h.outside_sum(&query),
            0,
            "loophole: containing object unseen"
        );
    }

    #[test]
    fn crossover_double_counts_in_outside_sum() {
        // Figure 9(b): a crossover object splits into two exterior
        // components and is counted twice by the outside sum.
        let g = grid(6, 6);
        let bar = snap(&g, 0.5, 2.3, 5.5, 3.7); // crosses the middle
        let h = EulerHistogram::build(g, [bar]).freeze();
        let query = q(2, 0, 4, 6); // vertical slab query
        assert!(bar.crosses(&query));
        assert_eq!(h.outside_sum(&query), 2);
    }

    #[test]
    fn closed_sum_of_slab_counts_contained_objects() {
        let g = grid(6, 6);
        let objs = vec![
            snap(&g, 0.5, 4.2, 2.5, 5.5), // inside top slab y in (4,6)
            snap(&g, 3.0, 4.5, 5.5, 5.9), // inside top slab
            snap(&g, 1.0, 3.2, 2.0, 4.8), // straddles y = 4
            snap(&g, 1.0, 0.5, 2.0, 2.5), // below
        ];
        let h = EulerHistogram::build(g, &objs).freeze();
        // Top slab [0,6] x [4,6].
        assert_eq!(h.closed_sum(0, 4, 6, 6), 2);
        // Whole space contains everything.
        assert_eq!(h.closed_sum(0, 0, 6, 6), 4);
    }

    #[test]
    fn signed_sum_matches_bucket_reference_on_2n_minus_1_boundary() {
        // Regression for the shared clamp helper: closed regions of
        // queries reaching the data-space edge ask for Euler index
        // 2n − 1, one past the last bucket (2n − 2). The clamped corner
        // lookups must agree with a naive clipped bucket scan on every
        // such window, and outside_sum must stay loophole-consistent.
        let g = grid(5, 5);
        let (ew, eh) = (9usize, 9usize);
        let objs = vec![
            snap(&g, 0.0, 0.0, 5.0, 5.0), // full-space object
            snap(&g, 0.2, 0.2, 4.9, 4.9),
            snap(&g, 3.1, 3.1, 5.0, 5.0), // touches the far corner
            snap(&g, 0.0, 2.1, 5.0, 2.9), // full-width bar
        ];
        let unfrozen = EulerHistogram::build(g, &objs);
        let h = unfrozen.freeze();
        let naive = |ex0: i64, ey0: i64, ex1: i64, ey1: i64| -> i64 {
            let mut s = 0;
            for ey in ey0.max(0)..=ey1.min(eh as i64 - 1) {
                for ex in ex0.max(0)..=ex1.min(ew as i64 - 1) {
                    s += unfrozen.bucket(ex as usize, ey as usize);
                }
            }
            s
        };
        // Closed regions of boundary-touching queries: upper index 2n−1.
        for (x0, y0, x1, y1) in [(0, 0, 5, 5), (2, 2, 5, 5), (4, 0, 5, 5), (0, 4, 5, 5)] {
            let (ex0, ey0) = (2 * x0 - 1, 2 * y0 - 1);
            let (ex1, ey1) = (2 * x1 - 1, 2 * y1 - 1);
            assert_eq!(ex1.max(ey1), 9, "window must reach index 2n-1");
            assert_eq!(
                h.signed_sum(ex0, ey0, ex1, ey1),
                naive(ex0, ey0, ex1, ey1),
                "closed window of [{x0},{x1}]x[{y0},{y1}]"
            );
            let query = q(x0 as usize, y0 as usize, x1 as usize, y1 as usize);
            assert_eq!(
                h.outside_sum(&query),
                h.total() - naive(ex0, ey0, ex1, ey1),
                "outside sum of {query}"
            );
        }
        // Windows hanging off both sides at once clamp to the full array.
        assert_eq!(h.signed_sum(-3, -3, 20, 20), h.total());
    }

    fn dataset(g: &Grid, n: usize) -> Vec<SnappedRect> {
        (0..n)
            .map(|i| {
                let x = (i * 7 % 50) as f64 / 5.0 % g.nx() as f64;
                let y = (i * 13 % 40) as f64 / 5.0 % g.ny() as f64;
                snap(
                    g,
                    x,
                    y,
                    (x + 1.7).min(g.nx() as f64),
                    (y + 2.3).min(g.ny() as f64),
                )
            })
            .collect()
    }

    #[test]
    fn compressed_tier_answers_bit_identically() {
        let g = grid(10, 8);
        let hist = EulerHistogram::build(g, dataset(&g, 40));
        let dense = hist.freeze_dense();
        let comp = hist.freeze_compressed();
        assert!(!dense.is_compressed());
        assert!(comp.is_compressed());
        assert_eq!(dense.total(), comp.total());
        for qx0 in 0..10 {
            for qy0 in 0..8 {
                for qx1 in qx0 + 1..=10 {
                    for qy1 in qy0 + 1..=8 {
                        let query = q(qx0, qy0, qx1, qy1);
                        assert_eq!(
                            dense.intersect_count(&query),
                            comp.intersect_count(&query),
                            "n_ii at {query}"
                        );
                        assert_eq!(
                            dense.inside_closed_sums(&query),
                            comp.inside_closed_sums(&query),
                            "pair at {query}"
                        );
                        assert_eq!(
                            dense.outside_sum(&query),
                            comp.outside_sum(&query),
                            "outside at {query}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn freeze_heuristic_stays_dense_on_small_grids() {
        // The paper grid's cube is well under the compression floor.
        let g = grid(10, 8);
        assert!(!EulerHistogram::build(g, dataset(&g, 40))
            .freeze()
            .is_compressed());
    }

    #[test]
    fn boundary_touching_queries_clip_safely() {
        let g = grid(5, 5);
        let o = snap(&g, 1.2, 1.2, 3.8, 3.8);
        let h = EulerHistogram::build(g, [o]).freeze();
        for query in [q(0, 0, 5, 5), q(0, 0, 1, 1), q(4, 4, 5, 5), q(0, 2, 5, 3)] {
            let n_ii = h.intersect_count(&query);
            let expect = i64::from(o.intersects(&query));
            assert_eq!(n_ii, expect, "query {query}");
        }
        assert_eq!(h.outside_sum(&q(0, 0, 5, 5)), 0);
    }
}
