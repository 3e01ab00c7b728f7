//! Tiling-aware sweep evaluation: amortizing prefix-sum corner lookups
//! across a whole browsing query set.
//!
//! A browsing query (§1, §6.1.2) is a [`Tiling`] — a `cols × rows`
//! partition of an aligned region. Answering it tile by tile costs four
//! scattered [`euler_cube::PrefixSum2D`] corner reads per signed sum, and
//! each estimator needs two to six signed sums per tile; worse, every
//! read re-derives the same clamped Euler indices, because adjacent tiles
//! share boundary grid lines.
//!
//! The sweep path exploits that sharing. A [`TilingPlan`] precomputes the
//! tiling's **corner lattice**: for each tile-boundary grid line `x` the
//! two Euler columns that every estimator quantity reads (`2x − 2` for
//! open/inside corners, `2x − 1` for closed corners) — resolved down to
//! *internal cube indices* once, since the cube's guard layout makes the
//! low-edge clamp row-independent. The kernels then make one row-major
//! pass, materializing per boundary row a structure-of-arrays **strip**
//! of clipped prefix values — an `a` (open) and a `b` (closed) array,
//! one entry per vertical boundary — and combining four strips into a
//! whole row of tile sums with the
//! [`euler_cube::kernels::strip_combine2`] family:
//!
//! ```text
//!   row r+1  ─ SA_hi (2·y−2) ── SB_hi (2·y−1) ─   ← filled this row,
//!      ┌────┬────┬────┐                             reused as the next
//!      │ t₀ │ t₁ │ t₂ │   tile row r                row's lo strips
//!      └────┴────┴────┘
//!   row r    ─ SA_lo ──────── SB_lo ──────────   ← swapped from above
//! ```
//!
//! Each strip is filled once (a [`euler_cube::PrefixSum2D::row_clipped`]
//! row slice plus one dual gather through the precomputed index arrays)
//! and serves both the tile row above and below it (the `lo`/`hi` swap),
//! so a `C × R` tiling costs `O(R·C)` unit-stride strip entries instead
//! of `4·(signed sums)·R·C` independent clamped corner reads. Clipping
//! does the boundary case analysis for free: a boundary at grid line 0
//! yields Euler columns `−2`/`−1` whose gathers land on the zero guard
//! column, and a boundary at `n` clamps onto the last prefix column so
//! edge-difference terms vanish — exactly reproducing the `q.x0 > 0`-style
//! guards of the per-tile estimators, bit for bit.
//!
//! The kernels serve [`crate::SEulerApprox`], [`crate::EulerApprox`] and
//! [`crate::MEulerApprox`] via their `estimate_tiling` overrides;
//! [`crate::ExactContains2D`] has its own 4-D analogue built on
//! [`euler_cube::PrefixSumNd::axis_offset_clipped`]. All overrides are
//! bit-identical to the default per-tile loop — a law the conformance
//! suite enforces.

use euler_cube::kernels;
use euler_cube::{CubeBuffer, CubeTier};
use euler_grid::Tiling;

use crate::source::s_euler_finish;
use crate::{FrozenEulerHistogram, RegionSplit, RelationCounts};

/// The precomputed corner lattice of a [`Tiling`]: tile-boundary grid
/// lines on both axes and, per vertical boundary, the pair of internal
/// cube column indices every estimator quantity gathers. Build one per
/// tiling and evaluate any number of histograms against it.
#[derive(Debug, Clone)]
pub struct TilingPlan {
    tiling: Tiling,
    /// `cols + 1` vertical tile-boundary grid lines; `xs[c]` is the left
    /// edge of tile column `c`, `xs[cols]` the region's right edge.
    xs: Vec<usize>,
    /// `rows + 1` horizontal tile-boundary grid lines.
    ys: Vec<usize>,
    /// Internal cube index of Euler column `2·xs[k] − 2` (inside/open
    /// corners): `max(2·xs[k] − 1, 0)` — the low clamp resolved once, 0
    /// being the cube's zero guard column.
    ia: Vec<usize>,
    /// Internal cube index of Euler column `2·xs[k] − 1` (closed
    /// corners): `2·xs[k]`. The final entry can exceed the cube width by
    /// one when the region touches the grid's right edge; strip fills
    /// clamp it (losslessly) against the concrete cube.
    ib: Vec<usize>,
    /// Distance between consecutive interior boundary columns in internal
    /// cube indices: `2·(region.width() / cols)`. Together with
    /// `affine_from` this certifies the affine structure of the lattice —
    /// `ia[k] = ia[affine_from] + (k − affine_from)·stride` and `ib[k] =
    /// ia[k] + 1` for `affine_from ≤ k < cols` — which lets strip fills
    /// run as strided pair copies instead of index-array gathers.
    stride: usize,
    /// First index of the affine run: 0, or 1 when the region's left edge
    /// sits on grid line 0 (whose open corner clamps onto the zero guard
    /// column, breaking `ib = ia + 1`).
    affine_from: usize,
}

impl TilingPlan {
    /// Precomputes the corner lattice for a tiling.
    pub fn new(t: &Tiling) -> TilingPlan {
        let region = t.region();
        let (cols, rows) = (t.cols(), t.rows());
        let w = region.width() / cols;
        let h = region.height() / rows;
        let mut xs = Vec::with_capacity(cols + 1);
        for c in 0..cols {
            xs.push(region.x0 + c * w);
        }
        xs.push(region.x1);
        let mut ys = Vec::with_capacity(rows + 1);
        for r in 0..rows {
            ys.push(region.y0 + r * h);
        }
        ys.push(region.y1);
        let ia = xs.iter().map(|&x| (2 * x).saturating_sub(1)).collect();
        let ib = xs.iter().map(|&x| 2 * x).collect();
        TilingPlan {
            tiling: *t,
            xs,
            ys,
            ia,
            ib,
            stride: 2 * w,
            affine_from: usize::from(region.x0 == 0),
        }
    }

    /// The tiling this plan was built for.
    #[inline]
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// Number of tile columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.tiling.cols()
    }

    /// Number of tile rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.tiling.rows()
    }

    /// Total number of tiles.
    #[inline]
    pub fn len(&self) -> usize {
        self.tiling.len()
    }

    /// Always false — tilings are validated nonempty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `cols + 1` vertical tile-boundary grid lines (`xs[c]` /
    /// `xs[c + 1]` are tile column `c`'s edges).
    #[inline]
    pub fn x_bounds(&self) -> &[usize] {
        &self.xs
    }

    /// The `rows + 1` horizontal tile-boundary grid lines.
    #[inline]
    pub fn y_bounds(&self) -> &[usize] {
        &self.ys
    }

    /// Euler row `2·ys[k] − 2` (inside/open corners) of boundary `k`.
    #[inline]
    pub(crate) fn row_a(&self, k: usize) -> i64 {
        2 * self.ys[k] as i64 - 2
    }

    /// Euler row `2·ys[k] − 1` (closed corners) of boundary `k`.
    #[inline]
    pub(crate) fn row_b(&self, k: usize) -> i64 {
        2 * self.ys[k] as i64 - 1
    }
}

thread_local! {
    /// Per-thread scratch pool for the sweep cores. Browsing workloads
    /// answer tiling after tiling back to back, so the strip/row buffer
    /// (a few KiB) is allocated once per thread instead of once per
    /// sweep; on dense tilings the allocation and zero-fill would
    /// otherwise be a measurable slice of the whole sweep.
    static SWEEP_SCRATCH: std::cell::RefCell<Vec<i64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Borrows the thread's sweep scratch, grown to at least `need` entries.
/// Contents beyond first use are unspecified — every sweep fully writes
/// the strip and row regions before reading them. Hand the buffer back
/// with [`put_scratch`] so the next sweep on this thread skips the
/// allocation entirely.
fn take_scratch(need: usize) -> Vec<i64> {
    let mut buf = SWEEP_SCRATCH.take();
    if buf.len() < need {
        buf.resize(need, 0);
    }
    buf
}

/// Returns a buffer from [`take_scratch`] to the thread's pool.
fn put_scratch(buf: Vec<i64>) {
    SWEEP_SCRATCH.set(buf);
}

/// One structure-of-arrays corner strip: per vertical boundary `k` the
/// clipped prefixes `a[k] = P(2·xs[k] − 2, er)` (open corner) and
/// `b[k] = P(2·xs[k] − 1, er)` (closed corner), plus the full-width
/// prefix `last = P(ew − 1, er)`. Splitting the pairs into two arrays is
/// what makes every per-row combine unit-stride. The arrays borrow from
/// the sweep's single pooled scratch buffer — a plan evaluation costs
/// one heap allocation (the output) regardless of shape, which keeps
/// small tilings from being dominated by allocator traffic.
struct CornerStrip<'s> {
    a: &'s mut [i64],
    b: &'s mut [i64],
    last: i64,
}

impl CornerStrip<'_> {
    /// Materializes the strip at Euler row `er`, per cube tier: on the
    /// dense tier one clipped row slice, one dual gather through the
    /// plan's precomputed indices, and a right-edge clamp for the final
    /// boundary pair; on the compressed tier one monotone run walk
    /// (the plan's interleaved indices are non-decreasing, which is
    /// exactly what [`euler_cube::CompressedPrefix2D::gather_row2_clipped`]
    /// needs to fill both arrays in `O(runs + cols)`).
    fn fill(&mut self, plan: &TilingPlan, cum: &CubeTier, er: i64) {
        match cum {
            CubeTier::Dense(cum) => {
                let row = cum.row_clipped(er);
                let w = row.len() - 1;
                let n = plan.ia.len();
                kernels::gather2(
                    row,
                    &plan.ia[..n - 1],
                    &plan.ib[..n - 1],
                    &mut self.a[..n - 1],
                    &mut self.b[..n - 1],
                );
                // Only the region's right edge can reach past the cube
                // width (Euler column 2n − 1 ↦ internal 2n = w + 1);
                // clamping onto the last prefix column is lossless.
                self.a[n - 1] = row[plan.ia[n - 1].min(w)].into();
                self.b[n - 1] = row[plan.ib[n - 1].min(w)].into();
                self.last = row[w].into();
            }
            CubeTier::Compressed(c) => {
                self.last = c.gather_row2_clipped(er, &plan.ia, &plan.ib, self.a, self.b);
            }
        }
    }
}

/// Materializes both strips of a boundary row — the open-corner strip at
/// Euler row `er_a` and the closed-corner strip at `er_b` — in one fused
/// pass: the two rows share the plan's index lattice, so the quad gather
/// reads each index pair once and feeds all four strip arrays.
fn fill_pair(
    sa: &mut CornerStrip,
    sb: &mut CornerStrip,
    plan: &TilingPlan,
    cum: &CubeTier,
    er_a: i64,
    er_b: i64,
) {
    let cum = match cum {
        CubeTier::Dense(cum) => cum,
        CubeTier::Compressed(c) => {
            // The fused quad gather is a dense-layout trick (both rows
            // share one stride); on runs the two rows walk separately.
            sa.last = c.gather_row2_clipped(er_a, &plan.ia, &plan.ib, sa.a, sa.b);
            sb.last = c.gather_row2_clipped(er_b, &plan.ia, &plan.ib, sb.a, sb.b);
            return;
        }
    };
    let row_a = cum.row_clipped(er_a);
    let row_b = cum.row_clipped(er_b);
    let w = row_a.len() - 1;
    let n = plan.ia.len();
    // Entry 0 when the left edge clamps onto the zero guard column: the
    // only interior boundary outside the plan's affine run.
    let f = plan.affine_from.min(n - 1);
    if f > 0 {
        sa.a[0] = row_a[plan.ia[0]].into();
        sa.b[0] = row_a[plan.ib[0]].into();
        sb.a[0] = row_b[plan.ia[0]].into();
        sb.b[0] = row_b[plan.ib[0]].into();
    }
    kernels::gather_pairs2(
        row_a,
        row_b,
        plan.ia[f],
        plan.stride,
        &mut sa.a[f..n - 1],
        &mut sa.b[f..n - 1],
        &mut sb.a[f..n - 1],
        &mut sb.b[f..n - 1],
    );
    sa.a[n - 1] = row_a[plan.ia[n - 1].min(w)].into();
    sa.b[n - 1] = row_a[plan.ib[n - 1].min(w)].into();
    sb.a[n - 1] = row_b[plan.ia[n - 1].min(w)].into();
    sb.b[n - 1] = row_b[plan.ib[n - 1].min(w)].into();
    sa.last = row_a[w].into();
    sb.last = row_b[w].into();
}

/// The per-tile signed sums every Euler estimator consumes: the inside
/// sum (`n_ii`), the closed sum (`total − n'_ei`), and — when requested —
/// the doubled Region A/B proxy of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileSums {
    pub n_ii: i64,
    pub closed: i64,
    pub proxy_x2: i64,
}

/// The row-major sweep core: fills corner
/// strips once per boundary row and hands the callback one whole tile
/// row at a time as unit-stride slices (`n_ii`, `closed`, `proxy_x2` —
/// the last is all zeros unless a proxy was requested).
fn sweep_rows(
    hist: &FrozenEulerHistogram,
    plan: &TilingPlan,
    proxy: Option<RegionSplit>,
    mut emit: impl FnMut(&[i64], &[i64], &[i64]),
) {
    let cum = hist.cum();
    let (cols, rows) = (plan.cols(), plan.rows());
    let (nx, ny) = (hist.grid().nx(), hist.grid().ny());
    let (need_y, need_x) = match proxy {
        None => (false, false),
        Some(RegionSplit::YBandSides) => (true, false),
        Some(RegionSplit::XBandSides) => (false, true),
        Some(RegionSplit::Average) => (true, true),
    };

    // Region B slabs are shared by every tile in a row (resp. column):
    // O(rows + cols) closed sums total, versus one per tile in the
    // per-tile loop.
    let ys = plan.y_bounds();
    let xs = plan.x_bounds();
    let (mut slab_above, mut slab_below) = (Vec::new(), Vec::new());
    if need_y {
        slab_above = ys
            .iter()
            .map(|&y| {
                if y < ny {
                    hist.closed_sum(0, y, nx, ny)
                } else {
                    0
                }
            })
            .collect();
        slab_below = ys
            .iter()
            .map(|&y| {
                if y > 0 {
                    hist.closed_sum(0, 0, nx, y)
                } else {
                    0
                }
            })
            .collect();
    }

    let bounds = cols + 1;
    // One scratch buffer for the whole sweep — reused across calls via
    // the thread-local pool — carved into eight strip arrays plus five
    // row buffers by `split_at_mut`.
    let mut scratch_buf = take_scratch(8 * bounds + 5 * cols);
    let scratch = &mut scratch_buf[..8 * bounds + 5 * cols];
    let (strip_buf, row_buf) = scratch.split_at_mut(8 * bounds);
    let (s0, strip_buf) = strip_buf.split_at_mut(bounds);
    let (s1, strip_buf) = strip_buf.split_at_mut(bounds);
    let (s2, strip_buf) = strip_buf.split_at_mut(bounds);
    let (s3, strip_buf) = strip_buf.split_at_mut(bounds);
    let (s4, strip_buf) = strip_buf.split_at_mut(bounds);
    let (s5, strip_buf) = strip_buf.split_at_mut(bounds);
    let (s6, s7) = strip_buf.split_at_mut(bounds);
    let mut sa_lo = CornerStrip {
        a: s0,
        b: s1,
        last: 0,
    };
    let mut sb_lo = CornerStrip {
        a: s2,
        b: s3,
        last: 0,
    };
    let mut sa_hi = CornerStrip {
        a: s4,
        b: s5,
        last: 0,
    };
    let mut sb_hi = CornerStrip {
        a: s6,
        b: s7,
        last: 0,
    };
    let (n_ii_row, row_buf) = row_buf.split_at_mut(cols);
    let (closed_row, row_buf) = row_buf.split_at_mut(cols);
    let (proxy_y_row, row_buf) = row_buf.split_at_mut(cols);
    let (proxy_x_row, proxy_row) = row_buf.split_at_mut(cols);
    if proxy.is_none() {
        // The pooled scratch carries stale values from earlier sweeps;
        // the proxy-free emit path still hands `proxy_row` out, so it
        // must read as zeros.
        proxy_row.fill(0);
    }
    // The x-band proxy's row-independent half: the top strip (highest
    // Euler row) and the per-column Region B slabs, folded into one
    // addend array — `xadd[c] = A_top's top term + B_left + B_right`.
    // `sa_hi` is free until the main loop starts, so it hosts the top
    // strip while the addend is assembled.
    let mut xadd = Vec::new();
    if need_x {
        sa_hi.fill(plan, cum, cum.height() as i64 - 1);
        let top = &sa_hi;
        xadd = (0..cols)
            .map(|c| {
                let x_lo = xs[c];
                let x_hi = xs[c + 1];
                let left = if x_lo > 0 {
                    hist.closed_sum(0, 0, x_lo, ny)
                } else {
                    0
                };
                let right = if x_hi < nx {
                    hist.closed_sum(x_hi, 0, nx, ny)
                } else {
                    0
                };
                top.a[c + 1] - top.b[c] + left + right
            })
            .collect();
    }

    fill_pair(
        &mut sa_lo,
        &mut sb_lo,
        plan,
        cum,
        plan.row_a(0),
        plan.row_b(0),
    );

    for r in 0..rows {
        fill_pair(
            &mut sa_hi,
            &mut sb_hi,
            plan,
            cum,
            plan.row_a(r + 1),
            plan.row_b(r + 1),
        );
        // inside_sum over each tile (four corners across two strips) and
        // closed_sum (the complementary corner pairs), in one fused pass.
        kernels::strip_combine2(
            sa_hi.a, sa_hi.b, sb_lo.a, sb_lo.b, sb_hi.b, sb_hi.a, sa_lo.b, sa_lo.a, n_ii_row,
            closed_row,
        );
        if need_y {
            // A left/right side slabs in the tile's y-band; the per-row
            // constant carries the full-width terms and Region B slabs.
            let k = sa_hi.last - sb_lo.last + slab_above[r + 1] + slab_below[r];
            kernels::strip_combine_k(sb_lo.b, sb_lo.a, sa_hi.b, sa_hi.a, k, proxy_y_row);
        }
        if need_x {
            kernels::strip_combine_add(sa_lo.a, sa_lo.b, sb_hi.a, sb_hi.b, &xadd, proxy_x_row);
        }
        let proxy_slice: &[i64] = match proxy {
            None => proxy_row,
            Some(RegionSplit::YBandSides) => {
                for c in 0..cols {
                    proxy_row[c] = 2 * proxy_y_row[c];
                }
                proxy_row
            }
            Some(RegionSplit::XBandSides) => {
                for c in 0..cols {
                    proxy_row[c] = 2 * proxy_x_row[c];
                }
                proxy_row
            }
            Some(RegionSplit::Average) => {
                for c in 0..cols {
                    proxy_row[c] = proxy_y_row[c] + proxy_x_row[c];
                }
                proxy_row
            }
        };
        emit(n_ii_row, closed_row, proxy_slice);
        // The hi strips of this row are the lo strips of the next: reuse
        // instead of refilling.
        std::mem::swap(&mut sa_lo, &mut sa_hi);
        std::mem::swap(&mut sb_lo, &mut sb_hi);
    }
    put_scratch(scratch_buf);
}

/// The sweep kernel: one row-major pass over the frozen histogram's
/// prefix cube emitting [`TileSums`] for every tile of the plan, in the
/// tiling's row-major order. `proxy` selects which Region A/B orientation
/// (if any) to evaluate alongside; `None` skips the proxy work entirely.
pub(crate) fn sweep_tile_sums(
    hist: &FrozenEulerHistogram,
    plan: &TilingPlan,
    proxy: Option<RegionSplit>,
) -> Vec<TileSums> {
    let mut out = Vec::with_capacity(plan.len());
    sweep_rows(hist, plan, proxy, |n_ii, closed, proxy_x2| {
        out.extend(
            n_ii.iter()
                .zip(closed)
                .zip(proxy_x2)
                .map(|((&n_ii, &closed), &proxy_x2)| TileSums {
                    n_ii,
                    closed,
                    proxy_x2,
                }),
        );
    });
    out
}

/// A live delta scattered over a plan's tile grid: per tile, the delta's
/// share of the inside (`n_ii`) and closed window sums, one `cols × rows`
/// array each.
pub(crate) struct DeltaScatter {
    pub inside: CubeBuffer,
    pub closed: CubeBuffer,
}

/// S-EulerApprox (Equations 14–17) over every tile of a plan, plus the
/// element-wise total across all tiles, for `size` objects whose buckets
/// sum to `total`. This is the browse hot path of both the frozen and
/// the live estimator, so it gets its own proxy-free core: no Region B
/// slabs, no proxy rows, and the relation counts are assembled straight
/// from the four corner strips in a single pass per tile row. A live
/// `delta` adds its scattered row to the frozen window sums before the
/// finish; the inside/closed combines never leave the row buffers, and
/// the batch total is one pass over the output.
pub(crate) fn sweep_s_euler(
    hist: &FrozenEulerHistogram,
    plan: &TilingPlan,
    size: i64,
    total: i64,
    delta: Option<&DeltaScatter>,
) -> (Vec<RelationCounts>, RelationCounts) {
    let cum = hist.cum();
    let (cols, rows) = (plan.cols(), plan.rows());
    let bounds = cols + 1;
    let mut scratch_buf = take_scratch(8 * bounds + 2 * cols);
    let (scratch, rows_buf) = scratch_buf[..8 * bounds + 2 * cols].split_at_mut(8 * bounds);
    let (n_ii_row, closed_row) = rows_buf.split_at_mut(cols);
    let (s0, rest) = scratch.split_at_mut(bounds);
    let (s1, rest) = rest.split_at_mut(bounds);
    let (s2, rest) = rest.split_at_mut(bounds);
    let (s3, rest) = rest.split_at_mut(bounds);
    let (s4, rest) = rest.split_at_mut(bounds);
    let (s5, rest) = rest.split_at_mut(bounds);
    let (s6, s7) = rest.split_at_mut(bounds);
    let mut sa_lo = CornerStrip {
        a: s0,
        b: s1,
        last: 0,
    };
    let mut sb_lo = CornerStrip {
        a: s2,
        b: s3,
        last: 0,
    };
    let mut sa_hi = CornerStrip {
        a: s4,
        b: s5,
        last: 0,
    };
    let mut sb_hi = CornerStrip {
        a: s6,
        b: s7,
        last: 0,
    };

    fill_pair(
        &mut sa_lo,
        &mut sb_lo,
        plan,
        cum,
        plan.row_a(0),
        plan.row_b(0),
    );

    let mut out = Vec::with_capacity(plan.len());
    for r in 0..rows {
        fill_pair(
            &mut sa_hi,
            &mut sb_hi,
            plan,
            cum,
            plan.row_a(r + 1),
            plan.row_b(r + 1),
        );
        // Per tile `c`: `n_ii = SA_hi.a[c+1] − SA_hi.b[c] − SB_lo.a[c+1]
        // + SB_lo.b[c]` and `closed = SB_hi.b[c+1] − SB_hi.a[c] −
        // SA_lo.b[c+1] + SA_lo.a[c]`: one fused `strip_combine2` pass
        // writes both rows. The row totals are
        // separate vectorized slice sums and the emission is a pure map —
        // keeping loop-carried accumulators out of every per-tile loop is
        // what lets all three stages vectorize (measured ~25% faster than
        // fusing the sums into either neighboring loop).
        kernels::strip_combine2(
            sa_hi.a, sa_hi.b, sb_lo.a, sb_lo.b, sb_hi.b, sb_hi.a, sa_lo.b, sa_lo.a, n_ii_row,
            closed_row,
        );
        if let Some(d) = delta {
            for (s, &v) in n_ii_row.iter_mut().zip(d.inside.row(r)) {
                *s += i64::from(v);
            }
            for (s, &v) in closed_row.iter_mut().zip(d.closed.row(r)) {
                *s += i64::from(v);
            }
        }
        out.extend(
            n_ii_row
                .iter()
                .zip(closed_row.iter())
                .map(|(&n_ii, &closed)| s_euler_finish(size, total, n_ii, closed)),
        );
        std::mem::swap(&mut sa_lo, &mut sa_hi);
        std::mem::swap(&mut sb_lo, &mut sb_hi);
    }
    put_scratch(scratch_buf);
    // The grand total is one pass over the output: `RelationCounts` is
    // four contiguous `i64`s, so four independent field accumulators
    // vectorize to a single 4-lane running sum with no horizontal step —
    // cheaper than per-row reductions, whose loop prologues dominate at
    // browse-tile widths.
    let mut grand = RelationCounts::default();
    for c in &out {
        grand.disjoint += c.disjoint;
        grand.contains += c.contains;
        grand.contained += c.contained;
        grand.overlaps += c.overlaps;
    }
    (out, grand)
}

/// EulerApprox (Equations 18–22) over every tile of a plan, fused like
/// [`sweep_s_euler`].
pub(crate) fn sweep_euler_approx(
    hist: &FrozenEulerHistogram,
    plan: &TilingPlan,
    split: RegionSplit,
) -> Vec<RelationCounts> {
    let size = hist.object_count() as i64;
    let total = hist.total();
    let mut out = Vec::with_capacity(plan.len());
    sweep_rows(hist, plan, Some(split), |n_ii, closed, proxy_x2| {
        out.extend(
            n_ii.iter()
                .zip(closed)
                .zip(proxy_x2)
                .map(|((&n_ii, &closed), &proxy_x2)| {
                    let n_ei_prime = total - closed;
                    let disjoint = size - n_ii;
                    let overlaps = n_ei_prime - disjoint;
                    let contained = (proxy_x2 - 2 * n_ei_prime).div_euclid(2);
                    let contains = size - contained - disjoint - overlaps;
                    RelationCounts {
                        disjoint,
                        contains,
                        contained,
                        overlaps,
                    }
                }),
        );
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler_approx::n_ei_proxy_x2;
    use crate::{
        EulerApprox, EulerHistogram, ExactContains2D, Level2Estimator, LiveEulerHistogram,
        LiveSEuler, MEulerApprox, SEulerApprox,
    };
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Grid, GridRect, SnappedRect, Snapper};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid(nx: usize, ny: usize) -> Grid {
        Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
            nx,
            ny,
        )
        .unwrap()
    }

    fn random_objects(g: &Grid, n: usize, seed: u64) -> Vec<SnappedRect> {
        let s = Snapper::new(*g);
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (g.nx() as f64, g.ny() as f64);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0..w - 0.1);
                let y = rng.gen_range(0.0..h - 0.1);
                let ow = rng.gen_range(0.05..w);
                let oh = rng.gen_range(0.05..h);
                s.snap(&Rect::new(x, y, (x + ow).min(w), (y + oh).min(h)).unwrap())
            })
            .collect()
    }

    /// Tilings that exercise every boundary case: full space, single
    /// tile, per-cell tiles, uneven remainders, and interior sub-regions.
    fn tilings(g: &Grid) -> Vec<Tiling> {
        vec![
            Tiling::new(g.full(), 1, 1).unwrap(),
            Tiling::new(g.full(), 4, 4).unwrap(),
            Tiling::new(g.full(), g.nx(), g.ny()).unwrap(),
            Tiling::new(g.full(), 3, 5).unwrap(),
            Tiling::new(GridRect::unchecked(2, 3, 13, 11), 4, 3).unwrap(),
            Tiling::new(GridRect::unchecked(1, 1, 16, 12), 5, 11).unwrap(),
        ]
    }

    #[test]
    fn plan_boundaries_match_tile_corners() {
        let g = grid(16, 12);
        for t in tilings(&g) {
            let plan = TilingPlan::new(&t);
            assert_eq!(plan.len(), t.len());
            for ((c, r), tile) in t.iter() {
                assert_eq!(plan.x_bounds()[c], tile.x0, "{t:?} col {c}");
                assert_eq!(plan.x_bounds()[c + 1], tile.x1, "{t:?} col {c}");
                assert_eq!(plan.y_bounds()[r], tile.y0, "{t:?} row {r}");
                assert_eq!(plan.y_bounds()[r + 1], tile.y1, "{t:?} row {r}");
            }
        }
    }

    #[test]
    fn tile_sums_match_direct_prefix_queries() {
        let g = grid(16, 12);
        let hist = EulerHistogram::build(g, random_objects(&g, 120, 7)).freeze();
        for t in tilings(&g) {
            let plan = TilingPlan::new(&t);
            for proxy in [
                None,
                Some(RegionSplit::YBandSides),
                Some(RegionSplit::XBandSides),
                Some(RegionSplit::Average),
            ] {
                let sums = sweep_tile_sums(&hist, &plan, proxy);
                for (((_, _), tile), ts) in t.iter().zip(&sums) {
                    assert_eq!(
                        ts.n_ii,
                        hist.inside_sum(tile.x0, tile.y0, tile.x1, tile.y1),
                        "n_ii at {tile} of {t:?}"
                    );
                    assert_eq!(
                        ts.closed,
                        hist.closed_sum(tile.x0, tile.y0, tile.x1, tile.y1),
                        "closed at {tile} of {t:?}"
                    );
                    if let Some(split) = proxy {
                        assert_eq!(
                            ts.proxy_x2,
                            n_ei_proxy_x2(&hist, &tile, split),
                            "proxy at {tile} of {t:?} under {split:?}"
                        );
                    }
                }
            }
        }
    }

    /// The compressed-tier law at the sweep level: every strip-filled
    /// sweep output on the compressed cube is bit-identical to the dense
    /// cube, for every proxy mode and boundary tiling — including the
    /// run walk's clamped right edge and guard rows.
    #[test]
    fn compressed_tier_sweeps_bit_identically() {
        let g = grid(16, 12);
        let built = EulerHistogram::build(g, random_objects(&g, 140, 23));
        let dense = built.freeze_dense();
        let comp = built.freeze_compressed();
        assert!(comp.is_compressed());
        for t in tilings(&g) {
            let plan = TilingPlan::new(&t);
            for proxy in [
                None,
                Some(RegionSplit::YBandSides),
                Some(RegionSplit::XBandSides),
                Some(RegionSplit::Average),
            ] {
                assert_eq!(
                    sweep_tile_sums(&dense, &plan, proxy),
                    sweep_tile_sums(&comp, &plan, proxy),
                    "{t:?} under {proxy:?}"
                );
            }
            let (size, total) = (dense.object_count() as i64, dense.total());
            assert_eq!(
                sweep_s_euler(&dense, &plan, size, total, None),
                sweep_s_euler(&comp, &plan, size, total, None),
                "{t:?} s-euler"
            );
        }
    }

    /// Ragged tiling shapes: tile-column counts around the gathers'
    /// unroll width (1..=LANES+2) sweep correctly, including
    /// single-column and single-row tilings.
    #[test]
    fn ragged_column_counts_match_loop() {
        use euler_cube::kernels::LANES;
        let g = grid(16, 12);
        let objs = random_objects(&g, 90, 31);
        let hist = EulerHistogram::build(g, &objs).freeze();
        let est = SEulerApprox::new(hist);
        for cols in 1..=(LANES + 2) {
            for rows in [1usize, 2, 5] {
                let t = Tiling::new(g.full(), cols, rows).unwrap();
                assert_sweep_equals_loop(&est, &t);
            }
        }
    }

    /// The structural law of this PR: every sweep-capable estimator's
    /// `estimate_tiling` is bit-identical to the default per-tile loop.
    fn assert_sweep_equals_loop<E: Level2Estimator>(est: &E, t: &Tiling) {
        let swept = est.estimate_tiling(t);
        let looped: Vec<_> = t.iter().map(|(_, tile)| est.estimate(&tile)).collect();
        assert_eq!(swept, looped, "{} on {t:?}", est.name());
    }

    /// The fused batch total equals folding the per-tile counts — for
    /// the frozen sweep and the live sweep over a nonempty delta alike.
    #[test]
    fn tiling_total_equals_folded_counts() {
        let g = grid(16, 12);
        let objs = random_objects(&g, 130, 17);
        let hist = EulerHistogram::build(g, &objs).freeze();
        let live = LiveEulerHistogram::with_config(g, 8, None);
        for o in &objs[..80] {
            live.insert(o);
        }
        live.refreeze();
        for o in &objs[80..] {
            live.insert(o);
        }
        for o in &objs[..20] {
            live.remove(o).unwrap();
        }
        assert_eq!(live.pin().delta_len(), 70);
        let estimators: [&dyn Level2Estimator; 2] =
            [&SEulerApprox::new(hist), &LiveSEuler::new(live.pin())];
        for est in estimators {
            for t in tilings(&g) {
                let (counts, total) = est.estimate_tiling_total(&t);
                assert_eq!(counts, est.estimate_tiling(&t), "{t:?}");
                let folded = counts
                    .iter()
                    .fold(RelationCounts::default(), |acc, c| acc.add(c));
                assert_eq!(total, folded, "{t:?}");
            }
        }
    }

    #[test]
    fn estimators_sweep_equals_per_tile_loop() {
        let g = grid(16, 12);
        let objs = random_objects(&g, 150, 11);
        let hist = EulerHistogram::build(g, &objs).freeze();
        for t in tilings(&g) {
            assert_sweep_equals_loop(&SEulerApprox::new(hist.clone()), &t);
            for split in [
                RegionSplit::YBandSides,
                RegionSplit::XBandSides,
                RegionSplit::Average,
            ] {
                assert_sweep_equals_loop(&EulerApprox::with_split(hist.clone(), split), &t);
                assert_sweep_equals_loop(
                    &MEulerApprox::build_with_split(g, &objs, &[9.0, 100.0], split),
                    &t,
                );
            }
            assert_sweep_equals_loop(&ExactContains2D::build(&g, &objs), &t);
        }
    }

    #[test]
    fn empty_dataset_sweeps_to_zero_counts() {
        let g = grid(10, 8);
        let hist = EulerHistogram::new(g).freeze();
        let t = Tiling::new(g.full(), 5, 4).unwrap();
        for c in SEulerApprox::new(hist).estimate_tiling(&t) {
            assert_eq!(c, RelationCounts::default());
        }
    }

    proptest! {
        /// Sweep/loop agreement holds for arbitrary datasets and tiling
        /// shapes, including sub-region tilings with uneven remainders.
        #[test]
        fn sweep_equals_loop_on_random_tilings(
            seed in 0u64..12,
            n_objs in 0usize..80,
            rx0 in 0usize..8, ry0 in 0usize..6,
            rw in 2usize..16, rh in 2usize..12,
            cols in 1usize..7, rows in 1usize..7,
        ) {
            let g = grid(16, 12);
            let objs = random_objects(&g, n_objs, seed);
            let region = GridRect::unchecked(
                rx0, ry0, (rx0 + rw).min(16), (ry0 + rh).min(12));
            let t = Tiling::new(
                region,
                cols.min(region.width()),
                rows.min(region.height()),
            ).unwrap();
            let hist = EulerHistogram::build(g, &objs).freeze();

            let s = SEulerApprox::new(hist.clone());
            prop_assert_eq!(
                s.estimate_tiling(&t),
                t.iter().map(|(_, q)| s.estimate(&q)).collect::<Vec<_>>());

            let e = EulerApprox::with_split(hist.clone(), RegionSplit::Average);
            prop_assert_eq!(
                e.estimate_tiling(&t),
                t.iter().map(|(_, q)| e.estimate(&q)).collect::<Vec<_>>());

            let m = MEulerApprox::build(g, &objs, &[9.0, 100.0]);
            prop_assert_eq!(
                m.estimate_tiling(&t),
                t.iter().map(|(_, q)| m.estimate(&q)).collect::<Vec<_>>());

            let x = ExactContains2D::build(&g, &objs);
            prop_assert_eq!(
                x.estimate_tiling(&t),
                t.iter().map(|(_, q)| x.estimate(&q)).collect::<Vec<_>>());
        }
    }
}
