use std::collections::HashMap;

use crate::{narrow_bounded, Cell, CubeBuffer, PrefixSum2D};

/// One parity-pair run: starting at internal index `start`, the row
/// value at internal index `i` is `v[i & 1]` until the next run begins.
type Run = (u32, [Cell; 2]);

/// Bytes a run costs in the pooled arrays (`starts` entry + `vals`
/// entry).
const RUN_BYTES: usize = 4 + 2 * std::mem::size_of::<Cell>();

/// A run-length–compressed twin of [`PrefixSum2D`] — same prefix values,
/// a fraction of the bytes on sparse or banded data.
///
/// # Why prefix rows compress
///
/// A row of the prefix cube, `P(·, y)`, is the column-wise accumulation
/// of every bucket at or below `y`. For Euler histograms the buckets are
/// signed `±1` patterns over object rectangles, so each object that has
/// *started* by row `y` contributes an alternating `+1/−1` column
/// pattern over its x-extent whose running sum is `1, 0, 1, 0, …` — a
/// function that is **constant on each column-parity class** between
/// object x-edges. `P(·, y)` restricted to even (resp. odd) internal
/// columns is therefore piecewise constant, breaking only at the
/// distinct x-edge columns of started objects. Encoding the row as
/// *parity-pair runs* `(start, [even_value, odd_value])` captures both
/// classes in one directory, and a row with `r` distinct breaks costs
/// `O(r)` instead of `O(width)`.
///
/// Rows themselves repeat: `P(·, y) = P(·, y − 1)` whenever row `y` of
/// the underlying array is all zero (no object y-edge crosses it), so a
/// per-row directory into **deduplicated** encoded rows collapses every
/// horizontal band between object edges to 4 bytes.
///
/// # Contract
///
/// Values are [`Cell`]s, as in the dense cube, widened on every read.
/// Every query entry point is bit-identical to its [`PrefixSum2D`]
/// counterpart: same clip semantics (`clamp(v, −1, dim − 1) + 1` onto a
/// zero guard plane), same emptiness test in
/// [`Self::range_sum_clipped`], same four-corner algebra (without
/// emptiness tests) in [`Self::signed_sum4`] and
/// [`Self::range_sum_pair`]. The conformance crate holds this as the
/// compressed-tier law.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedPrefix2D {
    width: usize,
    height: usize,
    /// Internal row `iy` (0 = guard) → id of its unique encoded row.
    row_dir: Vec<u32>,
    /// Unique row `u` owns runs `starts[offsets[u]..offsets[u + 1]]`
    /// (and the matching `vals` range).
    offsets: Vec<u32>,
    /// Run start positions, in internal (guard-led) index space.
    starts: Vec<u32>,
    /// Parity-pair values per run: value at internal `i` is `v[i & 1]`.
    vals: Vec<[Cell; 2]>,
}

impl CompressedPrefix2D {
    /// Builds the compressed cube of a cell array, accumulating each
    /// prefix row on the fly — no dense cube is allocated. Never fails;
    /// on incompressible data the result is simply *larger* than the
    /// dense cube — use [`Self::from_cells_capped`] when a budget
    /// applies.
    pub fn from_cells(a: &CubeBuffer) -> CompressedPrefix2D {
        Self::from_cells_capped(a, usize::MAX).expect("uncapped build cannot abort")
    }

    /// [`Self::from_cells`], aborting with `None` as soon as the encoded
    /// size exceeds `max_bytes` — the tier-selection heuristic passes a
    /// fraction of the projected dense footprint here so an
    /// incompressible build stops early instead of ballooning.
    pub fn from_cells_capped(a: &CubeBuffer, max_bytes: usize) -> Option<CompressedPrefix2D> {
        Self::encode(a.width(), a.height(), max_bytes, |iy, acc| {
            let mut row_acc = 0i64;
            for (p, &v) in acc[1..].iter_mut().zip(a.row(iy - 1)) {
                row_acc += i64::from(v);
                *p = narrow_bounded(i64::from(*p) + row_acc);
            }
        })
    }

    /// The compressed twin of an already-built dense cube, read row by
    /// row; `None` once the encoding exceeds `max_bytes`. Equal to
    /// [`Self::from_cells_capped`] on the cells the cube sums.
    pub fn from_prefix_capped(p: &PrefixSum2D, max_bytes: usize) -> Option<CompressedPrefix2D> {
        Self::encode(p.width(), p.height(), max_bytes, |iy, acc| {
            acc.copy_from_slice(p.internal_row(iy));
        })
    }

    /// The shared encoder: `next_row(iy, acc)` turns `acc` from internal
    /// prefix row `iy − 1` into row `iy` (`acc[i] = P(i − 1, iy − 1)`,
    /// `acc[0]` the guard 0), for `iy = 1..=height`.
    fn encode(
        w: usize,
        h: usize,
        max_bytes: usize,
        mut next_row: impl FnMut(usize, &mut [Cell]),
    ) -> Option<CompressedPrefix2D> {
        let mut row_dir = Vec::with_capacity(h + 1);
        let mut offsets: Vec<u32> = vec![0];
        let mut starts: Vec<u32> = Vec::new();
        let mut vals: Vec<[Cell; 2]> = Vec::new();
        let mut seen: HashMap<Box<[Run]>, u32> = HashMap::new();

        let mut acc: Vec<Cell> = vec![0; w + 1];
        let mut encoded: Vec<Run> = Vec::new();
        let mut run_bytes = 0usize;

        // The guard row (all zeros) is always unique row 0; a dedicated
        // encode of `acc` (still zeroed) keeps the encoder the single
        // source of truth for the run shape.
        for iy in 0..=h {
            if iy > 0 {
                next_row(iy, &mut acc);
            }
            encode_parity_runs(&acc, &mut encoded);
            let next_id = offsets.len() as u32 - 1;
            let id = match seen.get(&encoded[..]) {
                Some(&id) => id,
                None => {
                    starts.extend(encoded.iter().map(|r| r.0));
                    vals.extend(encoded.iter().map(|r| r.1));
                    offsets.push(starts.len() as u32);
                    run_bytes += encoded.len() * RUN_BYTES;
                    seen.insert(encoded.clone().into_boxed_slice(), next_id);
                    next_id
                }
            };
            row_dir.push(id);
            let bytes = 4 * row_dir.len() + 4 * offsets.len() + run_bytes;
            if bytes > max_bytes {
                return None;
            }
        }
        Some(CompressedPrefix2D {
            width: w,
            height: h,
            row_dir,
            offsets,
            starts,
            vals,
        })
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

    /// Number of unique (deduplicated) encoded rows.
    pub fn unique_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total runs across unique rows.
    pub fn run_count(&self) -> usize {
        self.starts.len()
    }

    /// Same branch-free clip as the dense cube: internal index of a
    /// clipped signed coordinate, 0 selecting the guard plane.
    #[inline(always)]
    fn clip(v: i64, dim: usize) -> usize {
        (v.min(dim as i64 - 1) + 1).max(0) as usize
    }

    /// Prefix value at *internal* (guard-shifted) coordinates.
    #[inline]
    fn at(&self, ix: usize, iy: usize) -> i64 {
        debug_assert!(ix <= self.width && iy <= self.height);
        let row = self.row_dir[iy] as usize;
        let lo = self.offsets[row] as usize;
        let hi = self.offsets[row + 1] as usize;
        let runs = &self.starts[lo..hi];
        // Last run with start ≤ ix; runs always begin with start 0.
        let idx = runs.partition_point(|&s| s as usize <= ix) - 1;
        i64::from(self.vals[lo + idx][ix & 1])
    }

    /// Cumulative sum at clipped signed coordinates — bit-identical to
    /// [`PrefixSum2D::prefix_clipped`].
    #[inline]
    pub fn prefix_clipped(&self, x: i64, y: i64) -> i64 {
        self.at(Self::clip(x, self.width), Self::clip(y, self.height))
    }

    /// Sum over a clipped signed index rectangle — bit-identical to
    /// [`PrefixSum2D::range_sum_clipped`], including the emptiness test
    /// for windows that invert.
    #[inline]
    pub fn range_sum_clipped(&self, x0: i64, y0: i64, x1: i64, y1: i64) -> i64 {
        let lo_x = Self::clip(x0 - 1, self.width);
        let hi_x = Self::clip(x1, self.width);
        let lo_y = Self::clip(y0 - 1, self.height);
        let hi_y = Self::clip(y1, self.height);
        if lo_x >= hi_x || lo_y >= hi_y {
            return 0;
        }
        self.at(hi_x, hi_y) - self.at(lo_x, hi_y) - self.at(hi_x, lo_y) + self.at(lo_x, lo_y)
    }

    /// Four clipped window sums, one per lane — bit-identical to
    /// [`PrefixSum2D::signed_sum4`] (the pure four-corner combination
    /// with no emptiness tests; callers pass ordered windows).
    #[inline]
    pub fn signed_sum4(&self, x0: [i64; 4], y0: [i64; 4], x1: [i64; 4], y1: [i64; 4]) -> [i64; 4] {
        let mut out = [0i64; 4];
        for l in 0..4 {
            let lo_x = Self::clip(x0[l] - 1, self.width);
            let hi_x = Self::clip(x1[l], self.width);
            let lo_y = Self::clip(y0[l] - 1, self.height);
            let hi_y = Self::clip(y1[l], self.height);
            out[l] = self.at(hi_x, hi_y) - self.at(lo_x, hi_y) - self.at(hi_x, lo_y)
                + self.at(lo_x, lo_y);
        }
        out
    }

    /// Two ordered clipped window sums — bit-identical to
    /// [`PrefixSum2D::range_sum_pair`].
    #[inline]
    pub fn range_sum_pair(&self, a: (i64, i64, i64, i64), b: (i64, i64, i64, i64)) -> (i64, i64) {
        debug_assert!(a.0 <= a.2 && a.1 <= a.3 && b.0 <= b.2 && b.1 <= b.3);
        let (w, h) = (self.width, self.height);
        let (hx_a, lx_a) = (Self::clip(a.2, w), Self::clip(a.0 - 1, w));
        let (hx_b, lx_b) = (Self::clip(b.2, w), Self::clip(b.0 - 1, w));
        let (hy_a, ly_a) = (Self::clip(a.3, h), Self::clip(a.1 - 1, h));
        let (hy_b, ly_b) = (Self::clip(b.3, h), Self::clip(b.1 - 1, h));
        (
            self.at(hx_a, hy_a) - self.at(lx_a, hy_a) - self.at(hx_a, ly_a) + self.at(lx_a, ly_a),
            self.at(hx_b, hy_b) - self.at(lx_b, hy_b) - self.at(hx_b, ly_b) + self.at(lx_b, ly_b),
        )
    }

    /// Gathers two clipped column sets out of the row at clipped signed
    /// coordinate `y`, widened — the compressed twin of
    /// [`PrefixSum2D::row_clipped`] + `gather2`, and the strip-fill
    /// primitive of the sweep evaluator on this tier.
    ///
    /// `ia`/`ib` are **internal** (guard-led) indices whose interleaving
    /// `ia[0], ib[0], ia[1], ib[1], …` must be non-decreasing — exactly
    /// the shape the sweep plan produces (`ia[k] = max(2·xsₖ − 1, 0)`,
    /// `ib[k] = 2·xsₖ` over increasing column cuts). One monotone walk
    /// over the row's runs then fills both outputs in
    /// `O(runs + columns)` instead of decoding the full `O(width)` row.
    /// Entries past the row end clamp onto the last column. Returns the
    /// row's final value (internal index `width`).
    pub fn gather_row2_clipped(
        &self,
        y: i64,
        ia: &[usize],
        ib: &[usize],
        out_a: &mut [i64],
        out_b: &mut [i64],
    ) -> i64 {
        assert!(ia.len() == ib.len() && ia.len() == out_a.len() && ia.len() == out_b.len());
        let row = self.row_dir[Self::clip(y, self.height)] as usize;
        let lo = self.offsets[row] as usize;
        let hi = self.offsets[row + 1] as usize;
        let runs_s = &self.starts[lo..hi];
        let runs_v = &self.vals[lo..hi];
        let mut j = 0usize;
        let mut prev = 0usize;
        for k in 0..ia.len() {
            let x = ia[k].min(self.width);
            debug_assert!(x >= prev, "interleaved gather indices must not decrease");
            while j + 1 < runs_s.len() && (runs_s[j + 1] as usize) <= x {
                j += 1;
            }
            out_a[k] = runs_v[j][x & 1].into();
            let x = ib[k].min(self.width);
            debug_assert!(x >= ia[k].min(self.width));
            while j + 1 < runs_s.len() && (runs_s[j + 1] as usize) <= x {
                j += 1;
            }
            out_b[k] = runs_v[j][x & 1].into();
            prev = x;
        }
        runs_v[runs_s.len() - 1][self.width & 1].into()
    }

    /// Sum of the whole array.
    #[inline]
    pub fn total(&self) -> i64 {
        self.at(self.width, self.height)
    }

    /// Writes internal row `iy` (`width + 1` values, guard first) into
    /// `out`.
    fn expand_row(&self, iy: usize, out: &mut [Cell]) {
        let row = self.row_dir[iy] as usize;
        let (lo, hi) = (self.offsets[row] as usize, self.offsets[row + 1] as usize);
        for j in lo..hi {
            let end = if j + 1 < hi {
                self.starts[j + 1] as usize
            } else {
                out.len()
            };
            for (i, o) in out
                .iter_mut()
                .enumerate()
                .take(end)
                .skip(self.starts[j] as usize)
            {
                *o = self.vals[j][i & 1];
            }
        }
    }

    /// The least and greatest stored value (the zero guard included).
    pub fn value_range(&self) -> (i64, i64) {
        let (lo, hi) = crate::min_max(self.vals.as_flattened());
        (lo.into(), hi.into())
    }

    /// Bytes of storage held by the compressed cube.
    pub fn storage_bytes(&self) -> usize {
        self.row_dir.len() * 4
            + self.offsets.len() * 4
            + self.starts.len() * 4
            + self.vals.len() * std::mem::size_of::<[Cell; 2]>()
    }
}

/// Greedy parity-pair encoder: a new run opens whenever the next value
/// disagrees with the current run's value for its parity class. Every
/// run pre-loads both parities from the next two positions, so runs are
/// maximal and the encoding is canonical (equal rows encode equally —
/// the dedup key relies on this).
fn encode_parity_runs(acc: &[Cell], out: &mut Vec<Run>) {
    out.clear();
    let n = acc.len();
    let mut i = 0usize;
    while i < n {
        let mut v: [Cell; 2] = [0; 2];
        v[i & 1] = acc[i];
        v[(i + 1) & 1] = if i + 1 < n { acc[i + 1] } else { acc[i] };
        let mut j = i + 1;
        while j < n && acc[j] == v[j & 1] {
            j += 1;
        }
        out.push((i as u32, v));
        i = j;
    }
}

/// The storage tier behind a frozen Euler histogram's prefix cube:
/// either the dense row-blocked [`PrefixSum2D`] (cache-optimal, `O(grid)`
/// bytes) or the run-compressed [`CompressedPrefix2D`] (sparse/banded
/// data, kilobytes at huge resolutions). Both answer every query
/// bit-identically; `euler-core` picks a tier at freeze/refreeze time by
/// a size heuristic, and the sweep evaluator dispatches its strip fills
/// on the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum CubeTier {
    /// The dense row-blocked cube — every lookup is a pure load.
    Dense(PrefixSum2D),
    /// The run-compressed cube — lookups walk a per-row run directory.
    Compressed(CompressedPrefix2D),
}

impl CubeTier {
    /// Width of the summarized array.
    #[inline]
    pub fn width(&self) -> usize {
        match self {
            CubeTier::Dense(d) => d.width(),
            CubeTier::Compressed(c) => c.width(),
        }
    }

    /// Height of the summarized array.
    #[inline]
    pub fn height(&self) -> usize {
        match self {
            CubeTier::Dense(d) => d.height(),
            CubeTier::Compressed(c) => c.height(),
        }
    }

    /// Clipped prefix lookup; see [`PrefixSum2D::prefix_clipped`].
    #[inline]
    pub fn prefix_clipped(&self, x: i64, y: i64) -> i64 {
        match self {
            CubeTier::Dense(d) => d.prefix_clipped(x, y),
            CubeTier::Compressed(c) => c.prefix_clipped(x, y),
        }
    }

    /// Four clipped window sums in one call; see
    /// [`PrefixSum2D::signed_sum4`].
    #[inline]
    pub fn signed_sum4(&self, x0: [i64; 4], y0: [i64; 4], x1: [i64; 4], y1: [i64; 4]) -> [i64; 4] {
        match self {
            CubeTier::Dense(d) => d.signed_sum4(x0, y0, x1, y1),
            CubeTier::Compressed(c) => c.signed_sum4(x0, y0, x1, y1),
        }
    }

    /// Two ordered clipped window sums; see
    /// [`PrefixSum2D::range_sum_pair`].
    #[inline]
    pub fn range_sum_pair(&self, a: (i64, i64, i64, i64), b: (i64, i64, i64, i64)) -> (i64, i64) {
        match self {
            CubeTier::Dense(d) => d.range_sum_pair(a, b),
            CubeTier::Compressed(c) => c.range_sum_pair(a, b),
        }
    }

    /// Sum of the whole array.
    #[inline]
    pub fn total(&self) -> i64 {
        match self {
            CubeTier::Dense(d) => d.total(),
            CubeTier::Compressed(c) => c.total(),
        }
    }

    /// The least and greatest prefix value the cube stores (the zero
    /// guard included), on either tier.
    pub fn value_range(&self) -> (i64, i64) {
        match self {
            CubeTier::Dense(d) => d.value_range(),
            CubeTier::Compressed(c) => c.value_range(),
        }
    }

    /// Bytes held by the cube on this tier.
    pub fn storage_bytes(&self) -> usize {
        match self {
            CubeTier::Dense(d) => d.storage_bytes(),
            CubeTier::Compressed(c) => c.storage_bytes(),
        }
    }

    /// True on the compressed tier.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        matches!(self, CubeTier::Compressed(_))
    }

    /// Adds this cube's prefix values into `dst`, a dense cube of the
    /// same shape. Prefix sums are linear, so `dst` then summarizes the
    /// cell-wise sum of both arrays. Each sum is taken in `i64` and
    /// narrowed on store.
    ///
    /// Every stored value must fit a [`Cell`]: debug builds panic on one
    /// that does not, release builds store it truncated.
    pub fn add_to(&self, dst: &mut PrefixSum2D) {
        assert_eq!(
            (self.width(), self.height()),
            (dst.width(), dst.height()),
            "cube shapes differ"
        );
        let mut expanded: Vec<Cell> = vec![0; self.width() + 1];
        for iy in 0..=self.height() {
            let row = match self {
                CubeTier::Dense(d) => d.internal_row(iy),
                CubeTier::Compressed(c) => {
                    c.expand_row(iy, &mut expanded);
                    &expanded
                }
            };
            for (d, &v) in dst.internal_row_mut(iy).iter_mut().zip(row) {
                *d = narrow_bounded(i64::from(*d) + i64::from(v));
            }
        }
    }

    /// Calls `f` with each row of the summarized array, `y = 0..height`,
    /// recovered by differencing adjacent prefix rows — how a frozen
    /// histogram is encoded without keeping its cells. The rows are
    /// differenced in `i64` and handed over widened.
    pub fn for_each_cell_row(&self, mut f: impl FnMut(&[i64])) {
        let mut cells = vec![0i64; self.width()];
        // Both rows lead with the zero guard, so the column sums of the
        // row difference start at 0 and each cell is one step of them.
        let mut emit = |prev: &[Cell], row: &[Cell]| {
            let mut left = 0i64;
            for ((c, &r), &p) in cells.iter_mut().zip(&row[1..]).zip(&prev[1..]) {
                let upto = i64::from(r) - i64::from(p);
                *c = upto - left;
                left = upto;
            }
            f(&cells);
        };
        match self {
            CubeTier::Dense(d) => {
                for iy in 1..=d.height() {
                    emit(d.internal_row(iy - 1), d.internal_row(iy));
                }
            }
            CubeTier::Compressed(c) => {
                let mut prev: Vec<Cell> = vec![0; c.width() + 1];
                let mut row: Vec<Cell> = vec![0; c.width() + 1];
                for iy in 1..=c.height() {
                    c.expand_row(iy, &mut row);
                    emit(&prev, &row);
                    std::mem::swap(&mut prev, &mut row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dense2D;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_array(w: usize, h: usize, seed: u64) -> Dense2D {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Dense2D::zeros(w, h);
        a.map_in_place(|_, _, _| rng.gen_range(-100..100));
        a
    }

    /// A signed Euler-like array: a few ±1 rectangle stamps, the shape
    /// the compressed tier is built for (parity-alternating prefix
    /// rows, repeated bands).
    fn euler_like_array(w: usize, h: usize, stamps: usize, seed: u64) -> Dense2D {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Dense2D::zeros(w, h);
        for _ in 0..stamps {
            let x0 = rng.gen_range(0..w);
            let y0 = rng.gen_range(0..h);
            let x1 = rng.gen_range(x0..w);
            let y1 = rng.gen_range(y0..h);
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let sign = if (x + y) % 2 == 0 { 1 } else { -1 };
                    a.add(x, y, sign);
                }
            }
        }
        a
    }

    fn cells(a: &Dense2D) -> CubeBuffer {
        let raw = a.raw().iter().map(|&v| crate::narrow(v)).collect();
        CubeBuffer::from_row_major(a.width(), a.height(), raw)
    }

    fn compressed(a: &Dense2D) -> CompressedPrefix2D {
        CompressedPrefix2D::from_cells(&cells(a))
    }

    fn assert_twin(a: &Dense2D) {
        let dense = PrefixSum2D::build(a).unwrap();
        let comp = compressed(a);
        assert_eq!(comp.width(), dense.width());
        assert_eq!(comp.height(), dense.height());
        assert_eq!(comp.total(), dense.total());
        let (w, h) = (a.width() as i64, a.height() as i64);
        for y in -2..h + 3 {
            for x in -2..w + 3 {
                assert_eq!(
                    comp.prefix_clipped(x, y),
                    dense.prefix_clipped(x, y),
                    "prefix ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn matches_dense_on_random_arrays() {
        assert_twin(&random_array(17, 9, 1));
        assert_twin(&random_array(1, 1, 2));
        assert_twin(&euler_like_array(20, 14, 6, 3));
    }

    #[test]
    fn zero_area_arrays_build_valid_empty_cubes() {
        for (w, h) in [(0usize, 0usize), (0, 5), (5, 0)] {
            let a = Dense2D::from_vec(w, h, vec![]);
            let c = compressed(&a);
            assert_eq!(c.width(), w);
            assert_eq!(c.height(), h);
            assert_eq!(c.total(), 0, "{w}x{h}");
            for v in [-2i64, -1, 0, 1, 7] {
                assert_eq!(c.prefix_clipped(v, v), 0, "{w}x{h} at {v}");
            }
            assert_eq!(c.range_sum_clipped(-1, -1, 10, 10), 0);
            assert_eq!(c.signed_sum4([-1; 4], [-1; 4], [10; 4], [10; 4]), [0; 4]);
        }
    }

    #[test]
    fn capped_build_aborts_on_incompressible_data() {
        // Random data has no parity structure and no repeated rows.
        let a = random_array(64, 64, 7);
        assert!(CompressedPrefix2D::from_cells_capped(&cells(&a), 256).is_none());
        assert!(CompressedPrefix2D::from_cells_capped(&cells(&a), usize::MAX).is_some());
    }

    #[test]
    fn banded_rows_deduplicate() {
        // One small stamp: every row outside its y-extent repeats the
        // row below it, so the directory collapses them.
        let mut a = Dense2D::zeros(64, 64);
        for y in 10..=12 {
            for x in 20..=24 {
                let sign = if (x + y) % 2 == 0 { 1 } else { -1 };
                a.add(x, y, sign);
            }
        }
        let c = compressed(&a);
        // Guard + pre-band + 3 in-band rows + post-band ≤ a handful.
        assert!(c.unique_rows() <= 6, "unique rows = {}", c.unique_rows());
        assert!(c.storage_bytes() < PrefixSum2D::build(&a).unwrap().storage_bytes() / 4);
        assert_twin(&a);
    }

    #[test]
    fn gather_matches_pointwise_lookups() {
        let a = euler_like_array(33, 21, 8, 11);
        let c = compressed(&a);
        let d = PrefixSum2D::build(&a).unwrap();
        // Interleaved non-decreasing index pairs, the sweep-plan shape,
        // including past-the-end entries that must clamp.
        let xs = [0usize, 3, 7, 8, 15, 30, 33, 40];
        let ia: Vec<usize> = xs.iter().map(|&x| x.saturating_sub(1)).collect();
        let ib: Vec<usize> = xs.to_vec();
        let mut out_a = vec![0i64; xs.len()];
        let mut out_b = vec![0i64; xs.len()];
        for y in -2i64..24 {
            let last = c.gather_row2_clipped(y, &ia, &ib, &mut out_a, &mut out_b);
            let row = d.row_clipped(y);
            for k in 0..xs.len() {
                assert_eq!(out_a[k], row[ia[k].min(33)].into(), "a[{k}] row {y}");
                assert_eq!(out_b[k], row[ib[k].min(33)].into(), "b[{k}] row {y}");
            }
            assert_eq!(last, row[33].into(), "last of row {y}");
        }
    }

    #[test]
    fn builds_are_deterministic() {
        // Rebuilding from the same array yields a structurally equal
        // cube (first-seen dedup ids are deterministic) — frozen
        // histograms derive `PartialEq` through this.
        let a = euler_like_array(12, 9, 4, 5);
        assert_eq!(compressed(&a), compressed(&a));
    }

    /// Both builders encode the same cube: from the cells, or read back
    /// from the dense cube they sum into.
    #[test]
    fn prefix_and_cell_builds_agree() {
        for a in [random_array(17, 9, 1), euler_like_array(20, 14, 6, 3)] {
            let dense = PrefixSum2D::build(&a).unwrap();
            let from_prefix = CompressedPrefix2D::from_prefix_capped(&dense, usize::MAX);
            assert_eq!(from_prefix, Some(compressed(&a)));
            assert!(CompressedPrefix2D::from_prefix_capped(&dense, 64).is_none());
        }
    }

    /// Each tier recovers its cells row by row, and adds its prefixes
    /// into a dense cube as the cube of the summed cells.
    #[test]
    fn tiers_recover_cells_and_add_linearly() {
        for (w, h) in [(1, 1), (7, 1), (1, 6), (9, 7), (17, 9)] {
            let a = euler_like_array(w, h, 5, (w * 10 + h) as u64);
            let b = random_array(w, h, 3);
            let tiers = [
                CubeTier::Dense(PrefixSum2D::build(&a).unwrap()),
                CubeTier::Compressed(compressed(&a)),
            ];
            for tier in &tiers {
                let mut rows = Vec::new();
                tier.for_each_cell_row(|r| rows.extend_from_slice(r));
                assert_eq!(rows, a.raw(), "{w}x{h} cells");
                let mut sum = PrefixSum2D::build(&b).unwrap();
                tier.add_to(&mut sum);
                let mut ab = b.clone();
                ab.map_in_place(|x, y, v| v + a.get(x, y));
                assert_eq!(sum, PrefixSum2D::build(&ab).unwrap(), "{w}x{h} sum");
            }
        }
    }

    proptest! {
        /// The compressed-tier law at the cube level: every query
        /// surface agrees with the dense cube on arbitrary (ordered,
        /// possibly out-of-bounds) windows over signed-stamp arrays.
        #[test]
        fn all_queries_match_dense(
            seed in 0u64..40, w in 1usize..14, h in 1usize..11, stamps in 0usize..6,
            win in prop::collection::vec((-6i64..18, -6i64..16, 0i64..14, 0i64..12), 4))
        {
            let a = euler_like_array(w, h, stamps, seed);
            let dense = PrefixSum2D::build(&a).unwrap();
            let comp = compressed(&a);
            let mut x0 = [0i64; 4]; let mut y0 = [0i64; 4];
            let mut x1 = [0i64; 4]; let mut y1 = [0i64; 4];
            for l in 0..4 {
                let (a0, b0, dw, dh) = win[l];
                x0[l] = a0; y0[l] = b0;
                x1[l] = a0 + dw; y1[l] = b0 + dh;
            }
            prop_assert_eq!(
                comp.signed_sum4(x0, y0, x1, y1),
                dense.signed_sum4(x0, y0, x1, y1)
            );
            for l in 0..4 {
                prop_assert_eq!(
                    comp.range_sum_clipped(x0[l], y0[l], x1[l], y1[l]),
                    dense.range_sum_clipped(x0[l], y0[l], x1[l], y1[l]),
                    "lane {}", l
                );
            }
            let wa = (x0[0], y0[0], x1[0], y1[0]);
            let wb = (x0[1], y0[1], x1[1], y1[1]);
            prop_assert_eq!(comp.range_sum_pair(wa, wb), dense.range_sum_pair(wa, wb));
            prop_assert_eq!(comp.total(), dense.total());
        }

        /// Inverted ("strictly between") windows hit the emptiness test
        /// on both tiers identically.
        #[test]
        fn inverted_windows_are_empty_on_both_tiers(
            seed in 0u64..20, x0 in -4i64..16, y0 in -4i64..14)
        {
            let a = euler_like_array(12, 10, 3, seed);
            let dense = PrefixSum2D::build(&a).unwrap();
            let comp = compressed(&a);
            prop_assert_eq!(
                comp.range_sum_clipped(x0, y0, x0 - 2, y0 + 3),
                dense.range_sum_clipped(x0, y0, x0 - 2, y0 + 3)
            );
            prop_assert_eq!(
                comp.range_sum_clipped(x0, y0, x0 + 3, y0 - 2),
                dense.range_sum_clipped(x0, y0, x0 + 3, y0 - 2)
            );
        }
    }
}
