/// A dense d-dimensional array of `i64` counters with runtime-chosen
/// dimensionality.
///
/// Theorem 3.1 and Beigel–Tanin's corollary are stated for d dimensions;
/// this array (plus [`PrefixSumNd`]) is the substrate for the
/// d-dimensional Euler histogram and the paper's §2 example comparing a
/// 2-D grid (64,800 cells) against the 4-D point encoding (4·10⁹ cells).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseNd {
    dims: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<i64>,
}

fn strides_of(dims: &[usize]) -> Vec<usize> {
    // First dimension is the fastest-varying, matching Dense2D's layout.
    let mut strides = vec![0; dims.len()];
    let mut acc = 1usize;
    for (s, &d) in strides.iter_mut().zip(dims) {
        *s = acc;
        acc = acc.checked_mul(d).expect("DenseNd size overflow");
    }
    strides
}

impl DenseNd {
    /// A zero-filled array with the given per-dimension extents.
    pub fn zeros(dims: &[usize]) -> DenseNd {
        assert!(!dims.is_empty(), "DenseNd needs at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "zero-sized dimension");
        let strides = strides_of(dims);
        let len = dims.iter().product();
        DenseNd {
            dims: dims.to_vec(),
            strides,
            data: vec![0; len],
        }
    }

    /// Per-dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty (never true: dims are validated nonzero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut off = 0;
        for ((&i, &d), &s) in idx.iter().zip(&self.dims).zip(&self.strides) {
            debug_assert!(i < d, "index {i} out of bound {d}");
            off += i * s;
        }
        off
    }

    /// Value at the multi-index.
    pub fn get(&self, idx: &[usize]) -> i64 {
        self.data[self.offset(idx)]
    }

    /// Adds `v` at the multi-index.
    pub fn add(&mut self, idx: &[usize], v: i64) {
        let off = self.offset(idx);
        self.data[off] += v;
    }

    /// Sum of all entries.
    pub fn total(&self) -> i64 {
        self.data.iter().sum()
    }

    /// Naive O(volume) inclusive range sum, the testing reference.
    pub fn range_sum_naive(&self, lo: &[usize], hi: &[usize]) -> i64 {
        assert_eq!(lo.len(), self.ndim());
        assert_eq!(hi.len(), self.ndim());
        let mut idx = lo.to_vec();
        let mut sum = 0i64;
        'outer: loop {
            sum += self.get(&idx);
            // Odometer increment.
            for d in 0..self.ndim() {
                if idx[d] < hi[d] {
                    idx[d] += 1;
                    continue 'outer;
                }
                idx[d] = lo[d];
            }
            break;
        }
        sum
    }

    /// Bytes of storage held.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i64>()
    }
}

/// The d-dimensional prefix-sum cube: inclusive range sums via 2^d
/// inclusion–exclusion lookups \[HAMS97\].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSumNd {
    dims: Vec<usize>,
    // Guard-padded extents (each +1) and their strides.
    padded_strides: Vec<usize>,
    p: Vec<i64>,
}

impl PrefixSumNd {
    /// Builds the cube from a dense array, one axis-sweep per dimension.
    pub fn build(a: &DenseNd) -> PrefixSumNd {
        let dims = a.dims().to_vec();
        let padded: Vec<usize> = dims.iter().map(|&d| d + 1).collect();
        let padded_strides = strides_of(&padded);
        let len = padded.iter().product();
        let mut p = vec![0i64; len];

        // Copy source values into the padded layout at index+1.
        {
            let mut idx = vec![0usize; dims.len()];
            loop {
                let mut off = 0;
                for (d, &i) in idx.iter().enumerate() {
                    off += (i + 1) * padded_strides[d];
                }
                p[off] = a.get(&idx);
                let mut d = 0;
                loop {
                    if d == dims.len() {
                        // Finished full sweep.
                        idx.clear();
                        break;
                    }
                    idx[d] += 1;
                    if idx[d] < dims[d] {
                        break;
                    }
                    idx[d] = 0;
                    d += 1;
                }
                if idx.is_empty() {
                    break;
                }
            }
        }

        // Accumulate along each axis in turn.
        for d in 0..dims.len() {
            let stride = padded_strides[d];
            let extent = padded[d];
            // Iterate over all lines along axis d.
            let line_count = len / extent;
            for line in 0..line_count {
                // Decompose `line` into the coordinates of the other axes.
                let mut base = 0usize;
                let mut rem = line;
                for (ad, (&pd, &ps)) in padded.iter().zip(&padded_strides).enumerate() {
                    if ad == d {
                        continue;
                    }
                    let coord = rem % pd;
                    rem /= pd;
                    base += coord * ps;
                }
                let mut acc = 0i64;
                for i in 0..extent {
                    let off = base + i * stride;
                    acc += p[off];
                    p[off] = acc;
                }
            }
        }

        PrefixSumNd {
            dims,
            padded_strides,
            p,
        }
    }

    /// Per-dimension extents of the summarized array.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Sum over the inclusive multi-index range `[lo, hi]`, answered with
    /// `2^d` lookups.
    pub fn range_sum(&self, lo: &[usize], hi: &[usize]) -> i64 {
        let d = self.dims.len();
        assert_eq!(lo.len(), d);
        assert_eq!(hi.len(), d);
        for i in 0..d {
            assert!(lo[i] <= hi[i] && hi[i] < self.dims[i], "bad range dim {i}");
        }
        let mut sum = 0i64;
        for mask in 0..(1u32 << d) {
            let mut off = 0usize;
            let mut sign = 1i64;
            for (i, &s) in self.padded_strides.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    // Choose the (lo-1) corner: subtract.
                    off += lo[i] * s; // padded index lo[i] == source lo[i]-1
                    sign = -sign;
                } else {
                    off += (hi[i] + 1) * s;
                }
            }
            sum += sign * self.p[off];
        }
        sum
    }

    /// Cumulative sum at *clipped* signed coordinates: the inclusive
    /// prefix `P(idx)` with each coordinate clamped into the array, and 0
    /// when any is negative (the zero guard plane).
    ///
    /// The d-dimensional sibling of
    /// [`crate::PrefixSum2D::prefix_clipped`]: the `2^d` signed-corner
    /// combination of `prefix_clipped` values reproduces
    /// [`Self::range_sum_clipped`] for any ordered window, which lets
    /// batched evaluators cache corner planes instead of re-deriving the
    /// clamp per query.
    #[inline]
    pub fn prefix_clipped(&self, idx: &[i64]) -> i64 {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut off = 0usize;
        for ((&i, &d), &s) in idx.iter().zip(&self.dims).zip(&self.padded_strides) {
            if i < 0 {
                return 0;
            }
            off += ((i as usize).min(d - 1) + 1) * s;
        }
        self.p[off]
    }

    /// Decomposed per-axis offset for [`Self::prefix_clipped`]: the
    /// flattened-array contribution of the clamped index `i` on `axis`,
    /// or `None` when `i < 0` (any negative coordinate zeroes the whole
    /// prefix read). Sweep kernels precompute these per tile row/column
    /// and combine them with [`Self::value_at_offset`], hoisting the
    /// clamp and stride arithmetic out of the per-query hot loop.
    #[inline]
    pub fn axis_offset_clipped(&self, axis: usize, i: i64) -> Option<usize> {
        if i < 0 {
            return None;
        }
        Some(((i as usize).min(self.dims[axis] - 1) + 1) * self.padded_strides[axis])
    }

    /// Padded-array read at a sum of per-axis offsets, one per axis, each
    /// produced by [`Self::axis_offset_clipped`]. Equals
    /// [`Self::prefix_clipped`] at the corresponding multi-index.
    #[inline]
    pub fn value_at_offset(&self, off: usize) -> i64 {
        self.p[off]
    }

    /// Clipped signed range sum (see [`crate::PrefixSum2D::range_sum_clipped`]).
    pub fn range_sum_clipped(&self, lo: &[i64], hi: &[i64]) -> i64 {
        let d = self.dims.len();
        let mut clo = vec![0usize; d];
        let mut chi = vec![0usize; d];
        for i in 0..d {
            let l = lo[i].max(0);
            let h = hi[i].min(self.dims[i] as i64 - 1);
            if l > h {
                return 0;
            }
            clo[i] = l as usize;
            chi[i] = h as usize;
        }
        self.range_sum(&clo, &chi)
    }

    /// Sum of the whole array.
    pub fn total(&self) -> i64 {
        let hi: Vec<usize> = self.dims.iter().map(|&d| d - 1).collect();
        self.range_sum(&vec![0; self.dims.len()], &hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_nd(dims: &[usize], seed: u64) -> DenseNd {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = DenseNd::zeros(dims);
        let mut idx = vec![0usize; dims.len()];
        loop {
            a.add(&idx, rng.gen_range(-50..50));
            let mut d = 0;
            loop {
                if d == dims.len() {
                    return a;
                }
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
                d += 1;
            }
        }
    }

    #[test]
    fn one_dimensional_prefix() {
        let mut a = DenseNd::zeros(&[5]);
        for i in 0..5 {
            a.add(&[i], (i + 1) as i64);
        }
        let p = PrefixSumNd::build(&a);
        assert_eq!(p.range_sum(&[0], &[4]), 15);
        assert_eq!(p.range_sum(&[2], &[3]), 7);
        assert_eq!(p.total(), 15);
    }

    #[test]
    fn two_dimensional_matches_dense2d_semantics() {
        let a = random_nd(&[6, 4], 7);
        let p = PrefixSumNd::build(&a);
        for x0 in 0..6 {
            for x1 in x0..6 {
                for y0 in 0..4 {
                    for y1 in y0..4 {
                        assert_eq!(
                            p.range_sum(&[x0, y0], &[x1, y1]),
                            a.range_sum_naive(&[x0, y0], &[x1, y1])
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_dimensional_range_sums() {
        let a = random_nd(&[4, 3, 5], 11);
        let p = PrefixSumNd::build(&a);
        let cases = [
            ([0, 0, 0], [3, 2, 4]),
            ([1, 1, 1], [2, 2, 3]),
            ([0, 0, 2], [3, 0, 2]),
            ([2, 1, 0], [2, 1, 0]),
        ];
        for (lo, hi) in cases {
            assert_eq!(p.range_sum(&lo, &hi), a.range_sum_naive(&lo, &hi));
        }
        assert_eq!(p.total(), a.total());
    }

    #[test]
    fn four_dimensional_spot_checks() {
        // The paper's "rectangles as 4-d points" encoding (§2).
        let a = random_nd(&[3, 4, 3, 4], 13);
        let p = PrefixSumNd::build(&a);
        assert_eq!(p.total(), a.total());
        assert_eq!(
            p.range_sum(&[1, 1, 0, 2], &[2, 3, 2, 3]),
            a.range_sum_naive(&[1, 1, 0, 2], &[2, 3, 2, 3])
        );
    }

    #[test]
    fn clipped_nd() {
        let a = random_nd(&[4, 4], 17);
        let p = PrefixSumNd::build(&a);
        assert_eq!(p.range_sum_clipped(&[-5, -5], &[10, 10]), a.total());
        assert_eq!(p.range_sum_clipped(&[4, 0], &[5, 3]), 0);
        assert_eq!(
            p.range_sum_clipped(&[-1, 1], &[2, 5]),
            a.range_sum_naive(&[0, 1], &[2, 3])
        );
    }

    #[test]
    fn prefix_clipped_corners_equal_clipped_range_sum() {
        let a = random_nd(&[4, 3, 4], 19);
        let p = PrefixSumNd::build(&a);
        for (lo, hi) in [
            ([-2i64, -1, 0], [5i64, 2, 3]),
            ([0, 0, 0], [3, 2, 3]),
            ([1, -3, 2], [2, 1, 9]),
            ([3, 2, 3], [3, 2, 3]),
            ([-1, -1, -1], [10, 10, 10]),
        ] {
            let mut corners = 0i64;
            for mask in 0..8u32 {
                let mut idx = [0i64; 3];
                let mut sign = 1i64;
                for i in 0..3 {
                    if mask & (1 << i) != 0 {
                        idx[i] = lo[i] - 1;
                        sign = -sign;
                    } else {
                        idx[i] = hi[i];
                    }
                }
                corners += sign * p.prefix_clipped(&idx);
            }
            assert_eq!(
                corners,
                p.range_sum_clipped(&lo, &hi),
                "window {lo:?}..{hi:?}"
            );
        }
    }

    #[test]
    fn axis_offsets_reassemble_prefix_clipped() {
        let a = random_nd(&[4, 3, 4], 23);
        let p = PrefixSumNd::build(&a);
        for idx in [
            [0i64, 0, 0],
            [3, 2, 3],
            [5, 1, 2],
            [-1, 2, 2],
            [2, -3, 1],
            [9, 9, 9],
        ] {
            let off = (0..3)
                .map(|d| p.axis_offset_clipped(d, idx[d]))
                .try_fold(0usize, |acc, o| o.map(|o| acc + o));
            let via_offsets = off.map_or(0, |o| p.value_at_offset(o));
            assert_eq!(via_offsets, p.prefix_clipped(&idx), "index {idx:?}");
        }
    }

    #[test]
    fn storage_matches_paper_example() {
        // §2: 360×180 grid = 64,800 cells.
        let g = DenseNd::zeros(&[360, 180]);
        assert_eq!(g.len(), 64_800);
    }
}
