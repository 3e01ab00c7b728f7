/// A dense d-dimensional array of `i64` counters with runtime-chosen
/// dimensionality.
///
/// Theorem 3.1 is stated for d dimensions; this array (plus
/// [`PrefixSumNd`]) holds the 4-index histogram of the exact 2-D
/// `contains` structure, the paper's "rectangles as 4-d points"
/// encoding (§2).
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

    /// Per-axis offset of a *clipped* prefix read: the flattened-array
    /// contribution of index `i` on `axis`, clamped into the array, or
    /// `None` when `i < 0` (any negative coordinate zeroes the whole
    /// prefix read, the zero guard plane). [`Self::value_at_offset`] at
    /// the sum of one offset per axis is the inclusive prefix `P(idx)`,
    /// and the `2^d` signed corners of such reads reproduce
    /// [`Self::range_sum_clipped`] for any ordered window. Sweep kernels
    /// precompute these per tile row/column, hoisting the clamp and
    /// stride arithmetic out of the per-query hot loop.
    #[inline]
    pub fn axis_offset_clipped(&self, axis: usize, i: i64) -> Option<usize> {
        if i < 0 {
            return None;
        }
        Some(((i as usize).min(self.dims[axis] - 1) + 1) * self.padded_strides[axis])
    }

    /// Padded-array read at a sum of per-axis offsets, one per axis, each
    /// produced by [`Self::axis_offset_clipped`].
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

    /// Naive O(volume) inclusive range sum, the reference.
    fn naive_range_sum(a: &DenseNd, lo: &[usize], hi: &[usize]) -> i64 {
        let mut idx = lo.to_vec();
        let mut sum = 0i64;
        'outer: loop {
            sum += a.get(&idx);
            // Odometer increment.
            for d in 0..idx.len() {
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

    fn total(a: &DenseNd) -> i64 {
        let hi: Vec<usize> = a.dims().iter().map(|&d| d - 1).collect();
        naive_range_sum(a, &vec![0; hi.len()], &hi)
    }

    /// The clipped inclusive prefix `P(idx)`, read through per-axis offsets.
    fn prefix_via_offsets(p: &PrefixSumNd, idx: &[i64]) -> i64 {
        idx.iter()
            .enumerate()
            .map(|(d, &i)| p.axis_offset_clipped(d, i))
            .try_fold(0usize, |acc, o| o.map(|o| acc + o))
            .map_or(0, |o| p.value_at_offset(o))
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
                            naive_range_sum(&a, &[x0, y0], &[x1, y1])
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
            assert_eq!(p.range_sum(&lo, &hi), naive_range_sum(&a, &lo, &hi));
        }
    }

    #[test]
    fn four_dimensional_spot_checks() {
        // The paper's "rectangles as 4-d points" encoding (§2).
        let a = random_nd(&[3, 4, 3, 4], 13);
        let p = PrefixSumNd::build(&a);
        assert_eq!(p.range_sum(&[0, 0, 0, 0], &[2, 3, 2, 3]), total(&a));
        assert_eq!(
            p.range_sum(&[1, 1, 0, 2], &[2, 3, 2, 3]),
            naive_range_sum(&a, &[1, 1, 0, 2], &[2, 3, 2, 3])
        );
    }

    #[test]
    fn clipped_nd() {
        let a = random_nd(&[4, 4], 17);
        let p = PrefixSumNd::build(&a);
        assert_eq!(p.range_sum_clipped(&[-5, -5], &[10, 10]), total(&a));
        assert_eq!(p.range_sum_clipped(&[4, 0], &[5, 3]), 0);
        assert_eq!(
            p.range_sum_clipped(&[-1, 1], &[2, 5]),
            naive_range_sum(&a, &[0, 1], &[2, 3])
        );
    }

    #[test]
    fn offset_corners_equal_clipped_range_sum() {
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
                corners += sign * prefix_via_offsets(&p, &idx);
            }
            assert_eq!(
                corners,
                p.range_sum_clipped(&lo, &hi),
                "window {lo:?}..{hi:?}"
            );
        }
    }

    #[test]
    fn axis_offsets_read_the_clipped_prefix() {
        let dims = [4usize, 3, 4];
        let a = random_nd(&dims, 23);
        let p = PrefixSumNd::build(&a);
        for idx in [
            [0i64, 0, 0],
            [3, 2, 3],
            [5, 1, 2],
            [-1, 2, 2],
            [2, -3, 1],
            [9, 9, 9],
        ] {
            let expected = if idx.iter().any(|&i| i < 0) {
                0
            } else {
                let hi: Vec<usize> = (0..3).map(|d| (idx[d] as usize).min(dims[d] - 1)).collect();
                naive_range_sum(&a, &[0, 0, 0], &hi)
            };
            assert_eq!(prefix_via_offsets(&p, &idx), expected, "index {idx:?}");
        }
    }
}
