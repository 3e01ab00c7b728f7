//! The exact structures of §3: histograms that answer Level 2 relation
//! queries *exactly* at grid resolution, at the `O(N²)` storage cost of
//! Theorem 3.1.
//!
//! Objects are discretized to their enclosing grid-line pair per axis:
//! a snapped open extent `(a, b)` becomes `(i, j) = (⌊a⌋, ⌈b⌉)`, the
//! paper's "starts after `i` and ends before `j`" encoding. Because
//! snapped endpoints are non-integer, every Level 2 predicate against an
//! aligned query reduces *losslessly* to inequalities on `(i, j)`:
//!
//! ```text
//! object ⊂ [m, n]        ⇔  m ≤ i  ∧  j ≤ n
//! object ⊃ [m, n]        ⇔  i < m  ∧  n < j
//! object ∩ (m, n) ≠ ∅    ⇔  i < n  ∧  m < j
//! ```
//!
//! so a histogram over `(i, j)` pairs — `n(n+1)/2` effective buckets per
//! axis — answers `contains`, `contained`, `overlap` and `disjoint`
//! exactly. These structures serve as oracles in tests and as the
//! storage-bound exhibits of the `table_storage_bounds` experiment;
//! [`crate::storage`] computes the bounds without allocating.

use euler_cube::{Dense2D, DenseNd, PrefixSum2D, PrefixSumNd};
use euler_grid::{Grid, GridRect, SnappedRect, Tiling};

use crate::sweep::TilingPlan;
use crate::RelationCounts;

/// Exact Level 2 counts for 1-D range data (the §3 construction of
/// Figure 4, with the histogram of all `(i, j)` interval types).
#[derive(Debug, Clone)]
pub struct ExactContains1D {
    n: usize,
    cum: PrefixSum2D,
    size: i64,
}

impl ExactContains1D {
    /// Builds from snapped open intervals `(a, b)` with `0 < a < b < n`
    /// and non-integer endpoints.
    pub fn build(n: usize, objects: &[(f64, f64)]) -> ExactContains1D {
        assert!(n >= 1);
        // H[i][j] = number of objects with (⌊a⌋, ⌈b⌉) = (i, j).
        let mut h = Dense2D::zeros(n + 1, n + 1);
        for &(a, b) in objects {
            assert!(
                a > 0.0 && b < n as f64 && a < b,
                "object ({a}, {b}) must be snapped inside (0, {n})"
            );
            let i = a.floor() as usize;
            let j = b.ceil() as usize;
            h.add(i, j, 1);
        }
        ExactContains1D {
            n,
            cum: PrefixSum2D::build(&h)
                .expect("each object is counted once, so every prefix sum is at most N"),
            size: objects.len() as i64,
        }
    }

    /// Segment count of the grid.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of objects.
    pub fn size(&self) -> i64 {
        self.size
    }

    /// Exact number of objects contained in the aligned range `[m, k]`.
    pub fn contains(&self, m: usize, k: usize) -> i64 {
        assert!(m < k && k <= self.n);
        self.cum.range_sum(m, m, k, k)
    }

    /// Exact number of objects containing the aligned range `[m, k]`.
    pub fn contained(&self, m: usize, k: usize) -> i64 {
        assert!(m < k && k <= self.n);
        if m == 0 || k == self.n {
            return 0; // nothing extends beyond the snapped data space
        }
        self.cum.range_sum(0, k + 1, m - 1, self.n)
    }

    /// Exact number of objects intersecting the open range `(m, k)`.
    pub fn intersect(&self, m: usize, k: usize) -> i64 {
        assert!(m < k && k <= self.n);
        // i < k  ∧  j > m.
        self.cum
            .range_sum_clipped(0, m as i64 + 1, k as i64 - 1, self.n as i64)
    }

    /// Exact number of overlapping objects (intersect, neither contains
    /// nor contained).
    pub fn overlap(&self, m: usize, k: usize) -> i64 {
        self.intersect(m, k) - self.contains(m, k) - self.contained(m, k)
    }

    /// Effective bucket count `n(n+1)/2` (Theorem 3.1's per-axis bound).
    pub fn effective_buckets(&self) -> u128 {
        (self.n as u128) * (self.n as u128 + 1) / 2
    }

    /// Bucket count `H(i, j)` — the number of objects discretizing to the
    /// interval pair `(i, j)` (tests and [`invert_contains_oracle`]).
    pub fn bucket(&self, i: usize, j: usize) -> i64 {
        assert!(i < j && j <= self.n);
        self.cum.range_sum(i, j, i, j)
    }
}

/// The constructive heart of Theorem 3.1: any oracle answering exact
/// `contains(m, k)` for all aligned ranges determines the **entire**
/// triangular histogram `H(i, j)` — `n(n+1)/2` independent values — via
/// 2-D inclusion–exclusion (the paper's Equation 3). Since the `H(i, j)`
/// are independent, no structure answering `contains` exactly can store
/// fewer values: storage `Ω(N²)`.
///
/// Returns `H` as a vector of `(i, j, count)` with `count > 0`.
pub fn invert_contains_oracle(
    n: usize,
    contains: impl Fn(usize, usize) -> i64,
) -> Vec<(usize, usize, i64)> {
    // contains(m, k) = Σ_{m ≤ i < j ≤ k} H(i, j), with empty ranges = 0.
    let c = |m: i64, k: i64| -> i64 {
        if m < 0 || k > n as i64 || k - m < 1 {
            0
        } else {
            contains(m as usize, k as usize)
        }
    };
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..=n {
            let (im, jm) = (i as i64, j as i64);
            let h = c(im, jm) - c(im + 1, jm) - c(im, jm - 1) + c(im + 1, jm - 1);
            if h != 0 {
                out.push((i, j, h));
            }
        }
    }
    out
}

/// Exact Level 2 counts for 2-D rectangles: the 4-index histogram
/// `H[i][j][k][l]` whose existence (at `O(N²)` storage) Theorem 3.1 proves
/// necessary. Feasible only for modest grids — on the paper's 360×180
/// grid the array has ≈ 4·10⁹ cells, which is the paper's point.
#[derive(Debug, Clone)]
pub struct ExactContains2D {
    nx: usize,
    ny: usize,
    cum: PrefixSumNd,
    size: i64,
}

impl ExactContains2D {
    /// Builds from snapped objects over `grid`.
    pub fn build(grid: &Grid, objects: &[SnappedRect]) -> ExactContains2D {
        let (nx, ny) = (grid.nx(), grid.ny());
        let mut h = DenseNd::zeros(&[nx + 1, nx + 1, ny + 1, ny + 1]);
        for o in objects {
            let i = o.a().floor() as usize;
            let j = o.b().ceil() as usize;
            let k = o.c().floor() as usize;
            let l = o.d().ceil() as usize;
            h.add(&[i, j, k, l], 1);
        }
        ExactContains2D {
            nx,
            ny,
            cum: PrefixSumNd::build(&h),
            size: objects.len() as i64,
        }
    }

    /// Number of objects.
    pub fn size(&self) -> i64 {
        self.size
    }

    /// Exact number of objects contained in the query.
    pub fn contains(&self, q: &GridRect) -> i64 {
        self.cum
            .range_sum(&[q.x0, q.x0, q.y0, q.y0], &[q.x1, q.x1, q.y1, q.y1])
    }

    /// Exact number of objects containing the query.
    pub fn contained(&self, q: &GridRect) -> i64 {
        if q.x0 == 0 || q.y0 == 0 || q.x1 == self.nx || q.y1 == self.ny {
            return 0;
        }
        self.cum.range_sum(
            &[0, q.x1 + 1, 0, q.y1 + 1],
            &[q.x0 - 1, self.nx, q.y0 - 1, self.ny],
        )
    }

    /// Exact number of objects intersecting the query's open interior.
    pub fn intersect(&self, q: &GridRect) -> i64 {
        self.cum.range_sum_clipped(
            &[0, q.x0 as i64 + 1, 0, q.y0 as i64 + 1],
            &[
                q.x1 as i64 - 1,
                self.nx as i64,
                q.y1 as i64 - 1,
                self.ny as i64,
            ],
        )
    }

    /// Exact Level 2 relation counts for the query.
    pub fn counts(&self, q: &GridRect) -> RelationCounts {
        let intersect = self.intersect(q);
        let contains = self.contains(q);
        let contained = self.contained(q);
        RelationCounts {
            disjoint: self.size - intersect,
            contains,
            contained,
            overlaps: intersect - contains - contained,
        }
    }

    /// Allocated bucket count `(nx+1)² (ny+1)²` (the dense superset of the
    /// `Θ(N²)` effective buckets).
    pub fn allocated_buckets(&self) -> u128 {
        let x = (self.nx as u128 + 1) * (self.nx as u128 + 1);
        let y = (self.ny as u128 + 1) * (self.ny as u128 + 1);
        x * y
    }
}

/// Signed `(offset, sign)` pairs for one axis pair of a 4-D corner sum:
/// the cartesian product of each axis's `(hi, lo − 1)` prefix choices,
/// resolved to flattened offsets via
/// [`PrefixSumNd::axis_offset_clipped`]. A negative index (the zero
/// guard plane) drops its combinations; an index clamped onto its twin
/// cancels pairwise — together reproducing [`ExactContains2D::counts`]'s
/// boundary guards without per-tile branching.
fn corner_pairs(
    cum: &PrefixSumNd,
    axes: (usize, usize),
    first: [i64; 2],
    second: [i64; 2],
) -> Vec<(usize, i64)> {
    let mut out = Vec::with_capacity(4);
    for (ka, &ia) in first.iter().enumerate() {
        let Some(oa) = cum.axis_offset_clipped(axes.0, ia) else {
            continue;
        };
        for (kb, &ib) in second.iter().enumerate() {
            let Some(ob) = cum.axis_offset_clipped(axes.1, ib) else {
                continue;
            };
            let sign = if (ka + kb) % 2 == 0 { 1 } else { -1 };
            out.push((oa + ob, sign));
        }
    }
    out
}

impl crate::Level2Estimator for ExactContains2D {
    fn name(&self) -> &'static str {
        "Exact-4idx"
    }

    fn estimate(&self, q: &GridRect) -> RelationCounts {
        self.counts(q)
    }

    fn object_count(&self) -> u64 {
        self.size as u64
    }

    fn storage_cells(&self) -> u64 {
        // The dense 4-index cube can exceed u64 on absurd grids; saturate.
        u64::try_from(self.allocated_buckets()).unwrap_or(u64::MAX)
    }

    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        // The 4-D sweep: each predicate's 16-corner inclusion–exclusion
        // splits into an x-axis pair (i, j) and a y-axis pair (k, l).
        // Tiles in a column share the x-pair offsets, tiles in a row the
        // y-pair offsets, so the row-major pass precomputes both tables
        // once and evaluates every tile as a fused sum of at most 4×4
        // cube reads with the clamp/stride arithmetic hoisted out.
        struct Tables {
            contains: Vec<(usize, i64)>,
            contained: Vec<(usize, i64)>,
            intersect: Vec<(usize, i64)>,
        }
        let plan = TilingPlan::new(t);
        let cum = &self.cum;
        let (nx, ny) = (self.nx as i64, self.ny as i64);
        let x_tables: Vec<Tables> = plan
            .x_bounds()
            .windows(2)
            .map(|w| {
                let (x0, x1) = (w[0] as i64, w[1] as i64);
                Tables {
                    contains: corner_pairs(cum, (0, 1), [x1, x0 - 1], [x1, x0 - 1]),
                    contained: corner_pairs(cum, (0, 1), [x0 - 1, -1], [nx, x1]),
                    intersect: corner_pairs(cum, (0, 1), [x1 - 1, -1], [nx, x0]),
                }
            })
            .collect();
        let y_tables: Vec<Tables> = plan
            .y_bounds()
            .windows(2)
            .map(|w| {
                let (y0, y1) = (w[0] as i64, w[1] as i64);
                Tables {
                    contains: corner_pairs(cum, (2, 3), [y1, y0 - 1], [y1, y0 - 1]),
                    contained: corner_pairs(cum, (2, 3), [y0 - 1, -1], [ny, y1]),
                    intersect: corner_pairs(cum, (2, 3), [y1 - 1, -1], [ny, y0]),
                }
            })
            .collect();
        let dot = |xs: &[(usize, i64)], ys: &[(usize, i64)]| -> i64 {
            let mut s = 0i64;
            for &(ox, sx) in xs {
                for &(oy, sy) in ys {
                    s += sx * sy * cum.value_at_offset(ox + oy);
                }
            }
            s
        };
        let mut out = Vec::with_capacity(plan.len());
        for yt in &y_tables {
            for xt in &x_tables {
                let intersect = dot(&xt.intersect, &yt.intersect);
                let contains = dot(&xt.contains, &yt.contains);
                let contained = dot(&xt.contained, &yt.contained);
                out.push(RelationCounts {
                    disjoint: self.size - intersect,
                    contains,
                    contained,
                    overlaps: intersect - contains - contained,
                });
            }
        }
        out
    }

    fn supports_sweep(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::count_by_classification;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Snapper};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn one_dimensional_paper_example() {
        // Figure 4(a): both a shrunk "[1,3)" object and an interior (1,3)
        // object discretize to the pair (1,3): contained in [1,3], but in
        // no smaller aligned range.
        let half_open = (1.0 + 1e-6, 3.0 - 1e-6); // "shrunk" [1,3)
        let open = (1.5, 2.5); // strictly inside (1,3)
        let e = ExactContains1D::build(4, &[half_open, open]);
        assert_eq!(e.contains(1, 3), 2);
        assert_eq!(e.contains(1, 2), 0);
        assert_eq!(e.contains(0, 4), 2);
        assert_eq!(e.intersect(1, 2), 2);
        // Neither snapped object strictly contains the open range (1,2):
        // the shrink rule demotes the paper's "[1,3) contains [1,2]" case
        // to overlap, which is exactly the N_eq-style boundary information
        // the Level 2 model discards.
        assert_eq!(e.contained(1, 2), 0);
        // A genuinely containing object is counted.
        let e2 = ExactContains1D::build(4, &[(0.5, 2.5)]);
        assert_eq!(e2.contained(1, 2), 1);
    }

    #[test]
    fn one_dimensional_counts() {
        let objects = [
            (0.5, 1.5),  // (0,2)
            (1.2, 1.8),  // (1,2)
            (2.1, 3.9),  // (2,4)
            (0.1, 3.95), // (0,4)
        ];
        let e = ExactContains1D::build(4, &objects);
        assert_eq!(e.size(), 4);
        // [0,2] contains objects 1 and 2.
        assert_eq!(e.contains(0, 2), 2);
        // [1,2] contains object 2 only.
        assert_eq!(e.contains(1, 2), 1);
        // Objects containing [1,2]: object 4 (0.1, 3.95). Object 1 ends at
        // 1.5 < 2 → no.
        assert_eq!(e.contained(1, 2), 1);
        // Intersecting (1,2): objects 1, 2, 4.
        assert_eq!(e.intersect(1, 2), 3);
        assert_eq!(e.overlap(1, 2), 3 - 1 - 1);
        // Whole-space queries.
        assert_eq!(e.contains(0, 4), 4);
        assert_eq!(e.contained(0, 4), 0);
        assert_eq!(e.intersect(0, 4), 4);
        // Theorem 3.1 effective buckets for n=4: 10.
        assert_eq!(e.effective_buckets(), 10);
    }

    #[test]
    fn theorem_3_1_inversion_reconstructs_the_histogram() {
        // Build a dataset, expose ONLY its contains oracle, and recover
        // every bucket of the triangular histogram — Equation 3 in code.
        let objects = [
            (0.5, 1.5),
            (1.2, 1.8),
            (1.3, 1.9),
            (2.1, 3.9),
            (0.1, 3.95),
            (3.2, 3.8),
        ];
        let e = ExactContains1D::build(4, &objects);
        let reconstructed = invert_contains_oracle(4, |m, k| e.contains(m, k));
        // Expected buckets from the discretization (floor(a), ceil(b)).
        let mut expected = std::collections::BTreeMap::new();
        for &(a, b) in &objects {
            *expected
                .entry((a.floor() as usize, b.ceil() as usize))
                .or_insert(0i64) += 1;
        }
        let got: std::collections::BTreeMap<(usize, usize), i64> = reconstructed
            .into_iter()
            .map(|(i, j, h)| ((i, j), h))
            .collect();
        assert_eq!(got, expected);
        // Cross-check against direct bucket reads.
        for (&(i, j), &h) in &expected {
            assert_eq!(e.bucket(i, j), h);
        }
    }

    fn grid(nx: usize, ny: usize) -> Grid {
        Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
            nx,
            ny,
        )
        .unwrap()
    }

    #[test]
    fn two_dimensional_matches_brute_force() {
        let g = grid(10, 8);
        let s = Snapper::new(g);
        let mut rng = StdRng::seed_from_u64(42);
        let objs: Vec<SnappedRect> = (0..200)
            .map(|_| {
                let x = rng.gen_range(0.0..9.0);
                let y = rng.gen_range(0.0..7.0);
                let w = rng.gen_range(0.1..6.0);
                let h = rng.gen_range(0.1..5.0);
                s.snap(&Rect::new(x, y, (x + w).min(10.0), (y + h).min(8.0)).unwrap())
            })
            .collect();
        let e = ExactContains2D::build(&g, &objs);
        for qx0 in [0usize, 2, 5] {
            for qy0 in [0usize, 1, 4] {
                for (qw, qh) in [(1, 1), (3, 2), (5, 4), (10, 8)] {
                    let (x1, y1) = ((qx0 + qw).min(10), (qy0 + qh).min(8));
                    if qx0 >= x1 || qy0 >= y1 {
                        continue;
                    }
                    let q = GridRect::unchecked(qx0, qy0, x1, y1);
                    assert_eq!(e.counts(&q), count_by_classification(&objs, &q), "{q}");
                }
            }
        }
    }

    #[test]
    fn storage_is_quadratic_in_cells() {
        let g = grid(10, 8);
        let e = ExactContains2D::build(&g, &[]);
        assert_eq!(e.allocated_buckets(), 121 * 81);
    }

    proptest! {
        /// The 2-D exact structure agrees with per-object classification
        /// on random datasets and queries — it is a true oracle.
        #[test]
        fn oracle_property(seed in 0u64..30,
                           qx in 0usize..9, qy in 0usize..7,
                           qw in 1usize..10, qh in 1usize..8) {
            let g = grid(9, 7);
            let s = Snapper::new(g);
            let mut rng = StdRng::seed_from_u64(seed);
            let objs: Vec<SnappedRect> = (0..60)
                .map(|_| {
                    let x = rng.gen_range(0.0..8.5);
                    let y = rng.gen_range(0.0..6.5);
                    let w = rng.gen_range(0.05..8.0);
                    let h = rng.gen_range(0.05..6.0);
                    s.snap(&Rect::new(x, y, (x + w).min(9.0), (y + h).min(7.0)).unwrap())
                })
                .collect();
            let e = ExactContains2D::build(&g, &objs);
            let q = GridRect::unchecked(qx, qy, (qx + qw).min(9), (qy + qh).min(7));
            prop_assert_eq!(e.counts(&q), count_by_classification(&objs, &q));
        }
    }
}
