//! Exact ground-truth Level 2 relation counts for whole tilings.
//!
//! The evaluation needs exact answers for up to 16,200 tiles × millions of
//! objects per query set. Scanning objects per tile would cost ~10¹⁰
//! rectangle tests; instead each object contributes O(1) updates per
//! tiling to three per-tile arrays (the first two difference arrays):
//!
//! * **intersect** — the contiguous block of tiles whose open interior the
//!   object's interior meets;
//! * **contained** (`N_cd`) — the (possibly empty) block of tiles strictly
//!   inside the object;
//! * **contains** (`N_cs`) — at most one tile strictly containing the
//!   object.
//!
//! A prefix pass then yields exact `N_d / N_cs / N_cd / N_o` per tile
//! under exactly the snapped Level 2 semantics of `euler_grid::SnappedRect`
//! — the same semantics the estimators approximate, so measured error is
//! purely approximation error.

use euler_core::RelationCounts;
use euler_cube::CubeBuffer;
use euler_grid::{GridRect, SnappedRect, Tiling};

/// Exact per-tile relation counts, in the row-major order of
/// [`Tiling::iter`].
#[derive(Debug, Clone)]
pub struct GroundTruth {
    cols: usize,
    rows: usize,
    counts: Vec<RelationCounts>,
}

impl GroundTruth {
    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Counts for the tile at `(col, row)`.
    pub fn get(&self, col: usize, row: usize) -> &RelationCounts {
        &self.counts[row * self.cols + col]
    }

    /// All counts, row-major.
    pub fn counts(&self) -> &[RelationCounts] {
        &self.counts
    }

    /// Pairs each tile with its counts, in [`Tiling::iter`] order.
    pub fn iter_with<'a>(
        &'a self,
        tiling: &'a Tiling,
    ) -> impl Iterator<Item = (GridRect, &'a RelationCounts)> + 'a {
        tiling.iter().map(|((c, r), q)| (q, self.get(c, r)))
    }
}

/// The per-axis boundary structure of a tiling: tile `c` spans grid lines
/// `[starts[c], starts[c + 1])`.
struct Axis {
    starts: Vec<f64>,
}

impl Axis {
    fn from_tiling_x(t: &Tiling) -> Axis {
        let mut starts: Vec<f64> = (0..t.cols()).map(|c| t.tile(c, 0).x0 as f64).collect();
        starts.push(t.region().x1 as f64);
        Axis { starts }
    }

    fn from_tiling_y(t: &Tiling) -> Axis {
        let mut starts: Vec<f64> = (0..t.rows()).map(|r| t.tile(0, r).y0 as f64).collect();
        starts.push(t.region().y1 as f64);
        Axis { starts }
    }

    fn tiles(&self) -> usize {
        self.starts.len() - 1
    }

    /// Inclusive range of tiles whose open extent intersects `(lo, hi)`,
    /// or `None` when the object misses the region in this axis.
    fn intersect_range(&self, lo: f64, hi: f64) -> Option<(usize, usize)> {
        let n = self.tiles();
        let first = self.starts[0];
        let last = self.starts[n];
        if hi <= first || lo >= last {
            return None;
        }
        // First tile t with end > lo  ⇔  starts[t + 1] > lo.
        let a = self.starts[1..=n].partition_point(|&s| s <= lo);
        // Last tile t with start < hi ⇔  starts[t] < hi.
        let b = self.starts[..n].partition_point(|&s| s < hi) - 1;
        if a > b {
            None
        } else {
            Some((a, b))
        }
    }

    /// Inclusive range of tiles strictly inside `(lo, hi)`, or `None`.
    fn contained_range(&self, lo: f64, hi: f64) -> Option<(usize, usize)> {
        let n = self.tiles();
        // First tile with start > lo.
        let a = self.starts[..n].partition_point(|&s| s <= lo);
        // Last tile with end < hi: starts[t + 1] < hi.
        let b = self.starts[1..=n].partition_point(|&s| s < hi);
        if a >= b || b == 0 {
            None
        } else {
            Some((a, b - 1))
        }
    }

    /// The single tile strictly containing `(lo, hi)`, if any.
    fn containing_tile(&self, lo: f64, hi: f64) -> Option<usize> {
        let n = self.tiles();
        if lo <= self.starts[0] || hi >= self.starts[n] {
            // Extends to or past the region edge — cannot be strictly
            // inside an edge tile unless the tile boundary is strictly
            // outside, handled below by the bound checks.
        }
        // Candidate: last tile with start < lo.
        let t = self.starts[..n].partition_point(|&s| s < lo);
        if t == 0 {
            return None;
        }
        let t = t - 1;
        (self.starts[t] < lo && hi < self.starts[t + 1]).then_some(t)
    }
}

/// Computes exact ground truth for every tile of `tiling`.
pub fn ground_truth(objects: &[SnappedRect], tiling: &Tiling) -> GroundTruth {
    let xs = Axis::from_tiling_x(tiling);
    let ys = Axis::from_tiling_y(tiling);
    let (cols, rows) = (tiling.cols(), tiling.rows());

    let mut intersect = CubeBuffer::zeros(cols, rows);
    let mut contained = CubeBuffer::zeros(cols, rows);
    let mut contains = CubeBuffer::zeros(cols, rows);
    for o in objects {
        let (Some((ix0, ix1)), Some((iy0, iy1))) = (
            xs.intersect_range(o.a(), o.b()),
            ys.intersect_range(o.c(), o.d()),
        ) else {
            continue;
        };
        intersect.add_rect_diff(ix0, iy0, ix1, iy1, 1);
        if let (Some((cx0, cx1)), Some((cy0, cy1))) = (
            xs.contained_range(o.a(), o.b()),
            ys.contained_range(o.c(), o.d()),
        ) {
            contained.add_rect_diff(cx0, cy0, cx1, cy1, 1);
        }
        if let (Some(tx), Some(ty)) = (
            xs.containing_tile(o.a(), o.b()),
            ys.containing_tile(o.c(), o.d()),
        ) {
            contains.add(tx, ty, 1);
        }
    }

    let size = objects.len() as i64;
    intersect.integrate();
    contained.integrate();
    let mut counts = Vec::with_capacity(cols * rows);
    for row in 0..rows {
        for col in 0..cols {
            let n_i = intersect.get(col, row);
            let n_cd = contained.get(col, row);
            let n_cs = contains.get(col, row);
            counts.push(RelationCounts {
                disjoint: size - n_i,
                contains: n_cs,
                contained: n_cd,
                overlaps: n_i - n_cs - n_cd,
            });
        }
    }
    GroundTruth { cols, rows, counts }
}

/// Parallel ground truth over several tilings (one thread per tiling via
/// scoped threads) — the shape of the evaluation's Q₂…Q₂₀ sweep.
pub fn ground_truth_all(objects: &[SnappedRect], tilings: &[Tiling]) -> Vec<GroundTruth> {
    if tilings.len() <= 1 {
        return tilings.iter().map(|t| ground_truth(objects, t)).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = tilings
            .iter()
            .map(|t| s.spawn(move || ground_truth(objects, t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ground-truth worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_core::model::count_by_classification;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Grid, QuerySet, Snapper};
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

    fn random_objects(g: &Grid, n: usize, seed: u64, max_frac: f64) -> Vec<SnappedRect> {
        let s = Snapper::new(*g);
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (g.nx() as f64, g.ny() as f64);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0..w);
                let y = rng.gen_range(0.0..h);
                let ww = rng.gen_range(0.0..w * max_frac);
                let hh = rng.gen_range(0.0..h * max_frac);
                s.snap(&Rect::new(x, y, (x + ww).min(w), (y + hh).min(h)).unwrap())
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_on_uniform_tiling() {
        let g = grid(12, 8);
        let objs = random_objects(&g, 200, 1, 0.8);
        let qs = QuerySet::q_n(&g, 4).unwrap();
        let gt = ground_truth(&objs, qs.tiling());
        for ((c, r), tile) in qs.tiling().iter() {
            let expect = count_by_classification(&objs, &tile);
            assert_eq!(*gt.get(c, r), expect, "tile ({c},{r}) {tile}");
        }
    }

    #[test]
    fn matches_brute_force_on_uneven_tiling() {
        let g = grid(10, 10);
        let objs = random_objects(&g, 150, 2, 0.6);
        let region = GridRect::unchecked(1, 1, 10, 9);
        let t = Tiling::new(region, 4, 3).unwrap(); // uneven: 9/4, 8/3
        let gt = ground_truth(&objs, &t);
        for ((c, r), tile) in t.iter() {
            let expect = count_by_classification(&objs, &tile);
            assert_eq!(*gt.get(c, r), expect, "tile ({c},{r}) {tile}");
        }
    }

    #[test]
    fn objects_outside_region_are_disjoint_everywhere() {
        let g = grid(10, 10);
        let s = Snapper::new(g);
        let objs = vec![s.snap(&Rect::new(0.2, 0.2, 0.8, 0.8).unwrap())];
        let region = GridRect::unchecked(5, 5, 10, 10);
        let t = Tiling::new(region, 2, 2).unwrap();
        let gt = ground_truth(&objs, &t);
        for ((c, r), _) in t.iter() {
            assert_eq!(gt.get(c, r).disjoint, 1);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = grid(12, 8);
        let objs = random_objects(&g, 300, 3, 0.5);
        let tilings: Vec<Tiling> = [2usize, 4]
            .iter()
            .map(|&n| *QuerySet::q_n(&g, n).unwrap().tiling())
            .collect();
        let par = ground_truth_all(&objs, &tilings);
        for (t, gt) in tilings.iter().zip(&par) {
            let seq = ground_truth(&objs, t);
            assert_eq!(seq.counts(), gt.counts());
        }
    }

    proptest! {
        /// Ground truth equals brute-force classification for random
        /// datasets, tile sizes, and sub-regions.
        #[test]
        fn ground_truth_oracle(seed in 0u64..25, cols in 1usize..5, rows in 1usize..5,
                               rx in 0usize..6, ry in 0usize..6) {
            let g = grid(12, 12);
            let objs = random_objects(&g, 80, seed, 0.9);
            let region = GridRect::unchecked(rx, ry, 12, 12);
            prop_assume!(region.width() >= cols && region.height() >= rows);
            let t = Tiling::new(region, cols, rows).unwrap();
            let gt = ground_truth(&objs, &t);
            for ((c, r), tile) in t.iter() {
                prop_assert_eq!(*gt.get(c, r), count_by_classification(&objs, &tile));
            }
        }
    }
}
