//! The Cumulative Density (CD) algorithm of Jin, An & Sivasubramaniam
//! \[JAS00\].
//!
//! CD counts the objects intersecting an aligned query *exactly* with
//! `O(N)` storage by inclusion–exclusion over the four "entirely beside
//! the query" half-plane predicates:
//!
//! ```text
//! intersect(q) = |S| − |left| − |right| − |below| − |above|
//!              + |left ∧ below| + |left ∧ above|
//!              + |right ∧ below| + |right ∧ above|
//! ```
//!
//! Each conjunction is a 2-D prefix/suffix sum over a histogram of one
//! object **corner** (hence CD's four sub-histograms): e.g.
//! `left ∧ below` needs the count of objects whose *high* corner cell is
//! south-west of the query's low corner. Under snapped semantics every
//! predicate is exact, so CD serves as an independent cross-check of the
//! Euler histogram's `n_ii` in the integration tests.

use euler_core::{Level2Estimator, RelationCounts};
use euler_cube::{Dense2D, PrefixSum2D};
use euler_grid::{Grid, GridRect, SnappedRect};

/// The CD structure: prefix sums over the four corner histograms.
#[derive(Debug, Clone)]
pub struct CdHistogram {
    // Corner histograms over (x-cell, y-cell):
    hh: PrefixSum2D, // (cx1, cy1): high-x, high-y corner
    hl: PrefixSum2D, // (cx1, cy0)
    lh: PrefixSum2D, // (cx0, cy1)
    ll: PrefixSum2D, // (cx0, cy0)
    nx: usize,
    ny: usize,
    size: u64,
}

impl CdHistogram {
    /// Builds the four corner histograms from snapped objects.
    pub fn build(grid: &Grid, objects: &[SnappedRect]) -> CdHistogram {
        let (nx, ny) = (grid.nx(), grid.ny());
        let mut hh = Dense2D::zeros(nx, ny);
        let mut hl = Dense2D::zeros(nx, ny);
        let mut lh = Dense2D::zeros(nx, ny);
        let mut ll = Dense2D::zeros(nx, ny);
        for o in objects {
            hh.add(o.cx1(), o.cy1(), 1);
            hl.add(o.cx1(), o.cy0(), 1);
            lh.add(o.cx0(), o.cy1(), 1);
            ll.add(o.cx0(), o.cy0(), 1);
        }
        // Each corner histogram counts every object once, so its prefix
        // sums are at most N.
        let cube = |a: &Dense2D| PrefixSum2D::build(a).expect("corner sums are at most N");
        CdHistogram {
            hh: cube(&hh),
            hl: cube(&hl),
            lh: cube(&lh),
            ll: cube(&ll),
            nx,
            ny,
            size: objects.len() as u64,
        }
    }

    /// Exact number of objects intersecting the aligned query's open
    /// interior.
    pub fn intersect_count(&self, q: &GridRect) -> i64 {
        let size = self.size as i64;
        let (nx, ny) = (self.nx as i64, self.ny as i64);
        let (qx0, qy0, qx1, qy1) = (q.x0 as i64, q.y0 as i64, q.x1 as i64, q.y1 as i64);
        // Entirely left: b < qx0 ⇔ cx1 ≤ qx0 − 1. Sums over the *high-x*
        // corner; the y coordinate is unconstrained, so pick the matching
        // corner histogram per conjunction.
        let left = self.hh.range_sum_clipped(0, 0, qx0 - 1, ny - 1);
        let right = self.ll.range_sum_clipped(qx1, 0, nx - 1, ny - 1);
        let below = self.hh.range_sum_clipped(0, 0, nx - 1, qy0 - 1);
        let above = self.ll.range_sum_clipped(0, qy1, nx - 1, ny - 1);
        let left_below = self.hh.range_sum_clipped(0, 0, qx0 - 1, qy0 - 1);
        let left_above = self.hl.range_sum_clipped(0, qy1, qx0 - 1, ny - 1);
        let right_below = self.lh.range_sum_clipped(qx1, 0, nx - 1, qy0 - 1);
        let right_above = self.ll.range_sum_clipped(qx1, qy1, nx - 1, ny - 1);
        size - left - right - below - above + left_below + left_above + right_below + right_above
    }

    /// Total bucket storage in entries (`4 · nx · ny`).
    pub fn storage_buckets(&self) -> usize {
        4 * self.nx * self.ny
    }
}

impl Level2Estimator for CdHistogram {
    fn name(&self) -> &'static str {
        "CD"
    }

    /// Level 1 collapse: CD's intersect count is exact, but the four
    /// corner histograms carry no containment information — everything
    /// intersecting lands in `overlaps`.
    fn estimate(&self, q: &GridRect) -> RelationCounts {
        let n_ii = self.intersect_count(q);
        RelationCounts {
            disjoint: self.size as i64 - n_ii,
            contains: 0,
            contained: 0,
            overlaps: n_ii,
        }
    }

    fn object_count(&self) -> u64 {
        self.size
    }

    fn storage_cells(&self) -> u64 {
        self.storage_buckets() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Snapper};
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
                let x = rng.gen_range(0.0..w);
                let y = rng.gen_range(0.0..h);
                let ww = rng.gen_range(0.0..w / 2.0);
                let hh = rng.gen_range(0.0..h / 2.0);
                s.snap(&Rect::new(x, y, (x + ww).min(w), (y + hh).min(h)).unwrap())
            })
            .collect()
    }

    #[test]
    fn exact_intersect_counts() {
        let g = grid(12, 9);
        let objs = random_objects(&g, 400, 7);
        let cd = CdHistogram::build(&g, &objs);
        for (x0, y0, x1, y1) in [
            (0, 0, 12, 9),
            (3, 2, 7, 6),
            (0, 0, 1, 1),
            (11, 8, 12, 9),
            (0, 4, 12, 5),
        ] {
            let q = GridRect::unchecked(x0, y0, x1, y1);
            let expect = objs.iter().filter(|o| o.intersects(&q)).count() as i64;
            assert_eq!(cd.intersect_count(&q), expect, "query {q}");
        }
    }

    #[test]
    fn storage_is_linear() {
        let g = grid(360, 180);
        let cd = CdHistogram::build(&g, &[]);
        assert_eq!(cd.storage_buckets(), 4 * 360 * 180);
    }

    proptest! {
        /// CD is exact for any dataset and aligned query.
        #[test]
        fn cd_is_exact(seed in 0u64..30,
                       qx in 0usize..11, qy in 0usize..8,
                       qw in 1usize..12, qh in 1usize..9) {
            let g = grid(12, 9);
            let objs = random_objects(&g, 120, seed);
            let cd = CdHistogram::build(&g, &objs);
            let q = GridRect::unchecked(qx, qy, (qx + qw).min(12), (qy + qh).min(9));
            let expect = objs.iter().filter(|o| o.intersects(&q)).count() as i64;
            prop_assert_eq!(cd.intersect_count(&q), expect);
        }
    }
}
