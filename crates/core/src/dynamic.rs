//! The dynamic Euler histogram: Level 2 browsing queries stay available
//! **while** objects stream in and out, with no refreeze.
//!
//! The static pipeline (mutable [`crate::EulerHistogram`] →
//! [`crate::EulerHistogram::freeze`] → O(1) queries) pays O(buckets) per
//! snapshot, which a write-heavy service amortizes awkwardly. This
//! structure instead keeps the signed bucket array in **four
//! range-update/range-query Fenwick trees** — one per Euler index parity
//! class (faces, vertical edges, horizontal edges, vertices). An object's
//! footprint is a constant ±1 over a contiguous Euler rectangle, i.e. one
//! clipped rectangle-add per class, so:
//!
//! * insert / remove: `O(log² n)`;
//! * any signed region sum (hence every estimator quantity): `O(log² n)`.
//!
//! This realizes, for Euler histograms, the update-efficient-cube
//! trade-off the paper points to in §2 (\[GRAE99\], \[RAE00\]): the
//! static cube is faster to read, the dynamic one never blocks on
//! rebuilds. `benches/dynamic_updates.rs` measures the crossover.

use euler_cube::RangeFenwick2D;
use euler_grid::{Grid, GridRect, SnappedRect};

use crate::EulerSource;

/// A dynamic (incrementally updatable) Euler histogram.
#[derive(Debug, Clone)]
pub struct DynamicEulerHistogram {
    grid: Grid,
    /// Parity classes indexed by `(px, py)`: `class[py][px]`, where the
    /// Euler index is `(2i + px, 2j + py)`.
    classes: [[RangeFenwick2D; 2]; 2],
    object_count: u64,
}

/// Per-axis class extents: even slots = `n`, odd slots = `n − 1`.
fn class_len(cells: usize, parity: usize) -> usize {
    if parity == 0 {
        cells
    } else {
        cells - 1
    }
}

/// Class-coordinate range covering Euler indices `[e0, e1]` for a given
/// parity, or `None` when empty. Inputs may exceed the valid Euler range;
/// callers clip afterwards via the Fenwick's clipped sum.
fn class_range(e0: i64, e1: i64, parity: i64) -> Option<(i64, i64)> {
    // Smallest i with 2i + parity >= e0, largest with 2i + parity <= e1.
    let lo = (e0 - parity).div_euclid(2) + i64::from((e0 - parity).rem_euclid(2) != 0);
    let hi = (e1 - parity).div_euclid(2);
    (lo <= hi).then_some((lo, hi))
}

impl DynamicEulerHistogram {
    /// An empty dynamic histogram over `grid`. Grids must be at least
    /// 2×2 cells (a 1-cell axis has no odd Euler slots).
    pub fn new(grid: Grid) -> DynamicEulerHistogram {
        assert!(
            grid.nx() >= 2 && grid.ny() >= 2,
            "dynamic histogram needs at least a 2x2 grid"
        );
        let make = |px: usize, py: usize| {
            RangeFenwick2D::new(class_len(grid.nx(), px), class_len(grid.ny(), py))
        };
        DynamicEulerHistogram {
            grid,
            classes: [[make(0, 0), make(1, 0)], [make(0, 1), make(1, 1)]],
            object_count: 0,
        }
    }

    /// Builds from a batch of snapped objects (sequence of inserts).
    pub fn build(grid: Grid, objects: &[SnappedRect]) -> DynamicEulerHistogram {
        let mut h = DynamicEulerHistogram::new(grid);
        for o in objects {
            h.insert(o);
        }
        h
    }

    /// Inserts one object: four clipped rectangle updates.
    pub fn insert(&mut self, o: &SnappedRect) {
        self.apply(o, 1);
        self.object_count += 1;
    }

    /// Removes a previously inserted object (linear sketch).
    pub fn remove(&mut self, o: &SnappedRect) {
        assert!(self.object_count > 0, "remove from empty histogram");
        self.apply(o, -1);
        self.object_count -= 1;
    }

    fn apply(&mut self, o: &SnappedRect, delta: i64) {
        let (ex0, ex1) = (2 * o.cx0() as i64, 2 * o.cx1() as i64);
        let (ey0, ey1) = (2 * o.cy0() as i64, 2 * o.cy1() as i64);
        for py in 0..2usize {
            for px in 0..2usize {
                let Some((x0, x1)) = class_range(ex0, ex1, px as i64) else {
                    continue;
                };
                let Some((y0, y1)) = class_range(ey0, ey1, py as i64) else {
                    continue;
                };
                // Footprints are always in range; add directly.
                self.classes[py][px].add_rect(
                    x0 as usize,
                    y0 as usize,
                    x1 as usize,
                    y1 as usize,
                    delta,
                );
            }
        }
    }

    /// Signed sum over a clipped Euler-index rectangle: the parity-class
    /// decomposition of the frozen histogram's `signed_sum`.
    pub fn signed_sum(&self, ex0: i64, ey0: i64, ex1: i64, ey1: i64) -> i64 {
        if ex0 > ex1 || ey0 > ey1 {
            return 0;
        }
        let mut sum = 0;
        for py in 0..2usize {
            for px in 0..2usize {
                let Some((x0, x1)) = class_range(ex0, ex1, px as i64) else {
                    continue;
                };
                let Some((y0, y1)) = class_range(ey0, ey1, py as i64) else {
                    continue;
                };
                let sign = if (px + py) % 2 == 0 { 1 } else { -1 };
                sum += sign * self.classes[py][px].range_sum_clipped(x0, y0, x1, y1);
            }
        }
        sum
    }
}

impl EulerSource for DynamicEulerHistogram {
    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn object_count(&self) -> u64 {
        self.object_count
    }

    fn inside_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        debug_assert!(x0 < x1 && y0 < y1);
        self.signed_sum(
            2 * x0 as i64,
            2 * y0 as i64,
            2 * x1 as i64 - 2,
            2 * y1 as i64 - 2,
        )
    }

    fn closed_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        debug_assert!(x0 < x1 && y0 < y1);
        self.signed_sum(
            2 * x0 as i64 - 1,
            2 * y0 as i64 - 1,
            2 * x1 as i64 - 1,
            2 * y1 as i64 - 1,
        )
    }
}

/// Convenience: S-EulerApprox counts straight off the dynamic histogram.
impl DynamicEulerHistogram {
    /// Estimates Level 2 counts with the S-EulerApprox algebra.
    pub fn s_euler_estimate(&self, q: &GridRect) -> crate::RelationCounts {
        crate::s_euler_counts(self, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EulerHistogram, EulerSource};
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
                let ww = rng.gen_range(0.0..w);
                let hh = rng.gen_range(0.0..h);
                s.snap(&Rect::new(x, y, (x + ww).min(w), (y + hh).min(h)).unwrap())
            })
            .collect()
    }

    #[test]
    fn matches_frozen_on_all_query_quantities() {
        let g = grid(14, 11);
        let objects = random_objects(&g, 200, 1);
        let frozen = EulerHistogram::build(g, &objects).freeze();
        let dynamic = DynamicEulerHistogram::build(g, &objects);
        for (x0, y0, x1, y1) in [
            (0usize, 0usize, 14usize, 11usize),
            (3, 2, 9, 8),
            (0, 0, 1, 1),
            (13, 10, 14, 11),
            (5, 0, 6, 11),
        ] {
            let q = GridRect::unchecked(x0, y0, x1, y1);
            assert_eq!(
                dynamic.intersect_count(&q),
                frozen.intersect_count(&q),
                "n_ii {q}"
            );
            assert_eq!(dynamic.outside_sum(&q), frozen.outside_sum(&q), "n'_ei {q}");
            assert_eq!(
                dynamic.closed_sum(x0, y0, x1, y1),
                frozen.closed_sum(x0, y0, x1, y1),
                "closed {q}"
            );
        }
        assert_eq!(dynamic.total(), frozen.total());
    }

    #[test]
    fn estimates_match_static_s_euler() {
        let g = grid(12, 12);
        let objects = random_objects(&g, 150, 2);
        let frozen = crate::SEulerApprox::new(EulerHistogram::build(g, &objects).freeze());
        let dynamic = DynamicEulerHistogram::build(g, &objects);
        use crate::Level2Estimator;
        for (x0, y0, x1, y1) in [(2, 2, 7, 7), (0, 0, 12, 12), (10, 10, 12, 12)] {
            let q = GridRect::unchecked(x0, y0, x1, y1);
            assert_eq!(dynamic.s_euler_estimate(&q), frozen.estimate(&q), "{q}");
        }
    }

    #[test]
    fn remove_is_exact() {
        let g = grid(10, 10);
        let objects = random_objects(&g, 80, 3);
        let mut dynamic = DynamicEulerHistogram::build(g, &objects);
        // Remove the odd-indexed half.
        let kept: Vec<SnappedRect> = objects.iter().step_by(2).copied().collect();
        for o in objects.iter().skip(1).step_by(2) {
            dynamic.remove(o);
        }
        let frozen = EulerHistogram::build(g, &kept).freeze();
        for (x0, y0, x1, y1) in [(0, 0, 10, 10), (3, 3, 6, 6)] {
            let q = GridRect::unchecked(x0, y0, x1, y1);
            assert_eq!(dynamic.intersect_count(&q), frozen.intersect_count(&q));
            assert_eq!(dynamic.outside_sum(&q), frozen.outside_sum(&q));
        }
    }

    proptest! {
        /// Dynamic and frozen histograms agree on every signed sum for
        /// random datasets and random Euler-index rectangles.
        #[test]
        fn signed_sums_agree(seed in 0u64..20,
                             ex0 in -2i64..28, ey0 in -2i64..22,
                             w in 0i64..30, h in 0i64..24) {
            let g = grid(13, 10);
            let objects = random_objects(&g, 60, seed);
            let frozen = EulerHistogram::build(g, &objects).freeze();
            let dynamic = DynamicEulerHistogram::build(g, &objects);
            let (ex1, ey1) = (ex0 + w, ey0 + h);
            prop_assert_eq!(
                dynamic.signed_sum(ex0, ey0, ex1, ey1),
                frozen.signed_sum(ex0, ey0, ex1, ey1)
            );
        }
    }
}
