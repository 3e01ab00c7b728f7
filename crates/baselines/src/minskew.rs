//! The Min-skew spatial histogram of Acharya, Poosala & Ramaswamy
//! \[APR99\] — the selectivity-estimation baseline the paper contrasts in
//! §2/§3 ("if an object spans several histogram buckets, it is counted
//! once in each bucket … the result may not be accurate").
//!
//! Construction follows APR99's greedy binary space partitioning: start
//! from one bucket over the whole grid; repeatedly split the bucket/axis/
//! position whose split maximally reduces total *spatial skew* (the sum of
//! squared deviations of per-cell density from the bucket mean), until the
//! bucket budget is spent. Candidate evaluation is O(1) per position via
//! prefix sums of density and squared density.
//!
//! Estimation uses the uniform-within-bucket model: each bucket stores its
//! object count (objects assigned by **center**) and mean object extent;
//! a query's expected intersect count from a bucket is the fraction of the
//! bucket covered by the query expanded by half the mean extent.

use euler_core::{Level2Estimator, RelationCounts};
use euler_cube::{DenseNd, PrefixSumNd};
use euler_grid::{Grid, GridRect, SnappedRect};

/// One Min-skew bucket: a cell-aligned region with its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MinSkewBucket {
    /// Cell range `[x0, x1) × [y0, y1)` in grid coordinates.
    pub x0: usize,
    /// See `x0`.
    pub y0: usize,
    /// See `x0`.
    pub x1: usize,
    /// See `x0`.
    pub y1: usize,
    /// Objects whose center falls in the bucket.
    pub count: u64,
    /// Mean object width among those objects (grid units).
    pub mean_w: f64,
    /// Mean object height (grid units).
    pub mean_h: f64,
}

/// The Min-skew histogram.
#[derive(Debug, Clone)]
pub struct MinSkew {
    buckets: Vec<MinSkewBucket>,
    size: u64,
}

/// Prefix sums of density and squared density. Both are `i64` cubes:
/// a density sum counts an object once per cell it covers, and a square
/// sum grows with N², so neither is bounded by the object count the way
/// the 32-bit 2-D cube's values must be.
struct SkewContext {
    sum: PrefixSumNd,
    sq: PrefixSumNd,
}

impl SkewContext {
    /// Spatial skew of a cell region: Σd² − (Σd)²/n.
    fn skew(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        let n = ((x1 - x0) * (y1 - y0)) as f64;
        let (lo, hi) = ([x0, y0], [x1 - 1, y1 - 1]);
        let s = self.sum.range_sum(&lo, &hi) as f64;
        let s2 = self.sq.range_sum(&lo, &hi) as f64;
        s2 - s * s / n
    }
}

impl MinSkew {
    /// Builds a Min-skew histogram with at most `budget` buckets.
    pub fn build(grid: &Grid, objects: &[SnappedRect], budget: usize) -> MinSkew {
        assert!(budget >= 1, "need at least one bucket");
        let (nx, ny) = (grid.nx(), grid.ny());
        // Spatial density: number of objects overlapping each cell.
        let mut density = euler_cube::CubeBuffer::zeros(nx, ny);
        for o in objects {
            density.add_rect_diff(o.cx0(), o.cy0(), o.cx1(), o.cy1(), 1);
        }
        density.integrate();
        let mut sum = DenseNd::zeros(&[nx, ny]);
        let mut sq = DenseNd::zeros(&[nx, ny]);
        for y in 0..ny {
            for x in 0..nx {
                let d = density.get(x, y);
                sum.add(&[x, y], d);
                sq.add(&[x, y], d * d);
            }
        }
        let ctx = SkewContext {
            sum: PrefixSumNd::build(&sum),
            sq: PrefixSumNd::build(&sq),
        };

        // Greedy BSP: (region, its skew) max-heap by best split gain.
        let mut regions: Vec<(usize, usize, usize, usize)> = vec![(0, 0, nx, ny)];
        while regions.len() < budget {
            // Find the globally best split.
            let mut best: Option<(usize, f64, usize, usize, bool)> = None; // (region idx, gain, pos, _, vertical)
            for (ri, &(x0, y0, x1, y1)) in regions.iter().enumerate() {
                let base = ctx.skew(x0, y0, x1, y1);
                for sx in (x0 + 1)..x1 {
                    let gain = base - ctx.skew(x0, y0, sx, y1) - ctx.skew(sx, y0, x1, y1);
                    if best.as_ref().is_none_or(|b| gain > b.1) {
                        best = Some((ri, gain, sx, 0, true));
                    }
                }
                for sy in (y0 + 1)..y1 {
                    let gain = base - ctx.skew(x0, y0, x1, sy) - ctx.skew(x0, sy, x1, y1);
                    if best.as_ref().is_none_or(|b| gain > b.1) {
                        best = Some((ri, gain, sy, 0, false));
                    }
                }
            }
            let Some((ri, gain, pos, _, vertical)) = best else {
                break; // nothing splittable
            };
            if gain <= 0.0 {
                break; // splitting no longer reduces skew
            }
            let (x0, y0, x1, y1) = regions.swap_remove(ri);
            if vertical {
                regions.push((x0, y0, pos, y1));
                regions.push((pos, y0, x1, y1));
            } else {
                regions.push((x0, y0, x1, pos));
                regions.push((x0, pos, x1, y1));
            }
        }

        // Bucket statistics: assign each object to the bucket holding its
        // center.
        let mut stats: Vec<(u64, f64, f64)> = vec![(0, 0.0, 0.0); regions.len()];
        for o in objects {
            let cx = (o.a() + o.b()) / 2.0;
            let cy = (o.c() + o.d()) / 2.0;
            for (i, &(x0, y0, x1, y1)) in regions.iter().enumerate() {
                if cx >= x0 as f64 && cx < x1 as f64 && cy >= y0 as f64 && cy < y1 as f64 {
                    stats[i].0 += 1;
                    stats[i].1 += o.b() - o.a();
                    stats[i].2 += o.d() - o.c();
                    break;
                }
            }
        }
        let buckets = regions
            .iter()
            .zip(&stats)
            .map(
                |(&(x0, y0, x1, y1), &(count, w_sum, h_sum))| MinSkewBucket {
                    x0,
                    y0,
                    x1,
                    y1,
                    count,
                    mean_w: if count > 0 { w_sum / count as f64 } else { 0.0 },
                    mean_h: if count > 0 { h_sum / count as f64 } else { 0.0 },
                },
            )
            .collect();
        MinSkew {
            buckets,
            size: objects.len() as u64,
        }
    }

    /// The buckets of the histogram.
    pub fn buckets(&self) -> &[MinSkewBucket] {
        &self.buckets
    }

    /// Storage in bucket records (each bucket is 7 scalars).
    pub fn storage_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Approximate Level 1 intersect count for an aligned query.
    pub fn intersect_estimate(&self, q: &GridRect) -> f64 {
        // An object with mean extent (w, h) and center c intersects q iff
        // c lies in q expanded by (w/2, h/2); centers are uniform within
        // their bucket.
        let mut total = 0.0;
        for b in &self.buckets {
            if b.count == 0 {
                continue;
            }
            let ex0 = q.x0 as f64 - b.mean_w / 2.0;
            let ex1 = q.x1 as f64 + b.mean_w / 2.0;
            let ey0 = q.y0 as f64 - b.mean_h / 2.0;
            let ey1 = q.y1 as f64 + b.mean_h / 2.0;
            let ox = (ex1.min(b.x1 as f64) - ex0.max(b.x0 as f64)).max(0.0);
            let oy = (ey1.min(b.y1 as f64) - ey0.max(b.y0 as f64)).max(0.0);
            let bucket_area = ((b.x1 - b.x0) * (b.y1 - b.y0)) as f64;
            total += b.count as f64 * (ox * oy / bucket_area).min(1.0);
        }
        total
    }
}

impl Level2Estimator for MinSkew {
    fn name(&self) -> &'static str {
        "Min-skew"
    }

    /// Level 1 collapse: the uniformity model yields an (approximate)
    /// intersect count only — everything intersecting lands in
    /// `overlaps`, rounded to the nearest object.
    fn estimate(&self, q: &GridRect) -> RelationCounts {
        let n_ii = self.intersect_estimate(q).round() as i64;
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
        // Seven scalars per bucket record.
        (self.buckets.len() * 7) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Snapper};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid(nx: usize, ny: usize) -> Grid {
        Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
            nx,
            ny,
        )
        .unwrap()
    }

    fn clustered_objects(g: &Grid, n: usize, seed: u64) -> Vec<SnappedRect> {
        let s = Snapper::new(*g);
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (g.nx() as f64, g.ny() as f64);
        (0..n)
            .map(|i| {
                // Two dense clusters plus uniform noise.
                let (cx, cy) = match i % 10 {
                    0..=4 => (
                        w * 0.2 + rng.gen_range(-1.0..1.0),
                        h * 0.3 + rng.gen_range(-1.0..1.0),
                    ),
                    5..=7 => (
                        w * 0.8 + rng.gen_range(-1.5..1.5),
                        h * 0.7 + rng.gen_range(-1.5..1.5),
                    ),
                    _ => (rng.gen_range(0.0..w), rng.gen_range(0.0..h)),
                };
                let x = cx.clamp(0.0, w - 0.6);
                let y = cy.clamp(0.0, h - 0.6);
                s.snap(&Rect::new(x, y, x + 0.5, y + 0.5).unwrap())
            })
            .collect()
    }

    #[test]
    fn buckets_partition_the_grid() {
        let g = grid(16, 12);
        let objs = clustered_objects(&g, 400, 1);
        let ms = MinSkew::build(&g, &objs, 12);
        assert!(ms.buckets().len() <= 12);
        let area: usize = ms
            .buckets()
            .iter()
            .map(|b| (b.x1 - b.x0) * (b.y1 - b.y0))
            .sum();
        assert_eq!(area, 16 * 12, "buckets must tile the grid");
        let count: u64 = ms.buckets().iter().map(|b| b.count).sum();
        assert_eq!(count, 400, "every object assigned to one bucket");
    }

    #[test]
    fn estimates_track_exact_counts_roughly() {
        let g = grid(16, 12);
        let objs = clustered_objects(&g, 600, 2);
        let ms = MinSkew::build(&g, &objs, 24);
        // Relative error over several queries should be moderate (it is an
        // approximation, not an oracle).
        let mut err_sum = 0.0;
        let mut exact_sum = 0.0;
        for (x0, y0, x1, y1) in [(0, 0, 8, 6), (8, 6, 16, 12), (4, 3, 12, 9), (0, 0, 16, 12)] {
            let q = GridRect::unchecked(x0, y0, x1, y1);
            let exact = objs.iter().filter(|o| o.intersects(&q)).count() as f64;
            err_sum += (ms.intersect_estimate(&q) - exact).abs();
            exact_sum += exact;
        }
        let are = err_sum / exact_sum;
        assert!(are < 0.25, "average relative error {are}");
    }

    #[test]
    fn splits_follow_skew() {
        // One dense cluster in an otherwise empty grid: the first splits
        // should isolate the cluster, so bucket cell-counts must differ.
        let g = grid(16, 12);
        let objs = clustered_objects(&g, 500, 3);
        let ms = MinSkew::build(&g, &objs, 8);
        let areas: Vec<usize> = ms
            .buckets()
            .iter()
            .map(|b| (b.x1 - b.x0) * (b.y1 - b.y0))
            .collect();
        assert!(
            areas.iter().any(|&a| a != areas[0]),
            "non-uniform partition"
        );
    }

    #[test]
    fn whole_space_estimate_is_dataset_size() {
        let g = grid(16, 12);
        let objs = clustered_objects(&g, 300, 4);
        let ms = MinSkew::build(&g, &objs, 16);
        let q = GridRect::unchecked(0, 0, 16, 12);
        let est = ms.intersect_estimate(&q);
        assert!((est - 300.0).abs() < 1.0, "estimate {est}");
    }
}
