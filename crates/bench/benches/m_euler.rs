//! M-EulerApprox latency versus histogram count `m` — the Figure 19(b)
//! observation that query time is "roughly the same … regardless of the
//! number of the histograms used", because the per-query index
//! computation dominates the extra lookups.

use euler_bench::timing::Group;
use euler_core::{Level2Estimator, MEulerApprox};
use euler_datagen::{sz_skew, SzSkewConfig};
use euler_grid::{Grid, GridRect};

fn main() {
    let grid = Grid::paper_default();
    let d = sz_skew(&SzSkewConfig {
        count: 100_000,
        ..SzSkewConfig::default()
    });
    let objects = d.snap(&grid);

    let mut qs = Vec::new();
    for y in (0..grid.ny()).step_by(2) {
        for x in (0..grid.nx()).step_by(2) {
            qs.push(GridRect::unchecked(x, y, x + 2, y + 2));
        }
    }

    let side_sets: [&[usize]; 5] = [
        &[10],
        &[3, 10],
        &[3, 5, 10],
        &[3, 5, 10, 15],
        &[2, 3, 5, 10, 15],
    ];
    let group = Group::new("m_euler_vs_m");
    for sides in side_sets {
        let m = sides.len() + 1;
        let est = MEulerApprox::build(grid, &objects, &MEulerApprox::boundaries_from_sides(sides));
        let mut i = 0usize;
        group.bench(m, || {
            i += 1;
            est.estimate(&qs[i % qs.len()])
        });
    }
    group.finish();
}
