//! Per-query latency of every estimator — the constant-time claim of
//! §5.2/§6.5, with the exact baselines for contrast. A browsing query of
//! 5,000 tiles must finish in 100 ms (§6.5 footnote), i.e. 20 µs/tile;
//! the Euler family sits in the tens of nanoseconds.

use euler_baselines::{BtHistogram, CdHistogram, MinSkew, NaiveScan, RTreeOracle};
use euler_bench::timing::Group;
use euler_core::{EulerApprox, EulerHistogram, Level2Estimator, MEulerApprox, SEulerApprox};
use euler_datagen::{adl_like, AdlConfig};
use euler_grid::{Grid, GridRect};

fn queries(grid: &Grid) -> Vec<GridRect> {
    // A Q10-style set of 648 tiles, iterated cyclically.
    let mut v = Vec::new();
    for y in (0..grid.ny()).step_by(10) {
        for x in (0..grid.nx()).step_by(10) {
            v.push(GridRect::unchecked(x, y, x + 10, y + 10));
        }
    }
    v
}

fn main() {
    let grid = Grid::paper_default();
    let d = adl_like(&AdlConfig {
        count: 100_000,
        ..AdlConfig::default()
    });
    let objects = d.snap(&grid);
    let qs = queries(&grid);

    let hist = EulerHistogram::build(grid, &objects).freeze();
    let s_euler = SEulerApprox::new(hist.clone());
    let euler = EulerApprox::new(hist);
    let m2 = MEulerApprox::build(grid, &objects, &MEulerApprox::boundaries_from_sides(&[10]));
    let m5 = MEulerApprox::build(
        grid,
        &objects,
        &MEulerApprox::boundaries_from_sides(&[3, 5, 10, 15]),
    );
    let cd = CdHistogram::build(&grid, &objects);
    let bt = BtHistogram::build(grid, &objects);
    let minskew = MinSkew::build(&grid, &objects, 64);
    let rtree = RTreeOracle::build(&objects);
    // Naive scan gets a smaller dataset or it dominates the run.
    let naive = NaiveScan::new(objects[..10_000].to_vec());

    let group = Group::new("query_latency");
    let mut i = 0usize;
    let mut next = || {
        i += 1;
        qs[i % qs.len()]
    };

    group.bench("s_euler", || s_euler.estimate(&next()));
    group.bench("euler", || euler.estimate(&next()));
    group.bench("m_euler_2", || m2.estimate(&next()));
    group.bench("m_euler_5", || m5.estimate(&next()));
    group.bench("cd_intersect", || cd.intersect_count(&next()));
    group.bench("bt_intersect", || bt.intersect_count(&next()));
    group.bench("minskew_intersect", || minskew.intersect_estimate(&next()));
    group.bench("rtree_exact", || rtree.estimate(&next()));
    group.bench("naive_scan_10k", || naive.estimate(&next()));
    group.finish();
}
