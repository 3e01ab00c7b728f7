//! Histogram construction benchmarks: bulk (difference-array) vs
//! incremental insertion, Euler vs CD vs Min-skew vs R-tree build — the
//! preprocessing side of §5's storage/time trade-off.

use euler_baselines::{CdHistogram, MinSkew, RTreeOracle};
use euler_bench::timing::Group;
use euler_core::{EulerHistogram, MEulerApprox};
use euler_datagen::{sz_skew, SzSkewConfig};
use euler_grid::{Grid, SnappedRect};
use euler_rtree::{Entry, RTree};

fn dataset(n: usize) -> (Grid, Vec<SnappedRect>) {
    let grid = Grid::paper_default();
    let d = sz_skew(&SzSkewConfig {
        count: n,
        ..SzSkewConfig::default()
    });
    let snapped = d.snap(&grid);
    (grid, snapped)
}

fn main() {
    let (grid, objects) = dataset(100_000);
    let mut group = Group::new("construction");
    group.throughput(objects.len() as u64);

    group.bench("euler_bulk_100k", || EulerHistogram::build(grid, &objects));

    group.bench("euler_incremental_100k", || {
        let mut h = EulerHistogram::new(grid);
        for o in &objects {
            h.insert(o);
        }
        h
    });

    let h = EulerHistogram::build(grid, &objects);
    group.bench_batched("euler_freeze", || h.clone(), |h| h.freeze());

    group.bench("m_euler_build_3_100k", || {
        MEulerApprox::build(
            grid,
            &objects,
            &MEulerApprox::boundaries_from_sides(&[3, 10]),
        )
    });

    group.bench("cd_build_100k", || CdHistogram::build(&grid, &objects));

    group.bench("minskew_build_64_100k", || {
        MinSkew::build(&grid, &objects, 64)
    });

    group.bench("rtree_bulk_load_100k", || RTreeOracle::build(&objects));

    let entries: Vec<Entry> = objects
        .iter()
        .enumerate()
        .map(|(i, o)| Entry {
            rect: euler_geom::Rect::new(o.a(), o.c(), o.b(), o.d()).unwrap(),
            id: i as u64,
        })
        .collect();
    group.bench("rtree_hilbert_load_100k", || {
        RTree::bulk_load_hilbert(entries.clone())
    });

    group.finish();
}
