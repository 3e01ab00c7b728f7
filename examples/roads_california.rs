//! Exploring a road-network dataset (the paper's `ca_road` scenario):
//! millions of tiny segment MBRs, where S-EulerApprox is essentially
//! exact. Demonstrates incremental maintenance too — the Euler histogram
//! is a linear sketch, so live inserts/removes on the browse service are
//! exact.
//!
//! ```sh
//! cargo run --release --example roads_california
//! ```

use spatial_histograms::browse::{render_heatmap, Relation};
use spatial_histograms::core::{EulerHistogram, Level2Estimator};
use spatial_histograms::datagen::exact::ground_truth;
use spatial_histograms::datagen::{road_like, RoadConfig};
use spatial_histograms::metrics::ErrorAccumulator;
use spatial_histograms::prelude::*;

fn main() {
    let grid = Grid::paper_default();
    let dataset = road_like(&RoadConfig {
        target_count: 300_000,
        ..RoadConfig::default()
    });
    let objects = dataset.snap(&grid);
    println!("{}: {} segments", dataset.name(), objects.len());

    // Build and browse.
    let service = GeoBrowsingService::preloaded(EulerHistogram::build(grid, &objects));
    let tiling = Tiling::new(grid.full(), 60, 30).unwrap();
    let result = service.browse(&tiling, &BrowseRequest::new());
    println!("\n=== segments INTERSECTING each 6x6-degree tile ===");
    print!("{}", render_heatmap(&result, Relation::Intersect));

    // Accuracy audit against exact ground truth (difference arrays).
    let gt = ground_truth(&objects, &tiling);
    let mut acc_i = ErrorAccumulator::default();
    let mut acc_cs = ErrorAccumulator::default();
    for ((c, r), _tile) in tiling.iter() {
        let e = result.get(c, r);
        let x = gt.get(c, r);
        acc_i.push(x.intersecting() as f64, e.intersecting() as f64);
        acc_cs.push(x.contains as f64, e.contains as f64);
    }
    println!(
        "accuracy over {} tiles: intersect ARE {:.5}, contains ARE {:.5}",
        tiling.len(),
        acc_i.are(),
        acc_cs.are()
    );

    // Live updates: close a highway corridor (remove its segments), then
    // re-browse without rebuilding anything else.
    let corridor = Rect::new(100.0, 80.0, 140.0, 100.0).unwrap();
    let removed: Vec<_> = dataset
        .rects()
        .iter()
        .filter(|r| r.intersects_closed(&corridor))
        .collect();
    for r in &removed {
        service.remove(r);
    }
    let q = grid.align(&corridor, 1e-9).unwrap();
    println!(
        "\nremoved {} segments in {corridor}; intersecting there now: {}",
        removed.len(),
        service
            .pin_session()
            .estimator()
            .estimate(&q)
            .intersecting()
    );
}
