//! End-to-end browsing-service tests: the full §1 workflow (select →
//! tile → count per relation → render → advise) across backends, plus
//! concurrent use of the updatable service.

use std::sync::Arc;

use spatial_histograms::browse::{
    advise, render_heatmap, BrowseResult, ExactBrowser, GeoBrowsingService, Relation,
};
use spatial_histograms::core::{EulerHistogram, MEulerApprox, SEulerApprox};
use spatial_histograms::datagen::{paper_dataset, road_like, RoadConfig};
use spatial_histograms::prelude::*;

/// One browse of `tiling` over `est`, through the shared browse path.
fn browse(est: &SharedEstimator, tiling: &Tiling) -> BrowseResult {
    run_browse(est, &Recorder::shared(), tiling, &BrowseRequest::new())
}

#[test]
fn euler_browser_matches_exact_browser_on_small_objects() {
    let grid = Grid::paper_default();
    let d = road_like(&RoadConfig {
        target_count: 30_000,
        ..RoadConfig::default()
    });
    let objects = d.snap(&grid);
    let exact = ExactBrowser::new(objects.clone());
    let euler: SharedEstimator = Arc::new(SEulerApprox::new(
        EulerHistogram::build(grid, &objects).freeze(),
    ));
    for (cols, rows) in [(36, 18), (22, 24), (5, 3)] {
        let tiling = Tiling::new(grid.full(), cols, rows).unwrap();
        let a = exact.browse(&tiling);
        let b = browse(&euler, &tiling);
        for ((c, r), _tile) in tiling.iter() {
            assert_eq!(a.get(c, r), b.get(c, r), "{cols}x{rows} tile ({c},{r})");
        }
    }
}

#[test]
fn m_euler_browser_close_to_exact_on_adl() {
    let grid = Grid::paper_default();
    let d = paper_dataset("adl", 100).unwrap();
    let objects = d.snap(&grid);
    let exact = ExactBrowser::new(objects.clone());
    let m: SharedEstimator = Arc::new(MEulerApprox::build(
        grid,
        &objects,
        &MEulerApprox::boundaries_from_sides(&[10]),
    ));
    let tiling = Tiling::new(grid.full(), 36, 18).unwrap();
    let a = exact.browse(&tiling);
    let b = browse(&m, &tiling);
    let (mut err, mut mass) = (0.0, 0.0);
    for ((c, r), _t) in tiling.iter() {
        err += (a.get(c, r).contains - b.get(c, r).contains).abs() as f64;
        mass += a.get(c, r).contains as f64;
    }
    assert!(err / mass < 0.05, "browse-level ARE {}", err / mass);
}

#[test]
fn heatmap_and_advice_pipeline() {
    let grid = Grid::paper_default();
    let d = paper_dataset("sp_skew", 200).unwrap();
    let service = GeoBrowsingService::with_objects(grid, d.rects());
    let tiling = Tiling::new(grid.full(), 36, 18).unwrap();
    let result = service.browse(&tiling, &BrowseRequest::default());

    let map = render_heatmap(&result, Relation::Intersect);
    // Frame: 18 map rows + 2 borders + legend line.
    assert_eq!(map.lines().count(), 21);
    assert!(map.lines().all(|l| l.len() <= 38 + 60));

    let tips = advise(&result, Relation::Intersect, 1_000_000);
    assert!(tips.hottest.is_some());
    assert!(tips.mega_fraction <= 1.0 && tips.zero_fraction <= 1.0);

    // The clustered dataset must produce an informative (non-uniform) map.
    let max = result.max_of(Relation::Intersect);
    let zeros = result
        .counts()
        .iter()
        .filter(|c| c.intersecting() == 0)
        .count();
    assert!(max > 0);
    assert!(zeros > 0, "sp_skew leaves empty regions");
}

#[test]
fn polygon_ingest_filter_and_refine() {
    // The full production pipeline: polygons → MBRs → snapped histogram →
    // browse (filter step) → exact polygon tests on the hot tile (refine
    // step). The histogram's intersect count upper-bounds the refined one.
    use spatial_histograms::geom::{Point, Polygon};
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let polygons: Vec<Polygon> = (0..300)
        .map(|i| {
            let cx = 30.0 + (i * 13 % 300) as f64;
            let cy = 20.0 + (i * 29 % 140) as f64;
            // Diamond (fills half its MBR).
            Polygon::new(vec![
                Point::new(cx, cy - 3.0),
                Point::new(cx + 4.0, cy),
                Point::new(cx, cy + 3.0),
                Point::new(cx - 4.0, cy),
            ])
            .unwrap()
        })
        .collect();
    let mbrs: Vec<Rect> = polygons.iter().map(|p| p.mbr()).collect();
    for (p, m) in polygons.iter().zip(&mbrs) {
        assert!((p.mbr_coverage() - 0.5).abs() < 1e-9);
        assert!(m.area() > 0.0);
    }
    let service = GeoBrowsingService::with_objects(grid, &mbrs);
    let tiling = Tiling::new(grid.full(), 6, 3).unwrap();
    let result = service.browse(&tiling, &BrowseRequest::default());
    // Refine the hottest tile: count polygons whose geometry actually
    // reaches the tile center region (a cheap proxy for exact overlap).
    let tips = spatial_histograms::browse::advise(
        &result,
        spatial_histograms::browse::Relation::Intersect,
        1_000_000,
    );
    let ((c, r), mbr_hits) = tips.hottest.unwrap();
    let tile = tiling.tile(c, r);
    let tile_rect = grid.rect_of(&tile);
    let refined = polygons
        .iter()
        .filter(|p| p.mbr().intersects_open(&tile_rect))
        .count() as i64;
    assert!(refined <= mbr_hits, "filter step upper-bounds refinement");
    assert!(refined > 0);
}

#[test]
fn service_updates_visible_to_new_snapshots_only() {
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let service = GeoBrowsingService::new(grid);
    let tiling = Tiling::new(grid.full(), 6, 3).unwrap();
    assert_eq!(
        service.browse(&tiling, &BrowseRequest::default()).counts()[0].total(),
        0
    );

    service.insert(&Rect::new(15.0, 15.0, 25.0, 25.0).unwrap());
    let pin_before = service.pin_session();
    service.insert(&Rect::new(100.0, 100.0, 120.0, 110.0).unwrap());
    assert_eq!(pin_before.estimator().object_count(), 1);
    assert_eq!(service.pin_session().estimator().object_count(), 2);
    assert_eq!(service.len(), 2);

    service.remove(&Rect::new(15.0, 15.0, 25.0, 25.0).unwrap());
    assert_eq!(service.len(), 1);
}

#[test]
fn concurrent_browse_under_write_load() {
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let service = Arc::new(GeoBrowsingService::new(grid));
    let tiling = Tiling::new(grid.full(), 9, 6).unwrap();
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let svc = service.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    let x = ((w * 100 + i) % 350) as f64;
                    let y = ((w * 37 + i * 3) % 175) as f64;
                    svc.insert(&Rect::new(x, y, x + 2.0, y + 2.0).unwrap());
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let svc = service.clone();
            std::thread::spawn(move || {
                let mut last_total = 0;
                for _ in 0..50 {
                    let res = svc.browse(&tiling, &BrowseRequest::default());
                    let total = res.counts()[0].total();
                    // Monotone dataset growth: snapshots never go backward.
                    assert!(total >= last_total);
                    last_total = total;
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(readers) {
        h.join().unwrap();
    }
    assert_eq!(service.len(), 200);
}
