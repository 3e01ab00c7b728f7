//! Integration tests for the post-reproduction extensions: the dynamic
//! Euler histogram, the faceted service, and histogram/dataset
//! persistence — exercised together across crates.

use spatial_histograms::browse::{DynamicGeoBrowsingService, FacetedService};
use spatial_histograms::core::{
    DynamicEulerHistogram, EulerApprox, EulerHistogram, EulerSource, Level2Estimator, SEulerApprox,
};
use spatial_histograms::datagen::{paper_dataset, sz_skew, SzSkewConfig};
use spatial_histograms::prelude::*;

#[test]
fn dynamic_histogram_tracks_a_churning_dataset() {
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let d = sz_skew(&SzSkewConfig {
        count: 2_000,
        ..SzSkewConfig::default()
    });
    let objects = d.snap(&grid);
    let mut dynamic = DynamicEulerHistogram::new(grid);
    let q = GridRect::new(10, 5, 20, 12, &grid).unwrap();

    // Insert in waves, removing every third object of the previous wave;
    // after each step the dynamic answers must equal a fresh static build
    // over the surviving set.
    let mut alive: Vec<SnappedRect> = Vec::new();
    for wave in objects.chunks(500) {
        for o in wave {
            dynamic.insert(o);
            alive.push(*o);
        }
        let victims: Vec<SnappedRect> = alive.iter().step_by(3).copied().collect();
        for v in &victims {
            dynamic.remove(v);
        }
        let victim_set: Vec<usize> = (0..alive.len()).step_by(3).collect();
        let mut keep = Vec::new();
        for (i, o) in alive.iter().enumerate() {
            if !victim_set.contains(&i) {
                keep.push(*o);
            }
        }
        alive = keep;
        let frozen = EulerHistogram::build(grid, &alive).freeze();
        assert_eq!(dynamic.intersect_count(&q), frozen.intersect_count(&q));
        assert_eq!(dynamic.outside_sum(&q), frozen.outside_sum(&q));
        assert_eq!(dynamic.object_count() as usize, alive.len());
    }
}

#[test]
fn generic_estimators_accept_the_dynamic_backend() {
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let d = paper_dataset("adl", 1000).unwrap();
    let objects = d.snap(&grid);
    let dynamic = DynamicEulerHistogram::build(grid, &objects);
    let frozen = EulerHistogram::build(grid, &objects).freeze();

    let s_dyn = SEulerApprox::new(dynamic.clone());
    let s_stat = SEulerApprox::new(frozen.clone());
    let e_dyn = EulerApprox::new(dynamic);
    let e_stat = EulerApprox::new(frozen);
    for qs in QuerySet::paper_sets(&grid).iter().take(3) {
        for q in qs.iter() {
            assert_eq!(s_dyn.estimate(&q), s_stat.estimate(&q), "S {q}");
            assert_eq!(e_dyn.estimate(&q), e_stat.estimate(&q), "E {q}");
        }
    }
}

#[test]
fn dynamic_service_matches_static_service_after_churn() {
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let d = paper_dataset("sp_skew", 2000).unwrap();
    let stat = GeoBrowsingService::new(grid);
    let dynamic = DynamicGeoBrowsingService::new(grid);
    for (i, r) in d.rects().iter().enumerate() {
        stat.insert(r);
        dynamic.insert(r);
        if i % 5 == 0 {
            stat.remove(r);
            dynamic.remove(r);
        }
    }
    let tiling = Tiling::new(grid.full(), 9, 6).unwrap();
    let a = stat.browse(&tiling, &BrowseRequest::default());
    let b = dynamic.browse(&tiling, &BrowseRequest::default());
    for ((c, r), _t) in tiling.iter() {
        assert_eq!(a.get(c, r), b.get(c, r), "tile ({c},{r})");
    }
}

#[test]
fn faceted_browse_is_additive_at_scale() {
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let d = paper_dataset("adl", 500).unwrap();
    let faceted: FacetedService<u8> = FacetedService::new(grid);
    let all = GeoBrowsingService::new(grid);
    for (i, r) in d.rects().iter().enumerate() {
        faceted.insert((i % 4) as u8, r);
        all.insert(r);
    }
    let tiling = Tiling::new(grid.full(), 6, 6).unwrap();
    let combined = faceted.browse(&tiling, &[0, 1, 2, 3]);
    let direct = all.browse(&tiling, &BrowseRequest::default());
    for ((c, r), _t) in tiling.iter() {
        assert_eq!(combined.get(c, r), direct.get(c, r), "tile ({c},{r})");
    }
    // A strict subset browses fewer objects.
    let subset = faceted.browse(&tiling, &[0]);
    let sub_total: i64 = subset.counts()[0].total();
    assert!(sub_total < direct.counts()[0].total());
    assert_eq!(sub_total as u64, faceted.facet_len(&0));
}

#[test]
fn persisted_histogram_serves_identical_browses() {
    let grid = Grid::paper_default();
    let d = paper_dataset("sz_skew", 500).unwrap();
    let objects = d.snap(&grid);
    let hist = EulerHistogram::build(grid, &objects);
    let bytes = hist.to_bytes();

    // "Tomorrow": restore without the dataset.
    let restored = EulerHistogram::from_bytes(bytes).unwrap();
    let est_a = SEulerApprox::new(hist.freeze());
    let est_b = SEulerApprox::new(restored.freeze());
    for qs in QuerySet::paper_sets(&grid).iter().take(2) {
        for q in qs.iter() {
            assert_eq!(est_a.estimate(&q), est_b.estimate(&q), "{q}");
        }
    }
}

#[test]
fn csv_round_trip_preserves_browse_results() {
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let d = paper_dataset("ca_road", 2000).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("euler-int-csv-{}.csv", std::process::id()));
    d.save_csv(&path).unwrap();
    let loaded =
        spatial_histograms::datagen::Dataset::load_csv(&path, "roads", *d.space()).unwrap();
    std::fs::remove_file(&path).ok();

    let a = GeoBrowsingService::with_objects(grid, d.rects());
    let b = GeoBrowsingService::with_objects(grid, loaded.rects());
    let tiling = Tiling::new(grid.full(), 12, 6).unwrap();
    let ra = a.browse(&tiling, &BrowseRequest::default());
    let rb = b.browse(&tiling, &BrowseRequest::default());
    for ((c, r), _t) in tiling.iter() {
        assert_eq!(ra.get(c, r), rb.get(c, r));
    }
}
