//! A live-updating, multi-attribute browsing scenario: a stream of
//! geo-tagged observations (three subject types) arrives while analysts
//! browse. Demonstrates the epoch-snapshot ingest substrate and the
//! faceted service:
//!
//! * one browse service over the LSM-style [`LiveEulerHistogram`] with
//!   two read policies. Inserts are O(perimeter) delta appends either
//!   way; readers pin an immutable view and answer from it without
//!   holding any lock, so a browse never blocks the stream;
//!   * [`DynamicGeoBrowsingService`] (pin-current, write-heavy): a pin
//!     takes the current frozen cube plus delta as is;
//!   * [`GeoBrowsingService`] (refreeze-on-read, read-heavy): each browse
//!     folds pending deltas into a freshly published epoch and serves
//!     the whole tiling by prefix-sum sweep;
//! * [`FacetedService`] — one histogram per subject type, browsing any
//!   filter subset exactly (counts are additive over the partition).
//!
//! ```sh
//! cargo run --release --example live_feed
//! ```

use spatial_histograms::browse::{
    render_heatmap, BrowseRequest, DynamicGeoBrowsingService, FacetedService, GeoBrowsingService,
};
use spatial_histograms::core::persist::PersistError;
use spatial_histograms::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Subject {
    Wildfire,
    Flood,
    Quake,
}

fn feed(n: usize) -> Vec<(Subject, Rect)> {
    // A deterministic synthetic event stream: wildfires cluster in one
    // corner, floods along a "river", quakes on a diagonal "fault".
    (0..n)
        .map(|i| {
            let t = i as f64;
            match i % 3 {
                0 => {
                    let x = 40.0 + (t * 7.3) % 80.0;
                    let y = 100.0 + (t * 3.1) % 60.0;
                    (
                        Subject::Wildfire,
                        Rect::new(x, y, x + 2.0, y + 2.0).unwrap(),
                    )
                }
                1 => {
                    let x = (t * 11.7) % 320.0;
                    let y = 60.0 + 20.0 * ((x / 40.0).sin());
                    (Subject::Flood, Rect::new(x, y, x + 6.0, y + 1.0).unwrap())
                }
                _ => {
                    let x = (t * 5.9) % 300.0;
                    let y = (x * 0.5) % 170.0;
                    (Subject::Quake, Rect::new(x, y, x + 0.5, y + 0.5).unwrap())
                }
            }
        })
        .collect()
}

fn main() -> Result<(), PersistError> {
    let grid = Grid::paper_default();
    let tiling = Tiling::new(grid.full(), 36, 18).unwrap();

    // 1. The pin-current service absorbs the stream with no rebuilds. A
    //    pinned snapshot is an immutable view of one write-log prefix:
    //    it keeps answering that state while ingest continues, and the
    //    stream never waits for a reader.
    let live = DynamicGeoBrowsingService::new(grid);
    let events = feed(30_000);
    let (tonight, overnight) = events.split_at(events.len() / 2);
    for (_, rect) in tonight {
        live.insert(rect);
    }
    let pinned = live.pin_session();
    for (_, rect) in overnight {
        // These land while `pinned` is held — no blocking either way.
        live.insert(rect);
    }
    let world = grid.full();
    println!(
        "pinned snapshot: {} events (stream has since reached {})",
        pinned.estimator().estimate(&world).clamped().intersecting(),
        live.len()
    );
    let snapshot = live.browse(&tiling, &BrowseRequest::default());
    println!("=== all events, intersect counts ===");
    print!(
        "{}",
        render_heatmap(&snapshot, spatial_histograms::browse::Relation::Intersect)
    );

    // 2. The refreeze-on-read service publishes a new epoch per
    //    browse-after-write: pending deltas fold into the frozen prefix
    //    cube and the whole tiling is answered by sweep from that single
    //    epoch.
    let epochal = GeoBrowsingService::new(grid);
    for (_, rect) in &events {
        epochal.insert(rect);
    }
    let before = epochal.epoch();
    let result = epochal.browse(&tiling, &BrowseRequest::default());
    println!(
        "epoch {} -> {}: browse served {} tiles from one published epoch",
        before,
        epochal.epoch(),
        result.counts().len()
    );

    // 3. The faceted service answers per-subject filters exactly.
    let faceted: FacetedService<Subject> = FacetedService::new(grid);
    for (subject, rect) in &events {
        faceted.insert(*subject, rect);
    }
    for filter in [
        vec![Subject::Wildfire],
        vec![Subject::Flood, Subject::Quake],
    ] {
        let result = faceted.browse(&tiling, &filter);
        let total: i64 = result.counts().iter().map(|c| c.intersecting()).sum();
        println!(
            "filter {filter:?}: {} facet objects, {} tile-intersections",
            filter.iter().map(|f| faceted.facet_len(f)).sum::<u64>(),
            total
        );
    }

    // 4. Persist tonight's histogram and reload it tomorrow without
    //    replaying the stream.
    let snapper = Snapper::new(grid);
    let mut hist = EulerHistogram::new(grid);
    for (_, rect) in &events {
        hist.insert(&snapper.snap(rect));
    }
    let bytes = hist.to_bytes();
    let restored = EulerHistogram::from_bytes(&bytes)?;
    assert_eq!(hist, restored);
    println!(
        "persisted {} buckets into {} bytes and restored them intact",
        grid.euler_dims().0 * grid.euler_dims().1,
        bytes.len()
    );
    Ok(())
}
