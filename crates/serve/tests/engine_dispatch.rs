//! How a cache-missing browse reaches the engine through `ServeCore`:
//! under the default deadline it is answered by the tiling sweep, for
//! both read policies, live delta included.

use std::sync::Arc;

use euler_browse::{BrowseSession, DynamicGeoBrowsingService, GeoBrowsingService};
use euler_core::{Level2Estimator, LiveEulerHistogram};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, SnappedRect, Snapper, Tiling};
use euler_serve::{BrowseReply, Request, Response, ServeConfig, ServeCore};

fn grid() -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()),
        32,
        128,
    )
    .unwrap()
}

/// `n` deterministic small rectangles scattered over the data space.
fn rects(n: usize, salt: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let k = i * 7 + salt * 13;
            let x = (k * 37 % 59) as f64 + 0.3;
            let y = (k * 53 % 61) as f64 + 0.2;
            Rect::new(x, y, x + 1.0 + (k % 4) as f64, y + 0.5 + (k % 3) as f64).unwrap()
        })
        .collect()
}

fn browse(cols: usize, rows: usize) -> Request {
    Request::parse(&format!(
        r#"{{"tenant":"t","op":"browse","cols":{cols},"rows":{rows}}}"#
    ))
    .unwrap()
}

fn reply(resp: Response) -> BrowseReply {
    match resp {
        Response::Browse(r) => r,
        other => panic!("expected a browse reply, got {other:?}"),
    }
}

/// Both read policies: refreeze-on-read over a bulk load plus writes,
/// and pin-current carrying a live delta of 300 unfolded ops.
fn sessions() -> Vec<Arc<dyn BrowseSession>> {
    let grid = grid();
    let snapper = Snapper::new(grid);
    let preload: Vec<SnappedRect> = rects(400, 0).iter().map(|r| snapper.snap(r)).collect();

    let refreeze = GeoBrowsingService::with_objects(grid, rects(400, 0));
    for r in rects(50, 1) {
        refreeze.insert(&r);
    }

    let live = Arc::new(LiveEulerHistogram::with_objects(grid, &preload));
    let dynamic = DynamicGeoBrowsingService::from_live(live.clone());
    for r in rects(300, 2) {
        dynamic.insert(&r);
    }
    assert_eq!(live.pin().delta_len(), 300, "the writes stay in the delta");

    vec![Arc::new(refreeze), Arc::new(dynamic)]
}

#[test]
fn a_cache_miss_under_the_default_deadline_takes_the_sweep() {
    for session in sessions() {
        let name = session.session_name();
        let core = ServeCore::new(session.clone(), ServeConfig::default());
        let (cols, rows) = (8, 5);
        let before = session.telemetry();

        let reply = reply(core.handle(&browse(cols, rows)));
        assert!(!reply.cache_hit, "{name}");
        assert!(reply.result.is_complete(), "{name}");

        let after = session.telemetry();
        assert_eq!(after.sweep_hits, before.sweep_hits + 1, "{name}");
        assert_eq!(after.degraded_sweeps, 0, "{name}");

        let pinned = session.pin_session();
        assert_eq!(pinned.version(), reply.version, "{name}");
        let tiling = Tiling::new(session.grid().full(), cols, rows).unwrap();
        for ((_, tile), got) in tiling.iter().zip(reply.result.counts()) {
            let want = pinned.estimator().estimate(&tile).clamped();
            assert_eq!(*got, want, "{name}: tile {tile}");
        }
    }
}
