//! How a cache-missing browse reaches the engine through `ServeCore`:
//! under the default deadline it is answered by the tiling sweep (for
//! both read policies, live delta included), and a client's `threads`
//! never buys more engine workers than the machine has cores.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use euler_browse::{BrowseSession, DynamicGeoBrowsingService, GeoBrowsingService, PinnedSession};
use euler_core::{Level2Estimator, LiveEulerHistogram, RelationCounts};
use euler_engine::SharedEstimator;
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, GridRect, SnappedRect, Snapper, Tiling};
use euler_metrics::{Recorder, TelemetrySnapshot};
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

fn browse(cols: usize, rows: usize, threads: Option<usize>) -> Request {
    let threads = threads.map_or(String::new(), |t| format!(r#","threads":{t}"#));
    Request::parse(&format!(
        r#"{{"tenant":"t","op":"browse","cols":{cols},"rows":{rows}{threads}}}"#
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

        let reply = reply(core.handle(&browse(cols, rows, None)));
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

/// Forwards to the inner estimator, noting every thread that runs an
/// estimate or a sweep.
struct ThreadSpy {
    inner: SharedEstimator,
    seen: Arc<Mutex<HashSet<ThreadId>>>,
}

impl ThreadSpy {
    fn note(&self) {
        self.seen
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
    }
}

impl Level2Estimator for ThreadSpy {
    fn name(&self) -> &'static str {
        "thread-spy"
    }
    fn estimate(&self, q: &GridRect) -> RelationCounts {
        self.note();
        self.inner.estimate(q)
    }
    fn estimate_tiling_total(&self, t: &Tiling) -> (Vec<RelationCounts>, RelationCounts) {
        self.note();
        self.inner.estimate_tiling_total(t)
    }
    fn supports_sweep(&self) -> bool {
        self.inner.supports_sweep()
    }
    fn object_count(&self) -> u64 {
        self.inner.object_count()
    }
    fn storage_cells(&self) -> u64 {
        self.inner.storage_cells()
    }
}

/// A session whose pinned estimators are [`ThreadSpy`]s.
struct SpySession {
    inner: DynamicGeoBrowsingService,
    seen: Arc<Mutex<HashSet<ThreadId>>>,
}

impl BrowseSession for SpySession {
    fn session_name(&self) -> &'static str {
        "spy-dynamic"
    }
    fn grid(&self) -> &Grid {
        BrowseSession::grid(&self.inner)
    }
    fn len(&self) -> u64 {
        BrowseSession::len(&self.inner)
    }
    fn epoch(&self) -> u64 {
        BrowseSession::epoch(&self.inner)
    }
    fn version(&self) -> u64 {
        BrowseSession::version(&self.inner)
    }
    fn insert(&self, rect: &Rect) {
        BrowseSession::insert(&self.inner, rect)
    }
    fn remove(&self, rect: &Rect) {
        BrowseSession::remove(&self.inner, rect)
    }
    fn recorder(&self) -> &Arc<Recorder> {
        BrowseSession::recorder(&self.inner)
    }
    fn telemetry(&self) -> TelemetrySnapshot {
        BrowseSession::telemetry(&self.inner)
    }
    fn pin_session(&self) -> PinnedSession {
        let pinned = self.inner.pin_session();
        PinnedSession::new(
            Arc::new(ThreadSpy {
                inner: pinned.estimator().clone(),
                seen: self.seen.clone(),
            }),
            pinned.epoch(),
            pinned.version(),
        )
    }
}

#[test]
fn a_huge_threads_request_is_capped_at_the_core_count() {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let session = Arc::new(SpySession {
        inner: DynamicGeoBrowsingService::with_objects(grid(), rects(400, 0)),
        seen: seen.clone(),
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows = session.grid().ny();

    let greedy = ServeCore::new(session.clone(), ServeConfig::default());
    let wide = reply(greedy.handle(&browse(1, rows, Some(1_000_000))));
    let threads_seen = seen.lock().unwrap().len();
    assert!(
        threads_seen <= cores,
        "{threads_seen} engine threads on {cores} core(s)"
    );

    // A second `ServeCore` has its own cache: this is a fresh engine run.
    let modest = ServeCore::new(session, ServeConfig::default());
    let narrow = reply(modest.handle(&browse(1, rows, Some(1))));
    assert!(!wide.cache_hit && !narrow.cache_hit);
    assert!(wide.result.is_complete());
    assert_eq!(wide.result.counts(), narrow.result.counts());
}
